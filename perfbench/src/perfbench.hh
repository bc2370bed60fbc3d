/**
 * @file
 * Shared declarations of the repository benchmark (perfbench): the
 * job lists behind each named workload, the untraced job runner with
 * its correctness checks, and the span tracer that gives the
 * per-layer split. See perfbench/README.md for the metric map.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <array>
#include <chrono> // psb-analyze: allow(R3)
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "util/stats.hh"
#include "workloads/fuzz_workload.hh"
#include "workloads/workload.hh"

namespace perfbench
{

/** Host monotonic clock in nanoseconds; the benchmark's only clock. */
inline int64_t
nowNs()
{
    using clock = std::chrono::steady_clock; // psb-analyze: allow(R3)
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               clock::now().time_since_epoch())
        .count();
}

/** One simulation the benchmark runs: a workload cell and its checks. */
struct JobSpec
{
    std::string key;      ///< unique within a workload's job list
    std::string workload; ///< registry name (psb::allWorkloadNames())
    uint64_t seed = 1;
    /** Set for fuzz scenarios built with an explicit footprint. */
    std::optional<psb::FuzzSpec> fuzz;
    psb::SimConfig cfg;
    /** Checked-in golden stats document to match byte for byte. */
    std::string goldenPath;
};

/** A named benchmark workload: its job list and worker count. */
struct WorkloadPlan
{
    std::string name;
    std::vector<JobSpec> jobs;
    unsigned workers = 1;
};

/**
 * Build the job list of workload @p name for benchmark seed @p seed.
 * @p root is the repository checkout (for tests/golden/).
 * @retval false for an unknown workload name.
 */
bool makePlan(const std::string &name, uint64_t seed,
              const std::string &root, unsigned nproc,
              WorkloadPlan &out);

/** Make the job's instruction stream (makeWorkload or a FuzzSpec). */
std::unique_ptr<psb::Workload> makeJobWorkload(const JobSpec &job);

/** Host timings and simulated totals of one untraced job. */
struct JobTiming
{
    int64_t startNs = 0;    ///< job start (construction begins)
    int64_t runStartNs = 0; ///< Simulator::run() called
    int64_t runEndNs = 0;   ///< Simulator::run() returned
    int64_t endNs = 0;      ///< stats exported
    uint64_t instructions = 0; ///< warm-up + measured
    uint64_t cycles = 0;       ///< measured region
    double setupS() const { return double(runStartNs - startNs) * 1e-9; }
    double runS() const { return double(runEndNs - runStartNs) * 1e-9; }
    double jobMs() const { return double(endNs - startNs) * 1e-6; }
};

/** Flat stats snapshot (registry path -> value as double). */
using StatsMap = std::map<std::string, double>;

StatsMap snapshotStats(const psb::StatsRegistry &reg);

/**
 * The per-job correctness checks: the instruction target was
 * reached, no prefetch is still live, every issued prefetch has
 * exactly one outcome, and a golden cell matches its golden file
 * byte for byte. @return "" when the job passes, else the reason.
 */
std::string checkJob(const JobSpec &job, const StatsMap &stats,
                     const std::string &statsJson);

/** One untraced job: what a SweepEngine job returns plus timings. */
struct UntracedRun
{
    JobTiming timing;
    std::string statsJson;
    std::string error; ///< "" when the job ran and passed its checks
};

/** Run @p job through makeWorkload + Simulator::run, timed. */
UntracedRun runUntraced(const JobSpec &job);

/** Span kinds: one per call boundary the traced run times. */
enum class Span : uint8_t
{
    WorkloadBuild,
    SimConstruct,
    SimWarmup,
    SimMeasured,
    SimStatsExport,
    CpuTick,
    TraceNext,
    PrefetchLookup,
    PrefetchTrain,
    PrefetchDemandMiss,
    PrefetchTick,
    PrefetchFastForward,
    PrefetchEndOfSim,
    PredictorTrain,
    PredictorPredict,
    PredictorAllocate,
    PredictorConfidence,
    PredictorFilter,
    Count,
};

constexpr size_t numSpans = size_t(Span::Count);

const char *spanName(Span span);

/** Aggregated host time of one span kind. */
struct SpanTotals
{
    uint64_t count = 0;
    int64_t totalNs = 0;      ///< sum of span durations
    int64_t childNs = 0;      ///< of which inside direct child spans
    uint64_t childCount = 0;  ///< direct child spans
    uint64_t descendants = 0; ///< all nested spans

    void add(const SpanTotals &o);
};

/** One raw span kept for the Chrome-trace window. */
struct RawSpan
{
    Span span;
    int64_t startNs;
    int64_t endNs;
    int32_t parent; ///< index into the raw list, -1 for a root
    uint64_t cycle; ///< simulated cycle when the span began
};

/** Everything one traced job measured. */
struct TracedRun
{
    std::array<SpanTotals, numSpans> spans{};
    uint64_t steppedCycles = 0; ///< cycles driven through OoOCore::tick
    uint64_t skippedCycles = 0; ///< cycles skipped by fast-forward
    uint64_t ffCalls = 0;       ///< Prefetcher::fastForwardTicks calls
    uint64_t ffRefusals = 0;    ///< of which returned false
    int64_t wallNs = 0;
    std::string statsJson;
    StatsMap stats;
    std::vector<RawSpan> raw; ///< only when a window was requested
};

/**
 * Build the job's components from their public constructors, wrap
 * the trace source, prefetcher and predictor in timing decorators,
 * and drive the same sequence as Simulator::run. When
 * @p rawWindowCycles > 0, raw spans are kept for that many cycles
 * from the start of the measured region.
 */
TracedRun runTraced(const JobSpec &job, uint64_t rawWindowCycles);

/** Cost of an empty span, measured at start-up. */
struct SpanCost
{
    double innerNs = 0; ///< recorded duration of an empty span
    double outerNs = 0; ///< rest of one begin/end pair's wall cost
};

SpanCost calibrateSpanCost();

/** Write the raw spans as a Chrome-trace JSON document. */
bool writeChromeTrace(const std::string &path,
                      const std::vector<RawSpan> &raw);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
