/**
 * @file
 * psb-perfbench: runs one named benchmark workload for a fixed host
 * time and prints its metrics, ending with one JSON line.
 *
 *   psb-perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 [--root DIR]
 *
 * --trace 0 reports the end-to-end metrics (tracing off); --trace 1
 * reports the per-layer metrics of a traced run. The job list of a
 * workload is one round; rounds repeat while the next one still fits
 * in --seconds (at least one always runs). Every job's outputs are
 * checked; any failure makes "correct" false and the exit code 1.
 * See perfbench/README.md for what each metric means.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench.hh"
#include "sim/bench_harness.hh"
#include "sim/sweep.hh"

namespace perfbench
{
namespace
{

/** Raw spans are kept for this many measured cycles of one job. */
constexpr uint64_t kRawWindowCycles = 2000;

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string root = ".";
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "psb-perfbench: %s\nusage: psb-perfbench --workload "
                 "NAME --seed N --seconds S --trace 0|1 [--root DIR]\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            o.workload = value;
        } else if (flag == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
            if (!(o.seconds > 0))
                usage("--seconds must be positive");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            o.trace = value == "1";
        } else if (flag == "--root") {
            o.root = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end != nullptr && *end != '\0')
            usage(("bad number for " + flag).c_str());
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

/** Linear-interpolated percentile (0..100) of @p v; 0 when empty. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = p / 100.0 * double(v.size() - 1);
    size_t lo = size_t(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

/** One SweepEngine batch over the workload's job list. */
struct Batch
{
    std::vector<UntracedRun> runs;  ///< by job index, untraced batches
    std::vector<TracedRun> traced;  ///< by job index, traced batches
    int64_t startNs = 0;
    int64_t endNs = 0;
    double mergeMs = 0;
    std::vector<std::string> errors;
};

/**
 * Run every job of @p plan once through SweepEngine. Without
 * @p reference the jobs run untraced (Simulator::run); with it they
 * run traced and fail unless their stats document is byte-identical
 * to the reference batch's; job @p windowJob also keeps its raw spans.
 * @p keepJson keeps each untraced job's document for use as such a
 * reference. The merged document must hold every job, all "ok".
 */
Batch
runBatch(const WorkloadPlan &plan, const Batch *reference,
         size_t windowJob, bool keepJson)
{
    Batch b;
    if (reference)
        b.traced.resize(plan.jobs.size());
    else
        b.runs.resize(plan.jobs.size());
    std::vector<psb::SweepJob> jobs;
    for (size_t i = 0; i < plan.jobs.size(); ++i) {
        // Each job writes only its own slots; the caller reads them
        // after SweepEngine::run has joined its workers.
        auto run = [&plan, &b, reference, windowJob, keepJson,
                    i](const psb::JobContext &) {
            const JobSpec &job = plan.jobs[i];
            psb::JobOutcome out;
            if (reference) {
                TracedRun &t = b.traced[i];
                t = runTraced(job, i == windowJob ? kRawWindowCycles : 0);
                if (t.statsJson != reference->runs[i].statsJson)
                    out.error = "traced stats differ from Simulator::run";
                out.payload = std::move(t.statsJson);
            } else {
                UntracedRun &u = b.runs[i];
                u = runUntraced(job);
                out.error = u.error;
                out.payload = keepJson ? u.statsJson : std::move(u.statsJson);
            }
            out.ok = out.error.empty();
            return out;
        };
        jobs.push_back({plan.jobs[i].key, run});
    }
    psb::SweepOptions opts;
    opts.jobs = plan.workers;
    b.startNs = nowNs();
    std::vector<psb::JobResult> results = psb::SweepEngine(opts).run(jobs);
    int64_t mergeStart = nowNs();
    std::string merged = psb::SweepEngine::mergeStatsJson(results);
    b.endNs = nowNs();
    b.mergeMs = double(b.endNs - mergeStart) * 1e-6;
    for (const psb::JobResult &r : results) {
        if (r.status != psb::JobStatus::Ok)
            b.errors.push_back(r.key + ": " + r.error);
    }
    // The merged document must list every job, all "ok". Counted
    // rather than parsed, so that the check adds nothing to peak RSS.
    size_t mergedOk = 0;
    for (size_t at = merged.find("\"status\": \"ok\"");
         at != std::string::npos;
         at = merged.find("\"status\": \"ok\"", at + 1))
        ++mergedOk;
    if (mergedOk != results.size() && b.errors.empty())
        b.errors.push_back("merged stats document lacks ok jobs");
    return b;
}

/**
 * Run rounds of @p plan until the next one would overrun @p seconds;
 * at least one round runs. @p round runs one round and returns it.
 */
template <typename Round>
auto
runRounds(double seconds, Round round)
{
    std::vector<decltype(round())> out;
    int64_t start = nowNs();
    for (;;) {
        out.push_back(round());
        double elapsed = double(nowNs() - start) * 1e-9;
        if (elapsed + elapsed / double(out.size()) > seconds)
            break;
    }
    return out;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/**
 * Peak resident memory of this process: VmHWM, not ru_maxrss, which
 * execve inherits from the launching process.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    }
    return 0.0;
}

/**
 * The end-to-end metrics. Host speed on a shared machine drifts by
 * tens of percent over seconds to minutes, so every job is timed at
 * its median over the rounds of a run and the metrics are taken over
 * those per-job medians. Set-up time is the median of the per-round
 * sums.
 */
std::vector<Metric>
endToEndMetrics(const std::vector<Batch> &rounds)
{
    size_t nJobs = rounds.front().runs.size();
    std::vector<std::vector<double>> runS(nJobs), jobMs(nJobs);
    std::vector<double> setupPerRound;
    for (const Batch &b : rounds) {
        double setup = 0, roundInsts = 0, roundRunS = 0;
        for (size_t i = 0; i < nJobs; ++i) {
            const JobTiming &t = b.runs[i].timing;
            runS[i].push_back(t.runS());
            jobMs[i].push_back(t.jobMs());
            setup += t.setupS();
            roundInsts += double(t.instructions);
            roundRunS += t.runS();
        }
        std::printf("  round %zu: %.1f kinst/s\n", setupPerRound.size() + 1,
                    roundInsts / roundRunS * 1e-3);
        setupPerRound.push_back(setup);
    }
    double insts = 0, cycles = 0, medianRunS = 0;
    std::vector<double> medianJobMs;
    for (size_t i = 0; i < nJobs; ++i) {
        insts += double(rounds.front().runs[i].timing.instructions);
        cycles += double(rounds.front().runs[i].timing.cycles);
        medianRunS += median(runS[i]);
        medianJobMs.push_back(median(jobMs[i]));
    }
    return {
        {"host_kips", insts / medianRunS * 1e-3, "kinst/s"},
        {"host_mcps", cycles / medianRunS * 1e-6, "Mcycle/s"},
        {"job_ms_p50", percentile(medianJobMs, 50), "ms"},
        {"job_ms_p90", percentile(medianJobMs, 90), "ms"},
        {"setup_s", median(setupPerRound), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

/** Sum of one stat over the jobs of every round. */
double
sumStat(const std::vector<Batch> &rounds, const std::string &path)
{
    double s = 0;
    for (const Batch &b : rounds) {
        for (const TracedRun &t : b.traced) {
            auto it = t.stats.find(path);
            if (it != t.stats.end())
                s += it->second;
        }
    }
    return s;
}

double
ratioOf(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

double
kernelNsPerIter(const std::string &name)
{
    psb::BenchHarnessOptions o;
    o.filter = name;
    o.skipSims = true;
    psb::BenchHarness h(o);
    psb::registerDefaultKernels(h);
    for (const psb::BenchKernelResult &k : h.runKernels()) {
        if (k.name == name)
            return k.wallNsPerIter;
    }
    return 0.0;
}

std::vector<Metric>
perLayerMetrics(const std::vector<Batch> &plain,
                const std::vector<Batch> &traced, const SpanCost &cost,
                unsigned workers)
{
    double nRounds = double(traced.size());
    std::array<SpanTotals, numSpans> tot{};
    double stepped = 0, skipped = 0, ffCalls = 0, ffRefusals = 0;
    double tracedNs = 0, untracedNs = 0;
    for (const Batch &b : traced) {
        for (size_t i = 0; i < b.traced.size(); ++i) {
            const TracedRun &t = b.traced[i];
            for (size_t s = 0; s < numSpans; ++s)
                tot[s].add(t.spans[s]);
            stepped += double(t.steppedCycles);
            skipped += double(t.skippedCycles);
            ffCalls += double(t.ffCalls);
            ffRefusals += double(t.ffRefusals);
            tracedNs += double(t.wallNs);
        }
    }
    for (const Batch &b : plain) {
        for (const UntracedRun &u : b.runs)
            untracedNs += double(u.timing.endNs - u.timing.startNs);
    }
    // Calibrated times, per round, in ms: every span inflates its own
    // duration by innerNs and its parent's self time by outerNs.
    double pairNs = cost.innerNs + cost.outerNs;
    auto selfMs = [&](Span s) {
        const SpanTotals &t = tot[size_t(s)];
        double ns = double(t.totalNs - t.childNs) -
                    double(t.count) * cost.innerNs -
                    double(t.childCount) * cost.outerNs;
        return std::max(0.0, ns) * 1e-6 / nRounds;
    };
    auto totalMs = [&](Span s) {
        const SpanTotals &t = tot[size_t(s)];
        double ns = double(t.totalNs) - double(t.count) * cost.innerNs -
                    double(t.descendants) * pairNs;
        return std::max(0.0, ns) * 1e-6 / nRounds;
    };
    auto calls = [&](Span s) { return double(tot[size_t(s)].count) / nRounds; };
    auto sumSelfMs = [&](std::initializer_list<Span> spans) {
        double ms = 0;
        for (Span s : spans)
            ms += selfMs(s);
        return ms;
    };
    auto stat = [&](const std::string &p) { return sumStat(traced, p); };

    std::vector<double> queueWaitMs;
    double busyMs = 0, poolMs = 0, mergeMs = 0;
    for (const Batch &b : plain) {
        for (const UntracedRun &u : b.runs) {
            queueWaitMs.push_back(double(u.timing.startNs - b.startNs) * 1e-6);
            busyMs += u.timing.jobMs();
        }
        poolMs += double(b.endNs - b.startNs) * 1e-6;
        mergeMs += b.mergeMs;
    }

    double loads = stat("core.loads");
    double used = stat("prefetch.attrib.outcome.used_timely") +
                  stat("prefetch.attrib.outcome.used_late");
    double traceSelf = selfMs(Span::TraceNext);
    double cpuSelf = selfMs(Span::CpuTick);
    double perRound = 1.0 / nRounds;
    return {
        {"workloads.build_ms", totalMs(Span::WorkloadBuild), "ms"},
        {"trace.next_calls", calls(Span::TraceNext), "count"},
        {"trace.self_ms", traceSelf, "ms"},
        {"trace.ns_per_op",
         ratioOf(traceSelf * 1e6, calls(Span::TraceNext)), "ns"},
        {"cpu.ticks", calls(Span::CpuTick), "count"},
        {"cpu.self_ms", cpuSelf, "ms"},
        {"cpu.ns_per_tick", ratioOf(cpuSelf * 1e6, calls(Span::CpuTick)),
         "ns"},
        {"cpu.mshr_retries_per_load",
         ratioOf(stat("core.mshr_stall_retries"), loads), "ratio"},
        {"cpu.ff_skipped_share", ratioOf(skipped, skipped + stepped),
         "ratio"},
        {"cpu.sim_cycles", stat("core.cycles") * perRound, "count"},
        {"cpu.ipc", ratioOf(stat("core.instructions"), stat("core.cycles")),
         "ratio"},
        {"memory.l1d_miss_rate",
         ratioOf(stat("l1d.misses"), stat("l1d.accesses")), "ratio"},
        {"memory.l2_miss_rate",
         ratioOf(stat("l2.misses"), stat("l2.accesses")), "ratio"},
        {"memory.mshr_allocs", stat("mshr.data.allocations") * perRound,
         "count"},
        {"memory.bus_l1l2_util",
         ratioOf(stat("bus.l1_l2.busy_cycles"), stat("core.cycles")),
         "ratio"},
        {"memory.tlb_misses", stat("tlb.data.misses") * perRound, "count"},
        {"memory.cache_lookup_ns", kernelNsPerIter("cache_lookup"), "ns"},
        {"memory.tlb_lookup_ns", kernelNsPerIter("tlb_lookup"), "ns"},
        {"memory.mshr_search_ns", kernelNsPerIter("mshr_search"), "ns"},
        {"prefetch.lookup_calls", calls(Span::PrefetchLookup), "count"},
        {"prefetch.train_calls", calls(Span::PrefetchTrain), "count"},
        {"prefetch.tick_calls", calls(Span::PrefetchTick), "count"},
        {"prefetch.self_ms",
         sumSelfMs({Span::PrefetchLookup, Span::PrefetchTrain,
                    Span::PrefetchDemandMiss, Span::PrefetchTick,
                    Span::PrefetchFastForward, Span::PrefetchEndOfSim}),
         "ms"},
        {"prefetch.ff_veto_share", ratioOf(ffRefusals, ffCalls), "ratio"},
        {"prefetch.issued", stat("prefetch.attrib.issued") * perRound,
         "count"},
        {"prefetch.accuracy", ratioOf(used, stat("prefetch.attrib.issued")),
         "ratio"},
        {"prefetch.timeliness",
         ratioOf(stat("prefetch.attrib.outcome.used_timely"), used), "ratio"},
        {"predictors.train_calls", calls(Span::PredictorTrain), "count"},
        {"predictors.predict_calls", calls(Span::PredictorPredict), "count"},
        {"predictors.self_ms",
         sumSelfMs({Span::PredictorTrain, Span::PredictorPredict,
                    Span::PredictorAllocate, Span::PredictorConfidence,
                    Span::PredictorFilter}),
         "ms"},
        {"predictors.coverage",
         ratioOf(stat("sfm_predictor.correct_predictions"),
                 stat("sfm_predictor.train_events")),
         "ratio"},
        {"sim.construct_ms", totalMs(Span::SimConstruct), "ms"},
        {"sim.warmup_ms", totalMs(Span::SimWarmup), "ms"},
        {"sim.measured_ms", totalMs(Span::SimMeasured), "ms"},
        {"sim.stats_export_ms", totalMs(Span::SimStatsExport), "ms"},
        {"sim.queue_wait_ms_p50", percentile(queueWaitMs, 50), "ms"},
        {"sim.queue_wait_ms_p90", percentile(queueWaitMs, 90), "ms"},
        {"sim.worker_busy_share", ratioOf(busyMs, poolMs * workers),
         "ratio"},
        {"sim.merge_ms", mergeMs / double(plain.size()), "ms"},
        {"trace_overhead", ratioOf(tracedNs, untracedNs), "ratio"},
    };
}

/** MSHR retries per load, per registry workload: how the cells split. */
void
printRetryTable(const std::vector<Batch> &traced, const WorkloadPlan &plan)
{
    std::map<std::string, std::pair<double, double>> byWorkload;
    for (const Batch &b : traced) {
        for (size_t i = 0; i < b.traced.size(); ++i) {
            const StatsMap &s = b.traced[i].stats;
            auto get = [&](const char *p) {
                auto it = s.find(p);
                return it == s.end() ? 0.0 : it->second;
            };
            auto &acc = byWorkload[plan.jobs[i].workload];
            acc.first += get("core.mshr_stall_retries");
            acc.second += get("core.loads");
        }
    }
    std::printf("  cpu.mshr_retries_per_load by workload:\n");
    for (const auto &[w, acc] : byWorkload) {
        std::printf("    %-10s %10.3f  (%.0f retries / %.0f loads)\n",
                    w.c_str(), ratioOf(acc.first, acc.second), acc.first,
                    acc.second);
    }
}

int
run(const Options &opt)
{
    unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    WorkloadPlan plan;
    if (!makePlan(opt.workload, opt.seed, opt.root, nproc, plan))
        usage(("unknown workload " + opt.workload).c_str());

    std::vector<Metric> metrics;
    std::vector<Batch> plain, traced;
    if (!opt.trace) {
        plain = runRounds(opt.seconds, [&] {
            return runBatch(plan, nullptr, plan.jobs.size(), false);
        });
        metrics = endToEndMetrics(plain);
    } else {
        SpanCost cost = calibrateSpanCost();
        // The Chrome-trace window shows the first PSB job, if any, so
        // that predictor spans appear in it.
        auto firstPsb = std::find_if(
            plan.jobs.begin(), plan.jobs.end(), [](const JobSpec &j) {
                return j.cfg.prefetcher == psb::PrefetcherKind::Psb;
            });
        size_t windowJob = firstPsb == plan.jobs.end()
                               ? 0
                               : size_t(firstPsb - plan.jobs.begin());
        size_t none = plan.jobs.size();
        size_t roundNo = 0;
        std::vector<std::pair<Batch, Batch>> rounds =
            runRounds(opt.seconds, [&] {
                Batch p = runBatch(plan, nullptr, none, true);
                Batch t = runBatch(plan, &p, roundNo++ == 0 ? windowJob : none,
                                   false);
                return std::make_pair(std::move(p), std::move(t));
            });
        for (auto &[p, t] : rounds) {
            plain.push_back(std::move(p));
            traced.push_back(std::move(t));
        }
        metrics = perLayerMetrics(plain, traced, cost, plan.workers);
        std::printf("  span cost: %.1f ns inside, %.1f ns outside the "
                    "recorded interval\n",
                    cost.innerNs, cost.outerNs);
        printRetryTable(traced, plan);
        std::filesystem::path dir =
            std::filesystem::path(opt.root) / ".bench_out";
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        std::string path = (dir / (opt.workload + ".trace.json")).string();
        if (!writeChromeTrace(path, traced.front().traced[windowJob].raw))
            std::fprintf(stderr, "psb-perfbench: cannot write %s\n",
                         path.c_str());
    }

    size_t attempted = 0;
    std::vector<std::string> errors;
    for (const std::vector<Batch> *set : {&plain, &traced}) {
        for (const Batch &b : *set) {
            attempted += b.runs.size() + b.traced.size();
            errors.insert(errors.end(), b.errors.begin(), b.errors.end());
        }
    }
    size_t failed = errors.size();
    for (const std::string &e : errors)
        std::fprintf(stderr, "psb-perfbench: FAILED %s\n", e.c_str());
    if (!opt.trace) {
        metrics.push_back({"pass_rate",
                           double(attempted - failed) / double(attempted),
                           "ratio"});
    }

    size_t perRound = plan.jobs.size();
    std::printf("perfbench %s seed=%llu trace=%d workers=%u rounds=%zu "
                "jobs=%zu (%zu per round) failed=%zu\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), int(opt.trace),
                plan.workers, (opt.trace ? traced : plain).size(), attempted,
                perRound, failed);
    for (const Metric &m : metrics)
        std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    bool correct = failed == 0;
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted) +
            ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
        json += (i ? ", \"" : "\"") + metrics[i].name +
                "\": {\"value\": " + buf + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::run(perfbench::parseArgs(argc, argv));
}
