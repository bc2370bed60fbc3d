/**
 * @file
 * The benchmark's workloads (job lists) and the untraced job runner.
 *
 * Every job is short (kWarmup + kInsts instructions) so that each
 * workload's list holds well over 100 jobs and at least ten of them
 * lie beyond the reported p90, without any single cell dominating.
 */

#include <fstream>
#include <sstream>

#include "perfbench.hh"
#include "sim/simulator.hh"

namespace perfbench
{

namespace
{

constexpr uint64_t kWarmup = 10'000;
constexpr uint64_t kInsts = 20'000;

/** The golden corpus region (tests/golden/check_golden.sh). */
constexpr uint64_t kGoldenWarmup = 20'000;
constexpr uint64_t kGoldenInsts = 60'000;
constexpr uint64_t kGoldenSeed = 1;

/** Seeds per pointer-psb cell and per base-mix workload. */
constexpr unsigned kPsbSeeds = 4;
constexpr unsigned kBaseSeeds = 12;
/** Seeds per server workload and fuzz scenarios per server-sweep. */
constexpr unsigned kServerSeeds = 2;
constexpr unsigned kFuzzScenarios = 10;
/** Fuzz footprints, cycled over the scenarios: 64 KB .. 64 MB. */
constexpr uint32_t kFuzzFootprintsKb[] = {64, 256, 1024, 4096, 16384,
                                          65536};

const std::vector<std::string> kServerNames = {"graph", "hashjoin",
                                               "logscan"};

/** Independent stream of workload seeds from the benchmark seed. */
uint64_t
deriveSeed(uint64_t seed, uint64_t stream, uint64_t index)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream * 1024 + index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

psb::SimConfig
sized(psb::SimConfig cfg, uint64_t warmup, uint64_t insts)
{
    cfg.warmupInstructions = warmup;
    cfg.maxInstructions = insts;
    return cfg;
}

psb::SimConfig
backendConfig(psb::PrefetcherKind kind)
{
    // The PSB backend runs the paper's best configuration; the other
    // kinds have no allocation or scheduling policy to choose.
    if (kind == psb::PrefetcherKind::Psb)
        return psb::makePaperConfig(psb::PaperConfig::ConfAllocPriority);
    psb::SimConfig cfg;
    cfg.prefetcher = kind;
    cfg.harmonize();
    return cfg;
}

constexpr psb::PrefetcherKind kAllKinds[] = {
    psb::PrefetcherKind::None,       psb::PrefetcherKind::PcStride,
    psb::PrefetcherKind::Psb,        psb::PrefetcherKind::Sequential,
    psb::PrefetcherKind::NextLine,   psb::PrefetcherKind::MarkovDemand,
    psb::PrefetcherKind::MinDelta,
};

void
addPointerPsb(uint64_t seed, const std::string &root,
              std::vector<JobSpec> &jobs)
{
    for (unsigned i = 0; i < kPsbSeeds; ++i) {
        for (const std::string &w : psb::workloadNames()) {
            for (psb::PaperConfig pc : psb::paperConfigs) {
                if (pc == psb::PaperConfig::Base)
                    continue;
                JobSpec job;
                job.workload = w;
                job.seed = deriveSeed(seed, 0, i);
                job.cfg = sized(psb::makePaperConfig(pc), kWarmup, kInsts);
                job.key = w + "/" + psb::paperConfigName(pc) + "/" +
                          std::to_string(i);
                jobs.push_back(std::move(job));
            }
        }
    }
    // The golden cells are fixed inputs, not seeded: they check that
    // the simulator still produces the checked-in documents.
    for (const std::string &w : psb::workloadNames()) {
        JobSpec job;
        job.workload = w;
        job.seed = kGoldenSeed;
        job.cfg = sized(psb::makePaperConfig(
                            psb::PaperConfig::ConfAllocPriority),
                        kGoldenWarmup, kGoldenInsts);
        job.key = "golden/" + w;
        job.goldenPath = root + "/tests/golden/" + w + ".json";
        jobs.push_back(std::move(job));
    }
}

void
addBaseMix(uint64_t seed, std::vector<JobSpec> &jobs)
{
    std::vector<std::string> names = psb::workloadNames();
    names.insert(names.end(), kServerNames.begin(), kServerNames.end());
    for (unsigned i = 0; i < kBaseSeeds; ++i) {
        for (const std::string &w : names) {
            JobSpec job;
            job.workload = w;
            job.seed = deriveSeed(seed, 1, i);
            job.cfg = sized(psb::makePaperConfig(psb::PaperConfig::Base),
                            kWarmup, kInsts);
            job.key = w + "/Base/" + std::to_string(i);
            jobs.push_back(std::move(job));
        }
    }
}

void
addServerSweep(uint64_t seed, std::vector<JobSpec> &jobs)
{
    struct Scenario
    {
        std::string workload;
        uint64_t seed;
        std::optional<psb::FuzzSpec> fuzz;
        std::string tag;
    };
    std::vector<Scenario> scenarios;
    for (const std::string &w : kServerNames) {
        for (unsigned i = 0; i < kServerSeeds; ++i) {
            scenarios.push_back(
                {w, deriveSeed(seed, 2, i), std::nullopt, std::to_string(i)});
        }
    }
    constexpr size_t nFootprints = std::size(kFuzzFootprintsKb);
    for (unsigned i = 0; i < kFuzzScenarios; ++i) {
        // Each scenario's shape (phase mix and length) is fixed by its
        // index; the benchmark seed drives its access stream. So a
        // seed changes the inputs but not how much work a scenario is.
        psb::FuzzSpec spec = psb::FuzzSpec::fromSeed(i + 1);
        spec.seed = deriveSeed(seed, 3, i);
        spec.footprintKb = kFuzzFootprintsKb[i % nFootprints];
        scenarios.push_back({"fuzz", spec.seed, spec,
                             std::to_string(i) + "-" +
                                 std::to_string(spec.footprintKb) + "k"});
    }
    for (const Scenario &s : scenarios) {
        for (psb::PrefetcherKind kind : kAllKinds) {
            JobSpec job;
            job.workload = s.workload;
            job.seed = s.seed;
            job.fuzz = s.fuzz;
            job.cfg = sized(backendConfig(kind), kWarmup, kInsts);
            job.key = s.workload + "/" + psb::prefetcherKindName(kind) +
                      "/" + s.tag;
            jobs.push_back(std::move(job));
        }
    }
}

} // namespace

bool
makePlan(const std::string &name, uint64_t seed, const std::string &root,
         unsigned nproc, WorkloadPlan &out)
{
    out = WorkloadPlan{};
    out.name = name;
    if (name == "pointer-psb") {
        addPointerPsb(seed, root, out.jobs);
    } else if (name == "base-mix") {
        addBaseMix(seed, out.jobs);
    } else if (name == "server-sweep") {
        addServerSweep(seed, out.jobs);
        out.workers = nproc;
    } else {
        return false;
    }
    return true;
}

std::unique_ptr<psb::Workload>
makeJobWorkload(const JobSpec &job)
{
    if (job.fuzz)
        return std::make_unique<psb::FuzzWorkload>(*job.fuzz);
    return psb::makeWorkload(job.workload, job.seed);
}

StatsMap
snapshotStats(const psb::StatsRegistry &reg)
{
    StatsMap out;
    for (const auto &[path, value] : reg.snapshot())
        out.emplace(path, value.asReal());
    return out;
}

namespace
{

double
stat(const StatsMap &stats, const std::string &path)
{
    auto it = stats.find(path);
    return it == stats.end() ? -1.0 : it->second;
}

} // namespace

std::string
checkJob(const JobSpec &job, const StatsMap &stats,
         const std::string &statsJson)
{
    double insts = stat(stats, "core.instructions");
    if (insts < double(job.cfg.maxInstructions))
        return "stopped at " + std::to_string(uint64_t(insts)) +
               " of " + std::to_string(job.cfg.maxInstructions) +
               " instructions";
    if (stat(stats, "prefetch.attrib.live") != 0.0)
        return "prefetch.attrib.live != 0 at end of simulation";
    double outcomes = 0;
    for (const char *o : {"evicted_unused", "redundant_demand", "replaced",
                          "squashed", "used_late", "used_timely"}) {
        double v = stat(stats, std::string("prefetch.attrib.outcome.") + o);
        if (v < 0)
            return std::string("missing prefetch.attrib.outcome.") + o;
        outcomes += v;
    }
    if (stat(stats, "prefetch.attrib.issued") != outcomes)
        return "prefetch.attrib.issued != sum of outcomes";
    if (!job.goldenPath.empty()) {
        std::ifstream in(job.goldenPath, std::ios::binary);
        if (!in)
            return "cannot read " + job.goldenPath;
        std::ostringstream golden;
        golden << in.rdbuf();
        if (golden.str() != statsJson)
            return "stats differ from " + job.goldenPath;
    }
    return "";
}

UntracedRun
runUntraced(const JobSpec &job)
{
    UntracedRun out;
    JobTiming &t = out.timing;
    t.startNs = nowNs();
    std::unique_ptr<psb::Workload> trace = makeJobWorkload(job);
    if (!trace) {
        out.error = "unknown workload " + job.workload;
        return out;
    }
    psb::Simulator sim(job.cfg, *trace);
    t.runStartNs = nowNs();
    psb::SimResult r = sim.run();
    t.runEndNs = nowNs();
    out.statsJson = sim.statsJson();
    t.endNs = nowNs();
    t.instructions = job.cfg.warmupInstructions + r.core.instructions;
    t.cycles = r.core.cycles;
    out.error = checkJob(job, snapshotStats(sim.statsRegistry()),
                         out.statsJson);
    return out;
}

} // namespace perfbench
