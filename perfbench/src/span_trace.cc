/**
 * @file
 * The traced run: timing decorators around the three interfaces the
 * core calls through (TraceSource, Prefetcher, AddressPredictor), a
 * span stack aggregated in memory as count / total / self time, and a
 * loop that repeats Simulator::run's sequence over components built
 * from their public constructors.
 *
 * Spans are timed from the benchmark's own files, around the calls
 * into each layer; nothing inside the simulator is instrumented.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "core/psb.hh"
#include "cpu/ooo_core.hh"
#include "memory/hierarchy.hh"
#include "perfbench.hh"
#include "predictors/sfm_predictor.hh"
#include "prefetch/markov_prefetcher.hh"
#include "prefetch/min_delta_stream_buffers.hh"
#include "prefetch/next_line_prefetcher.hh"
#include "prefetch/sequential_stream_buffers.hh"
#include "prefetch/stride_stream_buffers.hh"

namespace perfbench
{

const char *
spanName(Span span)
{
    switch (span) {
      case Span::WorkloadBuild:       return "workloads.build";
      case Span::SimConstruct:        return "sim.construct";
      case Span::SimWarmup:           return "sim.warmup";
      case Span::SimMeasured:         return "sim.measured";
      case Span::SimStatsExport:      return "sim.stats_export";
      case Span::CpuTick:             return "cpu.tick";
      case Span::TraceNext:           return "trace.next";
      case Span::PrefetchLookup:      return "prefetch.lookup";
      case Span::PrefetchTrain:       return "prefetch.train";
      case Span::PrefetchDemandMiss:  return "prefetch.demand_miss";
      case Span::PrefetchTick:        return "prefetch.tick";
      case Span::PrefetchFastForward: return "prefetch.fast_forward";
      case Span::PrefetchEndOfSim:    return "prefetch.end_of_sim";
      case Span::PredictorTrain:      return "predictors.train";
      case Span::PredictorPredict:    return "predictors.predict";
      case Span::PredictorAllocate:   return "predictors.allocate";
      case Span::PredictorConfidence: return "predictors.confidence";
      case Span::PredictorFilter:     return "predictors.filter";
      case Span::Count:               break;
    }
    return "?";
}

void
SpanTotals::add(const SpanTotals &o)
{
    count += o.count;
    totalNs += o.totalNs;
    childNs += o.childNs;
    childCount += o.childCount;
    descendants += o.descendants;
}

namespace
{

/** Upper bound on raw spans kept for the Chrome-trace window. */
constexpr size_t kMaxRawSpans = 1 << 16;

/** The span stack of one traced job. Not thread-safe: one per job. */
class Tracer
{
  public:
    Tracer(TracedRun &out, uint64_t windowCycles)
        : _out(out), _windowCycles(windowCycles)
    {
        if (_windowCycles > 0)
            _out.raw.reserve(kMaxRawSpans);
    }
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    void
    begin(Span span)
    {
        if (_depth == kMaxDepth)
            std::abort(); // the call graph nests at most four deep
        Open &o = _stack[_depth++];
        o.span = span;
        o.childNs = 0;
        o.childCount = 0;
        o.descendants = 0;
        o.raw = -1;
        if (_recording && _out.raw.size() < kMaxRawSpans) {
            o.raw = int32_t(_out.raw.size());
            _out.raw.push_back({span, 0, 0, parentRaw(), _cycle});
        }
        o.startNs = nowNs();
    }

    void
    end()
    {
        int64_t t = nowNs();
        Open &o = _stack[--_depth];
        int64_t d = t - o.startNs;
        SpanTotals &tot = _out.spans[size_t(o.span)];
        ++tot.count;
        tot.totalNs += d;
        tot.childNs += o.childNs;
        tot.childCount += o.childCount;
        tot.descendants += o.descendants;
        if (_depth > 0) {
            Open &p = _stack[_depth - 1];
            p.childNs += d;
            ++p.childCount;
            p.descendants += 1 + o.descendants;
        }
        if (o.raw >= 0) {
            _out.raw[size_t(o.raw)].startNs = o.startNs;
            _out.raw[size_t(o.raw)].endNs = t;
        }
    }

    /** Open the raw-span window at cycle @p start. */
    void startWindow(uint64_t start) { _windowStart = start; }

    void
    setCycle(uint64_t cycle)
    {
        _cycle = cycle;
        _recording = _windowCycles > 0 && _windowStart != kNoWindow &&
                     cycle >= _windowStart &&
                     cycle - _windowStart < _windowCycles;
    }

  private:
    static constexpr int kMaxDepth = 8;
    static constexpr uint64_t kNoWindow = ~uint64_t(0);

    struct Open
    {
        Span span = Span::Count;
        int64_t startNs = 0;
        int64_t childNs = 0;
        uint64_t childCount = 0;
        uint64_t descendants = 0;
        int32_t raw = -1;
    };

    int32_t
    parentRaw() const
    {
        return _depth >= 2 ? _stack[_depth - 2].raw : -1;
    }

    TracedRun &_out;
    uint64_t _windowCycles;
    uint64_t _windowStart = kNoWindow;
    uint64_t _cycle = 0;
    bool _recording = false;
    Open _stack[kMaxDepth];
    int _depth = 0;
};

/** RAII span: begins at construction, ends at scope exit. */
class Scoped
{
  public:
    Scoped(Tracer &tracer, Span span) : _tracer(tracer)
    {
        _tracer.begin(span);
    }
    ~Scoped() { _tracer.end(); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    Tracer &_tracer;
};

class TimedTrace : public psb::TraceSource
{
  public:
    TimedTrace(psb::TraceSource &inner, Tracer &tracer)
        : _inner(inner), _tracer(tracer)
    {}

    bool
    next(psb::MicroOp &op) override
    {
        Scoped s(_tracer, Span::TraceNext);
        return _inner.next(op);
    }

  private:
    psb::TraceSource &_inner;
    Tracer &_tracer;
};

class TimedPredictor : public psb::AddressPredictor
{
  public:
    TimedPredictor(psb::AddressPredictor &inner, Tracer &tracer)
        : _inner(inner), _tracer(tracer)
    {}

    void
    train(psb::Addr pc, psb::Addr addr) override
    {
        Scoped s(_tracer, Span::PredictorTrain);
        _inner.train(pc, addr);
    }

    std::optional<psb::BlockAddr>
    predictNext(psb::StreamState &state) const override
    {
        Scoped s(_tracer, Span::PredictorPredict);
        return _inner.predictNext(state);
    }

    psb::StreamState
    allocateStream(psb::Addr pc, psb::Addr addr) const override
    {
        Scoped s(_tracer, Span::PredictorAllocate);
        return _inner.allocateStream(pc, addr);
    }

    uint32_t
    confidence(psb::Addr pc) const override
    {
        Scoped s(_tracer, Span::PredictorConfidence);
        return _inner.confidence(pc);
    }

    bool
    twoMissFilterPass(psb::Addr pc, psb::Addr addr) const override
    {
        Scoped s(_tracer, Span::PredictorFilter);
        return _inner.twoMissFilterPass(pc, addr);
    }

    void
    registerStats(psb::StatsRegistry &reg,
                  const std::string &prefix) const override
    {
        _inner.registerStats(reg, prefix);
    }

    void resetStats() override { _inner.resetStats(); }

  private:
    psb::AddressPredictor &_inner;
    Tracer &_tracer;
};

class TimedPrefetcher : public psb::Prefetcher
{
  public:
    TimedPrefetcher(psb::Prefetcher &inner, Tracer &tracer,
                    TracedRun &out)
        : _inner(inner), _tracer(tracer), _out(out)
    {}

    psb::PrefetchLookup
    lookup(psb::Addr addr, psb::Cycle now) override
    {
        Scoped s(_tracer, Span::PrefetchLookup);
        return _inner.lookup(addr, now);
    }

    void
    trainLoad(psb::Addr pc, psb::Addr addr, bool l1_miss,
              bool store_forwarded) override
    {
        Scoped s(_tracer, Span::PrefetchTrain);
        _inner.trainLoad(pc, addr, l1_miss, store_forwarded);
    }

    void
    demandMiss(psb::Addr pc, psb::Addr addr, psb::Cycle now) override
    {
        Scoped s(_tracer, Span::PrefetchDemandMiss);
        _inner.demandMiss(pc, addr, now);
    }

    void
    tick(psb::Cycle now) override
    {
        Scoped s(_tracer, Span::PrefetchTick);
        _inner.tick(now);
    }

    bool
    fastForwardTicks(psb::Cycle from, uint64_t n) override
    {
        Scoped s(_tracer, Span::PrefetchFastForward);
        bool ok = _inner.fastForwardTicks(from, n);
        ++_out.ffCalls;
        _out.ffRefusals += ok ? 0 : 1;
        return ok;
    }

    void
    endOfSim(psb::Cycle now) override
    {
        Scoped s(_tracer, Span::PrefetchEndOfSim);
        _inner.endOfSim(now);
    }

    const psb::PrefetcherStats &
    stats() const override
    {
        return _inner.stats();
    }

    void resetStats() override { _inner.resetStats(); }

    void
    registerStats(psb::StatsRegistry &reg,
                  const std::string &prefix) const override
    {
        _inner.registerStats(reg, prefix);
    }

  private:
    psb::Prefetcher &_inner;
    Tracer &_tracer;
    TracedRun &_out;
};

/** Registry prefix per kind, as Simulator::buildStatsRegistry uses. */
const char *
statsPrefix(psb::PrefetcherKind kind)
{
    switch (kind) {
      case psb::PrefetcherKind::None:         return "prefetcher";
      case psb::PrefetcherKind::PcStride:     return "pcstride";
      case psb::PrefetcherKind::Psb:          return "psb";
      case psb::PrefetcherKind::Sequential:   return "seqsb";
      case psb::PrefetcherKind::NextLine:     return "nextline";
      case psb::PrefetcherKind::MarkovDemand: return "markov";
      case psb::PrefetcherKind::MinDelta:     return "mindelta";
    }
    return "prefetcher";
}

/**
 * The prefetcher Simulator would build for @p cfg. For the PSB kind
 * the predictor is built into @p predictor and reached through
 * @p timed, so predictor calls are spans of their own.
 */
std::unique_ptr<psb::Prefetcher>
makePrefetcher(const psb::SimConfig &cfg, psb::MemoryHierarchy &hier,
               Tracer &tracer,
               std::unique_ptr<psb::AddressPredictor> &predictor,
               std::unique_ptr<TimedPredictor> &timed)
{
    using K = psb::PrefetcherKind;
    switch (cfg.prefetcher) {
      case K::None:
        return std::make_unique<psb::NullPrefetcher>();
      case K::PcStride:
        return std::make_unique<psb::StrideStreamBuffers>(
            cfg.psb.buffers, cfg.stride, hier);
      case K::Psb:
        if (cfg.psbContextOrder != 0)
            return nullptr; // no benchmark job uses the context predictor
        predictor = std::make_unique<psb::SfmPredictor>(cfg.sfm);
        timed = std::make_unique<TimedPredictor>(*predictor, tracer);
        return std::make_unique<psb::PredictorDirectedStreamBuffers>(
            cfg.psb, *timed, hier);
      case K::Sequential:
        return std::make_unique<psb::SequentialStreamBuffers>(
            cfg.psb.buffers, hier);
      case K::NextLine:
        return std::make_unique<psb::NextLinePrefetcher>(hier);
      case K::MarkovDemand: {
        psb::MarkovTableConfig table;
        table.blockBytes = cfg.memory.l1d.blockBytes;
        return std::make_unique<psb::MarkovPrefetcher>(hier, table);
      }
      case K::MinDelta: {
        psb::MinDeltaConfig table;
        table.blockBytes = cfg.memory.l1d.blockBytes;
        return std::make_unique<psb::MinDeltaStreamBuffers>(
            cfg.psb.buffers, table, hier);
      }
    }
    return nullptr;
}

} // namespace

TracedRun
runTraced(const JobSpec &job, uint64_t rawWindowCycles)
{
    TracedRun out;
    Tracer tracer(out, rawWindowCycles);
    int64_t t0 = nowNs();

    psb::SimConfig cfg = job.cfg;
    cfg.harmonize();
    // Declaration order is teardown order in reverse: the core goes
    // first, then the decorators, then what they wrap.
    psb::StatsRegistry reg;
    std::unique_ptr<psb::Workload> workload;
    std::unique_ptr<psb::MemoryHierarchy> hier;
    std::unique_ptr<psb::AddressPredictor> predictor;
    std::unique_ptr<TimedPredictor> timedPredictor;
    std::unique_ptr<psb::Prefetcher> prefetcher;
    std::unique_ptr<TimedPrefetcher> timedPrefetcher;
    std::unique_ptr<TimedTrace> timedTrace;
    std::unique_ptr<psb::OoOCore> core;

    {
        Scoped s(tracer, Span::WorkloadBuild);
        workload = makeJobWorkload(job);
    }
    {
        Scoped s(tracer, Span::SimConstruct);
        hier = std::make_unique<psb::MemoryHierarchy>(cfg.memory);
        prefetcher = makePrefetcher(cfg, *hier, tracer, predictor,
                                    timedPredictor);
        if (!workload || !prefetcher)
            return out; // empty statsJson: fails the equivalence check
        timedPrefetcher =
            std::make_unique<TimedPrefetcher>(*prefetcher, tracer, out);
        timedTrace = std::make_unique<TimedTrace>(*workload, tracer);
        core = std::make_unique<psb::OoOCore>(cfg.core, *hier,
                                              *timedPrefetcher, *timedTrace);

        core->registerStats(reg);
        hier->registerStats(reg);
        timedPrefetcher->registerStats(reg, statsPrefix(cfg.prefetcher));
        if (predictor)
            predictor->registerStats(reg, "sfm_predictor");
        psb::OoOCore *c = core.get();
        psb::MemoryHierarchy *h = hier.get();
        reg.addReal("sim.l1_l2_bus_util", [c, h] {
            return psb::ratio(h->l1L2Bus().busyCycles(), c->stats().cycles);
        });
        reg.addReal("sim.l2_mem_bus_util", [c, h] {
            return psb::ratio(h->l2MemBus().busyCycles(),
                              c->stats().cycles);
        });
        reg.addReal("sim.pct_loads", [c] {
            return psb::percent(c->stats().loads, c->stats().instructions);
        });
        reg.addReal("sim.pct_stores", [c] {
            return psb::percent(c->stats().stores, c->stats().instructions);
        });
    }

    psb::Cycle now{};
    auto step = [&] {
        if (cfg.fastForward) {
            psb::Cycle wake = core->nextWake();
            if (wake != psb::Cycle::max() && wake > now) {
                uint64_t n = (wake - now).raw();
                if (n != 0 && timedPrefetcher->fastForwardTicks(now, n)) {
                    core->skipIdleCycles(n);
                    now += psb::CycleDelta(n);
                    out.skippedCycles += n;
                }
            }
        }
        tracer.setCycle(now.raw());
        {
            Scoped s(tracer, Span::CpuTick);
            core->tick(now);
        }
        timedPrefetcher->tick(now);
        ++now;
        ++out.steppedCycles;
    };

    {
        Scoped s(tracer, Span::SimWarmup);
        while (!core->done() &&
               core->stats().instructions < cfg.warmupInstructions)
            step();
    }
    core->resetStats();
    hier->resetStats();
    timedPrefetcher->resetStats();
    if (predictor)
        predictor->resetStats();
    tracer.startWindow(now.raw());
    {
        Scoped s(tracer, Span::SimMeasured);
        while (!core->done() &&
               core->stats().instructions < cfg.maxInstructions)
            step();
        timedPrefetcher->endOfSim(now);
    }
    {
        Scoped s(tracer, Span::SimStatsExport);
        out.statsJson = reg.toJson();
    }
    out.wallNs = nowNs() - t0;
    out.stats = snapshotStats(reg);
    return out;
}

SpanCost
calibrateSpanCost()
{
    constexpr uint64_t kSpans = 200'000;
    constexpr int kRepeats = 7;
    std::vector<double> inner, pair;
    for (int r = 0; r < kRepeats; ++r) {
        TracedRun empty;
        Tracer tracer(empty, 0);
        // Inside a parent span, as every per-call span is.
        tracer.begin(Span::SimMeasured);
        int64_t t0 = nowNs();
        for (uint64_t i = 0; i < kSpans; ++i) {
            tracer.begin(Span::CpuTick);
            tracer.end();
        }
        int64_t wall = nowNs() - t0;
        tracer.end();
        inner.push_back(double(empty.spans[size_t(Span::CpuTick)].totalNs) /
                        double(kSpans));
        pair.push_back(double(wall) / double(kSpans));
    }
    auto median = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
    };
    SpanCost cost;
    cost.innerNs = median(inner);
    cost.outerNs = std::max(0.0, median(pair) - cost.innerNs);
    return cost;
}

bool
writeChromeTrace(const std::string &path, const std::vector<RawSpan> &raw)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    int64_t origin = raw.empty() ? 0 : raw.front().startNs;
    for (const RawSpan &s : raw)
        origin = std::min(origin, s.startNs);
    out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
    char buf[256];
    for (size_t i = 0; i < raw.size(); ++i) {
        const RawSpan &s = raw[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                      "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                      "{\"id\": %zu, \"parent\": %d, \"cycle\": %llu}}",
                      i ? "," : "", spanName(s.span),
                      double(s.startNs - origin) * 1e-3,
                      double(s.endNs - s.startNs) * 1e-3, i, s.parent,
                      static_cast<unsigned long long>(s.cycle));
        out << buf;
    }
    out << "\n]}\n";
    return bool(out);
}

} // namespace perfbench
