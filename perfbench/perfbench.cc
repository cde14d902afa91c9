/**
 * @file
 * Benchmark program behind perfbench/run.py: host throughput of the
 * three simulation paths users run, measured through the public entry
 * points the tools use.
 *
 *   synth_wc_sle    Runner::makeSource + Runner::run, one streamed run
 *   sweep_9cfg      SweepEngine::execute over configs/ x 4 workloads
 *   replay_v4_smac  StreamingFileSource + Runner::run on a v4 file
 *
 * Untraced iterations give the end-to-end figures. Traced iterations
 * wrap every trace-source layer in a SpanSource, which records one
 * span per fetch() (the library has no timers of its own), and derive
 * each layer's self time from the spans: a span's duration minus the
 * part covered by its child spans.
 *
 *   perfbench --root DIR --work DIR --workload NAME --seed N
 *             --seconds S --trace 0|1
 *
 * Diagnostics go to stderr; the last stdout line is one JSON object
 * that run.py checks against the reference hashes and reformats.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "core/config_io.hh"
#include "core/runner.hh"
#include "core/sweep.hh"
#include "core/sweep_request.hh"
#include "stats/stats_json.hh"
#include "trace/generator.hh"
#include "trace/rewriter.hh"
#include "trace/trace_cache.hh"
#include "trace/trace_file_source.hh"
#include "trace/trace_io.hh"
#include "trace/trace_source.hh"
#include "trace/workload.hh"

using namespace storemlp;

namespace
{

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
secondsSince(int64_t t0_ns)
{
    return static_cast<double>(nowNs() - t0_ns) * 1e-9;
}

/** Process user + system CPU seconds, all threads. */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
            static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/** Resident-set high-water mark in KiB (VmHWM), 0 if unreadable. */
uint64_t
peakRssKb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
    return 0;
}

/**
 * Restart the VmHWM high-water mark at the current RSS, so the peak
 * read after the timed section excludes set-up (which materializes
 * the replay input). Returns false where the kernel refuses.
 */
bool
resetPeakRss()
{
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
    out.flush();
    return static_cast<bool>(out);
}

/** CPUs this process may run on. */
std::vector<int>
allowedCpus()
{
    std::vector<int> cpus;
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
        }
    }
    return cpus;
}

void
pinToCpu(int cpu)
{
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
lowest(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double
highest(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/**
 * Highest order statistic with at least ten samples above it; the
 * maximum when there are fewer than eleven samples.
 */
double
tail(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return v.size() > 10 ? v[v.size() - 11] : v.back();
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

struct Span
{
    const char *name = "";
    int64_t startNs = 0;
    int64_t endNs = 0;
    int64_t parent = -1;  ///< index of the enclosing span; -1 = root
    uint64_t chunk = 0;   ///< source spans: chunk index fetched
    uint64_t records = 0; ///< source spans: records returned
    uint32_t pass = 0;    ///< source spans: consumer pass over the stream

    int64_t durNs() const { return endNs - startNs; }
};

/** In-memory span log of one thread of work; spans nest LIFO. */
class Tracer
{
  public:
    size_t
    begin(const char *name, uint64_t chunk = 0, uint32_t pass = 0)
    {
        Span s;
        s.name = name;
        s.parent = _open.empty() ? -1 : static_cast<int64_t>(_open.back());
        s.chunk = chunk;
        s.pass = pass;
        s.startNs = nowNs();
        _spans.push_back(s);
        _open.push_back(_spans.size() - 1);
        return _spans.size() - 1;
    }

    void
    end(size_t idx, uint64_t records = 0)
    {
        _spans[idx].endNs = nowNs();
        _spans[idx].records = records;
        _open.pop_back();
    }

    const std::vector<Span> &spans() const { return _spans; }

  private:
    std::vector<Span> _spans;
    std::vector<size_t> _open;
};

/** Span over a scope; a null tracer records nothing. */
class SpanScope
{
  public:
    SpanScope(Tracer *tr, const char *name)
        : _tr(tr), _idx(tr ? tr->begin(name) : 0)
    {
    }
    ~SpanScope()
    {
        if (_tr)
            _tr->end(_idx);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer *_tr;
    size_t _idx;
};

/**
 * TraceSource decorator recording one span per inner fetch(). A
 * sequential inner source (generator, WC rewrite) services a forward
 * skip or a backward fetch by producing every chunk before the one
 * asked for; the decorator makes those fetches itself, one chunk at
 * a time, so every produced chunk shows as a span and in the record
 * count. The inner source does exactly the same work either way.
 */
class SpanSource : public TraceSource
{
  public:
    SpanSource(std::unique_ptr<TraceSource> inner, Tracer &tr,
               const char *layer, bool sequential)
        : TraceSource(inner->chunkInsts()), _inner(std::move(inner)),
          _tr(tr), _layer(layer), _sequential(sequential)
    {
    }

    std::shared_ptr<const TraceChunk>
    fetch(uint64_t chunk_idx) override
    {
        // A consumer restarting below its last request starts a new
        // pass (analyzeSource, then the engine, then the Table-1 pass).
        if (_requests && chunk_idx < _lastRequest)
            ++_pass;
        _lastRequest = chunk_idx;
        ++_requests;
        if (_sequential) {
            for (uint64_t i = chunk_idx < _next ? 0 : _next;
                 i < chunk_idx; ++i) {
                if (!fetchOne(i))
                    return nullptr;
            }
        }
        std::shared_ptr<const TraceChunk> c = fetchOne(chunk_idx);
        if (c)
            ++_served;
        return c;
    }

    std::optional<uint64_t> knownSize() const override
    {
        return _inner->knownSize();
    }
    std::string fingerprint() const override
    {
        return _inner->fingerprint();
    }

    /** Chunks handed to the consumer (non-null consumer fetches). */
    uint64_t served() const { return _served; }
    /** Chunks in the whole stream; the stream end must be known. */
    uint64_t
    streamChunks() const
    {
        uint64_t n = _inner->knownSize().value_or(0);
        return (n + chunkInsts() - 1) / chunkInsts();
    }

  private:
    std::shared_ptr<const TraceChunk>
    fetchOne(uint64_t idx)
    {
        size_t s = _tr.begin(_layer, idx, _pass);
        std::shared_ptr<const TraceChunk> c;
        try {
            c = _inner->fetch(idx);
        } catch (...) {
            _tr.end(s);
            throw;
        }
        _tr.end(s, c ? c->count : 0);
        _next = idx + 1;
        return c;
    }

    std::unique_ptr<TraceSource> _inner;
    Tracer &_tr;
    const char *_layer;
    bool _sequential;
    uint64_t _next = 0;        ///< next chunk the inner source produces
    uint64_t _lastRequest = 0;
    uint64_t _requests = 0;
    uint64_t _served = 0;
    uint32_t _pass = 0;
};

struct LayerTime
{
    double selfS = 0.0;
    uint64_t records = 0;
};

/** Per span name: Σ(duration − direct-children duration), records. */
std::map<std::string, LayerTime>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span &s : spans) {
        if (s.parent >= 0)
            child_ns[static_cast<size_t>(s.parent)] += s.durNs();
    }
    std::map<std::string, LayerTime> out;
    for (size_t i = 0; i < spans.size(); ++i) {
        LayerTime &l = out[spans[i].name];
        l.selfS += static_cast<double>(spans[i].durNs() - child_ns[i]) *
            1e-9;
        l.records += spans[i].records;
    }
    return out;
}

/**
 * Self time of the lock-analysis pass inside the `run` span at
 * `run_idx`. With SLE/TM on, Runner::run first walks the whole stream
 * through analyzeSource; that pass ends where the engine's cursor
 * restarts at chunk 0, i.e. at the first source span of pass 1. The
 * window also holds machine construction (L2 prefill), well under a
 * millisecond.
 */
double
lockPassSelf(const std::vector<Span> &spans, size_t run_idx)
{
    const Span &run = spans[run_idx];
    int64_t boundary = run.endNs;
    int64_t fetch_ns = 0;
    for (size_t i = run_idx + 1; i < spans.size(); ++i) {
        if (spans[i].parent != static_cast<int64_t>(run_idx))
            continue;
        if (spans[i].pass >= 1) {
            boundary = spans[i].startNs;
            break;
        }
        fetch_ns += spans[i].durNs();
    }
    return static_cast<double>(boundary - run.startNs - fetch_ns) * 1e-9;
}

size_t
findSpan(const std::vector<Span> &spans, const char *name)
{
    for (size_t i = 0; i < spans.size(); ++i) {
        if (std::strcmp(spans[i].name, name) == 0)
            return i;
    }
    throw std::logic_error(std::string("no span named ") + name);
}

bool
usesLockAnalysis(const RunSpec &spec)
{
    return spec.config.sle || spec.config.tm.enabled;
}

// ---------------------------------------------------------------------
// Output check
// ---------------------------------------------------------------------

uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

/**
 * FNV-1a over the compact stats document of a run, with the envelope's
 * schemaVersion pinned to 1: the scheme of tests/golden/hotloop.golden.
 */
std::string
statsHash(const RunOutput &out)
{
    StatsRegistry reg;
    out.exportStats(reg);
    std::ostringstream os;
    writeStatsJson(os, reg, StatsMeta{}, false);
    std::string doc = os.str();
    const std::string tag =
        "\"schemaVersion\":" + std::to_string(kStatsSchemaVersion);
    size_t pos = doc.find(tag);
    if (pos != std::string::npos)
        doc.replace(pos, tag.size(), "\"schemaVersion\":1");
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(fnv1a(doc)));
    return buf;
}

/** One simulated run of an iteration. */
struct RunRecord
{
    std::string name;
    bool ok = false;
    std::string error;
    std::string hash;
    double wallS = 0.0;  ///< submit to RunOutput available
    uint64_t insts = 0;  ///< records simulated, warmup included
    uint64_t epochs = 0;
    uint64_t measured = 0;
    uint64_t l2Accesses = 0;
    uint64_t l2Misses = 0;
    uint64_t smacAccelerated = 0;
    uint64_t smacProbeHits = 0;
    std::string profile;
    double rates[4] = {};   ///< Table 1: stores, store/load/inst misses
    double targets[4] = {}; ///< WorkloadProfile::target* for the same
};

void
summarize(RunRecord &rec, const RunSpec &spec, const RunOutput &out)
{
    rec.insts = spec.warmupInsts + out.sim.instructions;
    rec.epochs = out.sim.epochs;
    rec.measured = out.sim.instructions;
    rec.l2Accesses = out.l2Accesses;
    rec.l2Misses = out.machine.getCounter("cache.instL2Misses") +
        out.machine.getCounter("cache.loadL2Misses") +
        out.machine.getCounter("cache.storeL2Misses");
    rec.smacAccelerated = out.sim.smacAcceleratedStores;
    rec.smacProbeHits = out.smacProbeHits;
    rec.profile = spec.profile.name;
    const double rates[4] = {out.storesPer100, out.storeMissPer100,
                             out.loadMissPer100, out.instMissPer100};
    const WorkloadProfile &p = spec.profile;
    const double targets[4] = {p.targetStoresPer100, p.targetStoreMissPer100,
                               p.targetLoadMissPer100,
                               p.targetInstMissPer100};
    std::copy(rates, rates + 4, rec.rates);
    std::copy(targets, targets + 4, rec.targets);
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** Per-layer metric values of one traced iteration. */
using Layers = std::map<std::string, double>;

/** One timed pass over a workload's input. */
struct Iteration
{
    double wallS = 0.0;
    double cpuS = 0.0;
    double firstResultS = 0.0;
    std::vector<RunRecord> runs;
    Layers layers; ///< traced iterations only
    /** Traced iterations: span logs, one per trace id. */
    std::vector<std::pair<std::string, std::vector<Span>>> traces;
};

class Workload
{
  public:
    virtual ~Workload() = default;
    /** Prepare inputs; timed, repeated, must be idempotent. */
    virtual void setup() = 0;
    virtual Iteration iterate(bool traced) = 0;
    /**
     * Host seconds a bare CacheHierarchy takes to replay the run's
     * record stream (fetch time excluded): an upper bound on the cache
     * model's share of engine time. 0 where not measured.
     */
    virtual double cacheReplaySelf() { return 0.0; }
    /** All work runs on the calling thread. */
    virtual bool singleThreaded() const { return true; }
    /** Set-ups per invocation; setup_s is their median. */
    virtual unsigned setupReps() const { return 5; }
};

/** One Runner::run over a source chain (synthetic or on-disk). */
class SingleRunWorkload : public Workload
{
  public:
    Iteration
    iterate(bool traced) override
    {
        Iteration it;
        Tracer tracer;
        Tracer *tr = traced ? &tracer : nullptr;
        RunRecord rec;
        rec.name = _runName;
        double cpu0 = cpuSeconds();
        int64_t t0 = nowNs();
        std::unique_ptr<TraceSource> src;
        {
            SpanScope root(tr, "iteration");
            try {
                {
                    SpanScope s(tr, "open");
                    src = tr ? openTraced(*tr) : open();
                }
                RunOutput out;
                {
                    SpanScope s(tr, "run");
                    out = Runner::run(_spec, *src);
                }
                rec.wallS = secondsSince(t0);
                summarize(rec, _spec, out);
                SpanScope s(tr, "export");
                rec.hash = statsHash(out);
                rec.ok = true;
            } catch (const std::exception &e) {
                rec.error = e.what();
            }
        }
        it.wallS = secondsSince(t0);
        it.cpuS = cpuSeconds() - cpu0;
        it.firstResultS = rec.wallS;
        if (tr && rec.ok) {
            it.layers = breakdown(tracer.spans(), rec);
            it.traces.emplace_back(_runName, tracer.spans());
        }
        it.runs.push_back(std::move(rec));
        return it;
    }

    double
    cacheReplaySelf() override
    {
        Tracer tr;
        std::unique_ptr<TraceSource> src = openTraced(tr);
        CacheHierarchy hier;
        {
            SpanScope s(&tr, "replay");
            forEachRecord(*src, 0, ~uint64_t{0},
                          [&hier](const TraceRecord &r) {
                              hier.instFetch(r.pc);
                              if (isLoadClass(r.cls))
                                  hier.load(r.addr);
                              if (isStoreClass(r.cls))
                                  hier.store(r.addr);
                          });
        }
        return selfTimes(tr.spans())["replay"].selfS;
    }

  protected:
    /** The chain the tools build. */
    virtual std::unique_ptr<TraceSource> open() = 0;
    /** The same chain with a SpanSource at every layer boundary. */
    virtual std::unique_ptr<TraceSource> openTraced(Tracer &tr) = 0;
    /** Span name of the chain's innermost layer; `open` counts there. */
    virtual const char *baseLayer() const = 0;

    RunSpec _spec;
    std::string _runName;
    /** Layers of the latest openTraced() chain, innermost first. */
    std::vector<SpanSource *> _layers;

  private:
    Layers
    breakdown(const std::vector<Span> &spans, const RunRecord &rec) const
    {
        std::map<std::string, LayerTime> st = selfTimes(spans);
        double lock = usesLockAnalysis(_spec)
            ? lockPassSelf(spans, findSpan(spans, "run"))
            : 0.0;
        const std::string base = baseLayer();
        st[base].selfS += st["open"].selfS;

        Layers l;
        l["trace.generate.self_s"] = st["generate"].selfS;
        l["trace.generate.records"] =
            static_cast<double>(st["generate"].records);
        l["trace.rewrite.self_s"] = st["rewrite"].selfS;
        l["trace.lockdetect.self_s"] = lock;
        l["trace.decode.self_s"] = st["decode"].selfS;
        l["trace.decode.records"] =
            static_cast<double>(st["decode"].records);
        l["core.simulate.self_s"] = st["run"].selfS - lock;
        l["stats.export.self_s"] = st["export"].selfS;
        l["unattributed_s"] = st["iteration"].selfS;

        uint64_t base_len =
            _layers.front()->knownSize().value_or(0);
        double base_records = static_cast<double>(st[base].records);
        if (base == "generate" && base_len)
            l["trace.generate.regen_ratio"] =
                base_records / static_cast<double>(base_len);
        if (base == "decode" && base_len) {
            l["trace.decode.redecode_ratio"] =
                base_records / static_cast<double>(base_len);
            double bytes_per_rec =
                static_cast<double>(_inputBytes) /
                static_cast<double>(base_len);
            if (st["decode"].selfS > 0)
                l["trace.decode.mb_per_s"] = base_records *
                    bytes_per_rec / 1e6 / st["decode"].selfS;
        }
        if (st["generate"].records && st["rewrite"].records)
            l["trace.rewrite.expand_ratio"] =
                static_cast<double>(st["rewrite"].records) /
                static_cast<double>(st["generate"].records);
        const SpanSource &outer = *_layers.back();
        if (outer.streamChunks())
            l["trace.source.fetches_per_chunk"] =
                static_cast<double>(outer.served()) /
                static_cast<double>(outer.streamChunks());
        l["core.simulate.ns_per_inst"] =
            l["core.simulate.self_s"] * 1e9 / static_cast<double>(rec.insts);
        return l;
    }

  protected:
    uint64_t _inputBytes = 0; ///< on-disk input size (decode MB/s)
};

SimConfig
loadConfig(const std::filesystem::path &root, const std::string &stem)
{
    return loadSimConfigFile((root / "configs" / (stem + ".cfg")).string());
}

/**
 * One streamed synthetic run: database profile, configs/wc3.cfg (WC +
 * SLE + prefetch past serializing), 1M warmup + 4M measured.
 */
class SynthWorkload : public SingleRunWorkload
{
  public:
    SynthWorkload(const std::filesystem::path &root, uint64_t seed)
    {
        _root = root;
        _seed = seed;
        _runName = "database_wc3";
    }

    void
    setup() override
    {
        _spec = RunSpec{};
        _spec.profile = WorkloadProfile::database();
        _spec.config = loadConfig(_root, "wc3");
        _spec.seed = _seed;
        _spec.warmupInsts = 1'000'000;
        _spec.measureInsts = 4'000'000;

        // Warm the allocator and code paths on a short run of the
        // same chain, so the timed runs all start alike.
        RunSpec warm = _spec;
        warm.warmupInsts = 100'000;
        warm.measureInsts = 400'000;
        (void)statsHash(Runner::run(warm, *Runner::makeSource(warm)));
    }

  protected:
    std::unique_ptr<TraceSource>
    open() override
    {
        return Runner::makeSource(_spec);
    }

    /** Runner::makeSource's chain (no chunk cache), decorated. */
    std::unique_ptr<TraceSource>
    openTraced(Tracer &tr) override
    {
        _layers.clear();
        auto gen = std::make_unique<SpanSource>(
            std::make_unique<GeneratorSource>(
                _spec.profile, _spec.seed,
                _spec.warmupInsts + _spec.measureInsts),
            tr, "generate", true);
        _layers.push_back(gen.get());
        if (!_spec.config.memoryModel.wcTraceRewrite())
            return gen;
        auto wc = std::make_unique<SpanSource>(
            std::make_unique<WcRewriteSource>(std::move(gen)), tr,
            "rewrite", true);
        _layers.push_back(wc.get());
        return wc;
    }

    const char *baseLayer() const override { return "generate"; }

  private:
    std::filesystem::path _root;
    uint64_t _seed = 0;
};

/**
 * Replay of a database v4 file written in set-up from the seed:
 * configs/pc1.cfg plus an 8K-entry SMAC, 2M warmup, rest measured.
 */
class ReplayWorkload : public SingleRunWorkload
{
  public:
    static constexpr uint64_t kRecords = 10'000'000;

    ReplayWorkload(const std::filesystem::path &root,
                   const std::filesystem::path &work, uint64_t seed)
    {
        _root = root;
        _seed = seed;
        _path = (work / ("replay_v4_seed" + std::to_string(seed) + ".trc"))
                    .string();
        _runName = "database_pc1_smac8k";
    }

    /** Inputs are ~50 MB per seed; do not pile them up across runs. */
    ~ReplayWorkload() override
    {
        std::error_code ec;
        std::filesystem::remove(_path, ec);
    }

    void
    setup() override
    {
        WorkloadProfile profile = WorkloadProfile::database();
        // As storemlp_tracegen --compress writes it.
        SyntheticTraceGenerator gen(profile, _seed, 0);
        Trace trace = gen.generate(kRecords);
        GeneratorSource provenance(profile, _seed, kRecords);
        writeTraceFileV4(_path, trace, provenance.fingerprint());

        TraceFileInfo info = probeTraceFile(_path);
        if (info.records != trace.size() || info.version != 4)
            throw std::runtime_error("replay input does not probe back");
        if (_inputBytes && info.fileBytes != _inputBytes)
            throw std::runtime_error("replay input differs between set-ups");
        _inputBytes = info.fileBytes;

        _spec = RunSpec{};
        _spec.profile = profile;
        _spec.config = loadConfig(_root, "pc1");
        _spec.seed = _seed;
        _spec.warmupInsts = 2'000'000;
        _spec.measureInsts = info.records - _spec.warmupInsts;
        SmacConfig smac;
        smac.entries = 8 * 1024;
        _spec.smac = smac;
    }

  protected:
    std::unique_ptr<TraceSource>
    open() override
    {
        return std::make_unique<StreamingFileSource>(_path);
    }

    std::unique_ptr<TraceSource>
    openTraced(Tracer &tr) override
    {
        _layers.clear();
        auto src = std::make_unique<SpanSource>(
            std::make_unique<StreamingFileSource>(_path), tr, "decode",
            false);
        _layers.push_back(src.get());
        return src;
    }

    const char *baseLayer() const override { return "decode"; }
    /** Each set-up writes the whole input. */
    unsigned setupReps() const override { return 3; }

  private:
    std::filesystem::path _root;
    uint64_t _seed = 0;
    std::string _path;
};

/** Span log and counts of one traced sweep run, built on its worker. */
struct SweepRunTrace
{
    Tracer tracer;
    double lockS = 0.0;
    uint64_t served = 0;
    uint64_t chunks = 0;
};

/**
 * Hands a traced run's span log from SweepOptions::runOverride to the
 * observer: the engine calls both on the worker that ran the run, the
 * observer right after the run returns.
 */
thread_local std::unique_ptr<SweepRunTrace> t_sweepRunTrace;

/**
 * SweepEngine::execute over the nine shipped configs x four workloads
 * (36 runs of 0.5M warmup + 1.5M measured), trace cache on, the request's
 * default (materialized) trace path, a fresh cache per iteration.
 */
class SweepWorkload : public Workload
{
  public:
    SweepWorkload(const std::filesystem::path &root, uint64_t seed,
                  unsigned jobs)
        : _root(root), _seed(seed), _jobs(jobs)
    {
    }

    void
    setup() override
    {
        std::vector<std::filesystem::path> files;
        for (const auto &e :
             std::filesystem::directory_iterator(_root / "configs")) {
            if (e.path().extension() == ".cfg")
                files.push_back(e.path());
        }
        std::sort(files.begin(), files.end());
        if (files.empty())
            throw std::runtime_error("no configs/*.cfg");

        _req = SweepRequest{};
        for (const auto &f : files)
            _req.configs.push_back(
                {f.stem().string(), loadSimConfigFile(f.string())});
        _req.workloads = {"database", "tpcw", "specjbb", "specweb"};
        _req.warmupInsts = 500'000;
        _req.measureInsts = 1'500'000;
        _req.seed = _seed;

        // Start the pool once on a short batch of the same configs.
        SweepRequest warm = _req;
        warm.workloads = {"database"};
        warm.warmupInsts = 50'000;
        warm.measureInsts = 100'000;
        TraceCache cache;
        SweepEngine engine(options(), &cache);
        for (const RunOutcome &o : engine.execute(warm)) {
            if (!o.ok)
                throw std::runtime_error("warm-up run failed: " +
                                         o.errorMessage);
        }
    }

    Iteration
    iterate(bool traced) override
    {
        Iteration it;
        TraceCache cache;
        SweepOptions opts = options();
        if (traced)
            opts.runOverride = tracedRun;
        SweepEngine engine(opts, &cache);

        std::map<std::string, RunRecord> recs;
        std::map<std::string, std::unique_ptr<SweepRunTrace>> traces;
        uint64_t peak_bytes = 0;
        bool first = true;
        double cpu0 = cpuSeconds();
        int64_t t0 = nowNs();
        auto observer = [&](const RunOutcome &o, size_t, size_t) {
            if (first)
                it.firstResultS = secondsSince(t0);
            first = false;
            RunRecord &rec = recs[o.name];
            rec.name = o.name;
            rec.wallS = o.wallMs * 1e-3;
            std::unique_ptr<SweepRunTrace> rt = std::move(t_sweepRunTrace);
            if (o.ok) {
                SpanScope s(rt ? &rt->tracer : nullptr, "export");
                rec.hash = statsHash(o.output);
                rec.ok = true;
            } else {
                rec.error = o.errorMessage;
            }
            peak_bytes = std::max(peak_bytes, cache.stats().bytes);
            if (rt)
                traces[o.name] = std::move(rt);
        };
        std::vector<RunOutcome> outcomes = engine.execute(_req, observer);
        it.wallS = secondsSince(t0);
        it.cpuS = cpuSeconds() - cpu0;

        std::vector<PlannedRun> plan = expandSweepRuns(_req);
        for (size_t i = 0; i < outcomes.size(); ++i) {
            RunRecord &rec = recs[outcomes[i].name];
            if (rec.ok)
                summarize(rec, plan[i].spec, outcomes[i].output);
            it.runs.push_back(rec);
        }
        if (traced) {
            it.layers = breakdown(outcomes, traces, engine, cache.stats(),
                                  it.wallS, peak_bytes);
            for (auto &[name, rt] : traces)
                it.traces.emplace_back(name, rt->tracer.spans());
        }
        return it;
    }

    bool singleThreaded() const override { return false; }

  private:
    SweepOptions
    options() const
    {
        SweepOptions opts;
        opts.jobs = _jobs;
        opts.progress = false;
        return opts;
    }

    /**
     * The traced replacement for the engine's materialized run: the
     * same Runner::run over the cached trace, with the cached trace's
     * chunk views behind a SpanSource.
     */
    static RunOutput
    tracedRun(const RunSpec &spec, const Trace *trace)
    {
        if (!trace)
            throw std::logic_error("traced sweep needs the trace cache");
        auto rt = std::make_unique<SweepRunTrace>();
        SpanSource src(std::make_unique<MaterializedSource>(*trace),
                       rt->tracer, "cache", false);
        RunOutput out;
        {
            SpanScope s(&rt->tracer, "run");
            out = Runner::run(spec, src);
        }
        if (usesLockAnalysis(spec))
            rt->lockS = lockPassSelf(rt->tracer.spans(),
                                     findSpan(rt->tracer.spans(), "run"));
        rt->served = src.served();
        rt->chunks = src.streamChunks();
        t_sweepRunTrace = std::move(rt);
        return out;
    }

    /**
     * Worker-seconds breakdown: the makespan times the worker count
     * is split into trace-cache time (lookup, build on a miss, wait on
     * an in-flight build; the part of each run before Runner::run),
     * lock analysis, engine, and stats export. Worker idle time is
     * left in unattributed_s.
     */
    Layers
    breakdown(const std::vector<RunOutcome> &outcomes,
              const std::map<std::string, std::unique_ptr<SweepRunTrace>>
                  &traces,
              const SweepEngine &engine, const TraceCacheStats &cs,
              double makespan, uint64_t peak_bytes) const
    {
        double cache_s = 0, fill_s = 0, lock_s = 0, sim_s = 0,
               export_s = 0, busy_s = 0;
        uint64_t served = 0, chunks = 0;
        for (const RunOutcome &o : outcomes) {
            busy_s += o.wallMs * 1e-3;
            auto itr = traces.find(o.name);
            if (itr == traces.end())
                continue;
            const SweepRunTrace &rt = *itr->second;
            const std::vector<Span> &spans = rt.tracer.spans();
            std::map<std::string, LayerTime> st = selfTimes(spans);
            double run_s = static_cast<double>(
                               spans[findSpan(spans, "run")].durNs()) *
                1e-9;
            double before = o.wallMs * 1e-3 - run_s;
            cache_s += before + st["cache"].selfS;
            if (!o.traceCacheHit)
                fill_s += before;
            lock_s += rt.lockS;
            sim_s += st["run"].selfS - rt.lockS;
            export_s += st["export"].selfS;
            served += rt.served;
            chunks += rt.chunks;
        }
        double capacity = static_cast<double>(_jobs) * makespan;
        uint64_t insts = 0;
        for (const RunOutcome &o : outcomes) {
            if (o.ok)
                insts += _req.warmupInsts + o.output.sim.instructions;
        }

        Layers l;
        l["trace.cache.self_s"] = cache_s;
        l["trace.cache.fill_s"] = fill_s;
        l["trace.cache.hits"] = static_cast<double>(cs.hits);
        l["trace.cache.misses"] = static_cast<double>(cs.misses);
        l["trace.cache.evictions"] = static_cast<double>(cs.evictions);
        l["trace.cache.hit_ratio"] = cs.hits + cs.misses
            ? static_cast<double>(cs.hits) /
                static_cast<double>(cs.hits + cs.misses)
            : 0.0;
        l["trace.cache.peak_bytes"] = static_cast<double>(peak_bytes);
        l["trace.lockdetect.self_s"] = lock_s;
        l["trace.source.fetches_per_chunk"] = chunks
            ? static_cast<double>(served) / static_cast<double>(chunks)
            : 0.0;
        l["core.simulate.self_s"] = sim_s;
        l["core.simulate.ns_per_inst"] =
            insts ? sim_s * 1e9 / static_cast<double>(insts) : 0.0;
        l["core.sweep.makespan_s"] = makespan;
        l["core.sweep.worker_busy_frac"] =
            capacity > 0 ? busy_s / capacity : 0.0;
        l["core.sweep.runs_failed"] =
            static_cast<double>(engine.runsFailed());
        l["core.sweep.retries"] = static_cast<double>(engine.runRetries());
        l["stats.export.self_s"] = export_s;
        l["unattributed_s"] =
            capacity - (cache_s + lock_s + sim_s + export_s);
        return l;
    }

    std::filesystem::path _root;
    uint64_t _seed;
    unsigned _jobs;
    SweepRequest _req;
};

// ---------------------------------------------------------------------
// Main program
// ---------------------------------------------------------------------

/** Every per-layer metric, so each workload reports the full set. */
const char *const kLayerMetrics[] = {
    "trace.generate.self_s",
    "trace.generate.records",
    "trace.generate.regen_ratio",
    "trace.rewrite.self_s",
    "trace.rewrite.expand_ratio",
    "trace.lockdetect.self_s",
    "trace.decode.self_s",
    "trace.decode.records",
    "trace.decode.mb_per_s",
    "trace.decode.redecode_ratio",
    "trace.source.fetches_per_chunk",
    "trace.cache.self_s",
    "trace.cache.fill_s",
    "trace.cache.hits",
    "trace.cache.misses",
    "trace.cache.evictions",
    "trace.cache.hit_ratio",
    "trace.cache.peak_bytes",
    "core.simulate.self_s",
    "core.simulate.ns_per_inst",
    "core.epochs",
    "core.instructions",
    "core.sweep.makespan_s",
    "core.sweep.worker_busy_frac",
    "core.sweep.runs_failed",
    "core.sweep.retries",
    "cache.replay.self_s",
    "cache.l2.accesses",
    "cache.l2.misses",
    "coherence.smac.accelerated_stores",
    "coherence.smac.probe_hits",
    "stats.export.self_s",
    "unattributed_s",
    "trace_overhead_frac",
};

/**
 * Per-layer values that are counts: they must repeat exactly across
 * traced iterations (and, per seed, across processes: run.py compares
 * them with the references).
 */
const char *const kExactCounts[] = {
    "trace.generate.records", "trace.decode.records",
    "trace.cache.hits",       "trace.cache.misses",
    "trace.cache.evictions",  "core.epochs",
    "core.instructions",      "cache.l2.accesses",
    "cache.l2.misses",        "coherence.smac.accelerated_stores",
    "coherence.smac.probe_hits",
};

struct Args
{
    std::filesystem::path root;
    std::filesystem::path work;
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::cerr << "perfbench: " << msg << "\n"
              << "usage: perfbench --root DIR --work DIR --workload "
                 "synth_wc_sle|sweep_9cfg|replay_v4_smac --seed N "
                 "--seconds S --trace 0|1\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    auto num = [](const std::string &flag, const std::string &v) {
        char *end = nullptr;
        double d = std::strtod(v.c_str(), &end);
        if (v.empty() || *end || !(d >= 0))
            usage("bad value for " + flag + ": " + v);
        return d;
    };
    for (int i = 1; i < argc; ++i) {
        std::string f = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + f);
        std::string v = argv[++i];
        if (f == "--root")
            a.root = v;
        else if (f == "--work")
            a.work = v;
        else if (f == "--workload")
            a.workload = v;
        else if (f == "--seed")
            a.seed = static_cast<uint64_t>(num(f, v));
        else if (f == "--seconds")
            a.seconds = num(f, v);
        else if (f == "--trace")
            a.trace = num(f, v) != 0;
        else
            usage("unknown flag " + f);
    }
    if (a.root.empty() || a.work.empty() || a.workload.empty())
        usage("--root, --work and --workload are required");
    return a;
}

std::unique_ptr<Workload>
makeWorkload(const Args &a, unsigned jobs)
{
    if (a.workload == "synth_wc_sle")
        return std::make_unique<SynthWorkload>(a.root, a.seed);
    if (a.workload == "sweep_9cfg")
        return std::make_unique<SweepWorkload>(a.root, a.seed, jobs);
    if (a.workload == "replay_v4_smac")
        return std::make_unique<ReplayWorkload>(a.root, a.work, a.seed);
    usage("unknown workload " + a.workload);
}

/** Aggregate counts of an iteration's runs into the layer table. */
void
addRunCounts(Iteration &it)
{
    uint64_t epochs = 0, insts = 0, acc = 0, miss = 0, accel = 0,
             probe = 0;
    for (const RunRecord &r : it.runs) {
        epochs += r.epochs;
        insts += r.measured;
        acc += r.l2Accesses;
        miss += r.l2Misses;
        accel += r.smacAccelerated;
        probe += r.smacProbeHits;
    }
    it.layers["core.epochs"] = static_cast<double>(epochs);
    it.layers["core.instructions"] = static_cast<double>(insts);
    it.layers["cache.l2.accesses"] = static_cast<double>(acc);
    it.layers["cache.l2.misses"] = static_cast<double>(miss);
    it.layers["coherence.smac.accelerated_stores"] =
        static_cast<double>(accel);
    it.layers["coherence.smac.probe_hits"] = static_cast<double>(probe);
}

void
writeMetric(JsonWriter &w, const std::string &name, double value,
            const std::string &unit)
{
    w.key(name).beginObject();
    w.key("value").value(value);
    w.key("unit").value(std::string_view(unit));
    w.endObject();
}

std::string
layerUnit(const std::string &name)
{
    auto ends = [&name](const std::string &suf) {
        return name.size() >= suf.size() &&
            name.compare(name.size() - suf.size(), suf.size(), suf) == 0;
    };
    if (ends("mb_per_s"))
        return "MB/s";
    if (ends("ns_per_inst"))
        return "ns/inst";
    if (ends("_s"))
        return "s";
    if (ends("_bytes"))
        return "bytes";
    if (ends("_ratio") || ends("_frac") || ends("per_chunk"))
        return "ratio";
    return "count";
}

void
writeSpans(const std::filesystem::path &path, const Iteration &it)
{
    std::ofstream out(path);
    for (const auto &[trace_id, spans] : it.traces) {
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            JsonWriter w(out);
            w.beginObject();
            w.key("trace").value(std::string_view(trace_id));
            w.key("span").value(static_cast<uint64_t>(i));
            w.key("parent").value(static_cast<int>(s.parent));
            w.key("name").value(std::string_view(s.name));
            w.key("start_ns").value(static_cast<uint64_t>(s.startNs));
            w.key("end_ns").value(static_cast<uint64_t>(s.endNs));
            w.key("chunk").value(s.chunk);
            w.key("records").value(s.records);
            w.key("pass").value(static_cast<uint64_t>(s.pass));
            w.endObject();
            out << "\n";
        }
    }
}

int
runBenchmark(const Args &a)
{
    std::filesystem::create_directories(a.work);
    const std::vector<int> cpus = allowedCpus();
    // Sweep workers: 4 keep the makespan steady (README.md,
    // "Steadiness"), never more than the CPUs this process may use.
    const unsigned jobs = static_cast<unsigned>(
        std::clamp<size_t>(cpus.size(), 1, 4));
    std::unique_ptr<Workload> wl = makeWorkload(a, jobs);

    // Single-threaded work visits every allowed CPU in turn, one round
    // each: on a shared host the neighbours' load differs from CPU to
    // CPU, so a run then samples all of them, not the one it began on.
    auto pin = [&](size_t round) {
        if (wl->singleThreaded() && !cpus.empty())
            pinToCpu(cpus[round % cpus.size()]);
    };

    std::vector<double> setup_s;
    for (unsigned r = 0; r < wl->setupReps(); ++r) {
        pin(r);
        int64_t t0 = nowNs();
        wl->setup();
        setup_s.push_back(secondsSince(t0));
    }
    bool rss_scoped = resetPeakRss();

    // Untraced iterations alone, or (traced mode) untraced/traced
    // pairs so the overhead compares neighbouring iterations.
    std::vector<Iteration> plain, traced;
    const size_t min_rounds = a.trace ? 2 : 3;
    int64_t t_start = nowNs();
    while (plain.size() < min_rounds || secondsSince(t_start) < a.seconds) {
        pin(plain.size());
        plain.push_back(wl->iterate(false));
        if (a.trace)
            traced.push_back(wl->iterate(true));
    }
    double measured_s = secondsSince(t_start);
    uint64_t rss_kb = peakRssKb();
    if (!rss_scoped || !rss_kb) {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        rss_kb = static_cast<uint64_t>(ru.ru_maxrss);
    }
    double replay_s = a.trace ? wl->cacheReplaySelf() : 0.0;

    // ---- output check: every run of a name hashes alike ----
    std::map<std::string, std::string> hashes;
    std::map<std::string, uint64_t> attempts, failures;
    std::vector<std::string> errors;
    auto check = [&](const Iteration &it, const char *kind) {
        for (const RunRecord &r : it.runs) {
            ++attempts[r.name];
            std::string why;
            if (!r.ok) {
                why = r.error;
            } else {
                auto [h, fresh] = hashes.emplace(r.name, r.hash);
                if (!fresh && h->second != r.hash)
                    why = std::string(kind) + " stats hash " + r.hash +
                        " != " + h->second;
            }
            if (!why.empty()) {
                ++failures[r.name];
                errors.push_back(r.name + ": " + why);
            }
        }
    };
    for (const Iteration &it : plain)
        check(it, "untraced");
    for (const Iteration &it : traced)
        check(it, "traced");

    std::map<std::string, double> metrics;
    std::map<std::string, std::string> units;
    if (!a.trace) {
        // Each iteration gives one value per metric and the run
        // reports the best. On a shared host, neighbours slow this
        // memory-bound code by up to half for tens of seconds at a
        // time, on all CPUs at once; a run's median follows those
        // phases, its best iteration stays near the uncontended cost.
        std::vector<double> rate, cpu_ns, first, run_p50, run_tail;
        for (const Iteration &it : plain) {
            uint64_t insts = 0;
            std::vector<double> walls;
            for (const RunRecord &r : it.runs) {
                insts += r.insts;
                walls.push_back(r.wallS);
            }
            if (!insts)
                continue; // every run failed; counted in `failed`
            rate.push_back(static_cast<double>(insts) / it.wallS / 1e6);
            cpu_ns.push_back(it.cpuS * 1e9 / static_cast<double>(insts));
            first.push_back(it.firstResultS);
            run_p50.push_back(median(walls));
            run_tail.push_back(tail(walls));
        }
        metrics = {{"sim_minsts_per_s", highest(rate)},
                   {"cpu_ns_per_inst", lowest(cpu_ns)},
                   {"peak_rss_mb", static_cast<double>(rss_kb) / 1024.0},
                   {"setup_s", median(setup_s)},
                   {"first_result_s", lowest(first)},
                   {"run_p50_s", lowest(run_p50)},
                   {"run_tail_s", lowest(run_tail)}};
        units = {{"sim_minsts_per_s", "Minst/s"},
                 {"cpu_ns_per_inst", "ns/inst"},
                 {"peak_rss_mb", "MiB"},
                 {"setup_s", "s"},
                 {"first_result_s", "s"},
                 {"run_p50_s", "s"},
                 {"run_tail_s", "s"}};
    } else {
        for (Iteration &it : traced)
            addRunCounts(it);
        for (const char *name : kLayerMetrics) {
            std::vector<double> v;
            for (const Iteration &it : traced) {
                auto f = it.layers.find(name);
                v.push_back(f == it.layers.end() ? 0.0 : f->second);
            }
            metrics[name] = median(v);
            units[name] = layerUnit(name);
        }
        for (const char *name : kExactCounts) {
            for (const Iteration &it : traced) {
                auto f = it.layers.find(name);
                double v = f == it.layers.end() ? 0.0 : f->second;
                if (v != metrics[name])
                    errors.push_back(std::string(name) +
                                     " differs between traced runs");
            }
        }
        // Pairs ran back to back, so each ratio sees one host state.
        std::vector<double> overhead;
        for (size_t i = 0; i < traced.size(); ++i)
            overhead.push_back(traced[i].wallS / plain[i].wallS - 1.0);
        metrics["trace_overhead_frac"] = median(overhead);
        metrics["cache.replay.self_s"] = replay_s;

        std::filesystem::path span_dir = a.work / "spans";
        std::filesystem::create_directories(span_dir);
        writeSpans(span_dir / (a.workload + "_seed" +
                               std::to_string(a.seed) + ".jsonl"),
                   traced.back());
    }

    // ---- result object (run.py adds the reference check) ----
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.key("workload").value(std::string_view(a.workload));
    w.key("seed").value(a.seed);
    w.key("metrics").beginObject();
    for (const auto &[name, v] : metrics)
        writeMetric(w, name, v, units[name]);
    w.endObject();
    w.key("runs").beginObject();
    for (const auto &[name, n] : attempts) {
        w.key(name).beginObject();
        w.key("hash").value(std::string_view(hashes[name]));
        w.key("attempts").value(n);
        w.key("failed").value(failures[name]);
        w.endObject();
    }
    w.endObject();
    w.key("errors").beginArray();
    for (const std::string &e : errors)
        w.value(std::string_view(e));
    w.endArray();
    w.key("table1").beginArray();
    for (const RunRecord &r : plain.front().runs) {
        w.beginObject();
        w.key("run").value(std::string_view(r.name));
        w.key("profile").value(std::string_view(r.profile));
        const char *keys[4] = {"storesPer100", "storeMissPer100",
                               "loadMissPer100", "instMissPer100"};
        for (int k = 0; k < 4; ++k) {
            w.key(keys[k]).beginArray();
            w.value(r.rates[k]).value(r.targets[k]);
            w.endArray();
        }
        w.endObject();
    }
    w.endArray();
    w.key("context").beginObject();
    w.key("compiler").value(std::string_view(PERFBENCH_COMPILER));
    w.key("build_type").value(std::string_view(PERFBENCH_BUILD_TYPE));
    w.key("lto").value(std::string_view(PERFBENCH_LTO));
    w.key("sweep_workers").value(static_cast<uint64_t>(jobs));
    w.key("setup_reps").value(static_cast<uint64_t>(setup_s.size()));
    w.key("iterations").value(static_cast<uint64_t>(plain.size()));
    w.key("traced_iterations").value(static_cast<uint64_t>(traced.size()));
    w.key("run_samples")
        .value(static_cast<uint64_t>(plain.size() *
                                     plain.front().runs.size()));
    w.key("measured_s").value(measured_s);
    w.key("iteration_walls").beginArray();
    for (const Iteration &it : plain)
        w.value(it.wallS);
    w.endArray();
    if (a.trace) {
        w.key("traced_iteration_walls").beginArray();
        for (const Iteration &it : traced)
            w.value(it.wallS);
        w.endArray();
    }
    w.key("rss_scope")
        .value(std::string_view(rss_scoped ? "timed section" : "process"));
    w.endObject();
    w.endObject();
    std::cout << os.str() << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parseArgs(argc, argv);
    try {
        return runBenchmark(a);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
