/**
 * @file
 * Simulator performance harness (google-benchmark): trace generation
 * throughput, cache-only replay throughput, full epoch-engine
 * throughput on each commercial workload, one end-to-end streamed
 * run (generator, WC rewrite, lock-role stage, engine), the same
 * chain layer by layer (BM_Layer_*), v4 trace encode throughput, and
 * on-disk v4 trace decode throughput.
 *
 * The decode benchmark defaults to a generated database-profile trace
 * written to a temp file unique to the process; pass `--trace PATH` to measure decode of an
 * existing trace file instead (the flag is consumed here, before
 * google-benchmark parses the rest).
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include <stdlib.h>
#include <unistd.h>

#include "coherence/chip.hh"
#include "core/mlp_sim.hh"
#include "core/runner.hh"
#include "trace/generator.hh"
#include "trace/lock_detector.hh"
#include "trace/trace_file_source.hh"
#include "trace/trace_io.hh"
#include "trace/trace_source.hh"

using namespace storemlp;

namespace
{

void
BM_TraceGeneration(benchmark::State &state)
{
    WorkloadProfile profile = WorkloadProfile::database();
    uint64_t n = static_cast<uint64_t>(state.range(0));
    uint64_t seed = 1;
    for (auto _ : state) {
        SyntheticTraceGenerator gen(profile, seed++);
        Trace t = gen.generate(n);
        benchmark::DoNotOptimize(t.size());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(n));
}
BENCHMARK(BM_TraceGeneration)->Arg(100000);

void
BM_CacheReplay(benchmark::State &state)
{
    WorkloadProfile profile = WorkloadProfile::database();
    SyntheticTraceGenerator gen(profile, 1);
    Trace trace = gen.generate(100000);
    for (auto _ : state) {
        CacheHierarchy hier;
        for (const auto &r : trace.records()) {
            hier.instFetch(r.pc);
            if (isLoadClass(r.cls))
                hier.load(r.addr);
            if (isStoreClass(r.cls))
                hier.store(r.addr);
        }
        benchmark::DoNotOptimize(hier.l2Accesses());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(trace.size()));
}
BENCHMARK(BM_CacheReplay);

void
epochEngineBench(benchmark::State &state, WorkloadProfile profile)
{
    SyntheticTraceGenerator gen(profile, 1);
    Trace trace = gen.generate(100000);
    SimConfig cfg = SimConfig::defaults();
    cfg.cpiOnChip = profile.cpiOnChip;
    for (auto _ : state) {
        ChipNode chip(HierarchyConfig{}, 0);
        MaterializedSource src(trace);
        MlpSimulator sim(cfg, chip);
        SimResult res = sim.run(src);
        benchmark::DoNotOptimize(res.epochs);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(trace.size()));
}

void
BM_EpochEngine_Database(benchmark::State &state)
{
    epochEngineBench(state, WorkloadProfile::database());
}
BENCHMARK(BM_EpochEngine_Database);

void
BM_EpochEngine_SpecJbb(benchmark::State &state)
{
    epochEngineBench(state, WorkloadProfile::specjbb());
}
BENCHMARK(BM_EpochEngine_SpecJbb);

void
BM_EpochEngineScout_Database(benchmark::State &state)
{
    WorkloadProfile profile = WorkloadProfile::database();
    SyntheticTraceGenerator gen(profile, 1);
    Trace trace = gen.generate(100000);
    SimConfig cfg = SimConfig::defaults().withScout(ScoutMode::Hws2);
    cfg.cpiOnChip = profile.cpiOnChip;
    for (auto _ : state) {
        ChipNode chip(HierarchyConfig{}, 0);
        MaterializedSource src(trace);
        MlpSimulator sim(cfg, chip);
        SimResult res = sim.run(src);
        benchmark::DoNotOptimize(res.epochs);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(trace.size()));
}
BENCHMARK(BM_EpochEngineScout_Database);

/**
 * End to end, the way the tools run a synthetic WC experiment:
 * Runner::makeSource (generator -> PC->WC rewrite) and Runner::run
 * (lock-role stage, warmup, measure) on database x wc3, 100K + 400K.
 * Items are the records simulated, warmup included.
 */
void
BM_Runner_StreamedWcSle(benchmark::State &state)
{
    RunSpec spec;
    spec.profile = WorkloadProfile::database();
    spec.config = SimConfig::wc3();
    spec.seed = 1;
    spec.warmupInsts = 100 * 1000;
    spec.measureInsts = 400 * 1000;
    uint64_t records = 0;
    for (auto _ : state) {
        std::unique_ptr<TraceSource> src = Runner::makeSource(spec);
        RunOutput out = Runner::run(spec, *src);
        benchmark::DoNotOptimize(out.sim.epochs);
        records = src->knownSize().value_or(0);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(records));
}
BENCHMARK(BM_Runner_StreamedWcSle);

/**
 * Layer benchmarks: the synthetic WC chain the tools build for
 * database x wc3, one layer more per case, on 1M generated records
 * (200K warmup + 800K measured for the run). Items are the generated
 * records in every case, so the rates compare directly and each
 * layer's cost per record is the difference of two cases' times.
 */
RunSpec
layerSpec()
{
    RunSpec spec;
    spec.profile = WorkloadProfile::database();
    spec.config = SimConfig::wc3();
    spec.seed = 1;
    spec.warmupInsts = 200 * 1000;
    spec.measureInsts = 800 * 1000;
    return spec;
}

constexpr int64_t kLayerRecords = 1000 * 1000;

/** Walk every chunk of `src`, touching one field per chunk. */
void
drain(TraceSource &src)
{
    forEachChunk(src, [](const TraceChunk &c) {
        benchmark::DoNotOptimize(c.data[c.count - 1].addr);
    });
}

/** GeneratorSource alone. */
void
BM_Layer_Generate(benchmark::State &state)
{
    RunSpec spec = layerSpec();
    for (auto _ : state) {
        GeneratorSource src(spec.profile, spec.seed, kLayerRecords);
        drain(src);
    }
    state.SetItemsProcessed(state.iterations() * kLayerRecords);
}
BENCHMARK(BM_Layer_Generate);

/** Runner::makeSource's chain: generator -> PC->WC rewrite. */
void
BM_Layer_WcRewrite(benchmark::State &state)
{
    RunSpec spec = layerSpec();
    for (auto _ : state) {
        std::unique_ptr<TraceSource> src = Runner::makeSource(spec);
        drain(*src);
    }
    state.SetItemsProcessed(state.iterations() * kLayerRecords);
}
BENCHMARK(BM_Layer_WcRewrite);

/** The same chain behind the lock-role stage, as SLE reads it. */
void
BM_Layer_LockRoles(benchmark::State &state)
{
    RunSpec spec = layerSpec();
    for (auto _ : state) {
        std::unique_ptr<TraceSource> src = Runner::makeSource(spec);
        LockRoleSource roles(*src);
        drain(roles);
    }
    state.SetItemsProcessed(state.iterations() * kLayerRecords);
}
BENCHMARK(BM_Layer_LockRoles);

/** The whole run: the chain above plus warmup and measurement. */
void
BM_Layer_RunWcSle(benchmark::State &state)
{
    RunSpec spec = layerSpec();
    for (auto _ : state) {
        std::unique_ptr<TraceSource> src = Runner::makeSource(spec);
        RunOutput out = Runner::run(spec, *src);
        benchmark::DoNotOptimize(out.sim.epochs);
    }
    state.SetItemsProcessed(state.iterations() * kLayerRecords);
}
BENCHMARK(BM_Layer_RunWcSle);

/** A sink that keeps nothing, so only the writer is timed. */
class NullBuf : public std::streambuf
{
  protected:
    std::streamsize
    xsputn(const char *, std::streamsize n) override
    {
        return n;
    }
    int_type
    overflow(int_type c) override
    {
        return traits_type::not_eof(c);
    }
};

/**
 * v4 encode of 1M in-memory database records at the chunk size in the
 * argument: the whole writer (chunk encode, index, body buffering,
 * container write). Items are records.
 */
void
BM_TraceEncode_V4(benchmark::State &state)
{
    static const Trace trace =
        SyntheticTraceGenerator(WorkloadProfile::database(), 1)
            .generate(1000000);
    uint64_t chunk = static_cast<uint64_t>(state.range(0));
    NullBuf buf;
    std::ostream os(&buf);
    for (auto _ : state)
        writeTraceV4(os, trace, "bench", chunk);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(trace.size()));
}
BENCHMARK(BM_TraceEncode_V4)->Arg(4096)->Arg(65536);

/**
 * Full streaming decode of an on-disk trace: construct the source
 * (header + index parse) and walk every record, exactly what a
 * `storemlp_sim --trace` run pays before simulation. Items are
 * records, bytes are file bytes, so the two rates read directly as
 * records/s and on-disk MB/s.
 */
void
traceDecodeBench(benchmark::State &state, const std::string &path)
{
    uint64_t file_bytes = probeTraceFile(path).fileBytes;
    uint64_t records = 0;
    for (auto _ : state) {
        StreamingFileSource src(path);
        records = forEachRecord(
            src, 0, ~uint64_t{0}, [](const TraceRecord &r) {
                benchmark::DoNotOptimize(r.addr);
            });
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(records));
    state.SetBytesProcessed(state.iterations() *
                            static_cast<int64_t>(file_bytes));
}

} // namespace

int
main(int argc, char **argv)
{
    // Consume --trace before google-benchmark sees it (it rejects
    // unknown flags).
    std::vector<char *> args;
    std::string trace_path;
    for (int i = 0; i < argc; ++i) {
        std::string a = argv[i];
        if (a.rfind("--trace=", 0) == 0) {
            trace_path = a.substr(8);
            continue;
        }
        if (a == "--trace" && i + 1 < argc) {
            trace_path = argv[++i];
            continue;
        }
        args.push_back(argv[i]);
    }
    int bench_argc = static_cast<int>(args.size());

    std::string temp_file;
    if (trace_path.empty()) {
        SyntheticTraceGenerator gen(WorkloadProfile::database(), 1);
        Trace trace = gen.generate(200000);
        // A name of its own, so concurrent runs cannot overwrite each
        // other's input.
        temp_file = (std::filesystem::temp_directory_path() /
                     "storemlp_perf_decode_v4_XXXXXX")
                        .string();
        int fd = mkstemp(temp_file.data());
        if (fd < 0) {
            std::perror("mkstemp");
            return 1;
        }
        close(fd);
        writeTraceFileV4(temp_file, trace, "bench");
        benchmark::RegisterBenchmark(
            "BM_TraceDecode_V4Chunked",
            [temp_file](benchmark::State &s) {
                traceDecodeBench(s, temp_file);
            });
    } else {
        benchmark::RegisterBenchmark(
            "BM_TraceDecode_File",
            [trace_path](benchmark::State &s) {
                traceDecodeBench(s, trace_path);
            });
    }

    benchmark::Initialize(&bench_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (!temp_file.empty())
        std::remove(temp_file.c_str());
    return 0;
}
