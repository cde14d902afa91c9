/**
 * @file
 * Hot-loop equivalence suite: pins the simulator's observable results
 * against goldens recorded *before* the throughput restructuring
 * (SoA chunk lanes, devirtualized dispatch, cache way memos, batched
 * bookkeeping), so any optimization that changes a single counter,
 * histogram bucket or cycle count fails here.
 *
 * Every case renders its full stats registry (SimResult or RunOutput,
 * machine counters included) to the schemaVersion-1 JSON text — whose
 * number formatting round-trips exactly — and hashes it with FNV-1a.
 * The hashes live in tests/golden/hotloop.golden; regenerate with
 *
 *   STOREMLP_HOTLOOP_REGEN=1 ./tests/test_hotloop
 *
 * ONLY when a semantic change is intended and reviewed. The matrix
 * covers all shipped configs (PC1-PC3, WC1-WC3, scout, TM, SMAC,
 * multi-chip peer traffic, sibling core), both cores of a two-core
 * chip (MultiCoreRunner at N=2, M=1), materialized vs generator vs
 * on-disk v4 files, chunk sizes 1 / non-divisor / default, and
 * jobs=1 vs jobs=4 sweeps, cached and uncached.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "coherence/chip.hh"
#include "core/mlp_sim.hh"
#include "core/multi_core.hh"
#include "core/runner.hh"
#include "core/sweep.hh"
#include "trace/generator.hh"
#include "trace/trace_cache.hh"
#include "trace/trace_file_source.hh"
#include "trace/trace_io.hh"
#include "trace/trace_source.hh"
#include "sim_test_util.hh"
#include "stats_hash.hh"

using namespace storemlp;

namespace
{

constexpr uint64_t kWarmup = 20000;
constexpr uint64_t kMeasure = 40000;

using test::hashRunOutput;
using test::hashSimResult;

RunSpec
baseSpec(SimConfig cfg)
{
    RunSpec spec;
    spec.profile = WorkloadProfile::database();
    spec.config = std::move(cfg);
    spec.warmupInsts = kWarmup;
    spec.measureInsts = kMeasure;
    return spec;
}

/** name -> stats hash, in deterministic order. */
using CaseMap = std::map<std::string, std::string>;

/**
 * The full case matrix. Kept in one function so the regen path and
 * the compare path can never drift apart.
 */
CaseMap
buildCases()
{
    CaseMap out;

    // ---- every shipped config, materialized path ----
    struct NamedCfg
    {
        const char *name;
        SimConfig cfg;
    };
    const NamedCfg shipped[] = {
        {"pc1", SimConfig::defaults()},
        {"pc2", SimConfig::pc2()},
        {"pc3", SimConfig::pc3()},
        {"wc1", SimConfig::wc1()},
        {"wc2", SimConfig::wc2()},
        {"wc3", SimConfig::wc3()},
        {"pc1_sp0", SimConfig::defaults().withPrefetch(StorePrefetch::None)},
        {"pc1_sp2",
         SimConfig::defaults().withPrefetch(StorePrefetch::AtExecute)},
        {"pc1_hws2", SimConfig::defaults().withScout(ScoutMode::Hws2)},
        {"wc1_hws1", SimConfig::wc1().withScout(ScoutMode::Hws1)},
    };
    for (const NamedCfg &nc : shipped) {
        RunSpec spec = baseSpec(nc.cfg);
        out[std::string("run/") + nc.name] = hashRunOutput(test::runMaterialized(spec));
    }

    // ---- transactional memory ----
    {
        RunSpec spec = baseSpec(SimConfig::defaults());
        spec.config.tm.enabled = true;
        out["run/tm"] = hashRunOutput(test::runMaterialized(spec));
    }

    // ---- machine variants: SMAC, peer traffic, sibling core ----
    {
        RunSpec spec = baseSpec(SimConfig::defaults());
        spec.numChips = 2;
        spec.peerTraffic = true;
        spec.smac = SmacConfig{};
        out["run/smac_peer"] = hashRunOutput(test::runMaterialized(spec));
    }
    {
        RunSpec spec = baseSpec(SimConfig::defaults());
        spec.numChips = 2;
        spec.peerTraffic = true;
        spec.siblingCore = true;
        spec.smac = SmacConfig{};
        out["run/smac_sibling"] = hashRunOutput(test::runMaterialized(spec));
    }

    // ---- streaming (generator / WC-rewrite sources), chunk sizes ----
    for (const char *model : {"pc", "wc"}) {
        SimConfig cfg = model[0] == 'p' ? SimConfig::defaults()
                                        : SimConfig::wc2();
        for (uint64_t chunk : {uint64_t{1}, uint64_t{7777}, uint64_t{0}}) {
            RunSpec spec = baseSpec(cfg);
            auto src = Runner::makeSource(spec, chunk);
            std::string name = std::string("stream/") + model + "_chunk" +
                std::to_string(chunk);
            out[name] = hashRunOutput(Runner::run(spec, *src));
        }
    }

    // ---- streamed SLE (wc3) and TM: lock roles ride the chunks ----
    {
        SimConfig tm = SimConfig::defaults();
        tm.tm.enabled = true;
        struct StreamCase
        {
            const char *name;
            SimConfig cfg;
            std::vector<uint64_t> chunks;
        };
        const StreamCase lock_cases[] = {
            {"wc3", SimConfig::wc3(), {0, 1, 7777}},
            {"tm", tm, {1, 7777}},
        };
        for (const StreamCase &sc : lock_cases) {
            for (uint64_t chunk : sc.chunks) {
                RunSpec spec = baseSpec(sc.cfg);
                auto src = Runner::makeSource(spec, chunk);
                std::string name = std::string("stream/") + sc.name +
                    "_chunk" + std::to_string(chunk);
                out[name] = hashRunOutput(Runner::run(spec, *src));
            }
        }
    }

    // ---- two full cores sharing one chip's L2 (the paper's Section
    // 4.3 chip), per core: MultiCoreRunner at N=2, M=1 ----
    {
        struct MultiCase
        {
            const char *name;
            SimConfig cfg;
            uint64_t quantum;
        };
        const MultiCase multi_cases[] = {
            {"pc1", SimConfig::defaults(), 256},
            {"wc1", SimConfig::wc1(), 256},
            {"pc3", SimConfig::pc3(), 256},
            {"wc3", SimConfig::wc3(), 256},
            {"pc1_sp2",
             SimConfig::defaults().withPrefetch(StorePrefetch::AtExecute),
             256},
            // A second quantum; like 256, it does not divide the
            // warmup, so a turn straddles the warmup boundary.
            {"pc1_q192", SimConfig::defaults(), 192},
        };
        for (const MultiCase &mc : multi_cases) {
            MultiRunSpec spec;
            spec.profile = WorkloadProfile::database();
            spec.config = mc.cfg;
            spec.warmupInsts = kWarmup;
            spec.measureInsts = kMeasure;
            spec.quantum = mc.quantum;
            spec.cores = 2;
            spec.chips = 1;
            MultiRunOutput multi = MultiCoreRunner::run(spec);
            for (size_t c = 0; c < multi.cores.size(); ++c) {
                out[std::string("multi/n2m1_") + mc.name + "_core" +
                    std::to_string(c)] = hashSimResult(multi.cores[c]);
            }
        }
    }

    // ---- on-disk v4 files (three chunk sizes, whole-trace reader),
    // direct simulator runs ----
    {
        SyntheticTraceGenerator gen(WorkloadProfile::database(), 7);
        Trace trace = gen.generate(kWarmup + kMeasure);
        std::string base =
            ::testing::TempDir() + "hotloop_equiv_" +
            std::to_string(static_cast<unsigned>(::getpid()));
        struct FileCase
        {
            const char *tag;
            uint64_t chunk;
            std::string path;
        };
        FileCase fcs[] = {
            {"v4_file", kDefaultChunkInsts, base + "_v4.trc"},
            {"v4_chunk1", 1, base + "_v4_chunk1.trc"},
            {"v4_chunk7777", 7777, base + "_v4_chunk7777.trc"},
        };
        for (const FileCase &fc : fcs)
            writeTraceFileV4(fc.path, trace, "hotloop", fc.chunk);

        const SimConfig cfgs[] = {SimConfig::defaults(), SimConfig::pc3()};
        for (const SimConfig &cfg : cfgs) {
            // Materialized reference.
            {
                MaterializedSource src(trace);
                ChipNode chip(HierarchyConfig{}, 0);
                MlpSimulator sim(cfg, chip);
                out[std::string("file/") + cfg.name + "_mat"] =
                    hashSimResult(sim.run(src, kWarmup));
            }
            for (const FileCase &fc : fcs) {
                StreamingFileSource src(fc.path);
                ChipNode chip(HierarchyConfig{}, 0);
                MlpSimulator sim(cfg, chip);
                out[std::string("file/") + cfg.name + "_" + fc.tag] =
                    hashSimResult(sim.run(src, kWarmup));
            }
            // The whole-trace reader.
            {
                Trace loaded = readTraceFile(fcs[0].path);
                MaterializedSource src(loaded);
                ChipNode chip(HierarchyConfig{}, 0);
                MlpSimulator sim(cfg, chip);
                out[std::string("file/") + cfg.name + "_v4_read"] =
                    hashSimResult(sim.run(src, kWarmup));
            }
        }
        for (const FileCase &fc : fcs)
            std::remove(fc.path.c_str());
    }

    return out;
}

std::string
goldenPath()
{
#ifdef STOREMLP_HOTLOOP_GOLDEN
    return STOREMLP_HOTLOOP_GOLDEN;
#else
    return "hotloop.golden";
#endif
}

CaseMap
readGolden(const std::string &path)
{
    CaseMap out;
    std::ifstream in(path);
    std::string name, hash;
    while (in >> name >> hash)
        out[name] = hash;
    return out;
}

TEST(HotloopEquivalence, BitIdenticalAgainstGolden)
{
    CaseMap cases = buildCases();
    ASSERT_GE(cases.size(), 30u);

    if (std::getenv("STOREMLP_HOTLOOP_REGEN")) {
        std::ofstream outf(goldenPath());
        ASSERT_TRUE(outf.good()) << "cannot write " << goldenPath();
        for (const auto &[name, hash] : cases)
            outf << name << " " << hash << "\n";
        GTEST_SKIP() << "regenerated " << goldenPath();
    }

    CaseMap golden = readGolden(goldenPath());
    ASSERT_FALSE(golden.empty())
        << "golden file missing/empty: " << goldenPath()
        << " (regen with STOREMLP_HOTLOOP_REGEN=1)";
    EXPECT_EQ(golden.size(), cases.size());
    for (const auto &[name, hash] : cases) {
        auto it = golden.find(name);
        ASSERT_NE(it, golden.end()) << "no golden entry for " << name;
        EXPECT_EQ(it->second, hash)
            << name << ": SimResult diverged from pre-optimization golden";
    }
}

/**
 * Parallel sweep determinism through the restructured hot loop: the
 * same batch at jobs=1 and jobs=4, on cached whole traces and on
 * per-run streamed sources, must be bit-identical.
 */
TEST(HotloopEquivalence, SweepJobsAndStreamingAgree)
{
    std::vector<RunSpec> specs;
    for (const SimConfig &cfg :
         {SimConfig::defaults(), SimConfig::wc1(),
          SimConfig::defaults().withScout(ScoutMode::Hws2)}) {
        RunSpec spec = baseSpec(cfg);
        spec.warmupInsts = 10000;
        spec.measureInsts = 20000;
        specs.push_back(spec);
    }

    auto runWith = [&](unsigned jobs, bool cached) {
        TraceCache cache;
        SweepOptions opts;
        opts.jobs = jobs;
        opts.progress = false;
        opts.useTraceCache = cached;
        SweepEngine engine(opts, &cache);
        std::vector<PlannedRun> runs(specs.size());
        for (size_t i = 0; i < specs.size(); ++i) {
            runs[i].name = "spec" + std::to_string(i);
            runs[i].spec = specs[i];
        }
        return engine.execute(runs);
    };

    auto ref = runWith(1, true);
    for (unsigned jobs : {1u, 4u}) {
        for (bool cached : {true, false}) {
            auto got = runWith(jobs, cached);
            ASSERT_EQ(got.size(), ref.size());
            for (size_t i = 0; i < ref.size(); ++i) {
                ASSERT_TRUE(got[i].ok);
                EXPECT_EQ(hashRunOutput(got[i].output),
                          hashRunOutput(ref[i].output))
                    << "spec " << i << " jobs=" << jobs
                    << " cached=" << cached;
            }
        }
    }
}

} // namespace
