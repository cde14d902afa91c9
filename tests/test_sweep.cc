/**
 * @file
 * Tests for the parallel sweep engine and the shared trace cache:
 * bit-identical results across worker counts, trace-cache hit
 * behaviour for repeated (profile, seed, length, rewrite) keys, and
 * submission-order result collection. Run lengths honour
 * STOREMLP_WARMUP / STOREMLP_MEASURE so CI can scale further down
 * (small defaults keep the suite fast without them).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "core/sweep.hh"
#include "trace/generator.hh"
#include "sim_test_util.hh"

namespace storemlp
{
namespace
{

uint64_t
envScaled(const char *name, uint64_t def)
{
    if (const char *env = std::getenv(name)) {
        uint64_t v = std::strtoull(env, nullptr, 10);
        if (v > 0)
            return std::min(v, def);
    }
    return def;
}

uint64_t
warmupInsts()
{
    return envScaled("STOREMLP_WARMUP", 30000);
}

uint64_t
measureInsts()
{
    return envScaled("STOREMLP_MEASURE", 50000);
}

/** A mixed PC/WC spec list exercising distinct configs per slot. */
std::vector<RunSpec>
mixedSpecs()
{
    const SimConfig configs[] = {SimConfig::defaults(),
                                 SimConfig::pc2(),
                                 SimConfig::pc3(),
                                 SimConfig::wc1(),
                                 SimConfig::wc2(),
                                 SimConfig::wc3()};
    std::vector<RunSpec> specs;
    for (const SimConfig &cfg : configs) {
        RunSpec spec;
        spec.profile = WorkloadProfile::testTiny();
        spec.config = cfg;
        spec.warmupInsts = warmupInsts();
        spec.measureInsts = measureInsts();
        specs.push_back(spec);
    }
    // A second prefetch mode over the same traces (cache sharing).
    for (const SimConfig &cfg : {configs[0], configs[3]}) {
        RunSpec spec;
        spec.profile = WorkloadProfile::testTiny();
        spec.config = cfg.withPrefetch(StorePrefetch::AtExecute);
        spec.warmupInsts = warmupInsts();
        spec.measureInsts = measureInsts();
        specs.push_back(spec);
    }
    return specs;
}

SweepEngine
makeEngine(TraceCache &cache, unsigned jobs, bool use_cache = true)
{
    SweepOptions opts;
    opts.jobs = jobs;
    opts.useTraceCache = use_cache;
    opts.progress = false;
    return SweepEngine(opts, &cache);
}

/** Wrap bare specs as planned runs and execute them. */
std::vector<RunOutcome>
executeSpecs(SweepEngine &&engine, const std::vector<RunSpec> &specs)
{
    std::vector<PlannedRun> planned(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        planned[i].name = "spec" + std::to_string(i);
        planned[i].spec = specs[i];
    }
    return engine.execute(planned);
}

/** Every counter and distribution that run output carries. */
void
expectIdentical(const RunOutput &a, const RunOutput &b)
{
    const SimResult &x = a.sim;
    const SimResult &y = b.sim;
    EXPECT_EQ(x.instructions, y.instructions);
    EXPECT_EQ(x.epochs, y.epochs);
    EXPECT_EQ(x.missLoads, y.missLoads);
    EXPECT_EQ(x.missStores, y.missStores);
    EXPECT_EQ(x.missInsts, y.missInsts);
    EXPECT_EQ(x.epochMisses, y.epochMisses);
    EXPECT_EQ(x.epochMissLoads, y.epochMissLoads);
    EXPECT_EQ(x.epochMissStores, y.epochMissStores);
    EXPECT_EQ(x.epochMissInsts, y.epochMissInsts);
    EXPECT_EQ(x.overlappedStores, y.overlappedStores);
    EXPECT_EQ(x.smacAcceleratedStores, y.smacAcceleratedStores);
    EXPECT_EQ(x.termCounts, y.termCounts);
    EXPECT_EQ(x.termCountsStoreEpochs, y.termCountsStoreEpochs);
    EXPECT_EQ(x.l2StoreAccesses, y.l2StoreAccesses);
    EXPECT_EQ(x.storePrefetchesIssued, y.storePrefetchesIssued);
    EXPECT_EQ(x.coalescedStores, y.coalescedStores);
    EXPECT_EQ(x.sqInserts, y.sqInserts);
    EXPECT_EQ(x.scoutEntries, y.scoutEntries);
    EXPECT_EQ(x.scoutPrefetches, y.scoutPrefetches);
    EXPECT_EQ(x.elidedLocks, y.elidedLocks);
    EXPECT_EQ(x.tmAborts, y.tmAborts);
    EXPECT_EQ(x.serializeStalls, y.serializeStalls);
    EXPECT_EQ(x.branchMispredicts, y.branchMispredicts);
    EXPECT_EQ(x.branches, y.branches);
    EXPECT_EQ(x.onChipCycles, y.onChipCycles); // exact double equality

    // Full printed report catches any metric missed above.
    std::ostringstream xa, yb;
    x.print(xa);
    y.print(yb);
    EXPECT_EQ(xa.str(), yb.str());

    EXPECT_EQ(a.storesPer100, b.storesPer100);
    EXPECT_EQ(a.storeMissPer100, b.storeMissPer100);
    EXPECT_EQ(a.loadMissPer100, b.loadMissPer100);
    EXPECT_EQ(a.instMissPer100, b.instMissPer100);
    EXPECT_EQ(a.l2Accesses, b.l2Accesses);
    EXPECT_EQ(a.tlbMissPer100, b.tlbMissPer100);
    EXPECT_EQ(a.chipStoreMisses, b.chipStoreMisses);
}

TEST(SweepEngine, Jobs1AndJobs4AreBitIdentical)
{
    std::vector<RunSpec> specs = mixedSpecs();

    TraceCache cache1, cache4;
    std::vector<RunOutcome> serial =
        executeSpecs(makeEngine(cache1, 1), specs);
    std::vector<RunOutcome> parallel =
        executeSpecs(makeEngine(cache4, 4), specs);

    ASSERT_EQ(serial.size(), specs.size());
    ASSERT_EQ(parallel.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE("spec " + std::to_string(i));
        expectIdentical(serial[i].output, parallel[i].output);
    }
}

TEST(SweepEngine, StreamingMatchesMaterializedAtAnyJobCount)
{
    // The uncached path (each run streams its own source) must
    // reproduce the sweep over cached whole traces bit for bit,
    // serial and parallel alike.
    std::vector<RunSpec> specs = mixedSpecs();

    TraceCache mat_cache;
    std::vector<RunOutcome> materialized =
        executeSpecs(makeEngine(mat_cache, 2), specs);

    for (unsigned jobs : {1u, 4u}) {
        TraceCache unused;
        std::vector<RunOutcome> streamed =
            executeSpecs(makeEngine(unused, jobs, false), specs);
        ASSERT_EQ(streamed.size(), specs.size());
        for (size_t i = 0; i < specs.size(); ++i) {
            SCOPED_TRACE("jobs " + std::to_string(jobs) + " spec " +
                         std::to_string(i));
            ASSERT_TRUE(streamed[i].ok) << streamed[i].errorMessage;
            EXPECT_FALSE(streamed[i].traceCacheHit);
            expectIdentical(materialized[i].output, streamed[i].output);
        }
        // The streamed runs never touch the cache.
        EXPECT_EQ(unused.stats().hits + unused.stats().misses, 0u);
        EXPECT_EQ(unused.stats().bytes, 0u);
    }
}

TEST(SweepEngine, CachedAndUncachedTracesAgree)
{
    std::vector<RunSpec> specs = mixedSpecs();
    TraceCache cache, unused;
    std::vector<RunOutcome> cached =
        executeSpecs(makeEngine(cache, 2), specs);
    std::vector<RunOutcome> uncached =
        executeSpecs(makeEngine(unused, 2, false), specs);
    for (size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE("spec " + std::to_string(i));
        expectIdentical(cached[i].output, uncached[i].output);
    }
}

TEST(SweepEngine, TraceCacheHitsForRepeatedKeys)
{
    // 8 specs over testTiny: 6 PC-or-WC base configs + 2 prefetch
    // variants -> exactly 2 distinct traces (PC and WC rewrite).
    std::vector<RunSpec> specs = mixedSpecs();
    TraceCache cache;
    std::vector<RunOutcome> results =
        executeSpecs(makeEngine(cache, 4), specs);

    TraceCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.hits, specs.size() - 2);
    uint64_t flagged_hits = 0;
    for (const RunOutcome &r : results)
        flagged_hits += r.traceCacheHit ? 1 : 0;
    EXPECT_EQ(flagged_hits, stats.hits);

    // A different seed is a different key.
    RunSpec reseeded = specs[0];
    reseeded.seed = 1234;
    executeSpecs(makeEngine(cache, 1), {reseeded});
    EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(SweepEngine, ResultsComeBackInSubmissionOrder)
{
    // Distinguishable specs: each measures a different instruction
    // count, so result slot i must report spec i's interval length.
    std::vector<RunSpec> specs;
    std::vector<uint64_t> expected;
    for (uint64_t k = 0; k < 8; ++k) {
        RunSpec spec;
        spec.profile = WorkloadProfile::testTiny();
        spec.config = SimConfig::defaults();
        spec.warmupInsts = 5000;
        spec.measureInsts = 10000 + k * 2000;
        specs.push_back(spec);
    }

    TraceCache cache;
    std::vector<RunOutcome> results =
        executeSpecs(makeEngine(cache, 4), specs);
    ASSERT_EQ(results.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        // generateInto may overshoot the goal by a few records, so
        // compare against a serial reference run of the same spec.
        RunOutput ref = test::runMaterialized(specs[i]);
        SCOPED_TRACE("spec " + std::to_string(i));
        EXPECT_EQ(results[i].output.sim.instructions,
                  ref.sim.instructions);
        expectIdentical(results[i].output, ref);
    }
}

TEST(SweepEngine, PerRunTimingIsPopulated)
{
    std::vector<RunSpec> specs = mixedSpecs();
    specs.resize(2);
    TraceCache cache;
    std::vector<RunOutcome> results =
        executeSpecs(makeEngine(cache, 1), specs);
    for (const RunOutcome &r : results)
        EXPECT_GT(r.wallMs, 0.0);
}

TEST(TraceCache, ProfileFingerprintsAreDistinct)
{
    std::vector<WorkloadProfile> profiles =
        WorkloadProfile::allCommercial();
    profiles.push_back(WorkloadProfile::testTiny());
    for (size_t i = 0; i < profiles.size(); ++i)
        for (size_t j = i + 1; j < profiles.size(); ++j)
            EXPECT_NE(profiles[i].cacheKey(), profiles[j].cacheKey());

    // Any knob change must change the key (spot-check a few).
    WorkloadProfile base = WorkloadProfile::testTiny();
    WorkloadProfile mod = base;
    mod.loadColdProb += 1e-9;
    EXPECT_NE(base.cacheKey(), mod.cacheKey());
    mod = base;
    mod.lockCount += 1;
    EXPECT_NE(base.cacheKey(), mod.cacheKey());
    mod = base;
    mod.sharedLoadFrac += 0.01;
    EXPECT_NE(base.cacheKey(), mod.cacheKey());
}

TEST(TraceCache, EvictsLruWhenOverBudget)
{
    // Budget fits roughly one trace of 4000 records.
    TraceCache cache(4000 * TraceCache::kEntryBytesPerRecord);
    auto build = [](uint64_t seed) {
        return [seed] {
            SyntheticTraceGenerator gen(WorkloadProfile::testTiny(),
                                        seed, 0);
            return gen.generate(4000);
        };
    };
    cache.getOrBuild("a", build(1));
    auto kept = cache.getOrBuild("b", build(2));
    TraceCacheStats stats = cache.stats();
    EXPECT_GE(stats.evictions, 1u);

    // "b" (most recent) survives; "a" rebuilds on next access.
    bool hit = true;
    cache.getOrBuild("b", build(2), &hit);
    EXPECT_TRUE(hit);
    cache.getOrBuild("a", build(1), &hit);
    EXPECT_FALSE(hit);
    EXPECT_GT(kept->size(), 0u);
}

TEST(TraceCache, BytesCountRecordsAndLanes)
{
    // A cached trace is served with its SoA lanes, so the budget must
    // count them next to the records.
    TraceCache cache;
    const std::string key = "bytes-probe";
    std::shared_ptr<const Trace> trace = cache.getOrBuild(key, [] {
        SyntheticTraceGenerator gen(WorkloadProfile::testTiny(), 5, 0);
        return gen.generate(3000);
    });
    std::shared_ptr<const TraceLanes> lanes = trace->lanes();
    uint64_t record_bytes = trace->size() * sizeof(TraceRecord);
    uint64_t lane_bytes = lanes->pc.size() * sizeof(lanes->pc[0]) +
        lanes->addr.size() * sizeof(lanes->addr[0]) +
        lanes->cls.size() * sizeof(lanes->cls[0]) +
        lanes->meta.size() * sizeof(lanes->meta[0]);
    ASSERT_EQ(lanes->pc.size(), trace->size());
    EXPECT_EQ(cache.stats().bytes, record_bytes + lane_bytes + key.size());
}

TEST(Runner, TraceOverloadMatchesSelfBuiltTrace)
{
    RunSpec spec;
    spec.profile = WorkloadProfile::testTiny();
    spec.config = SimConfig::wc1(); // exercises the rewrite path
    spec.warmupInsts = warmupInsts();
    spec.measureInsts = measureInsts();

    RunOutput a = test::runMaterialized(spec);
    Trace trace = Runner::buildTrace(spec);
    RunOutput b = test::runMaterialized(spec, trace);
    expectIdentical(a, b);
}

TEST(Runner, TraceCacheKeySeparatesRewriteAndLength)
{
    RunSpec pc;
    pc.profile = WorkloadProfile::testTiny();
    pc.config = SimConfig::defaults();
    RunSpec wc = pc;
    wc.config = SimConfig::wc1();
    EXPECT_NE(Runner::traceCacheKey(pc), Runner::traceCacheKey(wc));

    RunSpec longer = pc;
    longer.measureInsts += 1;
    EXPECT_NE(Runner::traceCacheKey(pc),
              Runner::traceCacheKey(longer));

    // Machine-only differences share a trace.
    RunSpec resized = pc;
    resized.config.storeQueueSize = 256;
    resized.numChips = 2;
    resized.smac = SmacConfig{};
    EXPECT_EQ(Runner::traceCacheKey(pc),
              Runner::traceCacheKey(resized));
}

} // namespace
} // namespace storemlp
