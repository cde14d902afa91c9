/**
 * @file
 * Shared helpers for epoch-engine unit tests: a rig that pre-warms
 * the caches for every address/pc except designated "missing" ones,
 * so hand-written traces have fully controlled miss behaviour.
 */

#ifndef STOREMLP_TESTS_SIM_TEST_UTIL_HH
#define STOREMLP_TESTS_SIM_TEST_UTIL_HH

#include <initializer_list>
#include <unordered_set>
#include <vector>

#include "coherence/chip.hh"
#include "core/mlp_sim.hh"
#include "core/runner.hh"
#include "trace/lock_detector.hh"
#include "trace/trace.hh"
#include "trace/trace_source.hh"

namespace storemlp::test
{

/**
 * Materialized-trace run: buildTrace + MaterializedSource, byte for
 * byte what the removed Runner::run(spec) convenience overload did.
 * Tests that don't exercise streaming go through here.
 */
inline RunOutput
runMaterialized(const RunSpec &spec)
{
    Trace trace = Runner::buildTrace(spec);
    MaterializedSource src(trace);
    return Runner::run(spec, src);
}

/** Same, over a prebuilt trace (must already reflect the model). */
inline RunOutput
runMaterialized(const RunSpec &spec, const Trace &trace)
{
    MaterializedSource src(trace);
    return Runner::run(spec, src);
}

/** Addresses guaranteed to be off-chip misses (never warmed). */
inline uint64_t
missAddr(unsigned k)
{
    return 0x90000000ULL + k * 64;
}

/** A pc line guaranteed to be an off-chip instruction miss. */
inline uint64_t
missPc(unsigned k)
{
    return 0xA0000000ULL + k * 64;
}

/** A warm (always L2-hit) data address. */
inline uint64_t
warmAddr(unsigned k)
{
    return 0x100000ULL + k * 64;
}

/**
 * Test rig: one chip, optional SMAC, caches pre-warmed for everything
 * the trace touches except addresses/pcs in the miss ranges above.
 */
class SimRig
{
  public:
    explicit SimRig(std::optional<SmacConfig> smac = std::nullopt)
        : chip(HierarchyConfig{}, 0, smac)
    {
    }

    /** Warm every pc and address outside the miss ranges. */
    void
    warmFor(const Trace &trace)
    {
        for (const auto &r : trace.records()) {
            if (r.pc < 0xA0000000ULL)
                chip.instFetch(r.pc);
            if (isMemClass(r.cls) &&
                !(r.addr >= 0x90000000ULL && r.addr < 0xA0000000ULL)) {
                chip.load(r.addr);
            }
        }
        chip.resetStats();
    }

    /** Warm, run (locks detected on the way), return the results. */
    SimResult
    run(const Trace &trace, const SimConfig &cfg)
    {
        warmFor(trace);
        return runCold(trace, cfg);
    }

    /** Run without warming (for cold-cache scenarios). */
    SimResult
    runCold(const Trace &trace, const SimConfig &cfg)
    {
        MaterializedSource src(trace);
        MlpSimulator sim(cfg, chip);
        return sim.run(src);
    }

    ChipNode chip;
};

/**
 * Lock tags of a hand-written trace as the lock-role stage attaches
 * them: each record's role and its section's acquire index (None / 0
 * past the end).
 */
class StageTags
{
  public:
    explicit StageTags(const Trace &trace)
    {
        MaterializedSource src(trace);
        LockRoleSource roles(src);
        TraceCursor cur(roles);
        for (uint64_t i = 0; const TraceCursor::LaneView *v = cur.view(i);
             ++i) {
            uint64_t off = i - v->first;
            _role.push_back(static_cast<LockRole>(v->role[off]));
            _acq.push_back(i - v->acqDist[off]);
        }
    }

    LockRole
    role(uint64_t idx) const
    {
        return idx < _role.size() ? _role[idx] : LockRole::None;
    }
    uint64_t
    acquire(uint64_t idx) const
    {
        return idx < _acq.size() ? _acq[idx] : 0;
    }

  private:
    std::vector<LockRole> _role;
    std::vector<uint64_t> _acq;
};

/**
 * Whole-stream roles and pairs as the lock-role stage attaches them,
 * in LockAnalysis form for comparison with the batch detector: each
 * release record gives one pair, its acquire `acqDist` records back.
 */
inline LockAnalysis
stageAnalysis(TraceSource &src)
{
    LockRoleSource roles(src);
    LockAnalysis out;
    for (uint64_t k = 0; std::shared_ptr<const TraceChunk> c =
                             roles.fetch(k);
         ++k) {
        TraceChunk::LaneRefs lanes = c->lanes();
        for (uint64_t off = 0; off < c->count; ++off) {
            auto role = static_cast<LockRole>(lanes.role[off]);
            out.roles.push_back(role);
            if (role == LockRole::Release) {
                uint64_t idx = c->firstIdx + off;
                out.pairs.push_back({idx - lanes.acqDist[off], idx,
                                     c->data[off].addr});
            }
        }
    }
    return out;
}

/** Append `n` filler ALU instructions (forces window-full stalls). */
inline TraceBuilder &
fillers(TraceBuilder &b, unsigned n)
{
    for (unsigned i = 0; i < n; ++i)
        b.alu();
    return b;
}

/** Configuration used by the paper's Examples 1-4: SB=2, SQ=2, Sp0. */
inline SimConfig
exampleConfig()
{
    SimConfig cfg;
    cfg.storeBufferSize = 2;
    cfg.storeQueueSize = 2;
    cfg.storePrefetch = StorePrefetch::None;
    cfg.cpiOnChip = 1.0;
    return cfg;
}

} // namespace storemlp::test

#endif // STOREMLP_TESTS_SIM_TEST_UTIL_HH
