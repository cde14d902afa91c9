/**
 * @file
 * Unit and engine tests for transactional-memory execution of
 * critical sections (the paper's SLE alternative, Section 3.3.4).
 */

#include <gtest/gtest.h>

#include "core/runner.hh"
#include "sim_test_util.hh"
#include "consistency/transactional.hh"

namespace storemlp
{
namespace
{

using namespace storemlp::test;

Trace
lockTrace()
{
    uint64_t lock = warmAddr(0);
    TraceBuilder b;
    b.store(missAddr(0), 2);
    b.casa(lock, 3).withFlags(kFlagLockAcquire);
    b.alu();
    b.store(lock, 4).withFlags(kFlagLockRelease);
    fillers(b, 600);
    return b.build();
}

/** `tm`'s action for record `idx`, tagged by the lock-role stage. */
TransactionalMemory::Action
classifyAt(const TransactionalMemory &tm, const StageTags &a, uint64_t idx)
{
    return tm.classify(a.role(idx), a.acquire(idx));
}

bool
abortsAt(const TransactionalMemory &tm, const StageTags &a, uint64_t idx)
{
    return tm.abortsAt(a.role(idx), a.acquire(idx));
}

TEST(TransactionalMemory, DisabledClassifiesNormal)
{
    Trace t = lockTrace();
    StageTags a(t);
    TmConfig cfg; // enabled = false
    TransactionalMemory tm(cfg);
    EXPECT_FALSE(tm.enabled());
    EXPECT_EQ(classifyAt(tm, a, 1), TransactionalMemory::Action::Normal);
    EXPECT_FALSE(tm.peekElided(a.role(1), a.acquire(1)));
}

TEST(TransactionalMemory, CommittingSectionElides)
{
    Trace t = lockTrace();
    LockAnalysis pairs = LockDetector().analyze(t);
    StageTags a(t);
    TmConfig cfg;
    cfg.enabled = true;
    cfg.abortProb = 0.0; // every section commits
    TransactionalMemory tm(cfg);
    ASSERT_EQ(pairs.pairs.size(), 1u);
    EXPECT_TRUE(tm.commits(pairs.pairs[0].acquireIdx));
    EXPECT_EQ(classifyAt(tm, a, 1),
              TransactionalMemory::Action::AcquireAsLoad);
    EXPECT_EQ(classifyAt(tm, a, 3), TransactionalMemory::Action::Nop);
    EXPECT_FALSE(abortsAt(tm, a, 1));
}

TEST(TransactionalMemory, AbortingSectionFallsBackToLock)
{
    Trace t = lockTrace();
    LockAnalysis pairs = LockDetector().analyze(t);
    StageTags a(t);
    TmConfig cfg;
    cfg.enabled = true;
    cfg.abortProb = 1.0; // every section aborts
    TransactionalMemory tm(cfg);
    ASSERT_EQ(pairs.pairs.size(), 1u);
    EXPECT_FALSE(tm.commits(pairs.pairs[0].acquireIdx));
    EXPECT_EQ(classifyAt(tm, a, 1), TransactionalMemory::Action::Normal);
    EXPECT_EQ(classifyAt(tm, a, 3), TransactionalMemory::Action::Normal);
    EXPECT_TRUE(abortsAt(tm, a, 1));
    EXPECT_FALSE(abortsAt(tm, a, 3)); // only the acquire charges penalty
}

TEST(TransactionalMemory, AbortDecisionDeterministic)
{
    Trace t = lockTrace();
    StageTags a(t);
    TmConfig cfg;
    cfg.enabled = true;
    cfg.abortProb = 0.5;
    TransactionalMemory tm1(cfg);
    TransactionalMemory tm2(cfg);
    EXPECT_EQ(abortsAt(tm1, a, 1), abortsAt(tm2, a, 1));
    cfg.seed = 999;
    // Different seeds may flip decisions, but stay internally stable.
    TransactionalMemory tm3(cfg);
    EXPECT_EQ(abortsAt(tm3, a, 1), abortsAt(tm3, a, 1));
}

TEST(TransactionalMemory, ElidesWcIdiom)
{
    uint64_t lock = warmAddr(0);
    TraceBuilder b;
    b.loadLocked(lock, 2);
    b.storeCond(lock, 2);
    b.isync();
    b.alu();
    b.lwsync();
    b.store(lock, 3);
    Trace t = b.build();
    StageTags a(t);
    TmConfig cfg;
    cfg.enabled = true;
    cfg.abortProb = 0.0;
    TransactionalMemory tm(cfg);
    EXPECT_EQ(classifyAt(tm, a, 0),
              TransactionalMemory::Action::AcquireAsLoad);
    EXPECT_EQ(classifyAt(tm, a, 1), TransactionalMemory::Action::Nop);
    EXPECT_EQ(classifyAt(tm, a, 2), TransactionalMemory::Action::Nop);
    EXPECT_EQ(classifyAt(tm, a, 4), TransactionalMemory::Action::Nop);
    EXPECT_EQ(classifyAt(tm, a, 5), TransactionalMemory::Action::Nop);
}

// ---- engine integration ----

TEST(TmEngine, AllCommitMatchesSle)
{
    SimConfig tm_cfg = SimConfig::defaults();
    tm_cfg.tm.enabled = true;
    tm_cfg.tm.abortProb = 0.0;
    SimRig rig1;
    SimResult tm_res = rig1.run(lockTrace(), tm_cfg);

    SimConfig sle_cfg = SimConfig::defaults();
    sle_cfg.sle = true;
    SimRig rig2;
    SimResult sle_res = rig2.run(lockTrace(), sle_cfg);

    // With no aborts, TM is exactly SLE (the paper's equivalence).
    EXPECT_EQ(tm_res.epochs, sle_res.epochs);
    EXPECT_EQ(tm_res.epochMisses, sle_res.epochMisses);
}

TEST(TmEngine, AllAbortMatchesBaseline)
{
    SimConfig tm_cfg = SimConfig::defaults();
    tm_cfg.tm.enabled = true;
    tm_cfg.tm.abortProb = 1.0;
    SimRig rig1;
    SimResult tm_res = rig1.run(lockTrace(), tm_cfg);

    SimRig rig2;
    SimResult base = rig2.run(lockTrace(), SimConfig::defaults());

    // Aborted sections take the locked path: same epoch structure,
    // plus the abort accounting.
    EXPECT_EQ(tm_res.epochs, base.epochs);
    EXPECT_EQ(tm_res.tmAborts, 1u);
}

TEST(TmEngine, SleAndTmMutuallyExclusive)
{
    SimConfig cfg = SimConfig::defaults();
    cfg.sle = true;
    cfg.tm.enabled = true;
    ChipNode chip(HierarchyConfig{}, 0);
    EXPECT_THROW(MlpSimulator(cfg, chip),
                 std::invalid_argument);
}

TEST(TmEngine, WorkloadLevelBetweenBaselineAndSle)
{
    // With a moderate abort rate, TM lands between the lock baseline
    // and perfect SLE on a lock-heavy workload.
    auto run_cfg = [](SimConfig cfg) {
        RunSpec spec;
        spec.profile = WorkloadProfile::specjbb();
        spec.config = cfg;
        spec.warmupInsts = 200 * 1000;
        spec.measureInsts = 300 * 1000;
        return test::runMaterialized(spec).sim;
    };
    SimConfig base = SimConfig::defaults();
    SimConfig sle = base;
    sle.sle = true;
    SimConfig tm = base;
    tm.tm.enabled = true;
    tm.tm.abortProb = 0.3;

    SimResult r_base = run_cfg(base);
    SimResult r_sle = run_cfg(sle);
    SimResult r_tm = run_cfg(tm);

    EXPECT_LE(r_sle.epochs, r_tm.epochs);
    EXPECT_LE(r_tm.epochs, r_base.epochs);
    EXPECT_GT(r_tm.tmAborts, 0u);
}

} // namespace
} // namespace storemlp
