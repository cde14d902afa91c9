/**
 * @file
 * Unit tests for the lock detection tool and the PC->WC rewriter
 * (paper Section 4.2 methodology).
 */

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "trace/generator.hh"
#include "trace/lock_detector.hh"
#include "trace/rewriter.hh"

namespace storemlp
{
namespace
{

TEST(LockDetector, DetectsSimplePcPair)
{
    Trace t = TraceBuilder()
        .casa(0x100, 2)
        .load(0x5000, 3)
        .store(0x6000, 4)
        .store(0x100, 5) // release
        .build();
    LockAnalysis a = LockDetector().analyze(t);
    ASSERT_EQ(a.pairs.size(), 1u);
    EXPECT_EQ(a.pairs[0].acquireIdx, 0u);
    EXPECT_EQ(a.pairs[0].releaseIdx, 3u);
    EXPECT_EQ(a.pairs[0].lockAddr, 0x100u);
    EXPECT_EQ(a.roles[0], LockRole::Acquire);
    EXPECT_EQ(a.roles[3], LockRole::Release);
    EXPECT_EQ(a.roles[1], LockRole::None);
}

TEST(LockDetector, UnmatchedCasaStaysUnpaired)
{
    Trace t = TraceBuilder()
        .casa(0x100, 2) // lock-free CAS, never released
        .load(0x5000, 3)
        .build();
    LockAnalysis a = LockDetector().analyze(t);
    EXPECT_TRUE(a.pairs.empty());
    EXPECT_EQ(a.roles[0], LockRole::None);
}

TEST(LockDetector, WindowLimitRejectsDistantRelease)
{
    TraceBuilder b;
    b.casa(0x100, 2);
    for (int i = 0; i < 20; ++i)
        b.alu();
    b.store(0x100, 3);
    Trace t = b.build();
    LockAnalysis near = LockDetector(64).analyze(t);
    EXPECT_EQ(near.pairs.size(), 1u);
    LockAnalysis tight = LockDetector(4).analyze(t);
    EXPECT_TRUE(tight.pairs.empty());
}

TEST(LockDetector, NestedDistinctLocks)
{
    Trace t = TraceBuilder()
        .casa(0x100)
        .casa(0x200)
        .store(0x200) // inner release
        .store(0x100) // outer release
        .build();
    LockAnalysis a = LockDetector().analyze(t);
    ASSERT_EQ(a.pairs.size(), 2u);
}

TEST(LockDetector, SupersededAcquire)
{
    Trace t = TraceBuilder()
        .casa(0x100) // stale, never released before re-acquire
        .casa(0x100)
        .store(0x100)
        .build();
    LockAnalysis a = LockDetector().analyze(t);
    ASSERT_EQ(a.pairs.size(), 1u);
    EXPECT_EQ(a.pairs[0].acquireIdx, 1u);
}

TEST(LockDetector, DetectsWcIdiom)
{
    Trace t = TraceBuilder()
        .loadLocked(0x100, 2)
        .storeCond(0x100, 2)
        .isync()
        .load(0x5000, 3)
        .lwsync()
        .store(0x100, 4)
        .build();
    LockAnalysis a = LockDetector().analyze(t);
    ASSERT_EQ(a.pairs.size(), 1u);
    EXPECT_EQ(a.roles[0], LockRole::Acquire);
    EXPECT_EQ(a.roles[1], LockRole::AcquireAux); // stwcx
    EXPECT_EQ(a.roles[2], LockRole::AcquireAux); // isync
    EXPECT_EQ(a.roles[4], LockRole::ReleaseAux); // lwsync
    EXPECT_EQ(a.roles[5], LockRole::Release);
}

TEST(LockDetector, LwarxWithoutStwcxIgnored)
{
    Trace t = TraceBuilder()
        .loadLocked(0x100, 2)
        .alu()
        .store(0x100, 4)
        .build();
    LockAnalysis a = LockDetector().analyze(t);
    EXPECT_TRUE(a.pairs.empty());
}

TEST(LockDetector, MatchesGeneratorGroundTruth)
{
    WorkloadProfile p = WorkloadProfile::specjbb();
    Trace t = SyntheticTraceGenerator(p, 7).generate(100000);
    LockAnalysis a = LockDetector().analyze(t);

    uint64_t truth_acquires = 0;
    for (uint64_t i = 0; i < t.size(); ++i) {
        if (t[i].lockAcquire()) {
            ++truth_acquires;
            EXPECT_TRUE(a.isAcquire(i))
                << "detector missed acquire at " << i;
        }
        if (t[i].lockRelease()) {
            EXPECT_TRUE(a.isRelease(i))
                << "detector missed release at " << i;
        }
    }
    EXPECT_EQ(a.pairs.size(), truth_acquires);
}

// ---- rewriter ----

TEST(Rewriter, ExpandsLockIdioms)
{
    Trace t = TraceBuilder()
        .alu(1)
        .casa(0x100, 2)
        .load(0x5000, 3)
        .store(0x100, 4) // release
        .alu(5)
        .build();
    Trace wc = TraceRewriter().toWeakConsistency(t);

    // 5 records -> casa becomes 3, release store becomes 2: total 8.
    ASSERT_EQ(wc.size(), 8u);
    EXPECT_EQ(wc[0].cls, InstClass::Alu);
    EXPECT_EQ(wc[1].cls, InstClass::LoadLocked);
    EXPECT_EQ(wc[2].cls, InstClass::StoreCond);
    EXPECT_EQ(wc[3].cls, InstClass::Isync);
    EXPECT_EQ(wc[4].cls, InstClass::Load);
    EXPECT_EQ(wc[5].cls, InstClass::Lwsync);
    EXPECT_EQ(wc[6].cls, InstClass::Store);
    EXPECT_EQ(wc[7].cls, InstClass::Alu);
}

TEST(Rewriter, PreservesAddressesAndRegisters)
{
    Trace t = TraceBuilder()
        .casa(0x140, 9)
        .store(0x140, 7)
        .build();
    Trace wc = TraceRewriter().toWeakConsistency(t);
    EXPECT_EQ(wc[0].addr, 0x140u);
    EXPECT_EQ(wc[0].dst, 9);
    EXPECT_EQ(wc[1].addr, 0x140u);
    EXPECT_EQ(wc[3].cls, InstClass::Lwsync);
    EXPECT_EQ(wc[4].src2, 7);
}

TEST(Rewriter, LeavesUnmatchedCasaAlone)
{
    Trace t = TraceBuilder()
        .casa(0x100, 2)
        .alu()
        .build();
    Trace wc = TraceRewriter().toWeakConsistency(t);
    ASSERT_EQ(wc.size(), 2u);
    EXPECT_EQ(wc[0].cls, InstClass::AtomicCas);
}

TEST(Rewriter, LeavesMembarsAlone)
{
    Trace t = TraceBuilder().membar().alu().build();
    Trace wc = TraceRewriter().toWeakConsistency(t);
    ASSERT_EQ(wc.size(), 2u);
    EXPECT_EQ(wc[0].cls, InstClass::Membar);
}

TEST(Rewriter, RewrittenTraceDetectableAsWcLocks)
{
    WorkloadProfile p = WorkloadProfile::tpcw();
    Trace t = SyntheticTraceGenerator(p, 11).generate(50000);
    LockAnalysis pc = LockDetector().analyze(t);
    Trace wc = TraceRewriter().toWeakConsistency(t, pc);
    LockAnalysis wca = LockDetector().analyze(wc);
    // Every PC lock pair survives as a WC lock pair.
    EXPECT_EQ(wca.pairs.size(), pc.pairs.size());
}

TEST(Rewriter, NonLockRecordsUnchanged)
{
    WorkloadProfile p = WorkloadProfile::testTiny();
    p.lockProb = 0.0;
    p.membarProb = 0.0;
    Trace t = SyntheticTraceGenerator(p, 13).generate(10000);
    Trace wc = TraceRewriter().toWeakConsistency(t);
    ASSERT_EQ(wc.size(), t.size());
    for (size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(wc[i].cls, t[i].cls);
        EXPECT_EQ(wc[i].addr, t[i].addr);
    }
}

/** FNV-1a over the bytes of `v`, continuing from `h`. */
template <typename T>
uint64_t
fnvMix(uint64_t h, const T &v)
{
    const auto *p = reinterpret_cast<const unsigned char *>(&v);
    for (size_t i = 0; i < sizeof(v); ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

TEST(LockDetector, FrozenAnalysisDigests)
{
    // Digests of LockDetector().analyze (every role, every pair) over
    // seeds 0-3 of each profile, in PC and in WC rendition. Recorded
    // from the per-record ring detector before the sparse scan
    // replaced it; never regenerate them.
    struct Pin
    {
        const char *profile;
        WorkloadProfile (*make)();
        const char *pc;
        const char *wc;
    };
    const Pin pins[] = {
        {"database", WorkloadProfile::database,
         "b6dc8dd47080f135", "729637acf1d77a14"},
        {"tpcw", WorkloadProfile::tpcw,
         "92f1cc12b5607560", "958fdbef1bd6dfb6"},
        {"specjbb", WorkloadProfile::specjbb,
         "835ada02236f62ba", "adb47b71d1718cb0"},
        {"specweb", WorkloadProfile::specweb,
         "4531ee3aedd8e794", "39548b4de0e3f60b"},
        {"tiny", WorkloadProfile::testTiny,
         "7d6a29762686fc5b", "32640cd7e031973a"},
    };
    for (const Pin &pin : pins) {
        for (bool wc : {false, true}) {
            uint64_t h = 1469598103934665603ULL;
            for (uint64_t seed = 0; seed < 4; ++seed) {
                Trace t =
                    SyntheticTraceGenerator(pin.make(), seed).generate(30000);
                if (wc)
                    t = TraceRewriter().toWeakConsistency(t);
                LockAnalysis a = LockDetector().analyze(t);
                for (LockRole r : a.roles)
                    h = fnvMix(h, r);
                for (const LockPair &p : a.pairs) {
                    h = fnvMix(h, p.acquireIdx);
                    h = fnvMix(h, p.releaseIdx);
                    h = fnvMix(h, p.lockAddr);
                }
            }
            char got[32];
            std::snprintf(got, sizeof(got), "%016llx",
                          static_cast<unsigned long long>(h));
            EXPECT_EQ(std::string(got), wc ? pin.wc : pin.pc)
                << pin.profile << (wc ? " wc" : " pc");
        }
    }
}

} // namespace
} // namespace storemlp
