/**
 * @file
 * The lock-role stage and the single-pass run it enables. The stage
 * (LockRoleSource) must attach exactly the roles and pairs the batch
 * LockDetector finds, for every chunk size, borrowing the inner
 * chunks' records; and Runner::run must walk its source once, forward,
 * fetching every chunk exactly once.
 */

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/runner.hh"
#include "trace/generator.hh"
#include "trace/lock_detector.hh"
#include "trace/rewriter.hh"
#include "trace/trace_file_source.hh"
#include "trace/trace_io.hh"
#include "trace/trace_source.hh"
#include "sim_test_util.hh"

namespace storemlp
{
namespace
{

const uint64_t kChunkSizes[] = {1, 7, 511, 512, 513, 4096, 65536};

void
expectSameAnalysis(const LockAnalysis &got, const LockAnalysis &want,
                   const std::string &what)
{
    ASSERT_EQ(got.roles.size(), want.roles.size()) << what;
    for (size_t i = 0; i < want.roles.size(); ++i) {
        ASSERT_EQ(got.roles[i], want.roles[i])
            << what << ": role of record " << i;
    }
    ASSERT_EQ(got.pairs.size(), want.pairs.size()) << what;
    for (size_t i = 0; i < want.pairs.size(); ++i) {
        EXPECT_EQ(got.pairs[i].acquireIdx, want.pairs[i].acquireIdx)
            << what << ": pair " << i;
        EXPECT_EQ(got.pairs[i].releaseIdx, want.pairs[i].releaseIdx)
            << what << ": pair " << i;
        EXPECT_EQ(got.pairs[i].lockAddr, want.pairs[i].lockAddr)
            << what << ": pair " << i;
    }
}

Trace
databaseTrace()
{
    // Long enough for several 65536-record chunks.
    return SyntheticTraceGenerator(WorkloadProfile::database(), 3)
        .generate(140000);
}

TEST(LockRoleStage, MatchesBatchOnDatabasePcAndWcTraces)
{
    Trace pc = databaseTrace();
    Trace wc = TraceRewriter().toWeakConsistency(pc);
    LockAnalysis pc_ref = LockDetector().analyze(pc);
    LockAnalysis wc_ref = LockDetector().analyze(wc);
    ASSERT_GT(pc_ref.pairs.size(), 100u);
    ASSERT_GT(wc_ref.pairs.size(), 100u);

    for (uint64_t chunk : kChunkSizes) {
        std::string tag = " chunk " + std::to_string(chunk);
        MaterializedSource pc_src(pc, chunk);
        expectSameAnalysis(test::stageAnalysis(pc_src), pc_ref,
                           "pc" + tag);
        MaterializedSource wc_src(wc, chunk);
        expectSameAnalysis(test::stageAnalysis(wc_src), wc_ref,
                           "wc" + tag);
        // The stream the engine reads under wc3: the stage detects on
        // the rewritten records, not through the rewrite's PC-side
        // detector.
        WcRewriteSource rewrite(
            std::make_unique<MaterializedSource>(pc, chunk));
        expectSameAnalysis(test::stageAnalysis(rewrite), wc_ref,
                           "wc stream" + tag);
    }
}

TEST(LockRoleStage, BorrowsInnerRecordsAndLanes)
{
    Trace pc = databaseTrace();
    MaterializedSource inner(pc, 4096);
    LockRoleSource stage(inner);
    std::shared_ptr<const TraceLanes> whole = pc.lanes();
    for (uint64_t k = 0; std::shared_ptr<const TraceChunk> c =
                             stage.fetch(k);
         ++k) {
        EXPECT_EQ(c->data, pc.records().data() + c->firstIdx);
        TraceChunk::LaneRefs lanes = c->lanes();
        EXPECT_EQ(lanes.pc, whole->pc.data() + c->firstIdx);
        EXPECT_EQ(lanes.cls, whole->cls.data() + c->firstIdx);
        EXPECT_NE(lanes.role, nullptr);
        EXPECT_NE(lanes.acqDist, nullptr);
    }
    EXPECT_EQ(inner.fetch(0)->lanes().role, nullptr);
}

TEST(LockRoleStage, BackwardFetchRestartsDetection)
{
    Trace pc = databaseTrace();
    MaterializedSource inner(pc, 4096);
    LockRoleSource stage(inner);
    std::shared_ptr<const TraceChunk> late = stage.fetch(9);
    std::shared_ptr<const TraceChunk> early = stage.fetch(2);
    ASSERT_TRUE(late && early);
    LockAnalysis ref = LockDetector().analyze(pc);
    for (const auto &c : {late, early}) {
        TraceChunk::LaneRefs lanes = c->lanes();
        for (uint64_t off = 0; off < c->count; ++off) {
            EXPECT_EQ(static_cast<LockRole>(lanes.role[off]),
                      ref.roles[c->firstIdx + off])
                << "record " << c->firstIdx + off;
        }
    }
}

/** Role of `idx` and its section's acquire, through the stage. */
struct Tag
{
    LockRole role;
    uint64_t acquire;
};

std::vector<Tag>
stageTags(const Trace &t, uint64_t chunk)
{
    MaterializedSource src(t, chunk);
    LockRoleSource stage(src);
    TraceCursor cur(stage);
    std::vector<Tag> out;
    for (uint64_t i = 0; const TraceCursor::LaneView *v = cur.view(i);
         ++i) {
        uint64_t off = i - v->first;
        out.push_back({static_cast<LockRole>(v->role[off]),
                       i - v->acqDist[off]});
    }
    return out;
}

TEST(LockRoleStage, CriticalSectionStraddlingChunkBoundary)
{
    // casa at 510, release at 514: with 512-record chunks the acquire
    // sits in chunk 0 and the release in chunk 1, so chunk 0 can only
    // be served once chunk 1 has been pulled. Same for a WC idiom
    // whose stwcx/isync and lwsync/release cross the 1024 boundary.
    TraceBuilder b;
    test::fillers(b, 510);
    b.casa(0x100);           // 510
    b.alu().alu().alu();     // 511..513
    b.store(0x100);          // 514
    test::fillers(b, 1022 - b.size());
    b.loadLocked(0x200, 2);  // 1022
    b.storeCond(0x200, 2);   // 1023
    b.isync();               // 1024
    b.alu();                 // 1025
    b.lwsync();              // 1026
    b.store(0x200);          // 1027
    test::fillers(b, 200);
    Trace t = b.build();
    LockAnalysis ref = LockDetector().analyze(t);
    ASSERT_EQ(ref.pairs.size(), 2u);

    for (uint64_t chunk : kChunkSizes) {
        MaterializedSource src(t, chunk);
        expectSameAnalysis(test::stageAnalysis(src), ref,
                           "chunk " + std::to_string(chunk));
        std::vector<Tag> tags = stageTags(t, chunk);
        EXPECT_EQ(tags[510].role, LockRole::Acquire);
        EXPECT_EQ(tags[514].role, LockRole::Release);
        EXPECT_EQ(tags[514].acquire, 510u);
        for (uint64_t i : {1023u, 1024u, 1026u, 1027u})
            EXPECT_EQ(tags[i].acquire, 1022u) << i;
        EXPECT_EQ(tags[1026].role, LockRole::ReleaseAux);
    }
}

TEST(LockRoleStage, ReleaseExactlyAtWindowDistance)
{
    // A release exactly `window` records after its casa pairs; one
    // record further does not. At 512-record chunks the paired
    // release is the first record of the next chunk.
    for (uint64_t gap : {uint64_t{512}, uint64_t{513}}) {
        TraceBuilder b;
        b.casa(0x100);
        test::fillers(b, static_cast<unsigned>(gap - 1));
        b.store(0x100);
        test::fillers(b, 100);
        Trace t = b.build();
        LockAnalysis ref = LockDetector().analyze(t);
        ASSERT_EQ(ref.pairs.size(), gap == 512 ? 1u : 0u);
        for (uint64_t chunk : kChunkSizes) {
            MaterializedSource src(t, chunk);
            expectSameAnalysis(test::stageAnalysis(src), ref,
                               "gap " + std::to_string(gap) +
                                   " chunk " + std::to_string(chunk));
        }
        if (gap == 512) {
            std::vector<Tag> tags = stageTags(t, 512);
            EXPECT_EQ(tags[512].role, LockRole::Release);
            EXPECT_EQ(tags[512].acquire, 0u);
        }
    }
}

/**
 * The acquire each lock-idiom record belongs to, the way a whole-trace
 * pair table assigns it: pairs in release order, each claiming its
 * acquire, release, the acquire-aux records right after its acquire
 * and the release-aux record right before its release; a later pair
 * overwrites an earlier one.
 */
std::map<uint64_t, uint64_t>
pairTable(const LockAnalysis &a)
{
    std::map<uint64_t, uint64_t> by;
    for (const LockPair &p : a.pairs) {
        by[p.acquireIdx] = p.acquireIdx;
        by[p.releaseIdx] = p.acquireIdx;
        for (uint64_t i = p.acquireIdx + 1;
             i < a.roles.size() && i <= p.acquireIdx + 2; ++i) {
            if (a.roles[i] == LockRole::AcquireAux)
                by[i] = p.acquireIdx;
        }
        if (p.releaseIdx > 0 &&
            a.roles[p.releaseIdx - 1] == LockRole::ReleaseAux)
            by[p.releaseIdx - 1] = p.acquireIdx;
    }
    return by;
}

void
expectAcquiresMatchPairTable(const Trace &t, const std::string &what)
{
    LockAnalysis ref = LockDetector().analyze(t);
    std::map<uint64_t, uint64_t> by = pairTable(ref);
    for (uint64_t chunk : {uint64_t{1}, uint64_t{7}, uint64_t{4096}}) {
        std::vector<Tag> tags = stageTags(t, chunk);
        ASSERT_EQ(tags.size(), t.size());
        for (uint64_t i = 0; i < tags.size(); ++i) {
            auto it = by.find(i);
            if (tags[i].role == LockRole::None) {
                EXPECT_EQ(it, by.end()) << what << " record " << i;
                continue;
            }
            ASSERT_NE(it, by.end()) << what << " record " << i;
            EXPECT_EQ(tags[i].acquire, it->second)
                << what << " record " << i << " chunk " << chunk;
        }
    }
}

TEST(LockRoleStage, AcquireIndexMatchesPairTable)
{
    // TM keys its abort decision by the acquire index, so every
    // lock-idiom record must resolve to the same acquire as a
    // whole-trace pair table gives it.
    Trace pc = databaseTrace();
    expectAcquiresMatchPairTable(pc, "pc");
    expectAcquiresMatchPairTable(TraceRewriter().toWeakConsistency(pc),
                                 "wc");

    // The one shared record: a paired casa directly before a paired
    // lwarx/stwcx. The stwcx is the casa's acquire+2 and the lwarx's
    // acquire+1; the section released later owns it.
    for (bool casa_first : {true, false}) {
        TraceBuilder b;
        b.casa(0x100);           // 0
        b.loadLocked(0x200, 2);  // 1
        b.storeCond(0x200, 2);   // 2
        b.alu();
        b.store(casa_first ? 0x100 : 0x200);
        b.alu();
        b.store(casa_first ? 0x200 : 0x100);
        test::fillers(b, 20);
        Trace t = b.build();
        std::vector<Tag> tags = stageTags(t, 1);
        EXPECT_EQ(tags[2].role, LockRole::AcquireAux);
        EXPECT_EQ(tags[2].acquire, casa_first ? 1u : 0u);
        expectAcquiresMatchPairTable(
            t, casa_first ? "casa released first" : "lwarx released first");
    }
}

// ---------------------------------------------------------------------
// Single-pass runs
// ---------------------------------------------------------------------

/** Records every chunk index a consumer fetches. */
class CountingSource : public TraceSource
{
  public:
    explicit CountingSource(std::unique_ptr<TraceSource> inner)
        : TraceSource(inner->chunkInsts()), _inner(std::move(inner))
    {
    }

    std::shared_ptr<const TraceChunk>
    fetch(uint64_t chunk_idx) override
    {
        fetches.push_back(chunk_idx);
        return _inner->fetch(chunk_idx);
    }
    std::optional<uint64_t> knownSize() const override
    {
        return _inner->knownSize();
    }

    std::vector<uint64_t> fetches;

  private:
    std::unique_ptr<TraceSource> _inner;
};

/**
 * Fetches 0, 1, 2, ... with no repeat and no step back, covering a
 * stream of `records` (one trailing past-the-end fetch allowed).
 */
void
expectSinglePass(const CountingSource &src, uint64_t records,
                 const std::string &what)
{
    uint64_t chunks = (records + src.chunkInsts() - 1) / src.chunkInsts();
    ASSERT_GE(src.fetches.size(), chunks) << what;
    ASSERT_LE(src.fetches.size(), chunks + 1) << what;
    for (size_t i = 0; i < src.fetches.size(); ++i)
        ASSERT_EQ(src.fetches[i], i) << what << ": fetch #" << i;
}

struct PassCase
{
    const char *name;
    SimConfig cfg;
};

std::vector<PassCase>
passCases()
{
    SimConfig tm = SimConfig::defaults();
    tm.tm.enabled = true;
    return {{"pc1", SimConfig::defaults()},
            {"wc3", SimConfig::wc3()},
            {"tm", tm}};
}

RunSpec
passSpec(const SimConfig &cfg)
{
    RunSpec spec;
    spec.profile = WorkloadProfile::database();
    spec.config = cfg;
    spec.warmupInsts = 20000;
    spec.measureInsts = 40000;
    return spec;
}

TEST(RunnerSinglePass, GeneratorChainFetchesEachChunkOnce)
{
    for (const PassCase &pc : passCases()) {
        for (uint64_t chunk : {uint64_t{257}, uint64_t{4096}}) {
            RunSpec spec = passSpec(pc.cfg);
            std::string what = std::string(pc.name) + " chunk " +
                std::to_string(chunk);
            auto gen = std::make_unique<CountingSource>(
                std::make_unique<GeneratorSource>(
                    spec.profile, spec.seed,
                    spec.warmupInsts + spec.measureInsts, 0, chunk));
            CountingSource *gen_count = gen.get();
            std::unique_ptr<TraceSource> chain = std::move(gen);
            if (spec.config.memoryModel.wcTraceRewrite())
                chain = std::make_unique<WcRewriteSource>(std::move(chain));
            CountingSource src(std::move(chain));

            RunOutput out = Runner::run(spec, src);
            ASSERT_TRUE(src.knownSize().has_value()) << what;
            expectSinglePass(src, *src.knownSize(), what);
            expectSinglePass(*gen_count, *gen_count->knownSize(),
                             what + " (generator)");
            EXPECT_EQ(out.sim.instructions,
                      *src.knownSize() - spec.warmupInsts)
                << what;
        }
    }
}

TEST(RunnerSinglePass, FileSourceFetchesEachChunkOnce)
{
    for (const PassCase &pc : passCases()) {
        RunSpec spec = passSpec(pc.cfg);
        Trace trace = Runner::buildTrace(spec);
        std::string path = ::testing::TempDir() + "single_pass_" +
            pc.name + ".trc";
        writeTraceFileV4(path, trace, "single-pass", 4096);
        {
            CountingSource src(
                std::make_unique<StreamingFileSource>(path));
            Runner::run(spec, src);
            expectSinglePass(src, trace.size(), pc.name);
        }
        std::remove(path.c_str());
    }
}

} // namespace
} // namespace storemlp
