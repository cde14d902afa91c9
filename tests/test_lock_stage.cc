/**
 * @file
 * The lock-role stage and the single-pass run it enables. The stage
 * (LockRoleSource) must attach exactly the roles and pairs the batch
 * LockDetector finds, for every chunk size, borrowing the inner
 * chunks' records; the WC rewrite's own lock lanes must be the
 * detector's verdict on its output, which the stage then passes
 * through; and Runner::run must walk its source once, forward,
 * fetching every chunk exactly once.
 */

#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/mlp_sim.hh"
#include "core/runner.hh"
#include "trace/generator.hh"
#include "trace/lock_detector.hh"
#include "trace/rewriter.hh"
#include "trace/trace_file_source.hh"
#include "trace/trace_io.hh"
#include "trace/trace_source.hh"
#include "sim_test_util.hh"
#include "stats_hash.hh"

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
// WC lock lanes served by the rewrite
// ---------------------------------------------------------------------

/** Each chunk's records and lock lanes, concatenated in stream order. */
struct Served
{
    std::vector<TraceRecord> records;
    std::vector<Tag> tags;
};

Served
servedLanes(TraceSource &src)
{
    Served out;
    forEachChunk(src, [&](const TraceChunk &c) {
        TraceChunk::LaneRefs lanes = c.lanes();
        ASSERT_NE(lanes.role, nullptr) << "chunk at " << c.firstIdx;
        for (uint64_t off = 0; off < c.count; ++off) {
            out.records.push_back(c.data[off]);
            out.tags.push_back({static_cast<LockRole>(lanes.role[off]),
                                c.firstIdx + off - lanes.acqDist[off]});
        }
    });
    return out;
}

/**
 * What the rewrite of `pc` must serve: the batch rewrite's records,
 * tagged as the detector tags them on those records.
 */
struct WcReference
{
    explicit WcReference(const Trace &pc)
        : wc(TraceRewriter().toWeakConsistency(pc)),
          roles(LockDetector().analyze(wc).roles), tags(stageTags(wc, 4096))
    {
    }

    Trace wc;
    std::vector<LockRole> roles;
    std::vector<Tag> tags;
};

void
expectServesReference(const Trace &pc, const WcReference &ref,
                      uint64_t chunk, const std::string &what)
{
    WcRewriteSource src(std::make_unique<MaterializedSource>(pc, chunk));
    Served got = servedLanes(src);
    std::string tag = what + " chunk " + std::to_string(chunk);
    ASSERT_EQ(got.records.size(), ref.wc.size()) << tag;
    for (uint64_t i = 0; i < ref.wc.size(); ++i) {
        ASSERT_EQ(got.records[i].cls, ref.wc[i].cls) << tag << " @" << i;
        ASSERT_EQ(got.records[i].pc, ref.wc[i].pc) << tag << " @" << i;
        ASSERT_EQ(got.records[i].addr, ref.wc[i].addr) << tag << " @" << i;
        ASSERT_EQ(got.tags[i].role, ref.roles[i]) << tag << " @" << i;
        ASSERT_EQ(got.tags[i].role, ref.tags[i].role) << tag << " @" << i;
        if (ref.roles[i] != LockRole::None) {
            ASSERT_EQ(got.tags[i].acquire, ref.tags[i].acquire)
                << tag << " @" << i;
        }
    }
}

TEST(WcRewriteSource, LockLanesEqualDetectorOnOutput)
{
    // The rewrite serves its WC records with lock lanes in place of a
    // second detector pass, so they must be exactly the detector's
    // verdict on the rewritten records, for every chunk size.
    const WorkloadProfile profiles[] = {
        WorkloadProfile::database(), WorkloadProfile::tpcw(),
        WorkloadProfile::specjbb(), WorkloadProfile::specweb(),
        WorkloadProfile::testTiny()};
    uint64_t wc_pairs = 0;
    for (const WorkloadProfile &profile : profiles) {
        for (uint64_t seed = 0; seed <= 20; ++seed) {
            Trace pc = SyntheticTraceGenerator(profile, seed).generate(6000);
            WcReference ref(pc);
            for (LockRole r : ref.roles)
                wc_pairs += r == LockRole::Release;
            for (uint64_t chunk : {1, 511, 4096, 65536}) {
                expectServesReference(pc, ref, chunk,
                                      profile.name + " seed " +
                                          std::to_string(seed));
            }
        }
    }
    EXPECT_GT(wc_pairs, 1000u);
}

/** `body` filler records between a casa and its release store. */
void
section(TraceBuilder &b, uint64_t lock, unsigned body)
{
    b.casa(lock);
    test::fillers(b, body);
    b.store(lock);
}

void
expectServesReferenceAllChunks(const Trace &pc, const std::string &what)
{
    WcReference ref(pc);
    for (uint64_t chunk : kChunkSizes)
        expectServesReference(pc, ref, chunk, what);
}

TEST(WcRewriteSource, LockLanesAtTheWcWindowEdge)
{
    // A PC section `d` records long is d + 3 long in WC: the rewrite
    // expands it for d <= 512, but only d <= 509 still pairs there.
    for (unsigned d = 509; d <= 513; ++d) {
        TraceBuilder b;
        test::fillers(b, 300);
        section(b, 0x100, d - 1);
        test::fillers(b, 600);
        Trace pc = b.build();
        WcReference ref(pc);
        std::string what = "pc distance " + std::to_string(d);
        EXPECT_EQ(ref.wc.size(), pc.size() + (d <= 512 ? 3 : 0)) << what;
        uint64_t releases = 0;
        for (LockRole r : ref.roles)
            releases += r == LockRole::Release;
        EXPECT_EQ(releases, d <= 509 ? 1u : 0u) << what;
        for (uint64_t chunk : kChunkSizes)
            expectServesReference(pc, ref, chunk, what);
    }

    // A section expanded inside another lengthens it by 3 more WC
    // records: 505 + 6 pairs in WC, 507 + 6 does not.
    for (unsigned outer : {505u, 507u}) {
        TraceBuilder b;
        b.casa(0x100);
        test::fillers(b, 99);
        section(b, 0x200, 9);
        test::fillers(b, outer - 111);
        b.store(0x100); // outer release, `outer` records after its casa
        test::fillers(b, 600);
        expectServesReferenceAllChunks(
            b.build(), "outer distance " + std::to_string(outer));
    }
}

TEST(WcRewriteSource, LockLanesOnHandBuiltIdioms)
{
    {
        // Back-to-back sections on one lock, then one straddling the
        // 512 and 1024 chunk boundaries.
        TraceBuilder b;
        section(b, 0x100, 3);
        section(b, 0x100, 0);
        b.casa(0x100);
        b.store(0x100);
        test::fillers(b, 1018 - b.size());
        section(b, 0x100, 6);
        test::fillers(b, 40);
        expectServesReferenceAllChunks(b.build(), "back to back");
    }
    {
        // A superseded casa, an unpaired casa, a release without an
        // acquire, and an lwsync right before a paired release.
        TraceBuilder b;
        b.casa(0x100);
        test::fillers(b, 4);
        b.casa(0x100); // supersedes the first
        b.casa(0x300); // never released
        b.store(0x400); // no acquire
        test::fillers(b, 3);
        b.lwsync();
        b.store(0x100);
        test::fillers(b, 700);
        b.store(0x300); // too late to pair
        test::fillers(b, 20);
        expectServesReferenceAllChunks(b.build(), "unpaired");
    }
    {
        // WC idioms already in the PC stream, and a casa directly
        // before a section's lwarx/stwcx (a shared aux record).
        TraceBuilder b;
        b.loadLocked(0x200, 2);
        b.storeCond(0x200, 2);
        b.isync();
        test::fillers(b, 5);
        b.lwsync();
        b.store(0x200);
        b.casa(0x100);
        b.loadLocked(0x500, 2);
        b.storeCond(0x500, 2);
        b.alu();
        b.store(0x100);
        b.alu();
        b.store(0x500);
        test::fillers(b, 30);
        expectServesReferenceAllChunks(b.build(), "native wc idioms");
    }
}

TEST(WcRewriteSource, LockLanesOnRandomIdioms)
{
    // Random streams dense in every idiom the detector reads, on a
    // few lock words, with gaps that cross the pairing window.
    Pcg32 rng(2024, 7);
    for (int trial = 0; trial < 40; ++trial) {
        TraceBuilder b;
        while (b.size() < 3000) {
            uint64_t lock = 0x100 + 0x40 * rng.below(3);
            switch (rng.below(9)) {
              case 0: b.casa(lock); break;
              case 1: b.store(lock); break;
              case 2: b.loadLocked(lock).storeCond(lock); break;
              case 3: b.loadLocked(lock); break;
              case 4: b.isync(); break;
              case 5: b.lwsync(); break;
              case 6: b.storeCond(lock); break;
              case 7: test::fillers(b, rng.below(600)); break;
              default: test::fillers(b, rng.below(40)); break;
            }
        }
        Trace pc = b.build();
        WcReference ref(pc);
        for (uint64_t chunk : {1, 97, 512, 4096})
            expectServesReference(pc, ref, chunk,
                                  "trial " + std::to_string(trial));
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
            {"pc3", SimConfig::pc3()},
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

/** Keeps every chunk a source serves, in fetch order. */
class RecordingSource : public TraceSource
{
  public:
    explicit RecordingSource(std::unique_ptr<TraceSource> inner)
        : TraceSource(inner->chunkInsts()), _inner(std::move(inner))
    {
    }

    std::shared_ptr<const TraceChunk>
    fetch(uint64_t chunk_idx) override
    {
        std::shared_ptr<const TraceChunk> c = _inner->fetch(chunk_idx);
        if (c)
            served.push_back(c);
        return c;
    }
    std::optional<uint64_t> knownSize() const override
    {
        return _inner->knownSize();
    }

    std::vector<std::shared_ptr<const TraceChunk>> served;

  private:
    std::unique_ptr<TraceSource> _inner;
};

TEST(RunnerSinglePass, WcRunDetectsOnce)
{
    // wc3 elides locks, so the engine reads its input through a
    // lock-role stage: over the rewrite, the stage passes the
    // rewrite's chunks through, lanes and all, instead of detecting
    // again.
    RunSpec spec = passSpec(SimConfig::wc3());
    RecordingSource rewrite(Runner::makeSource(spec, 4096));
    std::optional<LockRoleSource> stage;
    TraceSource &in = engineInput(spec.config, rewrite, stage);
    ASSERT_TRUE(stage.has_value());
    TraceCursor cur(in);
    uint64_t i = 0;
    for (const TraceCursor::LaneView *v; (v = cur.view(i)); i += v->count) {
        ASSERT_EQ(rewrite.served.size(), i / 4096 + 1);
        const TraceChunk &c = *rewrite.served.back();
        TraceChunk::LaneRefs lanes = c.lanes();
        EXPECT_EQ(v->first, c.firstIdx);
        EXPECT_EQ(v->pc, lanes.pc);
        EXPECT_EQ(v->role, lanes.role);
        EXPECT_EQ(v->acqDist, lanes.acqDist);
        EXPECT_NE(v->role, nullptr);
        cur.trim(i + v->count);
    }
    EXPECT_EQ(i, *rewrite.knownSize());

    // The run over that chain is the materialized run, bit for bit.
    RecordingSource chain(Runner::makeSource(spec, 4096));
    EXPECT_EQ(test::hashRunOutput(Runner::run(spec, chain)),
              test::hashRunOutput(test::runMaterialized(spec)));

    // PC runs with SLE or TM still detect in the stage.
    SimConfig tm = SimConfig::defaults();
    tm.tm.enabled = true;
    for (const SimConfig &cfg : {SimConfig::pc3(), tm}) {
        RunSpec pc_spec = passSpec(cfg);
        LockAnalysis ref =
            LockDetector().analyze(Runner::buildTrace(pc_spec));
        RecordingSource gen(Runner::makeSource(pc_spec, 4096));
        std::optional<LockRoleSource> pc_stage;
        TraceSource &pc_in = engineInput(cfg, gen, pc_stage);
        ASSERT_TRUE(pc_stage.has_value()) << cfg.name;
        uint64_t pairs = 0;
        for (uint64_t k = 0; std::shared_ptr<const TraceChunk> c =
                                 pc_in.fetch(k);
             ++k) {
            EXPECT_FALSE(gen.served[k]->hasLockLanes()) << cfg.name;
            EXPECT_NE(c.get(), gen.served[k].get()) << cfg.name;
            TraceChunk::LaneRefs lanes = c->lanes();
            ASSERT_NE(lanes.role, nullptr) << cfg.name;
            for (uint64_t off = 0; off < c->count; ++off) {
                auto role = static_cast<LockRole>(lanes.role[off]);
                ASSERT_EQ(role, ref.roles[c->firstIdx + off]) << cfg.name;
                pairs += role == LockRole::Release;
            }
        }
        EXPECT_EQ(pairs, ref.pairs.size()) << cfg.name;
        EXPECT_GT(pairs, 0u) << cfg.name;
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
