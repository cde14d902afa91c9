/**
 * @file
 * Streaming trace pipeline tests: every TraceSource must be
 * indistinguishable from the materialized trace it streams — same
 * records for every chunk size (including pathological ones), same
 * lock analysis, same WC rewrite, and bit-identical SimResults end to
 * end. Chunking is an execution strategy, never a model input.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/config_io.hh"
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

bool
sameRec(const TraceRecord &a, const TraceRecord &b)
{
    return a.pc == b.pc && a.addr == b.addr && a.cls == b.cls &&
        a.size == b.size && a.dst == b.dst && a.src1 == b.src1 &&
        a.src2 == b.src2 && a.flags == b.flags;
}

/** Drain a source and compare against a reference trace. */
void
expectStreamEquals(TraceSource &src, const Trace &ref)
{
    uint64_t i = 0;
    uint64_t visited = forEachRecord(
        src, 0, ~uint64_t{0}, [&](const TraceRecord &r) {
            ASSERT_LT(i, ref.size());
            EXPECT_TRUE(sameRec(r, ref[i]))
                << "record " << i << " differs";
            ++i;
        });
    EXPECT_EQ(visited, ref.size());
}

Trace
makeTrace(uint64_t n, uint64_t seed = 7)
{
    SyntheticTraceGenerator gen(WorkloadProfile::tpcw(), seed, 0);
    return gen.generate(n);
}

TEST(GeneratorSource, MatchesOneShotGenerateAcrossChunkSizes)
{
    // The generator emits whole slots, so a run can overshoot the
    // requested count; chunked production must stop at the same slot
    // boundary as a single generate(N) call.
    const uint64_t n = 5000;
    Trace ref = makeTrace(n);
    for (uint64_t chunk : {uint64_t{1}, uint64_t{7}, uint64_t{509},
                           uint64_t{4096}, uint64_t{1} << 16}) {
        GeneratorSource src(WorkloadProfile::tpcw(), 7, n, 0, chunk);
        expectStreamEquals(src, ref);
    }
}

TEST(GeneratorSource, RestartsDeterministicallyOnBackwardFetch)
{
    const uint64_t n = 3000;
    GeneratorSource src(WorkloadProfile::tpcw(), 7, n, 0, 256);
    TraceCursor cur(src);
    const TraceRecord *late = cur.tryAt(2000);
    ASSERT_NE(late, nullptr);
    TraceRecord saved_late = *late;
    const TraceRecord *early = cur.tryAt(3);
    ASSERT_NE(early, nullptr);
    TraceRecord saved_early = *early;
    // Forward again after the restart: identical bytes.
    const TraceRecord *late2 = cur.tryAt(2000);
    ASSERT_NE(late2, nullptr);
    EXPECT_TRUE(sameRec(*late2, saved_late));
    Trace ref = makeTrace(n);
    EXPECT_TRUE(sameRec(saved_early, ref[3]));
    EXPECT_TRUE(sameRec(saved_late, ref[2000]));
}

TEST(MaterializedSource, RoundTripsAndReportsSize)
{
    Trace ref = makeTrace(2000);
    MaterializedSource src(ref, 777);
    ASSERT_TRUE(src.knownSize().has_value());
    EXPECT_EQ(*src.knownSize(), ref.size());
    expectStreamEquals(src, ref);
    Trace copy = materializeSource(src);
    ASSERT_EQ(copy.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i)
        EXPECT_TRUE(sameRec(copy[i], ref[i]));
}

TEST(StreamingLockDetector, MatchesBatchAnalysis)
{
    Trace trace = makeTrace(20000, 11);
    LockAnalysis batch = LockDetector().analyze(trace);

    MaterializedSource src(trace);
    LockAnalysis streamed = test::stageAnalysis(src);

    ASSERT_EQ(streamed.roles.size(), batch.roles.size());
    for (size_t i = 0; i < batch.roles.size(); ++i)
        EXPECT_EQ(streamed.roles[i], batch.roles[i]) << "role " << i;
    ASSERT_EQ(streamed.pairs.size(), batch.pairs.size());
    for (size_t i = 0; i < batch.pairs.size(); ++i) {
        EXPECT_EQ(streamed.pairs[i].acquireIdx,
                  batch.pairs[i].acquireIdx);
        EXPECT_EQ(streamed.pairs[i].releaseIdx,
                  batch.pairs[i].releaseIdx);
        EXPECT_EQ(streamed.pairs[i].lockAddr, batch.pairs[i].lockAddr);
    }
}

TEST(WcRewriteSource, MatchesBatchRewriteAcrossChunkSizes)
{
    // Lock idioms that straddle a chunk boundary are the hard case:
    // the carry state (detector window + pending output) must splice
    // the expansion exactly where the batch rewriter puts it.
    Trace trace = makeTrace(20000, 13);
    LockAnalysis locks = LockDetector().analyze(trace);
    Trace ref = TraceRewriter().toWeakConsistency(trace, locks);

    for (uint64_t chunk : {uint64_t{1}, uint64_t{193}, uint64_t{4096}}) {
        auto inner = std::make_unique<MaterializedSource>(trace, chunk);
        WcRewriteSource src(std::move(inner));
        expectStreamEquals(src, ref);
        ASSERT_TRUE(src.knownSize().has_value());
        EXPECT_EQ(*src.knownSize(), ref.size());
    }
}

TEST(TraceCursor, TrimKeepsCurrentChunkUsable)
{
    Trace ref = makeTrace(1000);
    MaterializedSource src(ref, 128);
    TraceCursor cur(src);
    for (uint64_t i = 0; i < ref.size(); ++i) {
        const TraceRecord *rp = cur.tryAt(i);
        ASSERT_NE(rp, nullptr);
        EXPECT_TRUE(sameRec(*rp, ref[i]));
        cur.trim(i); // aggressive trim must never invalidate *rp's chunk
    }
    EXPECT_EQ(cur.tryAt(ref.size()), nullptr);
}

class FileSourceTest : public ::testing::Test
{
  protected:
    std::string
    writeTemp(const std::string &name, const Trace &trace,
              uint64_t chunk_insts, const std::string &fingerprint = "")
    {
        std::string path =
            ::testing::TempDir() + "trace_source_" + name + ".trc";
        writeTraceFileV4(path, trace, fingerprint, chunk_insts);
        _paths.push_back(path);
        return path;
    }

    void TearDown() override
    {
        for (const std::string &p : _paths)
            std::remove(p.c_str());
    }

    std::vector<std::string> _paths;
};

TEST_F(FileSourceTest, RandomAccessAcrossChunks)
{
    // Every chunk decodes from its own index entry: random access in
    // any visit order, backward included, must yield exact records.
    Trace ref = makeTrace(4000, 19);
    std::string path = writeTemp("rand", ref, 256);
    StreamingFileSource src(path);
    TraceCursor cur(src);
    for (uint64_t idx : {uint64_t{3900}, uint64_t{0}, uint64_t{2048},
                         uint64_t{255}, uint64_t{256}, uint64_t{3900}}) {
        const TraceRecord *rp = cur.tryAt(idx);
        ASSERT_NE(rp, nullptr) << "index " << idx;
        EXPECT_TRUE(sameRec(*rp, ref[idx])) << "index " << idx;
    }
}

TEST_F(FileSourceTest, ProbeReadsHeaderOnly)
{
    Trace ref = makeTrace(1234, 23);
    std::string path = writeTemp("probe", ref, 100, "probe-fingerprint");
    TraceFileInfo info = probeTraceFile(path);
    EXPECT_EQ(info.version, 4u);
    EXPECT_EQ(info.records, ref.size());
    EXPECT_EQ(info.chunks, 13u);
    EXPECT_EQ(info.chunkInsts, 100u);
    EXPECT_EQ(info.fingerprint, "probe-fingerprint");
    EXPECT_GT(info.fileBytes, 0u);

    StreamingFileSource src(path);
    EXPECT_EQ(src.fingerprint(), "probe-fingerprint");
}

TEST(RunnerStreaming, BitIdenticalToMaterializedOnShippedConfigs)
{
    // The acceptance bar for the whole streaming pipeline: for every
    // shipped config (PC/WC, SLE, scout), SimResult must be
    // bit-identical between the materialized path and the chunked
    // streaming path — including chunk sizes that are not divisors of
    // the run length.
    const char *files[] = {"pc1.cfg", "pc2.cfg", "pc3.cfg",
                           "wc1.cfg", "wc2.cfg", "wc3.cfg",
                           "hws2.cfg", "rmo1.cfg", "wmm1.cfg"};
    int compared = 0;
    for (const char *f : files) {
        std::string path;
        for (const std::string &prefix :
             {std::string("configs/"), std::string("../configs/"),
              std::string("../../configs/")}) {  // NOLINT
            std::ifstream probe(prefix + f);
            if (probe) {
                path = prefix + f;
                break;
            }
        }
        if (path.empty())
            continue;

        RunSpec spec;
        spec.profile = WorkloadProfile::specjbb();
        spec.config = loadSimConfigFile(path);
        spec.warmupInsts = 20000;
        spec.measureInsts = 40000;

        RunOutput mat = test::runMaterialized(spec);
        for (uint64_t chunk : {uint64_t{1009}, uint64_t{0}}) {
            std::unique_ptr<TraceSource> src =
                Runner::makeSource(spec, chunk);
            RunOutput streamed = Runner::run(spec, *src);
            EXPECT_EQ(streamed.sim, mat.sim)
                << f << " chunk=" << chunk;
            EXPECT_EQ(streamed.storesPer100, mat.storesPer100) << f;
            EXPECT_EQ(streamed.l2Accesses, mat.l2Accesses) << f;
        }
        ++compared;
    }
    if (compared == 0)
        GTEST_SKIP() << "configs/ not reachable from test cwd";
}

TEST(RunnerStreaming, FileSourceMatchesInMemoryRun)
{
    RunSpec spec;
    spec.profile = WorkloadProfile::tpcw();
    spec.warmupInsts = 10000;
    spec.measureInsts = 20000;

    Trace trace = Runner::buildTrace(spec);
    RunOutput mem = test::runMaterialized(spec, trace);

    std::string path = ::testing::TempDir() + "runner_file_src.trc";
    writeTraceFileV4(path, trace, "runner-file", 777);
    {
        StreamingFileSource src(path);
        RunOutput filed = Runner::run(spec, src);
        EXPECT_EQ(filed.sim, mem.sim);
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace storemlp
