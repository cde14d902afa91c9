/**
 * @file
 * Tests for the v4 trace writer: frozen FNV-1a digests of the bytes
 * it writes (recorded from the whole-trace writer before the linear
 * chunk loop replaced it; never regenerate them), the storemlp_tracegen
 * file and reports, pinned the same way, and byte equality of the
 * streaming TraceSource overload with the Trace overload whatever the
 * source's chunk size.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>
#include <unistd.h>

#include "core/config_io.hh"
#include "trace/generator.hh"
#include "trace/rewriter.hh"
#include "trace/trace_format.hh"
#include "trace/trace_io.hh"
#include "trace/trace_source.hh"
#include "stats_hash.hh"

namespace storemlp
{
namespace
{

using test::fnv1a;

std::string
hex(uint64_t h)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** 200K records of `workload` at seed 42, in its PC or WC rendition. */
Trace
pinTrace(const std::string &workload, bool wc)
{
    SyntheticTraceGenerator gen(workloadProfileForName(workload), 42, 0);
    Trace t = gen.generate(200000);
    return wc ? TraceRewriter().toWeakConsistency(t) : t;
}

std::string
writtenBytes(const Trace &t, const std::string &fp, uint64_t chunk_insts)
{
    std::ostringstream os;
    writeTraceV4(os, t, fp, chunk_insts);
    return os.str();
}

TEST(TraceWriter, FrozenV4Digests)
{
    struct Pin
    {
        const char *workload;
        bool wc;
        uint64_t chunk;
        const char *digest;
    };
    const Pin pins[] = {
        {"database", false, 1, "60102457a31232c2"},
        {"database", false, 4096, "58e0fb2ef4f8cd13"},
        {"database", false, 65536, "d8dfaa51788f1252"},
        {"database", true, 1, "3628758239a29179"},
        {"database", true, 4096, "8fbc2cc96b0726cb"},
        {"database", true, 65536, "34d8439d51d7e9d2"},
        {"tpcw", false, 1, "400bbded105a3eb1"},
        {"tpcw", false, 4096, "204cdf3c001dda37"},
        {"tpcw", false, 65536, "a2f72b60beaf631e"},
        {"tpcw", true, 1, "dcf23092248ac094"},
        {"tpcw", true, 4096, "7b93b98ab3044cdc"},
        {"tpcw", true, 65536, "7d778153d817feeb"},
    };
    for (const Pin &p : pins) {
        Trace t = pinTrace(p.workload, p.wc);
        std::string fp = std::string("pin|") + p.workload +
            (p.wc ? "|wc" : "|pc");
        EXPECT_EQ(hex(fnv1a(writtenBytes(t, fp, p.chunk))), p.digest)
            << p.workload << (p.wc ? " wc" : " pc") << " chunk "
            << p.chunk;
    }
}

std::string
streamedBytes(TraceSource &src, const std::string &fp,
              uint64_t chunk_insts)
{
    std::ostringstream os;
    writeTraceV4(os, src, fp, chunk_insts);
    return os.str();
}

std::unique_ptr<TraceSource>
pinSource(const std::string &workload, bool wc, uint64_t count,
          uint64_t source_chunk)
{
    std::unique_ptr<TraceSource> src = std::make_unique<GeneratorSource>(
        workloadProfileForName(workload), 42, count, 0, source_chunk);
    if (wc)
        src = std::make_unique<WcRewriteSource>(std::move(src));
    return src;
}

// The file's bytes do not depend on how the source slices the stream,
// including source chunks that do not divide the file chunk (1009 into
// 4096) and file chunks smaller than the source's.
TEST(TraceWriter, SourceOverloadMatchesTraceOverload)
{
    for (const char *workload : {"database", "tpcw"}) {
        for (bool wc : {false, true}) {
            Trace t = pinTrace(workload, wc);
            for (uint64_t file_chunk : {1, 4096, 65536}) {
                std::string want = writtenBytes(t, "fp", file_chunk);
                for (uint64_t src_chunk : {1009, 4096, 65536}) {
                    auto src = pinSource(workload, wc, 200000, src_chunk);
                    EXPECT_EQ(streamedBytes(*src, "fp", file_chunk), want)
                        << workload << (wc ? " wc" : " pc") << " source "
                        << src_chunk << " file " << file_chunk;
                }
                MaterializedSource mat(t, 777);
                EXPECT_EQ(streamedBytes(mat, "fp", file_chunk), want)
                    << "materialized, file " << file_chunk;
            }
        }
    }
}

TEST(TraceWriter, SourceOverloadEdgeCases)
{
    Trace empty;
    MaterializedSource none(empty);
    EXPECT_EQ(streamedBytes(none, "e", 4096),
              writtenBytes(empty, "e", 4096));

    Trace one(std::vector<TraceRecord>{pinTrace("tpcw", false)[0]});
    MaterializedSource single(one);
    std::string bytes = streamedBytes(single, "one", 4096);
    EXPECT_EQ(bytes, writtenBytes(one, "one", 4096));
    std::istringstream is(bytes);
    EXPECT_EQ(readTrace(is).size(), 1u);

    // Bad geometry and an oversized fingerprint throw before the
    // source is read.
    auto src = pinSource("database", false, 1000, 100);
    std::ostringstream os;
    EXPECT_THROW(writeTraceV4(os, *src, "", 0), TraceFormatError);
    EXPECT_THROW(writeTraceV4(os, *src, "",
                              trace_format::kMaxChunkInstsV4 + 1),
                 TraceFormatError);
    EXPECT_THROW(writeTraceV4(os, *src,
                              std::string(trace_format::kMaxMetaBytes + 1,
                                          'x')),
                 TraceFormatError);
    EXPECT_TRUE(os.str().empty());
}

// The observer sees every source chunk once, in order, before the
// writer is done with it.
TEST(TraceWriter, ObserverSeesEveryChunkInOrder)
{
    auto src = pinSource("database", true, 50000, 4096);
    uint64_t next = 0;
    Trace::Mix mix;
    std::ostringstream os;
    writeTraceV4(os, *src, "obs", 1000, [&](const TraceChunk &c) {
        EXPECT_EQ(c.firstIdx, next);
        next += c.count;
        mix.add(c.data, c.count);
    });
    Trace t = materializeSource(*pinSource("database", true, 50000, 4096));
    EXPECT_EQ(next, t.size());
    Trace::Mix want = t.mix();
    EXPECT_EQ(mix.total, want.total);
    EXPECT_EQ(mix.loads, want.loads);
    EXPECT_EQ(mix.stores, want.stores);
    EXPECT_EQ(mix.branches, want.branches);
    EXPECT_EQ(mix.atomics, want.atomics);
    EXPECT_EQ(mix.barriers, want.barriers);
    EXPECT_EQ(os.str(), writtenBytes(t, "obs", 1000));
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is), {});
}

/** Run `cmd` through the shell and return its stdout; fail on exit != 0. */
std::string
capture(const std::string &cmd)
{
    std::string out;
    FILE *p = popen(cmd.c_str(), "r");
    if (!p)
        return out;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), p)) > 0)
        out.append(buf, n);
    EXPECT_EQ(pclose(p), 0) << cmd;
    return out;
}

// storemlp_tracegen --workload database --count 200000 (seed 42, chunk
// 65536): the file bytes and the text, JSON and CSV reports.
TEST(TraceWriter, FrozenTracegenOutput)
{
    struct Pin
    {
        const char *flags;
        const char *file;
        const char *text;
        const char *json;
        const char *csv;
    };
    const Pin pins[] = {
        {"", "8b394dd99842f11e", "2cdac0f67e71376b", "4d8600e299ed9ae3",
         "871f07b172b1ebf4"},
        {" --wc", "58372fb33882b638", "a9213b04a26ee721",
         "f331cf8950bb4af4", "2dfc7d361a8958a7"},
    };
    std::string dir = ::testing::TempDir() + "tracegen_pin_" +
        std::to_string(getpid());
    ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);
    for (const Pin &p : pins) {
        std::string cmd = "cd " + dir + " && " STOREMLP_TRACEGEN
                          " --workload database --count 200000"
                          " --out pin.trc" +
            std::string(p.flags);
        EXPECT_EQ(hex(fnv1a(capture(cmd))), p.text) << p.flags;
        EXPECT_EQ(hex(fnv1a(slurp(dir + "/pin.trc"))), p.file)
            << p.flags;
        EXPECT_EQ(hex(fnv1a(capture(cmd + " --format=json"))), p.json)
            << p.flags;
        EXPECT_EQ(hex(fnv1a(capture(cmd + " --format=csv"))), p.csv)
            << p.flags;
    }
    std::remove((dir + "/pin.trc").c_str());
    std::remove(dir.c_str());
}

} // namespace
} // namespace storemlp
