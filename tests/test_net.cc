/**
 * @file
 * Networked sweep service tests: wire-framing torture (truncated
 * frames, oversized and zero length prefixes), handshake version
 * gating, server fault containment (garbage frames, clients that
 * vanish mid-batch), client shard-retry recovery against an injected
 * server-side connection drop, request serialization round-trips, and
 * the end-to-end loopback proof that per-run stats streamed by the
 * daemon are bit-identical to a local engine executing the same
 * request — the property that makes remote sweeps trustworthy.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#ifndef _WIN32
#include <sys/socket.h>
#include <unistd.h>
#endif

#include "core/config_io.hh"
#include "core/sweep.hh"
#include "core/sweep_request.hh"
#include "net/frame.hh"
#include "net/socket.hh"
#include "net/sweep_client.hh"
#include "net/sweep_server.hh"
#include "stats/stats_json.hh"

using namespace storemlp;
using namespace storemlp::net;

namespace
{

#ifndef STOREMLP_CONFIG_DIR
#define STOREMLP_CONFIG_DIR "configs"
#endif

/** Load the shipped configs (sorted by stem), optionally capped. */
std::vector<SweepConfigEntry>
shippedConfigs(size_t limit = 0)
{
    std::vector<std::filesystem::path> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(STOREMLP_CONFIG_DIR)) {
        if (entry.path().extension() == ".cfg")
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    if (limit && files.size() > limit)
        files.resize(limit);
    std::vector<SweepConfigEntry> out;
    for (const auto &f : files) {
        SweepConfigEntry e;
        e.name = f.stem().string();
        e.config = loadSimConfigFile(f.string());
        out.push_back(std::move(e));
    }
    return out;
}

/** A fast request over the test workload. */
SweepRequest
tinyRequest(size_t nconfigs, std::vector<std::string> models = {})
{
    SweepRequest req;
    req.configs = shippedConfigs(nconfigs);
    req.workloads = {"tiny"};
    req.models = std::move(models);
    req.warmupInsts = 2000;
    req.measureInsts = 4000;
    req.seed = 7;
    return req;
}

/** Connected socketpair wrapped in FrameConns. */
struct ConnPair
{
    std::unique_ptr<FrameConn> a, b;

    ConnPair()
    {
        int fds[2] = {-1, -1};
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        a = std::make_unique<FrameConn>(fds[0]);
        b = std::make_unique<FrameConn>(fds[1]);
    }
};

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

TEST(NetFrame, RoundTripsTypesAndPayloads)
{
    ConnPair p;
    p.a->send(MsgType::Hello, std::string("\x01\x00\x00\x00", 4));
    p.a->send(MsgType::Submit, "workloads = tiny");
    p.a->send(MsgType::JobDone, ""); // empty payload is legal

    Frame f;
    ASSERT_TRUE(p.b->recv(f));
    EXPECT_EQ(f.type, MsgType::Hello);
    EXPECT_EQ(getU32(f.payload, 0), 1u);
    ASSERT_TRUE(p.b->recv(f));
    EXPECT_EQ(f.type, MsgType::Submit);
    EXPECT_EQ(f.payload, "workloads = tiny");
    ASSERT_TRUE(p.b->recv(f));
    EXPECT_EQ(f.type, MsgType::JobDone);
    EXPECT_TRUE(f.payload.empty());

    // Clean close at a frame boundary reads as EOF, not an error.
    p.a->close();
    EXPECT_FALSE(p.b->recv(f));
}

TEST(NetFrame, TruncatedFrameThrows)
{
    ConnPair p;
    // Length prefix promises 100 bytes; deliver the type byte and 3
    // more, then vanish.
    std::string partial;
    putU32(partial, 100);
    partial.push_back(static_cast<char>(MsgType::Submit));
    partial += "abc";
    ASSERT_EQ(::send(p.a->fd(), partial.data(), partial.size(),
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(partial.size()));
    p.a->close();

    Frame f;
    try {
        p.b->recv(f);
        FAIL() << "expected NetError";
    } catch (const NetError &e) {
        EXPECT_NE(std::string(e.what()).find("truncated"),
                  std::string::npos)
            << e.what();
    }
}

TEST(NetFrame, OversizedLengthPrefixRejectedBeforeAllocation)
{
    ConnPair p;
    std::string prefix;
    putU32(prefix, 0xffffffffu); // ~4 GB claim
    ASSERT_EQ(::send(p.a->fd(), prefix.data(), prefix.size(),
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(prefix.size()));

    Frame f;
    try {
        p.b->recv(f);
        FAIL() << "expected NetError";
    } catch (const NetError &e) {
        EXPECT_NE(std::string(e.what()).find("oversized"),
                  std::string::npos)
            << e.what();
    }
}

TEST(NetFrame, ZeroLengthFrameRejected)
{
    ConnPair p;
    std::string prefix;
    putU32(prefix, 0);
    ASSERT_EQ(::send(p.a->fd(), prefix.data(), prefix.size(),
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(prefix.size()));
    Frame f;
    EXPECT_THROW(p.b->recv(f), NetError);
}

TEST(NetFrame, SendRefusesPayloadOverCap)
{
    ConnPair p;
    std::string huge(kMaxFrameBytes, 'x');
    EXPECT_THROW(p.a->send(MsgType::Submit, huge), NetError);
}

TEST(NetFrame, GetU32PastEndThrows)
{
    EXPECT_THROW(getU32("abc", 0), NetError);
    std::string four;
    putU32(four, 0xdeadbeefu);
    EXPECT_EQ(getU32(four, 0), 0xdeadbeefu);
    EXPECT_THROW(getU32(four, 1), NetError);
}

// ---------------------------------------------------------------------
// Request serialization
// ---------------------------------------------------------------------

TEST(SweepRequestIo, TextRoundTripIsFixpoint)
{
    SweepRequest req = tinyRequest(3, {"pc", "wc"});
    req.retries = 2;

    std::string text = sweepRequestToText(req);
    SweepRequest back = sweepRequestFromText(text);
    EXPECT_EQ(sweepRequestToText(back), text);

    EXPECT_EQ(back.workloads, req.workloads);
    EXPECT_EQ(back.models, req.models);
    EXPECT_EQ(back.warmupInsts, req.warmupInsts);
    EXPECT_EQ(back.measureInsts, req.measureInsts);
    EXPECT_EQ(back.seed, req.seed);
    EXPECT_EQ(back.retries, req.retries);
    ASSERT_EQ(back.configs.size(), req.configs.size());
    for (size_t i = 0; i < back.configs.size(); ++i)
        EXPECT_EQ(back.configs[i].name, req.configs[i].name);

    // The round-tripped request expands to the same planned runs.
    std::vector<PlannedRun> a = expandSweepRuns(req);
    std::vector<PlannedRun> b = expandSweepRuns(back);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].name, b[i].name);
}

// The runs a request text carries are the runs of the in-memory
// request: doubles cross the wire exactly (1.2345678 used to arrive as
// 1.23457).
TEST(SweepRequestIo, TextRunsEqualInMemoryRuns)
{
    SweepRequest req = tinyRequest(2, {"pc", "wc"});
    req.configs[0].config.cpiOnChip = 1.2345678;
    req.configs[1].config.tm.abortProb = 0.0123456789012;
    req.configs[1].config.mispredictPenalty = 12.000000000000002;

    std::vector<PlannedRun> want = expandSweepRuns(req);
    std::vector<PlannedRun> got =
        expandSweepRuns(sweepRequestFromText(sweepRequestToText(req)));
    ASSERT_EQ(got.size(), want.size());
    auto bits = [](double d) { return std::bit_cast<uint64_t>(d); };
    for (size_t i = 0; i < want.size(); ++i) {
        const RunSpec &a = want[i].spec;
        const RunSpec &b = got[i].spec;
        EXPECT_EQ(got[i].name, want[i].name);
        EXPECT_EQ(b.profile.cacheKey(), a.profile.cacheKey());
        EXPECT_EQ(b.config.name, a.config.name);
        EXPECT_EQ(b.config.memoryModel, a.config.memoryModel);
        EXPECT_EQ(bits(b.config.cpiOnChip), bits(a.config.cpiOnChip));
        EXPECT_EQ(bits(b.config.mispredictPenalty),
                  bits(a.config.mispredictPenalty));
        EXPECT_EQ(bits(b.config.tm.abortProb),
                  bits(a.config.tm.abortProb));
        EXPECT_EQ(bits(b.config.tm.abortPenaltyCycles),
                  bits(a.config.tm.abortPenaltyCycles));
        EXPECT_EQ(b.warmupInsts, a.warmupInsts);
        EXPECT_EQ(b.measureInsts, a.measureInsts);
        EXPECT_EQ(b.seed, a.seed);
    }
}

// Fingerprint of the shipped batch, recorded before the request codec
// became table-driven and never regenerated: artifacts of the same
// batch keep naming the same request.
TEST(SweepRequestIo, FrozenShippedBatchFingerprint)
{
    SweepRequest req;
    req.configs = shippedConfigs();
    ASSERT_EQ(req.configs.size(), 9u);
    req.workloads = {"database", "tpcw", "specjbb", "specweb"};
    req.models = {"pc", "wc", "rmo", "wmm"};
    req.warmupInsts = 600 * 1000;
    req.measureInsts = 1000 * 1000;
    req.seed = 42;
    EXPECT_EQ(sweepRequestFingerprint(req), "f00f2becc66a6007");
}

TEST(SweepRequestIo, RetiredStreamingKeysAreUnknown)
{
    // Protocol v1 requests always carried these keys; a v2 reader
    // refuses them instead of ignoring them.
    std::string base = sweepRequestToText(tinyRequest(1));
    for (const char *line : {"streaming = true", "chunkInsts = 1024"}) {
        SCOPED_TRACE(line);
        try {
            sweepRequestFromText(base + line + "\n");
            FAIL() << "expected ConfigError";
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find("unknown key"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(SweepRequestIo, FingerprintIgnoresRunFilter)
{
    SweepRequest req = tinyRequest(2, {"pc"});
    std::string fp = sweepRequestFingerprint(req);
    EXPECT_EQ(fp.size(), 16u);

    SweepRequest filtered = req;
    filtered.runFilter = {"tiny_" + req.configs[0].name + "@PC"};
    EXPECT_EQ(sweepRequestFingerprint(filtered), fp);

    SweepRequest changed = req;
    changed.seed += 1;
    EXPECT_NE(sweepRequestFingerprint(changed), fp);
}

TEST(SweepRequestIo, ExpansionValidatesNamesAndFilters)
{
    SweepRequest empty;
    EXPECT_THROW(expandSweepRuns(empty), ConfigError);

    SweepRequest req = tinyRequest(2);
    req.workloads = {"nosuch"};
    EXPECT_THROW(expandSweepRuns(req), ConfigError);

    req = tinyRequest(2);
    req.runFilter = {"tiny_" + req.configs[0].name, "tiny_ghost"};
    EXPECT_THROW(expandSweepRuns(req), ConfigError);

    req = tinyRequest(2);
    req.runFilter = {"tiny_" + req.configs[1].name};
    std::vector<PlannedRun> runs = expandSweepRuns(req);
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].configName, req.configs[1].name);

    // Duplicate config entries expand to duplicate run names.
    req = tinyRequest(1);
    req.configs.push_back(req.configs[0]);
    EXPECT_THROW(expandSweepRuns(req), ConfigError);

    // Unparsable request text is a ConfigError, not a crash.
    EXPECT_THROW(sweepRequestFromText("frobnicate = yes"),
                 ConfigError);
    EXPECT_THROW(sweepRequestFromText("[config x]\nnot closed"),
                 ConfigError);
}

// ---------------------------------------------------------------------
// Server protocol behavior
// ---------------------------------------------------------------------

/** Dial a running server and complete the handshake. */
std::unique_ptr<FrameConn>
handshake(uint16_t port, uint32_t version = kProtocolVersion)
{
    auto conn =
        std::make_unique<FrameConn>(tcpConnect("127.0.0.1", port));
    std::string hello;
    putU32(hello, version);
    conn->send(MsgType::Hello, hello);
    return conn;
}

TEST(SweepServer, RejectsVersionMismatchWithErrorFrame)
{
    SweepServer server;
    server.start();

    auto conn = handshake(server.port(), /*version=*/99);
    Frame f;
    ASSERT_TRUE(conn->recv(f));
    EXPECT_EQ(f.type, MsgType::Error);
    EXPECT_NE(f.payload.find("version mismatch"), std::string::npos)
        << f.payload;
    server.stop();
}

TEST(SweepServer, UnknownFrameTypeDrawsErrorAndConnectionSurvives)
{
    SweepServer server;
    server.start();

    auto conn = handshake(server.port());
    Frame f;
    ASSERT_TRUE(conn->recv(f));
    ASSERT_EQ(f.type, MsgType::HelloAck);
    EXPECT_EQ(getU32(f.payload, 0), kProtocolVersion);
    EXPECT_EQ(getU32(f.payload, 4),
              static_cast<uint32_t>(kStatsSchemaVersion));

    // Garbage type: Error frame, not a dropped connection.
    conn->send(static_cast<MsgType>(42), "???");
    ASSERT_TRUE(conn->recv(f));
    EXPECT_EQ(f.type, MsgType::Error);

    // Malformed request body: same containment.
    conn->send(MsgType::Submit, "definitely not a request");
    ASSERT_TRUE(conn->recv(f));
    EXPECT_EQ(f.type, MsgType::Error);
    EXPECT_NE(f.payload.find("bad sweep request"), std::string::npos);

    // The connection is still usable for a real batch afterwards.
    conn->send(MsgType::Submit,
               sweepRequestToText(tinyRequest(1)));
    size_t results = 0;
    bool done = false;
    while (!done && conn->recv(f)) {
        if (f.type == MsgType::RunResult)
            ++results;
        else if (f.type == MsgType::JobDone)
            done = true;
        else
            FAIL() << "unexpected frame type";
    }
    EXPECT_TRUE(done);
    EXPECT_EQ(results, 1u);
    server.stop();
}

TEST(SweepServer, ClientVanishingMidBatchDoesNotKillServer)
{
    SweepServer server;
    server.start();

    {
        // Submit a multi-run batch, read one result, disappear.
        auto conn = handshake(server.port());
        Frame f;
        ASSERT_TRUE(conn->recv(f));
        ASSERT_EQ(f.type, MsgType::HelloAck);
        conn->send(MsgType::Submit,
                   sweepRequestToText(tinyRequest(4)));
        ASSERT_TRUE(conn->recv(f));
        EXPECT_EQ(f.type, MsgType::RunResult);
        conn->close();
    }

    // The server survives and serves a complete batch on a fresh
    // connection.
    SweepClientOptions copts;
    copts.port = server.port();
    copts.maxReconnects = 0;
    RemoteSweepReport report =
        runSweepRemote(tinyRequest(2), copts);
    EXPECT_EQ(report.results.size(), 2u);
    EXPECT_EQ(report.failedRuns(), 0u);
    EXPECT_EQ(report.reconnects, 0u);
    server.stop();
}

// ---------------------------------------------------------------------
// Client retry / shard recovery
// ---------------------------------------------------------------------

TEST(SweepClient, RecoversAllShardsAfterServerSideDrop)
{
    SweepServerOptions sopts;
    sopts.dropAfterResults = 2; // crash the first stream after 2 runs
    SweepServer server(sopts);
    server.start();

    SweepClientOptions copts;
    copts.port = server.port();
    copts.maxReconnects = 3;

    SweepRequest req = tinyRequest(3, {"pc", "wc"}); // 6 runs
    size_t streamed = 0;
    RemoteSweepReport report = runSweepRemote(
        req, copts,
        [&](const RemoteRunResult &, size_t, size_t) { ++streamed; });

    ASSERT_EQ(report.results.size(), 6u);
    EXPECT_EQ(streamed, 6u);
    EXPECT_GE(report.reconnects, 1u);
    EXPECT_EQ(report.failedRuns(), 0u);
    // Results hold their expansion-order slots with matching names.
    std::vector<PlannedRun> planned = expandSweepRuns(req);
    for (size_t i = 0; i < planned.size(); ++i)
        EXPECT_EQ(report.results[i].name, planned[i].name);
    EXPECT_FALSE(report.summaryJson.empty());
    server.stop();
}

TEST(SweepClient, ExhaustedReconnectBudgetRaisesNetError)
{
    // A server that drops after every first result and only accepts
    // one connection: the client cannot finish a 3-run batch.
    SweepServerOptions sopts;
    sopts.dropAfterResults = 1;
    sopts.maxConnections = 1;
    SweepServer server(sopts);
    server.start();

    SweepClientOptions copts;
    copts.port = server.port();
    copts.maxReconnects = 0;
    EXPECT_THROW(runSweepRemote(tinyRequest(3), copts), NetError);
    server.stop();
}

// ---------------------------------------------------------------------
// End-to-end: remote == local, bit for bit
// ---------------------------------------------------------------------

/**
 * The acceptance property: every shipped config crossed with the four
 * model presets, submitted over loopback, must come back with per-run
 * stats bit-identical to a local engine executing the same request —
 * and stay identical when a mid-batch connection drop forces the
 * client to recover shards by resubmission.
 */
void
expectRemoteMatchesLocal(unsigned drop_after)
{
    SweepRequest req;
    req.configs = shippedConfigs(); // all nine
    req.workloads = {"tiny"};
    req.models = {"pc", "wc", "rmo", "wmm"};
    req.warmupInsts = 2000;
    req.measureInsts = 4000;
    req.seed = 11;

    // Local reference: same request, in-process engine.
    SweepEngine local;
    std::vector<RunOutcome> expected = local.execute(req);
    ASSERT_FALSE(expected.empty());

    SweepServerOptions sopts;
    sopts.dropAfterResults = drop_after;
    SweepServer server(sopts);
    server.start();
    SweepClientOptions copts;
    copts.port = server.port();
    RemoteSweepReport report = runSweepRemote(req, copts);
    server.stop();

    ASSERT_EQ(report.results.size(), expected.size());
    if (drop_after) {
        EXPECT_GE(report.reconnects, 1u);
    }
    for (size_t i = 0; i < expected.size(); ++i) {
        const RunOutcome &want = expected[i];
        const RemoteRunResult &got = report.results[i];
        ASSERT_TRUE(got.ok) << got.name << ": " << got.errorMessage;
        ASSERT_EQ(got.name, want.name);

        StatsEnvelope env;
        int version = 0;
        StatsRegistry remote_reg =
            statsFromJson(got.json, &env, &version);
        EXPECT_EQ(version, kStatsSchemaVersion);

        StatsRegistry want_reg;
        want.output.exportStats(want_reg);
        // Compare canonical serializations: parsing is value- but not
        // kind-preserving (an integral Scalar reads back as a
        // Counter), and the acceptance bar is bit-identical JSON
        // stats, which is exactly what re-serialization checks.
        EXPECT_EQ(statsToJson(remote_reg, StatsMeta{}, false),
                  statsToJson(want_reg, StatsMeta{}, false))
            << got.name
            << ": remote stats diverged from the local engine";

        // The v2 envelope carries the run identity and provenance.
        auto runVal = [&](const char *key) -> std::string {
            for (const auto &[k, v] : env.run)
                if (k == key)
                    return v;
            return "<missing>";
        };
        EXPECT_EQ(runVal("name"), want.name);
        EXPECT_EQ(runVal("workload"), "tiny");
        EXPECT_EQ(runVal("seed"), "11");
        EXPECT_EQ(runVal("ok"), "1");
        auto srcVal = [&](const char *key) -> std::string {
            for (const auto &[k, v] : env.source)
                if (k == key)
                    return v;
            return "<missing>";
        };
        EXPECT_EQ(srcVal("request"), sweepRequestFingerprint(req));
        EXPECT_EQ(srcVal("tool"), "storemlp_sweepd");
    }
}

TEST(SweepLoopback, AllConfigsAllModelsBitIdenticalToLocal)
{
    expectRemoteMatchesLocal(/*drop_after=*/0);
}

TEST(SweepLoopback, BitIdenticalEvenAcrossInjectedShardLoss)
{
    expectRemoteMatchesLocal(/*drop_after=*/5);
}

} // namespace
