/**
 * @file
 * Bounded, fixed-seed fuzz loop over wire-frame decoding: byte flips
 * and truncations of a valid Hello+Submit frame stream, read back
 * with FrameConn::recv over a socketpair. Every input must either
 * yield frames or throw NetError, never crash, hang or hand back a
 * payload past kMaxFrameBytes. It lives in the unit binary, so the
 * sanitizer jobs run it.
 */

#include <gtest/gtest.h>

#ifndef _WIN32

#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <random>
#include <string>
#include <system_error>

#include "core/sweep_request.hh"
#include "net/frame.hh"

namespace storemlp::net
{
namespace
{

/** The frames a client opens every batch with: Hello, then Submit. */
std::string
helloSubmitStream()
{
    std::string version;
    putU32(version, kProtocolVersion);
    SweepRequest req;
    req.workloads = {"tiny"};
    req.models = {"pc", "wc"};
    req.warmupInsts = 2000;
    req.measureInsts = 4000;
    std::string out;
    for (const auto &[type, payload] :
         {std::pair{MsgType::Hello, version},
          std::pair{MsgType::Submit, sweepRequestToText(req)}}) {
        putU32(out, static_cast<uint32_t>(payload.size() + 1));
        out.push_back(static_cast<char>(type));
        out += payload;
    }
    return out;
}

/** One to three byte flips, a truncation, or both. */
std::string
mutate(std::string s, std::mt19937_64 &rng)
{
    uint64_t kind = rng() % 3;
    if (kind != 1) {
        for (uint64_t n = 1 + rng() % 3; n > 0 && !s.empty(); --n)
            s[rng() % s.size()] ^= static_cast<char>(1 + rng() % 255);
    }
    if (kind != 0)
        s.resize(rng() % (s.size() + 1));
    return s;
}

/**
 * Write `bytes` into one end of a socketpair, close it, and receive
 * frames from the other end until EOF. Returns the frame count;
 * throws NetError where recv (or a Hello's version field) does.
 */
int
recvAll(const std::string &bytes)
{
    int fds[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
        throw std::system_error(errno, std::generic_category(),
                                "socketpair");
    FrameConn reader(fds[1]);
    {
        // A few hundred bytes fit the socket buffer: one send, and
        // closing the writer leaves them queued ahead of the EOF.
        FrameConn writer(fds[0]);
        if (!bytes.empty() &&
            ::send(fds[0], bytes.data(), bytes.size(), MSG_NOSIGNAL) !=
                static_cast<ssize_t>(bytes.size()))
            throw std::system_error(errno, std::generic_category(),
                                    "send");
    }
    int frames = 0;
    for (Frame f; reader.recv(f); ++frames) {
        EXPECT_LT(f.payload.size(), kMaxFrameBytes);
        if (f.type == MsgType::Hello)
            (void)getU32(f.payload, 0);
    }
    return frames;
}

TEST(NetFrame, FuzzNeverEscapesNetError)
{
    const std::string clean = helloSubmitStream();
    ASSERT_EQ(recvAll(clean), 2);

    std::mt19937_64 rng(0xf4a3e);
    auto deadline = std::chrono::steady_clock::now() +
        std::chrono::milliseconds(800);
    int yielded = 0, rejected = 0;
    for (int i = 0;
         i < 3000 && std::chrono::steady_clock::now() < deadline; ++i) {
        std::string input = mutate(clean, rng);
        try {
            recvAll(input);
            ++yielded;
        } catch (const NetError &) {
            ++rejected;
        } catch (const std::exception &e) {
            ADD_FAILURE() << "threw " << e.what() << " on input " << i;
        }
    }
    EXPECT_GT(yielded, 0);
    EXPECT_GT(rejected, 0);
}

} // namespace
} // namespace storemlp::net

#endif // _WIN32
