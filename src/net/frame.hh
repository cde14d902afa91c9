/**
 * @file
 * Wire framing for the sweep protocol: a length-prefixed, versioned
 * binary stream. Every message is one frame:
 *
 *   u32 LE  length   — bytes that follow (type byte + payload)
 *   u8      type     — MsgType
 *   u8[]    payload  — length-1 bytes, meaning depends on type
 *
 * Frames are self-delimiting, so a reader never needs to understand a
 * payload to skip it, and a single `u32` bound (`kMaxFrameBytes`)
 * rejects corrupt or hostile length prefixes before any allocation.
 * See docs/SWEEP_PROTOCOL.md for the normative message-type spec.
 */

#ifndef STOREMLP_NET_FRAME_HH
#define STOREMLP_NET_FRAME_HH

#include <cstdint>
#include <string>

#include "util/error.hh"

namespace storemlp::net
{

/** Protocol failures: refused handshakes, truncated or oversized
 *  frames, unexpected disconnects. Derives from SimError so the tool
 *  exit contract (1 = SimError) covers network failures. */
class NetError : public SimError
{
  public:
    explicit NetError(const std::string &what) : SimError(what) {}
};

/**
 * Version negotiated in HELLO/HELLO_ACK. 2: the request text has no
 * `streaming`/`chunkInsts` keys, which a v1 client always sends.
 */
constexpr uint32_t kProtocolVersion = 2;

/** Upper bound on `length`; larger prefixes are rejected unread. */
constexpr uint32_t kMaxFrameBytes = 64u * 1024 * 1024;

/** Message types. Unknown types draw an Error frame, not a crash. */
enum class MsgType : uint8_t
{
    Hello = 1,    ///< client->server: u32 LE protocol version
    HelloAck = 2, ///< server->client: u32 LE version, u32 LE schema
    Submit = 3,   ///< client->server: serialized SweepRequest text
    RunResult = 4, ///< server->client: one schemaVersion-2 JSON doc
    JobDone = 5,  ///< server->client: sweep-summary JSON doc
    Error = 6,    ///< either way: diagnostic string; sender gives up
};

/** One received frame. */
struct Frame
{
    MsgType type = MsgType::Error;
    std::string payload;
};

/** Append a u32 in little-endian order. */
void putU32(std::string &out, uint32_t v);
/** Read a u32 LE at `off`; throws NetError past the end. */
uint32_t getU32(const std::string &payload, size_t off);

/**
 * Blocking frame stream over a connected socket fd. Does not own the
 * fd unless `owned` — the server/client wrappers manage lifetime.
 * Reads and writes retry on EINTR and always transfer whole frames;
 * a peer that disappears mid-frame raises NetError("truncated ...").
 */
class FrameConn
{
  public:
    explicit FrameConn(int fd, bool owned = true)
        : _fd(fd), _owned(owned)
    {
    }
    ~FrameConn();

    FrameConn(const FrameConn &) = delete;
    FrameConn &operator=(const FrameConn &) = delete;

    int fd() const { return _fd; }

    /** Send one frame; throws NetError when the peer is gone. */
    void send(MsgType type, const std::string &payload);

    /**
     * Receive one frame. Returns false on a clean EOF at a frame
     * boundary (the peer closed politely); throws NetError on a
     * truncated frame, an oversized or zero length prefix, or a
     * socket error.
     */
    bool recv(Frame &frame);

    /** Half-close for writing, then fully close. Idempotent. */
    void close();

    /**
     * Shut down both directions WITHOUT closing the fd: a reader
     * blocked in recv() wakes with EOF, while the descriptor stays
     * valid until its owner closes it. This is the thread-safe way to
     * kick a connection from outside its handler thread.
     */
    void shutdown();

  private:
    void writeAll(const void *data, size_t len);
    /** Read exactly len bytes; returns false on EOF before byte 0
     *  when `eof_ok`, throws on EOF mid-read. */
    bool readAll(void *data, size_t len, bool eof_ok);

    int _fd;
    bool _owned;
};

} // namespace storemlp::net

#endif // STOREMLP_NET_FRAME_HH
