/**
 * @file
 * On-disk trace format internals shared by the whole-trace reader and
 * writer (trace_io.cc), the streaming chunk reader
 * (trace_file_source.cc) and the chunk codec (trace_codec.cc).
 *
 * The library reads and writes one container, v4 ("SMLPTRC4"); the
 * normative specification (byte layout, encodings, corruption
 * rejection, reader policy) lives in docs/TRACE_FORMAT.md. Summary:
 * an envelope (magic, body-format byte 3, u32 fingerprint length +
 * fingerprint string, u64 record count, u64 chunk size, u64 chunk
 * count), a chunk index table (per-chunk record count, byte
 * offset/length, pc/address seeds), then independently decodable
 * compressed chunks: zigzag-varint pc deltas, XOR-varint addresses,
 * packed 3-byte register blocks. The index gives random access and
 * parallel decode. The retired v1-v3 magics are recognized only to be
 * rejected with a message naming the version (checkMagic).
 */

#ifndef STOREMLP_TRACE_TRACE_FORMAT_HH
#define STOREMLP_TRACE_TRACE_FORMAT_HH

#include <cstdint>
#include <cstring>
#include <string>

#include "trace/trace_io.hh"

namespace storemlp::trace_format
{

inline constexpr char kMagicV4[8] = {'S', 'M', 'L', 'P', 'T', 'R', 'C',
                                     '4'};
inline constexpr uint64_t kMagicBytes = 8;
/** Fingerprint strings longer than this are rejected as corrupt. */
inline constexpr uint64_t kMaxMetaBytes = 4096;

/** Body-format byte of the v4 envelope: chunk-indexed records. */
inline constexpr uint8_t kBodyChunked = 3;

// Control byte layout: bits 0-3 class, bit 4 pc==prev+4, bit 5
// register/size block present, bit 6 flags byte present, bit 7
// reserved (must be zero).
inline constexpr uint8_t kCtrlSeqPc = 1 << 4;
inline constexpr uint8_t kCtrlRegs = 1 << 5;
inline constexpr uint8_t kCtrlFlags = 1 << 6;
inline constexpr uint8_t kCtrlReserved = 1 << 7;

// ---- v4 container geometry ----
/** Chunk index entry: records, byteOff, byteLen, pcSeed, addrSeed. */
inline constexpr uint64_t kIndexEntryBytesV4 = 40;
/** Per-chunk section header: pc/addr/regs/flags/aux u32 lengths. */
inline constexpr uint64_t kChunkHeaderBytesV4 = 20;
/**
 * Worst-case encoded bytes per record inside a v4 chunk: control
 * byte + 10-byte pc varint + 10-byte address varint + 3-byte register
 * block + flags byte + aux size byte. Index entries whose byteLen
 * exceeds kChunkHeaderBytesV4 + records * this are rejected as
 * corrupt before any allocation.
 */
inline constexpr uint64_t kMaxRecordBytesV4 = 26;
/**
 * Largest chunk size a v4 file may declare. Caps the worst-case
 * decoded-chunk footprint and keeps every per-chunk section length
 * within its u32 field (2^26 records * kMaxRecordBytesV4 < 2^32).
 */
inline constexpr uint64_t kMaxChunkInstsV4 = uint64_t{1} << 26;

/**
 * v4 packed register block size codes (4 bits, split across the top
 * bits of the block's first two bytes): 0 encodes size 0, codes 1..8
 * encode 1 << (code-1), code 15 defers to a raw size byte in the aux
 * stream. Codes 9..14 are reserved and rejected.
 */
inline constexpr uint8_t kSizeCodeEscape = 15;

/**
 * Validate an 8-byte container magic. The retired v1-v3 containers
 * ("SMLPTRC1".."SMLPTRC3") are rejected with a TraceFormatError naming
 * the version, anything else that is not v4 with `bad trace magic`.
 */
inline void
checkMagic(const void *magic)
{
    const char *m = static_cast<const char *>(magic);
    if (std::memcmp(m, kMagicV4, kMagicBytes) == 0)
        return;
    if (std::memcmp(m, kMagicV4, kMagicBytes - 1) == 0 &&
        m[kMagicBytes - 1] >= '1' && m[kMagicBytes - 1] <= '3') {
        std::string v(1, m[kMagicBytes - 1]);
        throw TraceFormatError(
            "unsupported v" + v + " trace container (SMLPTRC" + v +
            "): only v4 is read; regenerate the file with "
            "storemlp_tracegen");
    }
    throw TraceFormatError("bad trace magic");
}

inline void
putU64(uint8_t *p, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<uint8_t>(v >> (8 * i));
}

inline uint64_t
getU64(const uint8_t *p)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(p[i]) << (8 * i);
    return v;
}

inline void
putU32(uint8_t *p, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<uint8_t>(v >> (8 * i));
}

inline uint32_t
getU32(const uint8_t *p)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(p[i]) << (8 * i);
    return v;
}

inline uint64_t
zigzag(int64_t v)
{
    return (static_cast<uint64_t>(v) << 1) ^
        static_cast<uint64_t>(v >> 63);
}

inline int64_t
unzigzag(uint64_t v)
{
    return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

} // namespace storemlp::trace_format

#endif // STOREMLP_TRACE_TRACE_FORMAT_HH
