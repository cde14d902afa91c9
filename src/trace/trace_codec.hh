/**
 * @file
 * v4 chunk codec: encode/decode one independently decodable
 * compressed chunk of TraceRecords, and validate a v4 chunk index.
 * Shared by the trace writer (trace_io.cc) and the reader
 * (trace_file_source.cc); the wire layout is specified in
 * docs/TRACE_FORMAT.md.
 *
 * The decoder is a wide, chunk-at-a-time path: the control bytes are
 * validated 16 at a time (SSE2, or SWAR on a u64 elsewhere; AVX2
 * widens to 32 when the build enables it), the pc-delta and
 * address-XOR varint streams are batch-decoded with a one-load
 * fast path for runs of single-byte varints, and runs of identical
 * control bytes fill records eight at a time. Decoding one chunk
 * never touches bytes outside [chunk, chunk + byteLen).
 */

#ifndef STOREMLP_TRACE_TRACE_CODEC_HH
#define STOREMLP_TRACE_TRACE_CODEC_HH

#include <cstdint>
#include <span>
#include <vector>

#include "trace/inst.hh"
#include "trace/trace_io.hh"

namespace storemlp::trace_codec
{

/**
 * Decode state carried across chunk boundaries. The encoder threads
 * one CodecSeeds through consecutive chunks; the per-chunk values are
 * recorded in the chunk index so any chunk decodes independently.
 * Chunk 0 starts from {0, 0}.
 */
struct CodecSeeds
{
    uint64_t pc = 0;   ///< pc of the record preceding the chunk
    uint64_t addr = 0; ///< address of the preceding memory record
};

/** One parsed v4 chunk index entry (kIndexEntryBytesV4 bytes). */
struct V4IndexEntry
{
    uint64_t records = 0;
    uint64_t byteOff = 0; ///< relative to the start of the body
    uint64_t byteLen = 0;
    CodecSeeds seeds;
};

V4IndexEntry readV4IndexEntry(const uint8_t *p);
void writeV4IndexEntry(uint8_t *p, const V4IndexEntry &e);

/**
 * Incremental validator for an untrusted v4 chunk index. Feed every
 * entry in order; every structural rule (per-chunk record counts
 * derived from the envelope's count/chunkInsts, contiguous byte
 * offsets, byteLen bounds) throws TraceFormatError on violation
 * *before* any chunk memory is allocated. `finish` checks that the
 * chunks cover the body exactly.
 */
class V4IndexValidator
{
  public:
    /** Throws TraceFormatError on impossible geometry. */
    V4IndexValidator(uint64_t count, uint64_t chunk_insts,
                     uint64_t chunk_count);

    /** Validate entry `idx` (0-based, in order). */
    void feed(const V4IndexEntry &e, uint64_t idx);

    /** All entries fed; `body_bytes` = bytes after the index. */
    void finish(uint64_t body_bytes) const;

  private:
    uint64_t _count;
    uint64_t _chunkInsts;
    uint64_t _chunkCount;
    uint64_t _nextOff = 0; ///< expected byteOff of the next entry
};

/**
 * Reusable v4 chunk encoder. One scratch buffer, sized once to the
 * worst case of the largest chunk seen (kMaxRecordBytesV4 per
 * record), holds every section at a fixed offset; the record loop
 * writes each section by pointer bump with no per-byte capacity
 * check, then the sections are closed up behind the control bytes.
 * Reusing one encoder across chunks allocates nothing after the
 * first chunk.
 */
class V4ChunkEncoder
{
  public:
    /**
     * Encode records[0..n) as one chunk and return its bytes, valid
     * until the next call; 1 <= n <= trace_format::kMaxChunkInstsV4.
     * `seeds` carries the cross-chunk decode state: it holds the
     * entering values on call (what the chunk's index entry records)
     * and the exiting values on return. Throws TraceFormatError on a
     * register id the format cannot hold (>= 64).
     */
    std::span<const uint8_t> encode(const TraceRecord *records,
                                    uint64_t n, CodecSeeds &seeds);

  private:
    std::vector<uint8_t> _buf;
};

/**
 * Decode one chunk of exactly `n` records from the `len` bytes at
 * `p`, seeded with the chunk's index entry state. Throws
 * TraceFormatError on any malformed byte (reserved control bit,
 * out-of-range class, section-length mismatch, truncated or overlong
 * varint, trailing bytes). Never reads outside [p, p + len).
 */
std::vector<TraceRecord> decodeV4Chunk(const uint8_t *p, uint64_t len,
                                       uint64_t n,
                                       const CodecSeeds &seeds);

} // namespace storemlp::trace_codec

#endif // STOREMLP_TRACE_TRACE_CODEC_HH
