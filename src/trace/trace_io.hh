/**
 * @file
 * Binary trace serialization in the chunk-indexed compressed v4
 * container (specified in docs/TRACE_FORMAT.md), so generated traces
 * can be cached between runs and shared across tools. Files in the
 * retired v1-v3 containers are rejected with a TraceFormatError that
 * names the version; regenerate them with storemlp_tracegen.
 */

#ifndef STOREMLP_TRACE_TRACE_IO_HH
#define STOREMLP_TRACE_TRACE_IO_HH

#include <functional>
#include <iosfwd>
#include <string>

#include "trace/trace.hh"
#include "util/error.hh"

namespace storemlp
{

/** Thrown on malformed trace files. */
class TraceFormatError : public SimError
{
  public:
    explicit TraceFormatError(const std::string &what) : SimError(what)
    {
    }
};

class TraceChunk;
class TraceSource;

/**
 * Serialize in the chunk-indexed compressed v4 container: an envelope
 * (provenance fingerprint, record count, chunk geometry), a per-chunk
 * index (record count, byte extent, pc/address seeds) and
 * independently decodable compressed chunks of `chunk_insts` records
 * each; see docs/TRACE_FORMAT.md. Throws TraceFormatError if
 * `chunk_insts` is 0 or exceeds trace_format::kMaxChunkInstsV4, or if
 * the fingerprint is longer than trace_format::kMaxMetaBytes.
 */
void writeTraceV4(std::ostream &os, const Trace &trace,
                  const std::string &fingerprint,
                  uint64_t chunk_insts = uint64_t{1} << 16);
void writeTraceFileV4(const std::string &path, const Trace &trace,
                      const std::string &fingerprint,
                      uint64_t chunk_insts = uint64_t{1} << 16);

/** Called with each source chunk as the streaming writer encodes it. */
using ChunkObserver = std::function<void(const TraceChunk &)>;

/**
 * Stream `src` from its first chunk to its end into the same
 * container, in file chunks of `chunk_insts` records whatever chunk
 * size `src` serves: the bytes equal those of the Trace overload on
 * the materialized stream. Time is linear in the record count, and
 * the writer holds only the chunk index and the compressed body
 * (about 5 bytes per record) until the envelope, which carries the
 * count, can be written. `each_chunk`, if set, sees every source
 * chunk once, in order.
 */
void writeTraceV4(std::ostream &os, TraceSource &src,
                  const std::string &fingerprint,
                  uint64_t chunk_insts = uint64_t{1} << 16,
                  const ChunkObserver &each_chunk = {});
void writeTraceFileV4(const std::string &path, TraceSource &src,
                      const std::string &fingerprint,
                      uint64_t chunk_insts = uint64_t{1} << 16,
                      const ChunkObserver &each_chunk = {});

/**
 * Deserialize a v4 trace: read `is` to its end, then decode the bytes
 * with StreamingFileSource's parse (trace_file_source.hh), which also
 * defines readTraceFile and probeTraceFile. Throws TraceFormatError on
 * anything but one whole v4 image.
 */
Trace readTrace(std::istream &is);
/** Deserialize a v4 trace from a file. */
Trace readTraceFile(const std::string &path);

/** Header-level description of an on-disk trace (no record decode). */
struct TraceFileInfo
{
    uint32_t version = 0;    ///< container version (always 4)
    uint64_t records = 0;
    uint64_t fileBytes = 0;
    uint64_t chunks = 0;     ///< chunk count from the index
    uint64_t chunkInsts = 0; ///< records per chunk
    std::string fingerprint; ///< provenance string from the envelope
};

/**
 * Read a trace file's envelope and chunk index only: O(header +
 * index) work, no record decode. Validates the record count and the
 * whole index against the file size. Throws TraceFormatError on
 * malformed headers. The fingerprint is the envelope's, empty if the
 * writer gave none.
 */
TraceFileInfo probeTraceFile(const std::string &path);

} // namespace storemlp

#endif // STOREMLP_TRACE_TRACE_IO_HH
