/**
 * @file
 * The v4 trace reader (docs/TRACE_FORMAT.md): a TraceSource over a
 * v4 image, either an mmap of a file or bytes held in memory, that
 * decodes one chunk per fetch, so a multi-gigabyte trace runs with
 * O(chunk) resident decoded records. readTrace, readTraceFile and
 * probeTraceFile (trace_io.hh) are built on it, so every reader
 * validates untrusted bytes with the same parse.
 *
 * The image's chunk index (byte extents plus decode seeds) is
 * validated in full before the first fetch, so every chunk is random
 * access from the start and decodes through the wide path in
 * trace_codec.cc; the source serves the file's own chunk geometry.
 * For a mapped file each fetch also advises the kernel to read the
 * following chunk's byte range ahead, and to drop the pages behind
 * the current chunk from this process (they remain in the page
 * cache, so a backward fetch only minor-faults them back). Resident
 * memory is therefore O(chunk) even when the mapped file is many
 * gigabytes.
 */

#ifndef STOREMLP_TRACE_TRACE_FILE_SOURCE_HH
#define STOREMLP_TRACE_TRACE_FILE_SOURCE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace_io.hh"
#include "trace/trace_source.hh"

namespace storemlp
{

class StreamingFileSource : public TraceSource
{
  public:
    /**
     * Map `path` and parse its header (O(header + index) work).
     * Throws TraceFormatError on a bad or retired magic, an
     * impossible record count, a corrupt chunk index, or bytes
     * beyond the last chunk. chunkInsts() is the file's chunk size:
     * chunking is non-semantic, so the source serves the geometry
     * the file was written with.
     */
    explicit StreamingFileSource(const std::string &path);
    /** The same parse over a v4 image held in memory; owns `bytes`. */
    explicit StreamingFileSource(std::vector<uint8_t> bytes);
    ~StreamingFileSource() override;

    StreamingFileSource(const StreamingFileSource &) = delete;
    StreamingFileSource &operator=(const StreamingFileSource &) = delete;

    std::shared_ptr<const TraceChunk> fetch(uint64_t chunk_idx) override;
    std::optional<uint64_t> knownSize() const override
    {
        return _count;
    }
    /** The envelope's fingerprint, or a path-derived one if empty. */
    std::string fingerprint() const override;

    /** The parsed envelope; its fingerprint is as stored (may be empty). */
    TraceFileInfo info() const;

  private:
    /**
     * Parse and validate the envelope and the whole chunk index of
     * the image at [_data, _data + _fileBytes): the one place a v4
     * header is read.
     */
    void parse();
    /** Decode chunk `chunk_idx` via its (validated) index entry. */
    std::vector<TraceRecord> decodeChunk(uint64_t chunk_idx) const;
    void readAhead(uint64_t next_chunk_idx) const;
    /** Drop mapped pages strictly before `chunk_idx`'s first byte. */
    void releaseBehind(uint64_t chunk_idx) const;

    std::string _path;
    const uint8_t *_data = nullptr; ///< whole-file mapping (or _bytes)
    uint64_t _fileBytes = 0;
    bool _mapped = false;        ///< true: munmap; false: _bytes
    std::vector<uint8_t> _bytes; ///< the image when it is not mapped

    uint64_t _bodyOff = 0; ///< offset of the first chunk byte
    uint64_t _count = 0;
    std::string _fingerprint; ///< as stored in the envelope

    // The chunk index lives in the image at _indexOff and is fully
    // validated by parse(); entries are re-read from the image on
    // demand, so the index costs no heap at all.
    uint64_t _indexOff = 0;
    uint64_t _chunkCount = 0;
    mutable uint64_t _dropUpTo = 0; ///< bytes already MADV_DONTNEEDed
};

} // namespace storemlp

#endif // STOREMLP_TRACE_TRACE_FILE_SOURCE_HH
