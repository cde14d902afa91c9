/**
 * @file
 * Streaming reader for on-disk v4 traces (docs/TRACE_FORMAT.md): an
 * mmap-backed TraceSource that decodes one chunk per fetch, so a
 * multi-gigabyte trace runs with O(chunk) resident decoded records.
 *
 * The file's chunk index (byte extents plus decode seeds) is
 * validated in full before the first fetch, so every chunk is random
 * access from the start and decodes through the wide path in
 * trace_codec.cc; the source serves the file's own chunk geometry.
 * Each fetch also advises the kernel to read the following chunk's
 * byte range ahead, and to drop the pages behind the current chunk
 * from this process (they remain in the page cache, so a backward
 * fetch only minor-faults them back). Resident memory is therefore
 * O(chunk) even when the mapped file is many gigabytes.
 */

#ifndef STOREMLP_TRACE_TRACE_FILE_SOURCE_HH
#define STOREMLP_TRACE_TRACE_FILE_SOURCE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace_source.hh"

namespace storemlp
{

class StreamingFileSource : public TraceSource
{
  public:
    /**
     * Map `path` and parse its header (O(header + index) work).
     * Throws TraceFormatError on a bad or retired magic, an
     * impossible record count, or a corrupt chunk index, with the
     * same diagnostics as the whole-trace reader. chunkInsts() is the
     * file's chunk size: chunking is non-semantic, so the source
     * serves the geometry the file was written with.
     */
    explicit StreamingFileSource(const std::string &path);
    ~StreamingFileSource() override;

    std::shared_ptr<const TraceChunk> fetch(uint64_t chunk_idx) override;
    std::optional<uint64_t> knownSize() const override
    {
        return _count;
    }
    std::string fingerprint() const override { return _fingerprint; }

  private:
    /** Decode chunk `chunk_idx` via its (validated) index entry. */
    std::vector<TraceRecord> decodeChunk(uint64_t chunk_idx) const;
    void readAhead(uint64_t next_chunk_idx) const;
    /** Drop mapped pages strictly before `chunk_idx`'s first byte. */
    void releaseBehind(uint64_t chunk_idx) const;

    std::string _path;
    const uint8_t *_data = nullptr; ///< whole-file mapping (or buffer)
    uint64_t _fileBytes = 0;
    bool _mapped = false;           ///< true: munmap; false: _fallback
    std::vector<uint8_t> _fallback; ///< used when mmap is unavailable
    int _fd = -1;

    uint64_t _bodyOff = 0; ///< offset of the first chunk byte
    uint64_t _count = 0;
    std::string _fingerprint;

    // The chunk index lives in the mapping at _indexOff and is fully
    // validated by the constructor; entries are re-read from the
    // mapped bytes on demand, so the index costs no heap at all.
    uint64_t _indexOff = 0;
    uint64_t _chunkCount = 0;
    mutable uint64_t _dropUpTo = 0; ///< bytes already MADV_DONTNEEDed
};

} // namespace storemlp

#endif // STOREMLP_TRACE_TRACE_FILE_SOURCE_HH
