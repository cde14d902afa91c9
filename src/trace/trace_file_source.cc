/**
 * @file
 * The v4 reader: StreamingFileSource's one envelope and index parse,
 * and the whole-trace readers and header probe built on it.
 */

#include "trace/trace_file_source.hh"

#include <algorithm>
#include <istream>

#include "trace/trace_codec.hh"
#include "trace/trace_format.hh"

#if defined(__unix__) || defined(__APPLE__)
#define STOREMLP_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define STOREMLP_HAVE_MMAP 0
#include <fstream>
#endif

namespace storemlp
{

namespace
{

using namespace trace_format;

/** Index entry `idx`, read straight from the mapped index bytes. */
trace_codec::V4IndexEntry
v4Entry(const uint8_t *data, uint64_t index_off, uint64_t idx)
{
    return trace_codec::readV4IndexEntry(data + index_off +
                                         idx * kIndexEntryBytesV4);
}

/**
 * Every byte left in `is`, read in fixed blocks, so memory follows
 * the bytes actually present whatever a header claims.
 */
std::vector<uint8_t>
readAll(std::istream &is)
{
    constexpr size_t kBlockBytes = size_t{1} << 16;
    std::vector<uint8_t> bytes;
    while (is) {
        size_t at = bytes.size();
        bytes.resize(at + kBlockBytes);
        is.read(reinterpret_cast<char *>(bytes.data() + at), kBlockBytes);
        bytes.resize(at + static_cast<size_t>(is.gcount()));
    }
    if (is.bad())
        throw TraceFormatError("trace read failed");
    return bytes;
}

void
unmap(const uint8_t *data, uint64_t bytes)
{
#if STOREMLP_HAVE_MMAP
    ::munmap(const_cast<uint8_t *>(data), bytes);
#else
    (void)data;
    (void)bytes;
#endif
}

} // namespace

StreamingFileSource::StreamingFileSource(const std::string &path)
    : TraceSource(kDefaultChunkInsts), _path(path)
{
#if STOREMLP_HAVE_MMAP
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        throw TraceFormatError("cannot open for read: " + path);
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        throw TraceFormatError("cannot stat: " + path);
    }
    _fileBytes = static_cast<uint64_t>(st.st_size);
    void *map = _fileBytes ? ::mmap(nullptr, _fileBytes, PROT_READ,
                                    MAP_PRIVATE, fd, 0)
                           : nullptr;
    ::close(fd); // the mapping outlives the descriptor
    if (map == MAP_FAILED)
        throw TraceFormatError("cannot mmap: " + path);
    _data = static_cast<const uint8_t *>(map);
    _mapped = map != nullptr;
#else
    std::ifstream ifs(path, std::ios::binary);
    if (!ifs)
        throw TraceFormatError("cannot open for read: " + path);
    _bytes = readAll(ifs);
    _data = _bytes.data();
    _fileBytes = _bytes.size();
#endif
    try {
        parse();
    } catch (...) {
        // A constructor that throws runs no destructor.
        if (_mapped)
            unmap(_data, _fileBytes);
        throw;
    }
}

StreamingFileSource::StreamingFileSource(std::vector<uint8_t> bytes)
    : TraceSource(kDefaultChunkInsts), _bytes(std::move(bytes))
{
    _data = _bytes.data();
    _fileBytes = _bytes.size();
    parse();
}

void
StreamingFileSource::parse()
{
    if (_fileBytes < kMagicBytes)
        throw TraceFormatError("bad trace magic");
    checkMagic(_data);
    uint64_t off = kMagicBytes;
    if (off == _fileBytes)
        throw TraceFormatError("truncated trace header");
    uint8_t fmt = _data[off++];
    if (fmt != kBodyChunked) {
        throw TraceFormatError("unknown v4 body format " +
                               std::to_string(fmt));
    }
    if (off + 4 > _fileBytes)
        throw TraceFormatError("truncated trace header");
    uint32_t len = getU32(_data + off);
    off += 4;
    if (len > kMaxMetaBytes) {
        throw TraceFormatError(
            "trace metadata length " + std::to_string(len) +
            " exceeds limit " + std::to_string(kMaxMetaBytes));
    }
    if (off + len + 24 > _fileBytes)
        throw TraceFormatError("truncated trace header");
    _fingerprint.assign(reinterpret_cast<const char *>(_data + off), len);
    off += len;
    _count = getU64(_data + off);
    uint64_t chunk_insts = getU64(_data + off + 8);
    _chunkCount = getU64(_data + off + 16);
    _indexOff = off + 24;

    // The whole index validated in place — O(index) work, no heap:
    // entries are re-read from the image at fetch time. Every record
    // occupies at least one body byte and every chunk one index
    // entry, so both counts are checked against the bytes present
    // before any entry is read.
    trace_codec::V4IndexValidator val(_count, chunk_insts, _chunkCount);
    uint64_t remaining = _fileBytes - _indexOff;
    if (_count > remaining) {
        throw TraceFormatError(
            "trace header count " + std::to_string(_count) +
            " exceeds stream capacity (" + std::to_string(remaining) +
            " bytes remain)");
    }
    if (_chunkCount > remaining / kIndexEntryBytesV4) {
        throw TraceFormatError(
            "v4 chunk count " + std::to_string(_chunkCount) +
            " exceeds stream capacity (" + std::to_string(remaining) +
            " bytes remain)");
    }
    for (uint64_t i = 0; i < _chunkCount; ++i)
        val.feed(v4Entry(_data, _indexOff, i), i);
    _bodyOff = _indexOff + _chunkCount * kIndexEntryBytesV4;
    val.finish(_fileBytes - _bodyOff);
    // Chunking is non-semantic; serve the file's own geometry so
    // every fetch is one index lookup plus one chunk decode.
    _chunkInsts = chunk_insts;
}

StreamingFileSource::~StreamingFileSource()
{
    if (_mapped)
        unmap(_data, _fileBytes);
}

std::string
StreamingFileSource::fingerprint() const
{
    if (!_fingerprint.empty())
        return _fingerprint;
    return "file:" + _path + "|n=" + std::to_string(_count);
}

TraceFileInfo
StreamingFileSource::info() const
{
    return {.version = 4,
            .records = _count,
            .fileBytes = _fileBytes,
            .chunks = _chunkCount,
            .chunkInsts = _chunkInsts,
            .fingerprint = _fingerprint};
}

void
StreamingFileSource::readAhead(uint64_t next_chunk_idx) const
{
#if STOREMLP_HAVE_MMAP
    if (!_mapped || next_chunk_idx >= _chunkCount)
        return;
    // The index knows the exact compressed extent.
    trace_codec::V4IndexEntry e = v4Entry(_data, _indexOff, next_chunk_idx);
    uint64_t begin = _bodyOff + e.byteOff;
    uint64_t len = e.byteLen;
    if (begin >= _fileBytes)
        return;
    len = std::min(len, _fileBytes - begin);
    long page = ::sysconf(_SC_PAGESIZE);
    uint64_t mask = page > 0 ? static_cast<uint64_t>(page) - 1 : 4095;
    uint64_t aligned = begin & ~mask;
    ::madvise(const_cast<uint8_t *>(_data + aligned),
              len + (begin - aligned), MADV_WILLNEED);
#else
    (void)next_chunk_idx;
#endif
}

void
StreamingFileSource::releaseBehind(uint64_t chunk_idx) const
{
#if STOREMLP_HAVE_MMAP
    if (!_mapped)
        return;
    uint64_t begin = _bodyOff + v4Entry(_data, _indexOff, chunk_idx).byteOff;
    long page = ::sysconf(_SC_PAGESIZE);
    uint64_t mask = page > 0 ? static_cast<uint64_t>(page) - 1 : 4095;
    // Align down so the current chunk's first page stays resident.
    uint64_t end = std::min(begin, _fileBytes) & ~mask;
    if (end <= _dropUpTo) {
        // Backward seek (e.g. a second sequential pass): resume the
        // drop cursor here so the new pass frees behind itself too.
        if (end < _dropUpTo)
            _dropUpTo = end;
        return;
    }
    ::madvise(const_cast<uint8_t *>(_data + _dropUpTo), end - _dropUpTo,
              MADV_DONTNEED);
    _dropUpTo = end;
#else
    (void)chunk_idx;
#endif
}

std::vector<TraceRecord>
StreamingFileSource::decodeChunk(uint64_t chunk_idx) const
{
    trace_codec::V4IndexEntry e = v4Entry(_data, _indexOff, chunk_idx);
    // The constructor validated the whole index; re-check this entry's
    // extent against the mapping so a file mutated underneath the map
    // cannot push the decoder out of bounds.
    uint64_t body_bytes = _fileBytes - _bodyOff;
    if (e.records > _chunkInsts || e.byteLen > body_bytes ||
        e.byteOff > body_bytes - e.byteLen)
        throw TraceFormatError("v4 chunk index changed under the map");
    return trace_codec::decodeV4Chunk(_data + _bodyOff + e.byteOff,
                                      e.byteLen, e.records, e.seeds);
}

std::shared_ptr<const TraceChunk>
StreamingFileSource::fetch(uint64_t chunk_idx)
{
    uint64_t first = chunk_idx * _chunkInsts;
    if (first >= _count)
        return nullptr;

    std::vector<TraceRecord> records = decodeChunk(chunk_idx);
    readAhead(chunk_idx + 1);
    releaseBehind(chunk_idx);
    return std::make_shared<const TraceChunk>(first, std::move(records));
}

Trace
readTrace(std::istream &is)
{
    StreamingFileSource src(readAll(is));
    return materializeSource(src);
}

Trace
readTraceFile(const std::string &path)
{
    StreamingFileSource src(path);
    return materializeSource(src);
}

TraceFileInfo
probeTraceFile(const std::string &path)
{
    return StreamingFileSource(path).info();
}

} // namespace storemlp
