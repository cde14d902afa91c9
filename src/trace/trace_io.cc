/**
 * @file
 * Binary trace serialization: the v4 container (normative spec in
 * docs/TRACE_FORMAT.md, constants in trace_format.hh, chunk codec in
 * trace_codec.cc). An envelope (body format, provenance fingerprint,
 * record count, chunk geometry), a chunk index, then independently
 * decodable compressed chunks. One linear write loop serves both the
 * in-memory and the streaming writer. The readers reject the retired
 * v1-v3 magics with a message naming the version.
 */

#include "trace/trace_io.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <memory>
#include <optional>
#include <ostream>
#include <span>

#include "trace/trace_codec.hh"
#include "trace/trace_format.hh"
#include "trace/trace_source.hh"

namespace storemlp
{

namespace
{

using namespace trace_format;

/**
 * Pre-reserve ceiling when the stream size is unknown (non-seekable
 * input): the vector grows incrementally past this, so a corrupt
 * header count can at worst waste ~24 MB, not allocate 2^64 bytes.
 */
constexpr uint64_t kMaxBlindReserve = 1u << 20;

/**
 * Bytes left in the stream after the current position, or nullopt for
 * non-seekable streams. Used to reject header record counts that the
 * stream cannot possibly satisfy before reserving memory for them.
 */
std::optional<uint64_t>
remainingBytes(std::istream &is)
{
    std::istream::pos_type cur = is.tellg();
    if (cur == std::istream::pos_type(-1))
        return std::nullopt;
    is.seekg(0, std::ios::end);
    std::istream::pos_type end = is.tellg();
    is.seekg(cur);
    if (end == std::istream::pos_type(-1) || end < cur || !is)
        return std::nullopt;
    return static_cast<uint64_t>(end - cur);
}

uint64_t
readU64(std::istream &is)
{
    uint8_t buf[8];
    is.read(reinterpret_cast<char *>(buf), sizeof(buf));
    if (!is)
        throw TraceFormatError("truncated trace header");
    return getU64(buf);
}

/** Envelope, geometry and validated chunk index of a v4 stream. */
struct V4Header
{
    std::string fingerprint;
    uint64_t count = 0;
    uint64_t chunkInsts = 0;
    std::vector<trace_codec::V4IndexEntry> index;
};

/**
 * Read and validate everything before the first chunk body. The
 * record count and chunk count are checked against the remaining
 * stream bytes (seekable inputs) and every index entry by the
 * validator as it is read, so a forged header cannot trigger a large
 * allocation.
 */
V4Header
readV4Header(std::istream &is)
{
    char magic[kMagicBytes];
    is.read(magic, sizeof(magic));
    if (!is)
        throw TraceFormatError("bad trace magic");
    checkMagic(magic);

    int fmt = is.get();
    if (fmt == EOF)
        throw TraceFormatError("truncated trace header");
    if (fmt != kBodyChunked) {
        throw TraceFormatError("unknown v4 body format " +
                               std::to_string(fmt));
    }

    V4Header h;
    uint8_t len_buf[4];
    is.read(reinterpret_cast<char *>(len_buf), sizeof(len_buf));
    if (!is)
        throw TraceFormatError("truncated trace header");
    uint32_t len = getU32(len_buf);
    if (len > kMaxMetaBytes) {
        throw TraceFormatError("trace metadata length " +
                               std::to_string(len) + " exceeds limit " +
                               std::to_string(kMaxMetaBytes));
    }
    h.fingerprint.resize(len);
    if (len) {
        is.read(h.fingerprint.data(), len);
        if (!is)
            throw TraceFormatError("truncated trace header");
    }

    h.count = readU64(is);
    h.chunkInsts = readU64(is);
    uint64_t chunk_count = readU64(is);

    trace_codec::V4IndexValidator val(h.count, h.chunkInsts, chunk_count);
    std::optional<uint64_t> remaining = remainingBytes(is);
    if (remaining) {
        // Each record occupies at least one body byte and each chunk
        // one index entry.
        if (h.count > *remaining) {
            throw TraceFormatError(
                "trace header count " + std::to_string(h.count) +
                " exceeds stream capacity (" +
                std::to_string(*remaining) + " bytes remain)");
        }
        if (chunk_count > *remaining / kIndexEntryBytesV4) {
            throw TraceFormatError(
                "v4 chunk count " + std::to_string(chunk_count) +
                " exceeds stream capacity (" +
                std::to_string(*remaining) + " bytes remain)");
        }
    }
    h.index.reserve(std::min(chunk_count, kMaxBlindReserve));
    uint8_t buf[kIndexEntryBytesV4];
    for (uint64_t i = 0; i < chunk_count; ++i) {
        is.read(reinterpret_cast<char *>(buf), sizeof(buf));
        if (!is)
            throw TraceFormatError("truncated v4 chunk index");
        trace_codec::V4IndexEntry e = trace_codec::readV4IndexEntry(buf);
        val.feed(e, i);
        h.index.push_back(e);
    }
    if (remaining)
        val.finish(*remaining - chunk_count * kIndexEntryBytesV4);
    return h;
}

/**
 * Compressed body held until the envelope can be written, in
 * fixed-size blocks: appending never moves what is already held, so
 * the peak is the body itself, not the three bodies' worth a doubling
 * vector needs while it copies.
 */
class BlockBuffer
{
  public:
    void
    append(const uint8_t *p, size_t n)
    {
        while (n) {
            if (_blocks.empty() || _used == kBlockBytes) {
                _blocks.push_back(
                    std::make_unique_for_overwrite<uint8_t[]>(kBlockBytes));
                _used = 0;
            }
            size_t step = std::min(n, kBlockBytes - _used);
            std::memcpy(_blocks.back().get() + _used, p, step);
            _used += step;
            p += step;
            n -= step;
        }
    }

    void
    writeTo(std::ostream &os) const
    {
        for (size_t b = 0; b < _blocks.size(); ++b) {
            size_t len = b + 1 == _blocks.size() ? _used : kBlockBytes;
            os.write(reinterpret_cast<const char *>(_blocks[b].get()),
                     static_cast<std::streamsize>(len));
        }
    }

  private:
    static constexpr size_t kBlockBytes = size_t{1} << 20;
    std::vector<std::unique_ptr<uint8_t[]>> _blocks;
    size_t _used = 0; ///< bytes filled in the last block
};

/**
 * The v4 write loop. Takes records in slices of any length, encodes
 * them in file chunks of `chunk_insts` records (staging only a chunk
 * that straddles two slices), and holds the index and the body until
 * finish() writes the container. Linear in the record count.
 */
class V4Writer
{
  public:
    V4Writer(const std::string &fingerprint, uint64_t chunk_insts)
        : _fingerprint(fingerprint), _chunkInsts(chunk_insts)
    {
        if (chunk_insts == 0 || chunk_insts > kMaxChunkInstsV4) {
            throw TraceFormatError("v4 chunk size " +
                                   std::to_string(chunk_insts) +
                                   " outside [1, " +
                                   std::to_string(kMaxChunkInstsV4) + "]");
        }
        if (fingerprint.size() > kMaxMetaBytes) {
            throw TraceFormatError("trace fingerprint length " +
                                   std::to_string(fingerprint.size()) +
                                   " exceeds limit " +
                                   std::to_string(kMaxMetaBytes));
        }
    }

    void
    add(const TraceRecord *records, uint64_t n)
    {
        if (!_staged.empty()) {
            uint64_t take = std::min(n, _chunkInsts - _staged.size());
            _staged.insert(_staged.end(), records, records + take);
            records += take;
            n -= take;
            if (_staged.size() < _chunkInsts)
                return;
            encodeChunk(_staged.data(), _chunkInsts);
            _staged.clear();
        }
        for (; n >= _chunkInsts; records += _chunkInsts, n -= _chunkInsts)
            encodeChunk(records, _chunkInsts);
        _staged.assign(records, records + n);
    }

    void
    finish(std::ostream &os)
    {
        if (!_staged.empty())
            encodeChunk(_staged.data(), _staged.size());

        os.write(kMagicV4, kMagicBytes);
        os.put(static_cast<char>(kBodyChunked));
        uint8_t len[4];
        putU32(len, static_cast<uint32_t>(_fingerprint.size()));
        os.write(reinterpret_cast<const char *>(len), sizeof(len));
        os.write(_fingerprint.data(),
                 static_cast<std::streamsize>(_fingerprint.size()));
        uint8_t words[24];
        putU64(words, _count);
        putU64(words + 8, _chunkInsts);
        putU64(words + 16, _index.size() / kIndexEntryBytesV4);
        os.write(reinterpret_cast<const char *>(words), sizeof(words));
        os.write(reinterpret_cast<const char *>(_index.data()),
                 static_cast<std::streamsize>(_index.size()));
        _body.writeTo(os);
    }

  private:
    void
    encodeChunk(const TraceRecord *records, uint64_t n)
    {
        trace_codec::V4IndexEntry e;
        e.records = n;
        e.byteOff = _bodyBytes;
        e.seeds = _seeds;
        std::span<const uint8_t> bytes =
            _encoder.encode(records, n, _seeds);
        e.byteLen = bytes.size();
        _body.append(bytes.data(), bytes.size());
        _bodyBytes += bytes.size();
        _count += n;
        size_t at = _index.size();
        _index.resize(at + kIndexEntryBytesV4);
        trace_codec::writeV4IndexEntry(_index.data() + at, e);
    }

    std::string _fingerprint;
    uint64_t _chunkInsts;
    trace_codec::V4ChunkEncoder _encoder;
    trace_codec::CodecSeeds _seeds;
    std::vector<TraceRecord> _staged; ///< a file chunk still filling
    std::vector<uint8_t> _index;
    BlockBuffer _body;
    uint64_t _bodyBytes = 0;
    uint64_t _count = 0;
};

/** Open `path`, hand the stream to `write`, and check the result. */
template <typename Write>
void
writeFile(const std::string &path, Write &&write)
{
    std::ofstream ofs(path, std::ios::binary);
    if (!ofs)
        throw TraceFormatError("cannot open for write: " + path);
    write(ofs);
    if (!ofs)
        throw TraceFormatError("write failed: " + path);
}

} // namespace

void
writeTraceV4(std::ostream &os, const Trace &trace,
             const std::string &fingerprint, uint64_t chunk_insts)
{
    V4Writer w(fingerprint, chunk_insts);
    w.add(trace.records().data(), trace.size());
    w.finish(os);
}

void
writeTraceFileV4(const std::string &path, const Trace &trace,
                 const std::string &fingerprint, uint64_t chunk_insts)
{
    writeFile(path, [&](std::ostream &os) {
        writeTraceV4(os, trace, fingerprint, chunk_insts);
    });
}

void
writeTraceV4(std::ostream &os, TraceSource &src,
             const std::string &fingerprint, uint64_t chunk_insts,
             const ChunkObserver &each_chunk)
{
    V4Writer w(fingerprint, chunk_insts);
    forEachChunk(src, [&](const TraceChunk &c) {
        if (each_chunk)
            each_chunk(c);
        w.add(c.data, c.count);
    });
    w.finish(os);
}

void
writeTraceFileV4(const std::string &path, TraceSource &src,
                 const std::string &fingerprint, uint64_t chunk_insts,
                 const ChunkObserver &each_chunk)
{
    writeFile(path, [&](std::ostream &os) {
        writeTraceV4(os, src, fingerprint, chunk_insts, each_chunk);
    });
}

Trace
readTrace(std::istream &is)
{
    V4Header h = readV4Header(is);
    // A seekable stream's count was checked against its size; reserve
    // blindly only up to a cap.
    std::vector<TraceRecord> records;
    records.reserve(remainingBytes(is) ? h.count
                                       : std::min(h.count, kMaxBlindReserve));
    std::vector<uint8_t> buf;
    for (const auto &e : h.index) {
        // Read incrementally so a forged byteLen on a non-seekable
        // stream hits EOF long before it can force a huge allocation.
        buf.clear();
        uint64_t got = 0;
        while (got < e.byteLen) {
            uint64_t step = std::min(e.byteLen - got, kMaxBlindReserve);
            buf.resize(got + step);
            is.read(reinterpret_cast<char *>(buf.data() + got),
                    static_cast<std::streamsize>(step));
            if (!is)
                throw TraceFormatError("truncated v4 chunk");
            got += step;
        }
        std::vector<TraceRecord> chunk = trace_codec::decodeV4Chunk(
            buf.data(), e.byteLen, e.records, e.seeds);
        records.insert(records.end(),
                       std::make_move_iterator(chunk.begin()),
                       std::make_move_iterator(chunk.end()));
    }
    return Trace(std::move(records));
}

Trace
readTraceFile(const std::string &path)
{
    std::ifstream ifs(path, std::ios::binary);
    if (!ifs)
        throw TraceFormatError("cannot open for read: " + path);
    return readTrace(ifs);
}

TraceFileInfo
probeTraceFile(const std::string &path)
{
    std::ifstream ifs(path, std::ios::binary);
    if (!ifs)
        throw TraceFormatError("cannot open for read: " + path);

    // O(index) work: the header reader validates the full chunk index
    // against the file size without decoding any chunk.
    V4Header h = readV4Header(ifs);
    TraceFileInfo info;
    info.version = 4;
    info.records = h.count;
    info.chunks = h.index.size();
    info.chunkInsts = h.chunkInsts;
    info.fingerprint = std::move(h.fingerprint);
    ifs.seekg(0, std::ios::end);
    std::istream::pos_type end = ifs.tellg();
    if (end != std::istream::pos_type(-1))
        info.fileBytes = static_cast<uint64_t>(end);
    return info;
}

} // namespace storemlp
