/**
 * @file
 * The v4 trace writer (normative spec in docs/TRACE_FORMAT.md,
 * constants in trace_format.hh, chunk codec in trace_codec.cc): an
 * envelope (body format, provenance fingerprint, record count, chunk
 * geometry), a chunk index, then independently decodable compressed
 * chunks. One linear write loop serves both the in-memory and the
 * streaming writer. The readers are in trace_file_source.cc.
 */

#include "trace/trace_io.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>
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

} // namespace storemlp
