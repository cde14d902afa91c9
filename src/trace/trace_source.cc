/**
 * @file
 * TraceSource implementations: cursor slow path, materialized views,
 * and on-the-fly generation.
 */

#include "trace/trace_source.hh"

#include <algorithm>
#include <sstream>

namespace storemlp
{

// ---------------------------------------------------------------------
// TraceChunk
// ---------------------------------------------------------------------

TraceChunk::LaneRefs
TraceChunk::lanes() const
{
    LaneRefs refs;
    if (_inner) {
        refs = _inner->lanes();
    } else if (_extLanes) {
        refs = {_extLanes->pc.data() + _extOff,
                _extLanes->addr.data() + _extOff,
                _extLanes->cls.data() + _extOff,
                _extLanes->meta.data() + _extOff};
    } else {
        std::call_once(_lanesOnce,
                       [this] { deriveLanes(data, count, _lanes); });
        refs = {_lanes.pc.data(), _lanes.addr.data(), _lanes.cls.data(),
                _lanes.meta.data()};
    }
    if (hasLockLanes()) {
        refs.role = _locks.role.data();
        refs.acqDist = _locks.acqDist.data();
    }
    return refs;
}

// ---------------------------------------------------------------------
// TraceCursor
// ---------------------------------------------------------------------

const TraceRecord *
TraceCursor::slowAt(uint64_t idx)
{
    if (_end && idx >= *_end)
        return nullptr;
    uint64_t k = idx / _chunk;

    std::shared_ptr<const TraceChunk> c;
    auto it = _held.find(k);
    if (it != _held.end()) {
        c = it->second;
    } else {
        c = _src.fetch(k);
        if (!c)
            return nullptr;
        if (c->count < _chunk) // partial chunk: the stream ends here
            _end = c->firstIdx + c->count;
        _held.emplace(k, c);
    }

    if (idx - c->firstIdx >= c->count) {
        _end = c->firstIdx + c->count;
        return nullptr;
    }
    if (c->data != _curData) {
        // The lane view aliases the current chunk; invalidate it so a
        // stale window can never outlive a later trim().
        _view.count = 0;
        _curChunk = c.get();
    }
    _curFirst = c->firstIdx;
    _curCount = c->count;
    _curData = c->data;
    return c->data + (idx - c->firstIdx);
}

const TraceCursor::LaneView *
TraceCursor::slowView(uint64_t idx)
{
    if (!slowAt(idx))
        return nullptr;
    TraceChunk::LaneRefs refs = _curChunk->lanes();
    _view.pc = refs.pc;
    _view.addr = refs.addr;
    _view.cls = refs.cls;
    _view.meta = refs.meta;
    _view.role = refs.role;
    _view.acqDist = refs.acqDist;
    _view.first = _curChunk->firstIdx;
    _view.count = _curChunk->count;
    return &_view;
}

// ---------------------------------------------------------------------
// MaterializedSource
// ---------------------------------------------------------------------

std::shared_ptr<const TraceChunk>
MaterializedSource::fetch(uint64_t chunk_idx)
{
    uint64_t first = chunk_idx * _chunkInsts;
    uint64_t size = _trace->size();
    if (first >= size)
        return nullptr;
    uint64_t n = std::min<uint64_t>(_chunkInsts, size - first);
    // Chunks borrow slices of the whole-trace lane cache, so lane
    // derivation happens once per trace rather than once per run.
    return std::make_shared<const TraceChunk>(
        first, _trace->records().data() + first, n, _owned,
        _trace->lanes(), first);
}

// ---------------------------------------------------------------------
// GeneratorSource
// ---------------------------------------------------------------------

GeneratorSource::GeneratorSource(const WorkloadProfile &profile,
                                 uint64_t seed, uint64_t count,
                                 uint32_t chip_id, uint64_t chunk_insts)
    : TraceSource(chunk_insts), _profile(profile), _seed(seed),
      _count(count), _chipId(chip_id)
{
    restart();
}

void
GeneratorSource::restart()
{
    _gen.emplace(_profile, _seed, _chipId);
    _overshoot.clear();
    _generated = 0;
    _emitted = 0;
    _nextChunk = 0;
    _genDone = _count == 0;
}

std::shared_ptr<const TraceChunk>
GeneratorSource::produceNext()
{
    // Generate straight into the chunk, one generator request at a
    // time. Each request asks for exactly min(space, count -
    // generated), so the generator stops at the same slot boundary as
    // a single generate(count) call would — the chunked stream is
    // bit-identical to the materialized one, overshoot included. The
    // slot that crosses the chunk's end carries over to the next.
    std::vector<TraceRecord> recs = std::move(_overshoot);
    _overshoot.clear();
    while (!_genDone && recs.size() < _chunkInsts) {
        uint64_t want = std::min<uint64_t>(_chunkInsts - recs.size(),
                                           _count - _generated);
        uint64_t before = recs.size();
        _gen->generateInto(recs, want);
        _generated += recs.size() - before;
        if (_generated >= _count)
            _genDone = true;
    }

    if (recs.empty())
        return nullptr;
    if (recs.size() > _chunkInsts) {
        _overshoot.assign(recs.begin() +
                              static_cast<ptrdiff_t>(_chunkInsts),
                          recs.end());
        recs.resize(_chunkInsts);
    }
    uint64_t take = recs.size();
    auto chunk =
        std::make_shared<const TraceChunk>(_emitted, std::move(recs));
    _emitted += take;
    ++_nextChunk;
    return chunk;
}

std::shared_ptr<const TraceChunk>
GeneratorSource::fetch(uint64_t chunk_idx)
{
    if (chunk_idx < _nextChunk)
        restart(); // backward fetch: deterministic replay from seed
    std::shared_ptr<const TraceChunk> c;
    while (_nextChunk <= chunk_idx) {
        c = produceNext();
        if (!c)
            return nullptr;
    }
    return c;
}

std::optional<uint64_t>
GeneratorSource::knownSize() const
{
    // The generator stops at the first slot boundary >= count, so the
    // total is only known once the stop slot has been emitted.
    if (_genDone)
        return _generated;
    return std::nullopt;
}

std::string
GeneratorSource::fingerprint() const
{
    std::ostringstream os;
    os << _profile.cacheKey() << "|seed=" << _seed << "|n=" << _count
       << "|wc=0|chip=" << _chipId;
    return os.str();
}

// ---------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------

Trace
materializeSource(TraceSource &src)
{
    std::vector<TraceRecord> records;
    if (std::optional<uint64_t> n = src.knownSize())
        records.reserve(*n);
    forEachChunk(src, [&](const TraceChunk &c) {
        records.insert(records.end(), c.data, c.data + c.count);
    });
    return Trace(std::move(records));
}

} // namespace storemlp
