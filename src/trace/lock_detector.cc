/**
 * @file
 * Lock detector implementation: a streaming core with a batch front
 * and the chunk-decorating LockRoleSource stage.
 */

#include "trace/lock_detector.hh"

#include <algorithm>

namespace storemlp
{

StreamingLockDetector::StreamingLockDetector(uint64_t window)
    : _window(window)
{
    // Steady state holds window + 2 records (the lag rules below).
    uint64_t cap = 16;
    while (cap < window + 3)
        cap <<= 1;
    _ring.resize(cap);
    _mask = cap - 1;
}

void
StreamingLockDetector::grow()
{
    std::vector<FinalizedRecord> ring(_ring.size() * 2);
    uint64_t mask = ring.size() - 1;
    for (uint64_t i = _base; i < _next; ++i)
        ring[i & mask] = _ring[i & _mask];
    _ring = std::move(ring);
    _mask = mask;
}

void
StreamingLockDetector::push(const TraceRecord &r)
{
    if (_next - _base == _ring.size())
        grow();
    _ring[_next & _mask] = {r, LockRole::None, 0};
    ++_next;
    // Keep a one-record lag: record j is processed only once j+1 is
    // buffered, because the lwarx idiom inspects the following stwcx.
    while (_processed + 1 < _next)
        processAt(_processed++);
}

void
StreamingLockDetector::finish()
{
    _finished = true;
    while (_processed < _next)
        processAt(_processed++);
}

uint64_t
StreamingLockDetector::finalizedCount() const
{
    if (_finished)
        return _next - _base;
    if (_processed == 0)
        return 0;
    // Last processed index is _processed - 1; a future release store
    // i > j can annotate indices >= i - window >= _processed - window,
    // so everything strictly below that is final.
    uint64_t j = _processed - 1;
    uint64_t final_upto = j >= _window ? j - _window + 1 : 0;
    return final_upto > _base ? final_upto - _base : 0;
}

FinalizedRecord
StreamingLockDetector::pop()
{
    return _ring[_base++ & _mask];
}

void
StreamingLockDetector::processAt(uint64_t j)
{
    const TraceRecord &r = recAt(j);

    if (r.cls == InstClass::AtomicCas) {
        // PC idiom. A new casa to the same address supersedes a
        // stale unmatched one.
        _open[r.addr] = j;
        return;
    }

    if (r.cls == InstClass::LoadLocked) {
        // WC idiom: lwarx must be completed by stwcx to the same
        // address; a trailing isync is part of the acquire.
        if (j + 1 < _next && recAt(j + 1).cls == InstClass::StoreCond &&
            recAt(j + 1).addr == r.addr) {
            _open[r.addr] = j;
        }
        return;
    }

    if (r.cls == InstClass::Store) {
        auto it = _open.find(r.addr);
        if (it == _open.end())
            return;
        uint64_t acq = it->second;
        _open.erase(it);
        if (j - acq > _window) {
            // Critical section implausibly long: treat the atomic
            // as a bare CAS, not a lock acquire.
            return;
        }
        slotAt(acq).role = LockRole::Acquire;
        slotAt(acq).acquireIdx = acq;
        slotAt(j).role = LockRole::Release;
        slotAt(j).acquireIdx = acq;

        // Annotate the auxiliary instructions of WC sequences. For a
        // LoadLocked acquire, acq+1 is the stwcx and the release store
        // sits at j >= acq+2, so both aux slots are always buffered.
        if (recAt(acq).cls == InstClass::LoadLocked) {
            slotAt(acq + 1).role = LockRole::AcquireAux; // stwcx
            if (recAt(acq + 2).cls == InstClass::Isync)
                slotAt(acq + 2).role = LockRole::AcquireAux;
        }
        // Every acquire-aux record right after this acquire belongs
        // to this section until a later-released section claims it
        // (a casa directly before another section's lwarx/stwcx):
        // the last pair in release order owns a shared aux record.
        for (uint64_t i = acq + 1; i <= acq + 2 && i < _next; ++i) {
            if (slotAt(i).role == LockRole::AcquireAux)
                slotAt(i).acquireIdx = acq;
        }
        if (j > 0 && recAt(j - 1).cls == InstClass::Lwsync) {
            slotAt(j - 1).role = LockRole::ReleaseAux;
            slotAt(j - 1).acquireIdx = acq;
        }
    }
}

LockAnalysis
LockDetector::analyze(const Trace &trace) const
{
    StreamingLockDetector det(_window);
    LockAnalysis out;
    out.roles.reserve(trace.size());
    auto drain = [&] {
        while (det.finalizedCount()) {
            uint64_t idx = det.baseIdx();
            FinalizedRecord f = det.pop();
            out.roles.push_back(f.role);
            // Releases pop in index order, i.e. in release order.
            if (f.role == LockRole::Release)
                out.pairs.push_back({f.acquireIdx, idx, f.rec.addr});
        }
    };
    for (const TraceRecord &r : trace.records()) {
        det.push(r);
        drain();
    }
    det.finish();
    drain();
    return out;
}

// ---------------------------------------------------------------------
// LockRoleSource
// ---------------------------------------------------------------------

// acqDist lanes hold release - acquire, which the window bounds.
static_assert(kLockWindow <= UINT16_MAX);

LockRoleSource::LockRoleSource(TraceSource &inner)
    : TraceSource(inner.chunkInsts()), _inner(inner)
{
    restart();
}

void
LockRoleSource::restart()
{
    _det = StreamingLockDetector();
    _ahead.clear();
    _pushOff = 0;
    _nextInner = 0;
    _innerDone = false;
    _nextChunk = 0;
}

bool
LockRoleSource::pull()
{
    if (_innerDone)
        return false;
    std::shared_ptr<const TraceChunk> c = _inner.fetch(_nextInner);
    if (!c) {
        _innerDone = true;
        _det.finish();
        return false;
    }
    ++_nextInner;
    _ahead.push_back(std::move(c));
    _pushOff = 0;
    return true;
}

bool
LockRoleSource::pushOne()
{
    if ((_ahead.empty() || _pushOff == _ahead.back()->count) && !pull())
        return false;
    _det.push(_ahead.back()->data[_pushOff++]);
    return true;
}

std::shared_ptr<const TraceChunk>
LockRoleSource::produceNext()
{
    if (_ahead.empty() && !pull())
        return nullptr;
    std::shared_ptr<const TraceChunk> inner = _ahead.front();

    // Push records one at a time, just far enough ahead that each
    // record of this chunk is final when popped: the detector holds
    // one pairing window, not a chunk.
    LockLanes locks;
    locks.role.resize(inner->count);
    locks.acqDist.resize(inner->count);
    for (uint64_t off = 0; off < inner->count;) {
        uint64_t ready = _det.finalizedCount();
        if (!ready) {
            // At the end of the inner stream pushOne() finishes the
            // detector instead, which makes every record final.
            pushOne();
            continue;
        }
        for (ready = std::min(ready, inner->count - off); ready;
             --ready, ++off) {
            uint64_t idx = _det.baseIdx();
            FinalizedRecord f = _det.pop();
            if (f.role != LockRole::None) {
                locks.role[off] = static_cast<uint8_t>(f.role);
                locks.acqDist[off] =
                    static_cast<uint16_t>(idx - f.acquireIdx);
            }
        }
    }
    _ahead.pop_front();
    ++_nextChunk;
    return std::make_shared<const TraceChunk>(std::move(inner),
                                              std::move(locks));
}

std::shared_ptr<const TraceChunk>
LockRoleSource::fetch(uint64_t chunk_idx)
{
    if (chunk_idx < _nextChunk) {
        // Backward fetch: replay detection from the stream start.
        restart();
    }
    std::shared_ptr<const TraceChunk> c;
    while (_nextChunk <= chunk_idx) {
        c = produceNext();
        if (!c)
            return nullptr;
    }
    return c;
}

} // namespace storemlp
