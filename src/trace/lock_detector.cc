/**
 * @file
 * Lock detector implementation: a sparse streaming core with a batch
 * front and the chunk-decorating LockRoleSource stage.
 */

#include "trace/lock_detector.hh"

#include <iterator>

namespace storemlp
{

void
StreamingLockDetector::scan(const TraceRecord *recs, uint64_t n)
{
    if (!n)
        return;
    const uint64_t base = _next;
    _next += n;

    // An lwarx opened with its isync slot (acq+2) past the span.
    auto open_lwarx = [&](uint64_t addr, uint64_t acq) {
        open(addr, acq, true);
        _isyncPending = acq + 2 >= _next;
        _isyncFor = acq;
        if (!_isyncPending)
            setIsyncAt2(acq, recs[acq + 2 - base].cls);
    };
    // Tests the previous span left for this span's first records. A
    // pending isync slot is always record `base`.
    if (_isyncPending) {
        _isyncPending = false;
        setIsyncAt2(_isyncFor, recs[0].cls);
    }
    if (_lwarxPending) {
        _lwarxPending = false;
        if (recs[0].cls == InstClass::StoreCond &&
            recs[0].addr == _lwarxAddr)
            open_lwarx(_lwarxAddr, base - 1);
    }

    for (uint64_t k = 0; k < n; ++k) {
        const TraceRecord &r = recs[k];
        switch (r.cls) {
          case InstClass::AtomicCas:
            // PC idiom. A new casa to the same address supersedes a
            // stale unmatched one.
            open(r.addr, base + k, false);
            break;
          case InstClass::LoadLocked:
            // WC idiom: lwarx must be completed by stwcx to the same
            // address; a trailing isync is part of the acquire.
            if (k + 1 == n) {
                _lwarxPending = true;
                _lwarxAddr = r.addr;
            } else if (recs[k + 1].cls == InstClass::StoreCond &&
                       recs[k + 1].addr == r.addr) {
                open_lwarx(r.addr, base + k);
            }
            break;
          case InstClass::Store:
            release(base + k, r.addr, k ? recs[k - 1].cls : _lastCls);
            break;
          default:
            break;
        }
    }
    _lastCls = recs[n - 1].cls;
}

void
StreamingLockDetector::finish()
{
    // A trailing lwarx has no stwcx, and a trailing lwarx;stwcx no
    // isync.
    _lwarxPending = false;
    _isyncPending = false;
    _finished = true;
}

uint64_t
StreamingLockDetector::finalUpTo() const
{
    if (_finished)
        return _next;
    // Record j = _next - 2 is the last one processed (one-record
    // lag); a future release store i > j can annotate indices >=
    // i - window >= j + 1 - window, so everything below that is final.
    if (_next < 2)
        return 0;
    uint64_t j = _next - 2;
    return j >= _window ? j - _window + 1 : 0;
}

void
StreamingLockDetector::open(uint64_t addr, uint64_t acq, bool lwarx)
{
    OpenLock lock{addr, acq, lwarx, false};
    for (OpenLock &o : _open) {
        if (o.addr == addr) {
            o = lock;
            return;
        }
    }
    _open.push_back(lock);
}

void
StreamingLockDetector::setIsyncAt2(uint64_t acq, InstClass cls)
{
    for (OpenLock &o : _open) {
        if (o.acq == acq)
            o.isyncAt2 = cls == InstClass::Isync;
    }
}

void
StreamingLockDetector::release(uint64_t j, uint64_t addr,
                               InstClass prev_cls)
{
    OpenLock lock{};
    bool found = false;
    for (size_t i = 0; i < _open.size();) {
        OpenLock &o = _open[i];
        // A stale entry pairing with this or any later store would
        // make the critical section implausibly long: it stays a bare
        // CAS, so drop it.
        bool stale = o.acq + _window < j;
        if (!stale && o.addr != addr) {
            ++i;
            continue;
        }
        if (!stale) {
            lock = o;
            found = true;
        }
        o = _open.back();
        _open.pop_back();
    }
    if (!found)
        return;

    uint64_t acq = lock.acq;
    annotate(acq, LockRole::Acquire, acq);
    annotate(j, LockRole::Release, acq);
    // Annotate the auxiliary instructions of WC sequences. For a
    // lwarx acquire, acq+1 is the stwcx and the release store sits at
    // j >= acq+2.
    if (lock.lwarx) {
        annotate(acq + 1, LockRole::AcquireAux, acq); // stwcx
        if (lock.isyncAt2)
            annotate(acq + 2, LockRole::AcquireAux, acq);
    }
    // Every acquire-aux record right after this acquire belongs to
    // this section until a later-released section claims it (a casa
    // directly before another section's lwarx/stwcx): the last pair
    // in release order owns a shared aux record.
    for (uint64_t i = acq + 1; i <= acq + 2; ++i) {
        LockAnnotation *a = noteAt(i);
        if (a && a->role == LockRole::AcquireAux)
            a->acquireIdx = acq;
    }
    if (prev_cls == InstClass::Lwsync)
        annotate(j - 1, LockRole::ReleaseAux, acq);
}

LockAnnotation *
StreamingLockDetector::noteAt(uint64_t idx)
{
    // Annotations land within a window of the newest one: search from
    // the back.
    for (auto it = _notes.rbegin(); it != _notes.rend(); ++it) {
        if (it->idx == idx)
            return &*it;
        if (it->idx < idx)
            break;
    }
    return nullptr;
}

void
StreamingLockDetector::annotate(uint64_t idx, LockRole role, uint64_t acq)
{
    auto it = _notes.end();
    while (it != _notes.begin() && std::prev(it)->idx >= idx)
        --it;
    if (it != _notes.end() && it->idx == idx) {
        it->role = role;
        it->acquireIdx = acq;
        return;
    }
    _notes.insert(it, {idx, acq, role});
}

LockAnalysis
LockDetector::analyze(const Trace &trace) const
{
    StreamingLockDetector det(_window);
    det.scan(trace.records().data(), trace.size());
    det.finish();
    LockAnalysis out;
    out.roles.assign(trace.size(), LockRole::None);
    for (const LockAnnotation *a; (a = det.peek()); det.pop()) {
        out.roles[a->idx] = a->role;
        // Annotations pop in index order, so releases in release order.
        if (a->role == LockRole::Release)
            out.pairs.push_back({a->acquireIdx, a->idx, trace[a->idx].addr});
    }
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
    if (!c->hasLockLanes())
        _det.scan(c->data, c->count);
    _ahead.push_back(std::move(c));
    return true;
}

std::shared_ptr<const TraceChunk>
LockRoleSource::produceNext()
{
    if (_ahead.empty() && !pull())
        return nullptr;
    std::shared_ptr<const TraceChunk> inner = _ahead.front();
    _ahead.pop_front();
    ++_nextChunk;
    if (inner->hasLockLanes())
        return inner;

    // Scan whole inner chunks until every record of this one is
    // final; at the end of the inner stream pull() finishes the
    // detector instead, which makes every record final.
    uint64_t end = inner->firstIdx + inner->count;
    while (_det.finalUpTo() < end && pull()) {
    }
    LockLanes locks;
    locks.role.resize(inner->count);
    locks.acqDist.resize(inner->count);
    for (const LockAnnotation *a; (a = _det.peek()) && a->idx < end;
         _det.pop()) {
        uint64_t off = a->idx - inner->firstIdx;
        locks.role[off] = static_cast<uint8_t>(a->role);
        locks.acqDist[off] = static_cast<uint16_t>(a->idx - a->acquireIdx);
    }
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
