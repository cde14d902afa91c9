/**
 * @file
 * Trace rewriter implementation: shared per-record expansion, the
 * batch pass, and the streaming source with its WC lock lanes.
 */

#include "trace/rewriter.hh"

#include <algorithm>
#include <cassert>

namespace storemlp
{

uint64_t
appendWcExpansion(const TraceRecord &r, LockRole role,
                  std::vector<TraceRecord> &out)
{
    if (role == LockRole::Acquire) {
        // casa -> lwarx ; stwcx ; isync. The inserted records share
        // the casa's pc (same fetch line, no I-cache perturbation).
        TraceRecord ll = r;
        ll.cls = InstClass::LoadLocked;
        out.push_back(ll);

        TraceRecord sc = r;
        sc.cls = InstClass::StoreCond;
        sc.dst = 0;
        sc.src2 = r.src1;
        out.push_back(sc);

        TraceRecord is;
        is.pc = r.pc;
        is.cls = InstClass::Isync;
        is.flags = r.flags; // keeps the acquire ground-truth flag
        out.push_back(is);
        return 3;
    }
    if (role == LockRole::Release) {
        // store -> lwsync ; store.
        TraceRecord lw;
        lw.pc = r.pc;
        lw.cls = InstClass::Lwsync;
        out.push_back(lw);
        out.push_back(r);
        return 2;
    }
    out.push_back(r);
    return 1;
}

Trace
TraceRewriter::toWeakConsistency(const Trace &trace,
                                 const LockAnalysis &locks) const
{
    std::vector<TraceRecord> out;
    out.reserve(trace.size() + 2 * locks.pairs.size());

    for (uint64_t i = 0; i < trace.size(); ++i) {
        LockRole role = i < locks.roles.size() ? locks.roles[i]
                                               : LockRole::None;
        appendWcExpansion(trace[i], role, out);
    }
    return Trace(std::move(out));
}

Trace
TraceRewriter::toWeakConsistency(const Trace &trace) const
{
    LockDetector detector;
    return toWeakConsistency(trace, detector.analyze(trace));
}

// ---------------------------------------------------------------------
// WcRewriteSource
// ---------------------------------------------------------------------

WcRewriteSource::WcRewriteSource(std::unique_ptr<TraceSource> inner)
    : TraceSource(inner->chunkInsts()), _inner(std::move(inner))
{
    restart();
}

void
WcRewriteSource::restart()
{
    _det = StreamingLockDetector();
    _in.clear();
    _nextInner = 0;
    _pcEmit = 0;
    _drained = false;
    _acquires.clear();
    _wcNotes.clear();
    _out.clear();
    _outFirst = 0;
    _wcNext = 0;
    _nextChunk = 0;
}

bool
WcRewriteSource::advance()
{
    if (_drained)
        return false;
    std::shared_ptr<const TraceChunk> c = _inner->fetch(_nextInner);
    if (c) {
        ++_nextInner;
        _det.scan(c->data, c->count);
        _in.push_back(std::move(c));
    } else {
        _det.finish();
        _drained = true;
    }
    emitFinal();
    return true;
}

void
WcRewriteSource::append(const TraceRecord *recs, uint64_t n)
{
    while (n) {
        if (_out.empty() || _out.back().size() == _chunkInsts) {
            _out.emplace_back();
            _out.back().reserve(_chunkInsts);
        }
        std::vector<TraceRecord> &chunk = _out.back();
        uint64_t take = std::min<uint64_t>(n, _chunkInsts - chunk.size());
        chunk.insert(chunk.end(), recs, recs + take);
        recs += take;
        n -= take;
        _wcNext += take;
    }
}

void
WcRewriteSource::copyRun(uint64_t end)
{
    while (_pcEmit < end) {
        const TraceChunk &c = *_in.front();
        uint64_t n = std::min(end, c.firstIdx + c.count) - _pcEmit;
        append(c.data + (_pcEmit - c.firstIdx), n);
        _pcEmit += n;
        if (_pcEmit == c.firstIdx + c.count)
            _in.pop_front();
    }
}

void
WcRewriteSource::emitFinal()
{
    uint64_t upto = _det.finalUpTo();
    for (const LockAnnotation *a; (a = _det.peek()) && a->idx < upto;
         _det.pop()) {
        copyRun(a->idx);
        // Aux roles copy through with the next run.
        if (a->role != LockRole::Acquire && a->role != LockRole::Release)
            continue;
        const TraceChunk &c = *_in.front();
        _expansion.clear();
        appendWcExpansion(c.data[_pcEmit - c.firstIdx], a->role,
                          _expansion);
        if (a->role == LockRole::Acquire) {
            _acquires.emplace_back(a->idx, _wcNext);
        } else {
            // Each acquire the PC pass annotates has exactly one
            // release.
            auto acq = std::find_if(
                _acquires.begin(), _acquires.end(),
                [a](const auto &p) { return p.first == a->acquireIdx; });
            assert(acq != _acquires.end());
            uint64_t wa = acq->second;
            _acquires.erase(acq);
            // lwarx;stwcx;isync at wa.., lwsync;store at rel-1, rel.
            // The WC detector applies its window to the WC distance.
            uint64_t rel = _wcNext + 1;
            if (rel - wa <= kLockWindow) {
                _wcNotes.push_back({wa, wa, LockRole::Acquire});
                _wcNotes.push_back({wa + 1, wa, LockRole::AcquireAux});
                _wcNotes.push_back({wa + 2, wa, LockRole::AcquireAux});
                _wcNotes.push_back({rel - 1, wa, LockRole::ReleaseAux});
                _wcNotes.push_back({rel, wa, LockRole::Release});
            }
        }
        append(_expansion.data(), _expansion.size());
        if (++_pcEmit == c.firstIdx + c.count)
            _in.pop_front();
    }
    copyRun(upto);
}

bool
WcRewriteSource::frontReady() const
{
    if (_out.empty())
        return false;
    if (_drained)
        return true;
    // A WC release not yet written lands at or past _wcNext + 1 and
    // annotates at most a window back from there.
    uint64_t n = _out.front().size();
    return n == _chunkInsts && _outFirst + n + kLockWindow <= _wcNext;
}

std::shared_ptr<const TraceChunk>
WcRewriteSource::produceNext()
{
    while (!frontReady() && advance()) {
    }
    if (_out.empty())
        return nullptr;
    std::vector<TraceRecord> recs = std::move(_out.front());
    _out.pop_front();
    uint64_t first = _outFirst;
    uint64_t end = first + recs.size();
    LockLanes locks;
    locks.role.resize(recs.size());
    locks.acqDist.resize(recs.size());
    size_t keep = 0;
    for (const LockAnnotation &a : _wcNotes) {
        if (a.idx >= end) {
            _wcNotes[keep++] = a;
            continue;
        }
        assert(a.idx >= first); // served chunks' roles were final
        locks.role[a.idx - first] = static_cast<uint8_t>(a.role);
        locks.acqDist[a.idx - first] =
            static_cast<uint16_t>(a.idx - a.acquireIdx);
    }
    _wcNotes.resize(keep);
    _outFirst = end;
    ++_nextChunk;
    return std::make_shared<const TraceChunk>(first, std::move(recs),
                                              std::move(locks));
}

std::shared_ptr<const TraceChunk>
WcRewriteSource::fetch(uint64_t chunk_idx)
{
    if (chunk_idx < _nextChunk)
        restart(); // backward fetch: deterministic replay
    std::shared_ptr<const TraceChunk> c;
    while (_nextChunk <= chunk_idx) {
        c = produceNext();
        if (!c)
            return nullptr;
    }
    return c;
}

std::optional<uint64_t>
WcRewriteSource::knownSize() const
{
    // The rewrite inserts records, so the output length is only known
    // once the whole input has been rewritten.
    if (_drained)
        return _wcNext;
    return std::nullopt;
}

std::string
WcRewriteSource::fingerprint() const
{
    std::string fp = _inner->fingerprint();
    if (fp.empty())
        return {};
    // Flip the inner stream's wc marker (GeneratorSource emits
    // "|wc=0"); append one if the inner key has none.
    size_t pos = fp.find("|wc=0");
    if (pos != std::string::npos)
        fp.replace(pos, 5, "|wc=1");
    else
        fp += "|wc=1";
    return fp;
}

} // namespace storemlp
