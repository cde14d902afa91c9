/**
 * @file
 * Synthetic trace generator implementation.
 */

#include "trace/generator.hh"

#include <algorithm>
#include <cassert>

namespace storemlp
{

namespace
{
constexpr uint64_t kLineBytes = 64;
constexpr unsigned kNumRegs = 48; // architectural registers 1..47 in use
} // namespace

SyntheticTraceGenerator::SyntheticTraceGenerator(
        const WorkloadProfile &profile, uint64_t seed, uint32_t chip_id)
    : _prof(profile), _rng(seed, 0x9e3779b97f4a7c15ULL ^ chip_id),
      _chipId(chip_id)
{
    _privStoreBase = AddressMap::kPrivateStoreBase +
        chip_id * AddressMap::kPrivateStoreStride;
    _coldLoadBase = AddressMap::kColdLoadBase +
        chip_id * AddressMap::kColdLoadStride;
    // Hot data and lock words are process-private: each chip/core id
    // gets its own copy (only the designated shared store region is
    // shared between chips).
    _hotDataBase = AddressMap::kHotDataBase +
        chip_id * uint64_t(32) * 1024 * 1024;
    _lockBase = AddressMap::kLockBase +
        chip_id * uint64_t(1) * 1024 * 1024;
    for (auto &r : _recent)
        r = 1 + static_cast<uint8_t>(_rng.below(kNumRegs - 1));
}

Trace
SyntheticTraceGenerator::generate(uint64_t count)
{
    std::vector<TraceRecord> out;
    generateInto(out, count);
    return Trace(std::move(out));
}

void
SyntheticTraceGenerator::generateInto(Trace &trace, uint64_t count)
{
    std::vector<TraceRecord> out;
    generateInto(out, count);
    for (const TraceRecord &r : out)
        trace.append(r);
}

void
SyntheticTraceGenerator::generateInto(std::vector<TraceRecord> &out,
                                      uint64_t count)
{
    out.reserve(out.size() + count + 64);
    uint64_t goal = out.size() + count;
    while (out.size() < goal)
        emitSlot(out);
}

uint64_t
SyntheticTraceGenerator::nextPc()
{
    if (_excursionLeft > 0) {
        --_excursionLeft;
        uint64_t pc = _excursionPc;
        _excursionPc += 4;
        return pc;
    }
    // Possibly start a cold-code excursion.
    if (!_inCs && _flushLeft == 0 && _prof.instColdProb > 0.0 &&
        _rng.chance(_prof.instColdProb)) {
        uint32_t lines = _rng.geometric(_prof.instBurstCont, 4);
        // Stay within `lines` fresh cache lines of cold code.
        _excursionPc = AddressMap::kColdCodeBase + _coldPcCursor;
        _coldPcCursor += lines * kLineBytes;
        // Execute most of the excursion lines' worth of instructions.
        _excursionLeft = lines * (kLineBytes / 4) - 1;
        uint64_t pc = _excursionPc;
        _excursionPc += 4;
        return pc;
    }
    // Hot code: loop within a window; occasionally hop to another
    // window of the code footprint (function-call locality).
    uint64_t window = std::max<uint64_t>(64, _prof.hotCodeWindowBytes);
    if (_prof.hotCodeJumpProb > 0.0 &&
        _rng.chance(_prof.hotCodeJumpProb) &&
        _prof.hotCodeBytes > window) {
        uint64_t windows = _prof.hotCodeBytes / window;
        _hotWindowBase = _rng.below64(windows) * window;
        _hotPcOff = 0;
    }
    uint64_t pc = AddressMap::kHotCodeBase + _hotWindowBase + _hotPcOff;
    _hotPcOff = (_hotPcOff + 4) % window;
    return pc;
}

uint64_t
SyntheticTraceGenerator::hotDataAddr()
{
    // Two-tier temporal locality: most accesses hit an L1-resident
    // tier; the rest roam the full (L2-resident) hot region.
    uint64_t span = _rng.chance(_prof.hotL1Frac)
        ? std::min(_prof.hotL1Bytes, _prof.hotDataBytes)
        : _prof.hotDataBytes;
    uint64_t off = _rng.below64(span / 8) * 8;
    return _hotDataBase + off;
}

uint64_t
SyntheticTraceGenerator::coldLoadAddr()
{
    // Some cold loads read the shared region (consuming data other
    // chips produced); the rest stream fresh private lines
    // (guaranteed compulsory misses).
    if (_prof.sharedLoadFrac > 0.0 &&
        _rng.chance(_prof.sharedLoadFrac)) {
        uint64_t region = _rng.chance(_prof.sharedHotFrac)
            ? std::min(_prof.sharedHotBytes,
                       _prof.sharedStoreRegionBytes)
            : _prof.sharedStoreRegionBytes;
        uint64_t off = _rng.below64(region / kLineBytes) * kLineBytes;
        return AddressMap::kSharedStoreBase + off;
    }
    uint64_t a = _coldLoadBase + _coldLoadCursor;
    _coldLoadCursor += kLineBytes;
    return a;
}

uint64_t
SyntheticTraceGenerator::coldStoreAddr(bool fresh)
{
    if (_granulesLeft == 0) {
        if (_runLinesLeft == 0) {
            // Jump to a random spot, picking the shared or the private
            // region, and start a fresh spatial run of lines.
            _storeLineShared = _rng.chance(_prof.sharedStoreFrac);
            uint64_t region_bytes = _storeLineShared
                ? _prof.sharedStoreRegionBytes
                : _prof.storeMissRegionBytes;
            if (_storeLineShared &&
                _rng.chance(_prof.sharedHotFrac)) {
                // Contended shared structures: all chips write these.
                region_bytes = std::min(region_bytes,
                                        _prof.sharedHotBytes);
            }
            uint64_t lines = region_bytes / kLineBytes;
            if (!fresh && !_storeLineShared && _runRingSize > 0 &&
                _rng.chance(_prof.storeRevisitFrac)) {
                // Buffer-pool reuse: rewrite a recently used area.
                _storeLineOff = _runRing[_rng.below(
                    static_cast<uint32_t>(_runRingSize))];
            } else {
                _storeLineOff = _rng.below64(lines) * kLineBytes;
            }
            if (!_storeLineShared) {
                _runRing[_runRingIdx] = _storeLineOff;
                _runRingIdx = (_runRingIdx + 1) % kRunRing;
                _runRingSize = std::min(_runRingSize + 1, kRunRing);
            }
            _runLinesLeft = std::max(1u, _prof.storeSpatialRun);
        } else {
            _storeLineOff += kLineBytes;
        }
        --_runLinesLeft;
        _granulesLeft = std::max(1u, _prof.coldStoresPerLine);
        _granuleIdx = 0;
    }
    uint64_t base = _storeLineShared
        ? AddressMap::kSharedStoreBase : _privStoreBase;
    uint64_t region_bytes = _storeLineShared
        ? _prof.sharedStoreRegionBytes : _prof.storeMissRegionBytes;
    uint64_t off = (_storeLineOff + _granuleIdx * 8) % region_bytes;
    ++_granuleIdx;
    --_granulesLeft;
    return base + off;
}

uint8_t
SyntheticTraceGenerator::freshReg()
{
    uint8_t r = 1 + static_cast<uint8_t>(_rng.below(kNumRegs - 1));
    _recent[_recentIdx % 8] = r;
    ++_recentIdx;
    return r;
}

uint8_t
SyntheticTraceGenerator::pickSrc()
{
    if (_rng.chance(_prof.depNearProb))
        return _recent[_rng.below(8)];
    return 1 + static_cast<uint8_t>(_rng.below(kNumRegs - 1));
}

void
SyntheticTraceGenerator::emitSlot(std::vector<TraceRecord> &out)
{
    // Flush phases: burst buffer/log writebacks with no locks and no
    // cold loads.
    if (_flushLeft > 0) {
        --_flushLeft;
        double d = _rng.uniform();
        if (d < _prof.flushStoreFrac) {
            emitStore(out, _rng.chance(_prof.flushColdProb));
        } else if (d < _prof.flushStoreFrac + _prof.loadFrac) {
            _loadBurstLeft = 0; // hot load only
            TraceRecord r;
            r.pc = nextPc();
            r.cls = InstClass::Load;
            r.addr = hotDataAddr();
            r.size = 8;
            r.src1 = pickSrc();
            r.dst = freshReg();
            _lastLoadDst = r.dst;
            out.push_back(r);
        } else {
            emitAlu(out);
        }
        return;
    }
    if (_prof.flushPhaseProb > 0.0 &&
        _rng.chance(_prof.flushPhaseProb)) {
        double cont = 1.0 - 1.0 / std::max(1u, _prof.flushLenMean);
        _flushLeft = _rng.geometric(cont, 4 * _prof.flushLenMean);
    }

    // Dense store bursts: store-dominated stretches (memset-like).
    if (_burstLeft > 0) {
        --_burstLeft;
        double d = _rng.uniform();
        if (d < _prof.burstStoreFrac) {
            emitStore(out, _rng.chance(_prof.burstColdProb));
        } else {
            emitAlu(out);
        }
        return;
    }
    if (_prof.burstPhaseProb > 0.0 &&
        _rng.chance(_prof.burstPhaseProb)) {
        double cont = 1.0 - 1.0 / std::max(1u, _prof.burstLenMean);
        _burstLeft = _rng.geometric(cont, 4 * _prof.burstLenMean);
    }

    // Critical sections are emitted atomically (acquire/body/release).
    if (_prof.lockProb > 0.0 && _rng.chance(_prof.lockProb)) {
        emitCriticalSection(out);
        return;
    }
    if (_prof.membarProb > 0.0 && _rng.chance(_prof.membarProb)) {
        emitMembar(out);
        return;
    }
    double d = _rng.uniform();
    if (d < _prof.loadFrac) {
        emitLoad(out);
    } else if (d < _prof.loadFrac + _prof.storeFrac) {
        emitStore(out);
    } else if (d < _prof.loadFrac + _prof.storeFrac + _prof.branchFrac) {
        emitBranch(out);
    } else {
        emitAlu(out);
    }
}

void
SyntheticTraceGenerator::emitCriticalSection(
        std::vector<TraceRecord> &out)
{
    _inCs = true;
    uint64_t lock_addr = _lockBase +
        _rng.below(_prof.lockCount) * kLineBytes;

    // Lock acquire: casa (atomic load+store, serializing under TSO).
    TraceRecord acq;
    acq.pc = nextPc();
    acq.cls = InstClass::AtomicCas;
    acq.addr = lock_addr;
    acq.size = 8;
    acq.dst = freshReg();
    acq.src1 = pickSrc();
    acq.flags = kFlagLockAcquire;
    out.push_back(acq);

    // Body: loads/stores/alu, no nested locks or cold-code excursions.
    uint32_t body = 4 + _rng.below(std::max(1u, 2 * _prof.csBodyLen - 4));
    for (uint32_t i = 0; i < body; ++i) {
        double d = _rng.uniform();
        if (d < _prof.loadFrac) {
            emitLoad(out);
        } else if (d < _prof.loadFrac + _prof.storeFrac) {
            emitStore(out);
        } else {
            emitAlu(out);
        }
    }

    // Lock release: plain store to the lock word.
    TraceRecord rel;
    rel.pc = nextPc();
    rel.cls = InstClass::Store;
    rel.addr = lock_addr;
    rel.size = 8;
    rel.src2 = pickSrc();
    rel.flags = kFlagLockRelease;
    out.push_back(rel);
    _inCs = false;
}

void
SyntheticTraceGenerator::emitLoad(std::vector<TraceRecord> &out)
{
    bool cold;
    if (_loadBurstLeft > 0) {
        cold = true;
        --_loadBurstLeft;
    } else {
        double mean_burst = 1.0 / (1.0 - _prof.loadBurstCont);
        cold = _rng.chance(_prof.loadColdProb / mean_burst);
        if (cold)
            _loadBurstLeft = _rng.geometric(_prof.loadBurstCont) - 1;
    }
    TraceRecord r;
    r.pc = nextPc();
    r.cls = InstClass::Load;
    r.addr = cold ? coldLoadAddr() : hotDataAddr();
    r.size = 8;
    r.src1 = pickSrc();
    r.dst = freshReg();
    _lastLoadDst = r.dst;
    out.push_back(r);
}

void
SyntheticTraceGenerator::emitStore(std::vector<TraceRecord> &out,
                                   bool force_cold)
{
    bool cold;
    if (force_cold) {
        cold = true;
    } else if (_storeBurstLeft > 0) {
        cold = true;
        --_storeBurstLeft;
    } else {
        double mean_burst = 1.0 / (1.0 - _prof.storeBurstCont);
        cold = _rng.chance(_prof.storeColdProb / mean_burst);
        if (cold)
            _storeBurstLeft = _rng.geometric(_prof.storeBurstCont) - 1;
    }
    TraceRecord r;
    r.pc = nextPc();
    r.cls = InstClass::Store;
    r.addr = cold ? coldStoreAddr(force_cold) : hotDataAddr();
    r.size = 8;
    r.src1 = pickSrc();
    r.src2 = pickSrc();
    out.push_back(r);
}

void
SyntheticTraceGenerator::emitBranch(std::vector<TraceRecord> &out)
{
    TraceRecord r;
    // Branches live at fixed sites (the last word of each 32-byte
    // group), as in real code: stable sites train the predictor and
    // BTB instead of scattering one-shot branch pcs everywhere.
    r.pc = (nextPc() & ~uint64_t(31)) | 28;
    r.cls = InstClass::Branch;
    if (_rng.chance(_prof.branchDependsOnLoadProb) && _lastLoadDst)
        r.src1 = _lastLoadDst;
    else
        r.src1 = pickSrc();
    // Outcome keyed off a per-pc hash: most static branches are
    // deterministic (loop bounds, error checks); the rest are hard
    // data-dependent branches with a majority bias.
    uint64_t h = ((r.pc >> 2) * 0x9e3779b97f4a7c15ULL) >> 32;
    bool direction = (h & 1) != 0;
    bool easy = (h >> 1) % 1000 <
        static_cast<uint64_t>(_prof.easyBranchFrac * 1000.0);
    bool taken = easy
        ? direction
        : (_rng.chance(_prof.branchBias) ? direction : !direction);
    if (taken)
        r.flags |= kFlagTaken;
    out.push_back(r);
}

void
SyntheticTraceGenerator::emitAlu(std::vector<TraceRecord> &out)
{
    TraceRecord r;
    r.pc = nextPc();
    r.cls = InstClass::Alu;
    r.src1 = pickSrc();
    r.src2 = pickSrc();
    r.dst = freshReg();
    out.push_back(r);
}

void
SyntheticTraceGenerator::emitMembar(std::vector<TraceRecord> &out)
{
    TraceRecord r;
    r.pc = nextPc();
    r.cls = InstClass::Membar;
    out.push_back(r);
}

LitmusProgram
litmusProgram(LitmusIdiom idiom, bool power_dialect, bool fenced)
{
    // Two independent shared locations on distinct cache lines.
    constexpr uint64_t kX = 0x1000;
    constexpr uint64_t kY = 0x2000;

    LitmusProgram p;
    TraceBuilder t0(0x10000);
    TraceBuilder t1(0x20000);
    // Ordering fences per dialect: a full fence (SPARC membar; the
    // Power full sync has the same SerializeEffect), the Power
    // store-store fence, and the Power execution fence.
    auto full = [&](TraceBuilder &t) { t.membar(); };
    auto stFence = [&](TraceBuilder &t) {
        power_dialect ? t.lwsync() : t.membar();
    };
    auto exFence = [&](TraceBuilder &t) {
        power_dialect ? t.isync() : t.membar();
    };

    switch (idiom) {
      case LitmusIdiom::StoreBuffering:
        p.name = "SB";
        t0.store(kX);
        if (fenced)
            full(t0); // only a full fence orders St -> Ld
        t0.load(kY);
        t1.store(kY);
        if (fenced)
            full(t1);
        t1.load(kX);
        p.relaxedOutcome = {0, 0}; // both loads miss the other store
        break;
      case LitmusIdiom::MessagePassing:
        p.name = "MP";
        t0.store(kX);
        if (fenced)
            stFence(t0);
        t0.store(kY);
        t1.load(kY);
        if (fenced)
            exFence(t1);
        t1.load(kX);
        p.relaxedOutcome = {1, 0}; // flag seen, data stale
        break;
      case LitmusIdiom::LoadBuffering:
        p.name = "LB";
        t0.load(kY);
        if (fenced)
            exFence(t0);
        t0.store(kX);
        t1.load(kX);
        if (fenced)
            exFence(t1);
        t1.store(kY);
        p.relaxedOutcome = {1, 1}; // both loads see the future store
        break;
    }
    p.name += power_dialect ? ".power" : ".sparc";
    if (fenced)
        p.name += "+fence";
    p.thread0 = t0.build();
    p.thread1 = t1.build();
    return p;
}

} // namespace storemlp
