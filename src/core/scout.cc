/**
 * @file
 * Lookahead engines of MLPsim: Hardware Scout (Section 3.3.5) and
 * prefetching past serializing instructions (Section 3.3.4). Both run
 * at a window termination, while the epoch's trigger miss is being
 * serviced, and convert off-chip accesses they encounter into
 * prefetches that join the current epoch.
 */

#include "core/mlp_sim.hh"

#include <algorithm>

namespace storemlp
{

bool
MlpSimulator::scoutEligible(TermCond cond) const
{
    // Scout needs a functioning frontend (it cannot run past a missing
    // instruction fetch) and a resolvable path (a mispredicted branch
    // dependent on a missing load sends it down the wrong path).
    if (cond == TermCond::InstructionMiss ||
        cond == TermCond::MispredBranch) {
        return false;
    }
    // HWS0/HWS1: enter scout mode when a missing load heads the ROB.
    if (_gen.loads >= 1)
        return true;
    // HWS2 additionally enters on store-side stalls: store queue/
    // buffer backpressure and serializing waits on missing stores.
    if (_cfg.scout == ScoutMode::Hws2) {
        switch (cond) {
          case TermCond::StoreBufferFull:
          case TermCond::SqStoreBufferFull:
          case TermCond::SqWindowFull:
          case TermCond::StoreSerialize:
            return true;
          default:
            break;
        }
    }
    return false;
}

void
MlpSimulator::runScout(TraceCursor &cur)
{
    if (_collect)
        ++_res.scoutEntries;
    // Scout runs until the trigger miss returns: the remaining stall
    // converted into an instruction budget at on-chip CPI.
    double remaining = _gen.resolveCycle - _cycle;
    if (remaining <= 0)
        return;
    uint64_t budget =
        static_cast<uint64_t>(remaining / std::max(0.1, _cfg.cpiOnChip));
    bool stores = _cfg.scout == ScoutMode::Hws1 ||
        _cfg.scout == ScoutMode::Hws2;
    lookahead(cur, _i, budget, stores, false);
}

void
MlpSimulator::runSerializeLookahead(TraceCursor &cur)
{
    // "The number of loads and stores that can be prefetched is
    // limited by the size of the reorder buffer since the casa and
    // isync instructions usually hold up instruction retirement."
    lookahead(cur, _i + 1, _cfg.robSize, true, false);
}

void
MlpSimulator::lookahead(TraceCursor &cur, uint64_t start,
                        uint64_t budget, bool prefetch_stores,
                        bool train_predictor)
{
    (void)train_predictor; // scout never trains (replay must see the
                           // same predictor state)
    RegPoison scratch = _poison;

    for (uint64_t j = start; budget > 0; ++j, --budget) {
        const TraceCursor::LaneView *v = cur.view(j);
        if (!v)
            break; // end of stream bounds the lookahead

        // Linear lane reads, as in stepOne.
        uint64_t off = j - v->first;
        uint64_t pc = v->pc[off];
        uint64_t addr = v->addr[off];
        uint32_t meta = v->meta[off];
        uint8_t dst = meta & 0xff;
        uint8_t src1 = (meta >> 8) & 0xff;
        uint8_t src2 = (meta >> 16) & 0xff;
        bool taken = (meta >> 24) & kFlagTaken;

        // Frontend: a missing instruction fetch is prefetched (the
        // access installs the line) but stops the scout.
        MissLevel flvl = _chip.instFetch(pc);
        if (flvl == MissLevel::OffChip) {
            if (_collect) {
                ++_res.missInsts;
                ++_res.scoutPrefetches;
            }
            onMiss(MissKind::Inst);
            _inflightLines.insert(lineOf(pc));
            break;
        }

        InstClass cls = static_cast<InstClass>(v->cls[off]);
        if (_elisionActive && elided(lockTagAt(*v, j))) {
            // Acquires act as loads; everything else elides to a NOP.
            if (cls == InstClass::AtomicCas ||
                cls == InstClass::LoadLocked) {
                cls = InstClass::Load;
            } else {
                continue;
            }
        }

        bool wrong_path = false;
        switch (cls) {
          case InstClass::Alu:
            if (scratch.anyPoisoned(src1, src2))
                scratch.set(dst);
            else
                scratch.clear(dst);
            break;

          case InstClass::Branch: {
            bool correct = _bp.predictPeek(pc, taken);
            if (!correct && scratch.anyPoisoned(src1, src2)) {
                // Unresolvable misprediction: the scout would follow
                // the wrong path from here; stop.
                wrong_path = true;
            }
            break;
          }

          case InstClass::Load:
          case InstClass::LoadLocked:
          case InstClass::AtomicCas: {
            if (scratch.test(src1)) {
                // Address depends on unavailable data: skip; the
                // consumer chain is poisoned.
                scratch.set(dst);
                break;
            }
            ChipNode::LoadOutcome out = _chip.load(addr);
            uint64_t line = lineOf(addr);
            if (out.level == MissLevel::OffChip) {
                if (_collect) {
                    ++_res.missLoads;
                    ++_res.scoutPrefetches;
                }
                onMiss(MissKind::Load);
                _inflightLines.insert(line);
                scratch.set(dst); // value arrives after the stall
            } else if (_inflightLines.count(line)) {
                scratch.set(dst);
            } else {
                scratch.clear(dst);
            }
            if (cls == InstClass::AtomicCas && prefetch_stores) {
                // The store half of the atomic also wants ownership.
                if (!_inflightLines.count(line))
                    _chip.prefetchLine(line, true);
            }
            break;
          }

          case InstClass::Store:
          case InstClass::StoreCond: {
            if (!prefetch_stores)
                break; // stores do not update state in scout mode
            if (scratch.test(src1))
                break; // address unavailable
            uint64_t line = lineOf(addr);
            if (_inflightLines.count(line))
                break;
            bool present = _chip.prefetchLine(line, true);
            if (_collect)
                ++_res.storePrefetchesIssued;
            if (!present) {
                if (_collect) {
                    ++_res.missStores;
                    ++_res.scoutPrefetches;
                }
                onMiss(MissKind::Store);
                _inflightLines.insert(line);
            }
            break;
          }

          case InstClass::Membar:
          case InstClass::Isync:
          case InstClass::Lwsync:
            // Scout is purely speculative: serializing constraints are
            // not obeyed (Section 3.3.5).
            break;

          default:
            break;
        }
        if (wrong_path)
            break;
    }
}

} // namespace storemlp
