/**
 * @file
 * Per-chip coherent memory system: cache hierarchy + MESI state +
 * optional SMAC, attached to the snoop bus. This is the memory
 * interface the epoch engine and the peer traffic agents drive.
 */

#ifndef STOREMLP_COHERENCE_CHIP_HH
#define STOREMLP_COHERENCE_CHIP_HH

#include <cstdint>
#include <memory>
#include <optional>

#include "cache/hierarchy.hh"
#include "cache/tlb.hh"
#include "coherence/bus.hh"
#include "coherence/mesi.hh"
#include "coherence/smac.hh"

namespace storemlp
{

/**
 * One chip of the multiprocessor. When no bus is attached the chip
 * behaves as a single-chip system (stores never pay an invalidation
 * penalty, which is also what the paper assumes in that case).
 */
class ChipNode
{
  public:
    ChipNode(const HierarchyConfig &hier_config, uint32_t chip_id,
             std::optional<SmacConfig> smac_config = std::nullopt,
             CoherenceProtocol protocol = CoherenceProtocol::Mesi);

    /** Attach to a bus (also registers this chip with the bus). */
    void connect(SnoopBus *bus);

    /** Outcome of a data store. */
    struct StoreOutcome
    {
        MissLevel level = MissLevel::L1Hit;
        bool smacHit = false;            ///< ownership found in the SMAC
        bool smacHitInvalidated = false; ///< tag hit on invalidated entry
        bool remoteInvalidation = false; ///< paid a cross-chip penalty
    };
    /** Inline on-chip path; L2 misses take the SMAC/bus slow tail. */
    StoreOutcome
    store(uint64_t addr)
    {
        StoreOutcome out;
        _tlb.access(addr);
        uint64_t line = _hier.lineAddr(addr);

        // Check the pre-access state so S->M upgrades are visible.
        auto pre_state = _hier.l2().probeState(line);

        out.level = _hier.store(addr);

        if (out.level != MissLevel::OffChip) {
            // L2 hit. Upgrade if other chips may hold copies (Shared,
            // or Owned under MOESI).
            MesiState st = pre_state
                ? static_cast<MesiState>(*pre_state)
                : MesiState::Modified;
            if ((st == MesiState::Shared || st == MesiState::Owned) &&
                _bus) {
                BusRequest req{BusRequest::Kind::Upgr, line, _chipId};
                _bus->request(req);
            }
            setLineState(line, MesiState::Modified);
            return out;
        }
        storeMissSlow(out, line);
        return out;
    }

    /** Outcome of a data load. */
    struct LoadOutcome
    {
        MissLevel level = MissLevel::L1Hit;
        bool remoteTransfer = false;
    };
    /** Inline on-chip path; off-chip misses go through the bus. */
    LoadOutcome
    load(uint64_t addr)
    {
        LoadOutcome out;
        _tlb.access(addr);
        out.level = _hier.load(addr);
        if (out.level == MissLevel::OffChip)
            loadFill(out, _hier.lineAddr(addr));
        return out;
    }

    /** Instruction fetch. Inline on-chip path; misses go to the bus. */
    MissLevel
    instFetch(uint64_t pc)
    {
        MissLevel lvl = _hier.instFetch(pc);
        if (lvl == MissLevel::OffChip)
            instFetchFill(_hier.lineAddr(pc));
        return lvl;
    }

    /**
     * Hardware prefetch of a line (store prefetching / scout).
     * Performs the full coherence action of the eventual demand access
     * so the later demand access hits locally.
     * @return true if the line was already present in the L2
     */
    bool prefetchLine(uint64_t addr, bool for_write);

    /** Remote-initiated snoop, called by the bus. */
    void snoop(const BusRequest &req);

    Tlb &tlb() { return _tlb; }
    const Tlb &tlb() const { return _tlb; }
    CacheHierarchy &hierarchy() { return _hier; }
    const CacheHierarchy &hierarchy() const { return _hier; }
    Smac *smac() { return _smac ? _smac.get() : nullptr; }
    const Smac *smac() const { return _smac ? _smac.get() : nullptr; }
    uint32_t chipId() const { return _chipId; }
    CoherenceProtocol protocol() const { return _protocol; }

    /**
     * Fill the L2 with clean placeholder lines from this chip's
     * reserved region (0xF00000000000 + chipId * 0x001000000000) so
     * real traffic immediately contends for capacity. Runs once
     * before warmup (see RunSpec::prefillL2).
     */
    void prefillL2();

    /** Missing stores that skipped the invalidation penalty via SMAC. */
    uint64_t smacAcceleratedStores() const { return _smacAccelerated; }
    void resetStats();

  private:
    void
    setLineState(uint64_t line, MesiState s)
    {
        _hier.l2().setState(line, static_cast<uint8_t>(s));
    }
    /** Coherence action for an instruction-fetch L2 miss. */
    void instFetchFill(uint64_t line);
    /** Coherence action for a load L2 miss. */
    void loadFill(LoadOutcome &out, uint64_t line);
    /** SMAC probe + bus ownership request for a store L2 miss. */
    void storeMissSlow(StoreOutcome &out, uint64_t line);

    CacheHierarchy _hier;
    Tlb _tlb; ///< shared 2K-entry TLB (Section 4.3); stats only
    uint32_t _chipId;
    CoherenceProtocol _protocol;
    std::unique_ptr<Smac> _smac;
    SnoopBus *_bus = nullptr;

    uint64_t _smacAccelerated = 0;
};

} // namespace storemlp

#endif // STOREMLP_COHERENCE_CHIP_HH
