/**
 * @file
 * Per-chip coherent memory system implementation.
 */

#include "coherence/chip.hh"

namespace storemlp
{

ChipNode::ChipNode(const HierarchyConfig &hier_config, uint32_t chip_id,
                   std::optional<SmacConfig> smac_config,
                   CoherenceProtocol protocol)
    : _hier(hier_config), _chipId(chip_id), _protocol(protocol)
{
    if (smac_config)
        _smac = std::make_unique<Smac>(*smac_config);
    // Dirty L2 evictions write back to memory; the SMAC retains the
    // downgraded exclusive ownership (paper Section 3.3.3). Under
    // MOESI, an evicted Owned line is dirty but SHARED by other
    // chips: its ownership must not be retained as exclusive.
    _hier.setEvictionListener(
        [this](uint64_t line, bool dirty, uint8_t state) {
            if (dirty && _smac &&
                static_cast<MesiState>(state) != MesiState::Owned) {
                _smac->installEvicted(line);
            }
        });
}

void
ChipNode::prefillL2()
{
    constexpr uint64_t kPrefillBase = 0xF00000000000ULL;
    constexpr uint64_t kPrefillStride = 0x001000000000ULL;
    SetAssocCache &l2 = _hier.l2();
    uint64_t line_bytes = l2.config().lineBytes;
    uint64_t lines = l2.config().sizeBytes / line_bytes;
    uint64_t base = kPrefillBase + _chipId * kPrefillStride;
    for (uint64_t i = 0; i < lines; ++i)
        l2.access(base + i * line_bytes, false);
}

void
ChipNode::connect(SnoopBus *bus)
{
    _bus = bus;
    bus->attach(this);
}

void
ChipNode::storeMissSlow(StoreOutcome &out, uint64_t line)
{
    // Off-chip store miss: the SMAC may already hold ownership.
    if (_smac) {
        Smac::ProbeResult pr = _smac->probeStoreMiss(line);
        out.smacHit = pr.hit;
        out.smacHitInvalidated = pr.hitInvalidated;
        if (pr.hit) {
            // Ownership already on-chip: no cross-chip transaction.
            ++_smacAccelerated;
            setLineState(line, MesiState::Modified);
            return;
        }
    }

    if (_bus) {
        BusRequest req{BusRequest::Kind::RdX, line, _chipId};
        BusResponse resp = _bus->request(req);
        out.remoteInvalidation = resp.remoteHad;
    }
    setLineState(line, MesiState::Modified);
}

void
ChipNode::loadFill(LoadOutcome &out, uint64_t line)
{
    if (_bus) {
        BusRequest req{BusRequest::Kind::Rd, line, _chipId};
        BusResponse resp = _bus->request(req);
        out.remoteTransfer = resp.remoteHad;
        setLineState(line,
                     resp.remoteHad ? MesiState::Shared
                                    : MesiState::Exclusive);
    } else {
        setLineState(line, MesiState::Exclusive);
    }
}

void
ChipNode::instFetchFill(uint64_t line)
{
    if (_bus) {
        BusRequest req{BusRequest::Kind::Rd, line, _chipId};
        BusResponse resp = _bus->request(req);
        setLineState(line,
                     resp.remoteHad ? MesiState::Shared
                                    : MesiState::Exclusive);
    } else {
        setLineState(line, MesiState::Exclusive);
    }
}

bool
ChipNode::prefetchLine(uint64_t addr, bool for_write)
{
    uint64_t line = _hier.lineAddr(addr);
    bool was_present = _hier.l2Probe(line);
    auto pre_state = _hier.l2().probeState(line);
    _hier.prefetchLine(line, for_write);

    if (for_write) {
        bool need_ownership = !was_present ||
            (pre_state &&
             static_cast<MesiState>(*pre_state) == MesiState::Shared);
        if (need_ownership) {
            bool smac_owned = false;
            if (!was_present && _smac)
                smac_owned = _smac->probeStoreMiss(line).hit;
            if (!smac_owned && _bus) {
                BusRequest req{BusRequest::Kind::RdX, line, _chipId};
                _bus->request(req);
            }
        }
        setLineState(line, MesiState::Modified);
    } else if (!was_present) {
        if (_bus) {
            BusRequest req{BusRequest::Kind::Rd, line, _chipId};
            BusResponse resp = _bus->request(req);
            setLineState(line,
                         resp.remoteHad ? MesiState::Shared
                                        : MesiState::Exclusive);
        } else {
            setLineState(line, MesiState::Exclusive);
        }
    }
    return was_present;
}

void
ChipNode::snoop(const BusRequest &req)
{
    uint64_t line = req.line;
    // Any remote snoop that hits the SMAC invalidates the entry
    // (paper: "On a snoop (either a request-to-own or shared) from
    // another chip that hits in the SMAC, the line is invalidated").
    if (_smac)
        _smac->snoopInvalidate(line);

    auto state = _hier.l2().probeState(line);
    if (!state)
        return;
    MesiState st = static_cast<MesiState>(*state);

    switch (req.kind) {
      case BusRequest::Kind::Rd:
        if (st == MesiState::Modified &&
            _protocol == CoherenceProtocol::Moesi) {
            // MOESI: keep the dirty line in Owned state and supply
            // data to the requester; no memory writeback.
            _hier.l2().setState(line,
                                static_cast<uint8_t>(MesiState::Owned));
        } else if (st != MesiState::Owned) {
            // MESI: Modified data is written back; downgrade to
            // Shared. (Owned lines stay Owned on further reads.)
            _hier.l2().setState(line, static_cast<uint8_t>(
                MesiState::Shared));
        }
        break;
      case BusRequest::Kind::RdX:
      case BusRequest::Kind::Upgr:
        // Ownership transfers to the requester; our SMAC must not
        // retain it, so skip the dirty-eviction listener.
        _hier.invalidateForCoherence(line);
        break;
    }
}

void
ChipNode::resetStats()
{
    _hier.resetStats();
    _tlb.resetStats();
    if (_smac)
        _smac->resetStats();
    _smacAccelerated = 0;
}

} // namespace storemlp
