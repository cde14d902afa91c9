/**
 * @file
 * Experiment runner implementation.
 */

#include "core/runner.hh"

#include <memory>
#include <sstream>
#include <vector>

#include "coherence/bus.hh"
#include "coherence/chip.hh"
#include "coherence/traffic.hh"
#include "core/epoch_log.hh"
#include "core/mlp_sim.hh"
#include "trace/generator.hh"
#include "trace/rewriter.hh"

namespace storemlp
{

double
RunOutput::smacInvalidatesPer1000() const
{
    return sim.instructions
        ? 1000.0 * static_cast<double>(smacCoherenceInvalidates) /
              static_cast<double>(sim.instructions)
        : 0.0;
}

double
RunOutput::smacHitInvalidPct() const
{
    uint64_t denom = chipStoreMisses ? chipStoreMisses : sim.missStores;
    return denom
        ? 100.0 * static_cast<double>(smacProbeHitInvalidated) /
              static_cast<double>(denom)
        : 0.0;
}

Trace
Runner::buildTrace(const RunSpec &spec)
{
    SyntheticTraceGenerator gen(spec.profile, spec.seed, 0);
    Trace trace = gen.generate(spec.warmupInsts + spec.measureInsts);

    // The paper simulates weak consistency by rewriting the PC trace's
    // lock idioms (Section 4.2); any Power-dialect model gets the
    // same rewrite.
    if (spec.config.memoryModel.wcTraceRewrite()) {
        TraceRewriter rewriter;
        trace = rewriter.toWeakConsistency(trace);
    }
    return trace;
}

std::string
Runner::traceCacheKey(const RunSpec &spec)
{
    std::ostringstream os;
    os << spec.profile.cacheKey() << "|seed=" << spec.seed
       << "|n=" << (spec.warmupInsts + spec.measureInsts) << "|wc="
       << spec.config.memoryModel.wcTraceRewrite() << "|chip=0";
    return os.str();
}

std::unique_ptr<TraceSource>
Runner::makeSource(const RunSpec &spec, uint64_t chunk_insts)
{
    std::unique_ptr<TraceSource> src = std::make_unique<GeneratorSource>(
        spec.profile, spec.seed,
        spec.warmupInsts + spec.measureInsts, 0, chunk_insts);
    if (spec.config.memoryModel.wcTraceRewrite())
        src = std::make_unique<WcRewriteSource>(std::move(src));
    return src;
}

RunOutput
Runner::run(const RunSpec &spec, TraceSource &source)
{
    // ---- build the machine ----
    HierarchyConfig hier_cfg = spec.hierarchy.value_or(HierarchyConfig{});
    SnoopBus bus;
    std::vector<std::unique_ptr<ChipNode>> chips;
    for (uint32_t c = 0; c < spec.numChips; ++c) {
        chips.push_back(std::make_unique<ChipNode>(
            hier_cfg, c, spec.smac, spec.protocol));
        if (spec.numChips > 1)
            chips.back()->connect(&bus);
    }
    ChipNode &local = *chips.front();

    std::vector<std::unique_ptr<PeerTrafficAgent>> peers;
    if (spec.peerTraffic) {
        for (uint32_t c = 1; c < spec.numChips; ++c) {
            peers.push_back(std::make_unique<PeerTrafficAgent>(
                spec.profile, spec.seed + 1000 + c, *chips[c]));
        }
    }
    if (spec.siblingCore) {
        // The second core of the measured chip (paper Section 4.3:
        // "two single-threaded cores sharing an L2 cache").
        peers.push_back(std::make_unique<PeerTrafficAgent>(
            spec.profile, spec.seed + 77, local,
            static_cast<int>(spec.numChips) + 1));
    }

    if (spec.prefillL2) {
        for (auto &chip : chips)
            chip->prefillL2();
    }

    SimConfig cfg = spec.config;
    cfg.cpiOnChip = spec.profile.cpiOnChip;

    MlpSimulator sim(cfg, local);
    std::optional<EpochLogWriter> epoch_log;
    if (spec.epochLog) {
        epoch_log.emplace(*spec.epochLog);
        sim.setEpochListener([&epoch_log](const EpochRecord &rec) {
            epoch_log->write(rec);
        });
    }
    if (!peers.empty()) {
        sim.setPeerHook([&peers](uint64_t delta) {
            for (auto &p : peers)
                p->step(delta);
        });
    }

    // ---- warm, reset, measure: one forward pass over the source ----
    // SLE/TM read lock roles from the chunks, detected by the stage
    // one pairing window ahead of the engine.
    std::optional<LockRoleSource> stage;
    TraceCursor cur(engineInput(cfg, source, stage));
    sim.process(cur, 0, spec.warmupInsts, false);
    uint64_t warmup_end = sim.position(); // min(warmup, stream length)
    local.resetStats();
    bus.resetStats();

    sim.process(cur, warmup_end, ~uint64_t{0}, true);
    uint64_t end_idx = sim.position();
    RunOutput out;
    out.sim = sim.takeResult();

    // ---- Table 1 style rates over the measured records ----
    // The engine tallied the stores as it dispatched them.
    uint64_t stores = sim.measuredStores();
    uint64_t measured = end_idx - warmup_end;
    if (measured) {
        double n = static_cast<double>(measured);
        out.storesPer100 = 100.0 * static_cast<double>(stores) / n;
        out.storeMissPer100 = 100.0 *
            static_cast<double>(local.hierarchy().storeL2Misses()) / n;
        out.loadMissPer100 = 100.0 *
            static_cast<double>(local.hierarchy().loadL2Misses()) / n;
        out.instMissPer100 = 100.0 *
            static_cast<double>(local.hierarchy().instL2Misses()) / n;
    }
    out.l2Accesses = local.hierarchy().l2Accesses();
    if (measured) {
        out.tlbMissPer100 = 100.0 *
            static_cast<double>(local.tlb().misses()) /
            static_cast<double>(measured);
    }

    out.chipStoreMisses = local.hierarchy().storeL2Misses();
    if (const Smac *smac = local.smac()) {
        out.smacCoherenceInvalidates = smac->coherenceInvalidates();
        out.smacProbeHits = smac->probeHits();
        out.smacProbeHitInvalidated = smac->probeHitInvalidated();
    }
    for (auto &p : peers)
        out.peerInstructions += p->instructionsRetired();

    local.hierarchy().exportStats(out.machine);
    if (spec.numChips > 1)
        bus.exportStats(out.machine);
    if (const Smac *smac = local.smac())
        smac->exportStats(out.machine);
    return out;
}

void
RunOutput::exportStats(StatsRegistry &reg) const
{
    sim.exportStats(reg);

    reg.scalar("run.storesPer100", storesPer100);
    reg.scalar("run.storeMissPer100", storeMissPer100);
    reg.scalar("run.loadMissPer100", loadMissPer100);
    reg.scalar("run.instMissPer100", instMissPer100);
    reg.scalar("run.tlbMissPer100", tlbMissPer100);
    reg.counter("run.l2Accesses", l2Accesses);
    reg.counter("run.peerInstructions", peerInstructions);
    reg.counter("chip.storeMisses", chipStoreMisses);
    reg.counter("chip.smacCoherenceInvalidates", smacCoherenceInvalidates);
    reg.counter("chip.smacProbeHits", smacProbeHits);
    reg.counter("chip.smacProbeHitInvalidated", smacProbeHitInvalidated);
    reg.scalar("derived.smacInvalidatesPer1000", smacInvalidatesPer1000());
    reg.scalar("derived.smacHitInvalidPct", smacHitInvalidPct());

    reg.mergeFrom(machine);
}

Runner::MissRates
Runner::measureMissRates(TraceSource &source, uint64_t warmup_insts)
{
    CacheHierarchy hier;
    uint64_t seen = 0;
    uint64_t stores = 0;
    forEachChunk(source, [&](const TraceChunk &c) {
        for (uint64_t i = 0; i < c.count; ++i, ++seen) {
            const TraceRecord &r = c.data[i];
            if (seen == warmup_insts)
                hier.resetStats();
            hier.instFetch(r.pc);
            if (isLoadClass(r.cls))
                hier.load(r.addr);
            if (isStoreClass(r.cls)) {
                hier.store(r.addr);
                if (seen >= warmup_insts)
                    ++stores;
            }
        }
    });

    MissRates rates;
    if (seen <= warmup_insts)
        return rates;
    double n = static_cast<double>(seen - warmup_insts);
    rates.storesPer100 = 100.0 * static_cast<double>(stores) / n;
    rates.storeMissPer100 =
        100.0 * static_cast<double>(hier.storeL2Misses()) / n;
    rates.loadMissPer100 =
        100.0 * static_cast<double>(hier.loadL2Misses()) / n;
    rates.instMissPer100 =
        100.0 * static_cast<double>(hier.instL2Misses()) / n;
    return rates;
}

} // namespace storemlp
