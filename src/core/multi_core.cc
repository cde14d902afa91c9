/**
 * @file
 * Multi-core contention runner implementation.
 */

#include "core/multi_core.hh"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>

#include "coherence/bus.hh"
#include "coherence/chip.hh"
#include "core/mlp_sim.hh"
#include "trace/lock_detector.hh"
#include "trace/rewriter.hh"
#include "trace/trace_source.hh"
#include "util/error.hh"

namespace storemlp
{

double
MultiRunOutput::combinedEpochsPer1000() const
{
    if (!combined.instructions)
        return 0.0;
    return 1000.0 * static_cast<double>(combined.epochs) /
        static_cast<double>(combined.instructions);
}

double
MultiRunOutput::meanOffChipCpi(uint32_t miss_latency) const
{
    if (cores.empty())
        return 0.0;
    double sum = 0.0;
    for (const SimResult &r : cores)
        sum += r.offChipCpi(miss_latency);
    return sum / static_cast<double>(cores.size());
}

double
MultiRunOutput::busInvalidationsPer1000() const
{
    if (!combined.instructions)
        return 0.0;
    return 1000.0 * static_cast<double>(busInvalidations) /
        static_cast<double>(combined.instructions);
}

void
MultiRunOutput::exportStats(StatsRegistry &reg) const
{
    combined.exportStats(reg);
    reg.counter("multicore.cores", cores.size());
    reg.counter("multicore.chips", chips);
    reg.counter("multicore.busInvalidations", busInvalidations);
    reg.counter("multicore.busDirtyTransfers", busDirtyTransfers);
    reg.scalar("derived.busInvalidationsPer1000",
               busInvalidationsPer1000());
    reg.scalar("derived.combinedEpochsPer1000", combinedEpochsPer1000());
    for (size_t i = 0; i < cores.size(); ++i) {
        StatsRegistry per;
        cores[i].exportStats(per);
        reg.mergeFrom(per, "cpu" + std::to_string(i) + ".");
    }
    reg.mergeFrom(machine);
}

namespace
{

/**
 * Core i's record stream. Generator ids 0, 101, 102, ... place each
 * core's private store/load regions at disjoint addresses while every
 * core shares the one global shared-store region — the source of
 * cross-core invalidation traffic.
 */
std::unique_ptr<TraceSource>
coreSource(const MultiRunSpec &spec, const WorkloadProfile &prof,
           uint32_t core, uint64_t total)
{
    uint32_t gen_id = core == 0 ? 0 : 100 + core;
    std::unique_ptr<TraceSource> src = std::make_unique<GeneratorSource>(
        prof, spec.seed + core, total, gen_id, spec.chunkInsts);
    if (spec.config.memoryModel.wcTraceRewrite())
        src = std::make_unique<WcRewriteSource>(std::move(src));
    return src;
}

} // namespace

MultiRunOutput
MultiCoreRunner::run(const MultiRunSpec &spec)
{
    if (spec.cores == 0)
        throw ConfigError("MultiCoreRunner: cores must be >= 1");
    if (spec.chips == 0)
        throw ConfigError("MultiCoreRunner: chips must be >= 1");
    if (spec.chips > spec.cores) {
        throw ConfigError(
            "MultiCoreRunner: chips (" + std::to_string(spec.chips) +
            ") exceeds cores (" + std::to_string(spec.cores) + ")");
    }

    uint32_t n = spec.cores;
    uint32_t m = spec.chips;
    uint64_t total = spec.warmupInsts + spec.measureInsts;

    // Contention knobs override the profile the generators see; the
    // knobs shape the traces, never the machine.
    WorkloadProfile prof = spec.profile;
    if (spec.sharedStoreFrac)
        prof.sharedStoreFrac = *spec.sharedStoreFrac;
    if (spec.lockProb)
        prof.lockProb = *spec.lockProb;

    // ---- per-core streams ----
    std::vector<std::unique_ptr<TraceSource>> sources;
    sources.reserve(n);
    for (uint32_t c = 0; c < n; ++c)
        sources.push_back(coreSource(spec, prof, c, total));

    // ---- the machine: M chips, bus-connected when M > 1 ----
    HierarchyConfig hier_cfg = spec.hierarchy.value_or(HierarchyConfig{});
    SnoopBus bus;
    std::vector<std::unique_ptr<ChipNode>> chips;
    chips.reserve(m);
    for (uint32_t c = 0; c < m; ++c) {
        chips.push_back(std::make_unique<ChipNode>(
            hier_cfg, c, spec.smac, spec.protocol));
        if (m > 1)
            chips.back()->connect(&bus);
    }

    if (spec.prefillL2) {
        for (auto &chip : chips)
            chip->prefillL2();
    }

    SimConfig cfg = spec.config;
    cfg.cpiOnChip = prof.cpiOnChip;

    // Each core reads its stream once, through the lock-role stage
    // when SLE/TM are on (Runner::run semantics).
    std::vector<std::unique_ptr<MlpSimulator>> sims;
    std::vector<std::optional<LockRoleSource>> stages(n);
    std::vector<std::unique_ptr<TraceCursor>> cursors;
    sims.reserve(n);
    cursors.reserve(n);
    for (uint32_t c = 0; c < n; ++c) {
        sims.push_back(std::make_unique<MlpSimulator>(cfg, *chips[c % m]));
        cursors.push_back(std::make_unique<TraceCursor>(
            engineInput(cfg, *sources[c], stages[c])));
    }

    // ---- deterministic quantum-interleaved execution ----
    // Every core advances `quantum` records per turn, in core-id
    // order. A turn straddling the warmup boundary is split at the
    // exact boundary so collection starts at record warmupInsts. A
    // core whose stream ends (generator slot-boundary overshoot makes
    // per-core stream lengths differ slightly) simply drops out.
    uint64_t q = std::max<uint64_t>(1, spec.quantum);
    uint64_t warm = spec.warmupInsts;
    auto turn = [&](MlpSimulator &sim, TraceCursor &cur, bool &done,
                    uint64_t begin, uint64_t end) {
        if (done)
            return;
        if (begin < warm && end > warm) {
            sim.process(cur, begin, warm, false);
            if (sim.position() < warm) {
                done = true;
                return;
            }
            sim.process(cur, warm, end, true);
        } else {
            sim.process(cur, begin, end, begin >= warm);
        }
        done = sim.position() < end; // stopped early: end of stream
    };

    std::vector<char> done(n, 0);
    uint32_t running = n;
    uint64_t pos = 0;
    while (running) {
        uint64_t next = pos + q;
        for (uint32_t c = 0; c < n; ++c) {
            bool d = done[c];
            turn(*sims[c], *cursors[c], d, pos, next);
            if (d && !done[c]) {
                done[c] = 1;
                --running;
            }
        }
        pos = next;
    }

    // ---- results ----
    MultiRunOutput out;
    out.chips = m;
    out.cores.reserve(n);
    for (uint32_t c = 0; c < n; ++c) {
        out.cores.push_back(sims[c]->takeResult());
        out.combined.merge(out.cores.back());
    }
    if (m > 1) {
        out.busInvalidations = bus.readExclusives() + bus.upgrades();
        out.busDirtyTransfers = bus.dirtyTransfers();
        bus.exportStats(out.machine);
        out.machine.counter("coherence.dirtyTransfers",
                            bus.dirtyTransfers());
    }
    for (uint32_t c = 0; c < m; ++c) {
        StatsRegistry per;
        chips[c]->hierarchy().exportStats(per);
        if (const Smac *smac = chips[c]->smac())
            smac->exportStats(per);
        per.counter("chip.smacAcceleratedStores",
                    chips[c]->smacAcceleratedStores());
        out.machine.mergeFrom(per, "chip" + std::to_string(c) + ".");
    }
    return out;
}

} // namespace storemlp
