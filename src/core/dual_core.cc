/**
 * @file
 * Dual-core runner implementation.
 */

#include "core/dual_core.hh"

#include <algorithm>
#include <memory>
#include <optional>

#include "coherence/chip.hh"
#include "core/mlp_sim.hh"
#include "trace/lock_detector.hh"
#include "trace/rewriter.hh"
#include "trace/trace_source.hh"

namespace storemlp
{

double
DualRunOutput::combinedEpochsPer1000() const
{
    uint64_t insts = core0.instructions + core1.instructions;
    if (!insts)
        return 0.0;
    return 1000.0 * static_cast<double>(core0.epochs + core1.epochs) /
        static_cast<double>(insts);
}

namespace
{

/**
 * A core's record stream: synthesized chunk by chunk, rewritten to
 * weak consistency in-stream when the model asks for it. Distinct
 * generator ids place each core's private data apart while both share
 * the globally shared store region.
 */
std::unique_ptr<TraceSource>
coreSource(const DualRunSpec &spec, uint64_t seed, uint32_t gen_id,
           uint64_t total)
{
    std::unique_ptr<TraceSource> src = std::make_unique<GeneratorSource>(
        spec.profile, seed, total, gen_id);
    if (spec.config.memoryModel.wcTraceRewrite())
        src = std::make_unique<WcRewriteSource>(std::move(src));
    return src;
}

} // namespace

DualRunOutput
DualCoreRunner::run(const DualRunSpec &spec)
{
    uint64_t total = spec.warmupInsts + spec.measureInsts;
    std::unique_ptr<TraceSource> src0 =
        coreSource(spec, spec.seed, 0, total);
    std::unique_ptr<TraceSource> src1 =
        coreSource(spec, spec.seed + 1, 101, total);

    ChipNode chip(HierarchyConfig{}, 0);
    if (spec.prefillL2) {
        SetAssocCache &l2 = chip.hierarchy().l2();
        uint64_t lines = l2.config().sizeBytes / l2.config().lineBytes;
        for (uint64_t i = 0; i < lines; ++i)
            l2.access(0xF00000000000ULL + i * l2.config().lineBytes,
                      false);
    }

    SimConfig cfg = spec.config;
    cfg.cpiOnChip = spec.profile.cpiOnChip;

    MlpSimulator sim0(cfg, chip);
    MlpSimulator sim1(cfg, chip);

    // One pass per core; SLE/TM read roles from the lock-role stage.
    std::optional<LockRoleSource> stage0, stage1;
    TraceCursor cur0(engineInput(cfg, *src0, stage0));
    TraceCursor cur1(engineInput(cfg, *src1, stage1));

    // Interleave the cores at a fixed quantum. The epoch engines keep
    // private pipeline state; only the chip's memory system is shared,
    // so quantum-granular interleaving approximates concurrent
    // execution (cache/coherence interactions happen in order). A
    // quantum straddling the warmup boundary is split at the exact
    // boundary so collection starts at record warmupInsts, not at the
    // next quantum edge.
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

    bool done0 = false;
    bool done1 = false;
    uint64_t pos = 0;
    while (!done0 || !done1) {
        uint64_t next = pos + q;
        turn(sim0, cur0, done0, pos, next);
        turn(sim1, cur1, done1, pos, next);
        pos = next;
    }

    DualRunOutput out;
    out.core0 = sim0.takeResult();
    out.core1 = sim1.takeResult();
    return out;
}

} // namespace storemlp
