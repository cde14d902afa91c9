/**
 * @file
 * Transactional-memory execution of critical sections. The paper
 * (Section 3.3.4) notes that "a related technique, transactional
 * memory [14], achieves similar benefits as SLE but requires software
 * as well as hardware support". Where the paper's SLE evaluation
 * assumes every elision succeeds, this model adds the part SLE
 * glosses over: data conflicts abort the transaction and the critical
 * section re-executes with the lock held (serializing, as in the
 * original code), paying a rollback penalty.
 *
 * Conflicts are modeled statistically: each detected critical section
 * aborts with a configurable probability, decided by a deterministic
 * hash of (acquire index, seed) so runs remain reproducible.
 */

#ifndef STOREMLP_CONSISTENCY_TRANSACTIONAL_HH
#define STOREMLP_CONSISTENCY_TRANSACTIONAL_HH

#include <cstdint>

#include "trace/lock_detector.hh"

namespace storemlp
{

/** Transactional-memory configuration. */
struct TmConfig
{
    bool enabled = false;
    /** Probability a critical section conflicts and aborts. */
    double abortProb = 0.02;
    /** Extra on-chip cycles charged per abort (rollback + retry). */
    double abortPenaltyCycles = 50.0;
    /** Determinism seed for abort decisions. */
    uint64_t seed = 0x5eedULL;
};

/**
 * Per-critical-section transactional decisions. Each lock-idiom
 * record is classified by its lock role and the trace index of its
 * section's acquire (a LockRoleSource chunk carries both). Committing
 * sections behave exactly like SLE (acquire becomes a plain load,
 * release and fences become NOPs); aborting sections fall back to the
 * locked path.
 */
class TransactionalMemory
{
  public:
    /** Elision action for an instruction (mirrors Sle::Action). */
    enum class Action : uint8_t
    {
        Normal,        ///< execute as-is (outside CS, or aborted CS)
        AcquireAsLoad, ///< transactional acquire: plain load
        Nop,           ///< elided release / auxiliary instruction
    };

    explicit TransactionalMemory(const TmConfig &config)
        : _config(config), _enabled(config.enabled)
    {
    }

    /** Classify a record with lock role `role` in the section whose
     *  acquire is at `acquire_idx`. */
    Action classify(LockRole role, uint64_t acquire_idx) const;

    /** True if the record belongs to a lock idiom elided by a
     *  committing transaction (no stats side effects). */
    bool
    peekElided(LockRole role, uint64_t acquire_idx) const
    {
        return classify(role, acquire_idx) != Action::Normal;
    }

    /** True if the record is the acquire of an ABORTED section (the
     *  engine charges the rollback penalty there). */
    bool
    abortsAt(LockRole role, uint64_t acquire_idx) const
    {
        return _enabled && role == LockRole::Acquire &&
            !commits(acquire_idx);
    }

    /** Whether the section acquired at `acquire_idx` commits: a
     *  deterministic hash of (acquire index, seed). */
    bool commits(uint64_t acquire_idx) const;

    /** Rollback penalty in on-chip cycles for an aborted section. */
    double abortPenalty() const { return _config.abortPenaltyCycles; }

    bool enabled() const { return _enabled; }

  private:
    TmConfig _config;
    bool _enabled;
};

} // namespace storemlp

#endif // STOREMLP_CONSISTENCY_TRANSACTIONAL_HH
