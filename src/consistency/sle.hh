/**
 * @file
 * Speculative Lock Elision (Rajwar & Goodman, MICRO'01) applied to
 * store performance, as proposed in Section 3.3.4 of the paper: the
 * lock acquire is converted into a regular (non-serializing) load and
 * the lock release into a NOP. Following the paper's evaluation, all
 * elisions are assumed successful; the data-conflict abort path is
 * modeled only as statistics hooks.
 */

#ifndef STOREMLP_CONSISTENCY_SLE_HH
#define STOREMLP_CONSISTENCY_SLE_HH

#include <cstdint>

#include "trace/lock_detector.hh"

namespace storemlp
{

/**
 * Per-instruction elision decisions driven by the lock role of each
 * record (PC or WC form), as a LockRoleSource chunk carries it.
 */
class Sle
{
  public:
    /** What the pipeline should do with an instruction under SLE. */
    enum class Action : uint8_t
    {
        Normal,        ///< execute as-is
        AcquireAsLoad, ///< serializing acquire becomes a plain load
        Nop,           ///< elided (release store, acquire aux, fences)
    };

    /** @param enabled disabled SLE classifies everything Normal */
    explicit Sle(bool enabled) : _enabled(enabled) {}

    /** Classify an instruction by its lock role. */
    Action
    classify(LockRole role)
    {
        if (!_enabled)
            return Action::Normal;
        switch (role) {
          case LockRole::Acquire:
            ++_elidedAcquires;
            return Action::AcquireAsLoad;
          case LockRole::AcquireAux:
          case LockRole::ReleaseAux:
            return Action::Nop;
          case LockRole::Release:
            ++_elidedReleases;
            return Action::Nop;
          default:
            return Action::Normal;
        }
    }

    /**
     * Whether an instruction with this role is elided or transformed
     * by SLE (no stats side effects; usable for pre-dispatch checks).
     */
    bool
    peekElided(LockRole role) const
    {
        return _enabled && role != LockRole::None;
    }

    bool enabled() const { return _enabled; }
    uint64_t elidedAcquires() const { return _elidedAcquires; }
    uint64_t elidedReleases() const { return _elidedReleases; }
    void resetStats() { _elidedAcquires = _elidedReleases = 0; }

  private:
    bool _enabled;
    uint64_t _elidedAcquires = 0;
    uint64_t _elidedReleases = 0;
};

} // namespace storemlp

#endif // STOREMLP_CONSISTENCY_SLE_HH
