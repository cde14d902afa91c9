/**
 * @file
 * Transactional memory implementation.
 */

#include "consistency/transactional.hh"

namespace storemlp
{

namespace
{

/** splitmix64: cheap deterministic hash for abort decisions. */
uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

bool
TransactionalMemory::commits(uint64_t acquire_idx) const
{
    uint64_t h = mix(acquire_idx ^ _config.seed);
    double u = static_cast<double>(h >> 11) *
        (1.0 / 9007199254740992.0); // uniform in [0,1)
    return u >= _config.abortProb;
}

TransactionalMemory::Action
TransactionalMemory::classify(LockRole role, uint64_t acquire_idx) const
{
    if (!_enabled || role == LockRole::None)
        return Action::Normal;
    if (!commits(acquire_idx))
        return Action::Normal; // aborted: locked path
    return role == LockRole::Acquire ? Action::AcquireAsLoad
                                     : Action::Nop;
}

} // namespace storemlp
