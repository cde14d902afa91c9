/**
 * @file
 * Architectural litmus-test interpreter.
 *
 * Executes a two-thread LitmusProgram under a ModelDescriptor's
 * *architectural* ordering rules and collects the set of reachable
 * load observations. This is deliberately not the timing engine: the
 * epoch model simulates one instruction stream against a memory
 * hierarchy, while litmus semantics are about which cross-thread
 * orders a model admits. The interpreter derives a per-thread partial
 * order from the descriptor (same-address pairs are always ordered;
 * the fence table orders across fences; independent pairs follow the
 * load/store ordering axes plus the store-commit order) and
 * enumerates every linear extension and interleaving.
 */

#ifndef STOREMLP_CONSISTENCY_LITMUS_HH
#define STOREMLP_CONSISTENCY_LITMUS_HH

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <set>
#include <utility>
#include <vector>

#include "consistency/memory_model.hh"
#include "trace/generator.hh"

namespace storemlp
{

/**
 * One observed execution: every load's value, thread 0's loads in
 * program order followed by thread 1's. Outcomes order value by
 * value, shorter first on a tie, so they key a std::set.
 */
struct LitmusOutcome
{
    LitmusOutcome(std::vector<uint8_t> v = {}) : values(std::move(v)) {}
    LitmusOutcome(std::initializer_list<uint8_t> v) : values(v) {}

    friend bool
    operator<(const LitmusOutcome &a, const LitmusOutcome &b)
    {
        // An element loop rather than std::vector's operator<=>, which
        // lowers to a memcmp whose bound GCC cannot prove after LTO.
        size_t n = std::min(a.values.size(), b.values.size());
        for (size_t i = 0; i < n; ++i) {
            if (a.values[i] != b.values[i])
                return a.values[i] < b.values[i];
        }
        return a.values.size() < b.values.size();
    }

    std::vector<uint8_t> values;
};

/** All load observations reachable under the model. */
std::set<LitmusOutcome> litmusOutcomes(const LitmusProgram &prog,
                                       const ModelDescriptor &model);

/** True iff the model admits the program's relaxed outcome. */
bool litmusAllowsRelaxed(const LitmusProgram &prog,
                         const ModelDescriptor &model);

} // namespace storemlp

#endif // STOREMLP_CONSISTENCY_LITMUS_HH
