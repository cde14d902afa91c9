/**
 * @file
 * Litmus interpreter implementation: derive per-thread ordering
 * constraints from a ModelDescriptor, enumerate linear extensions and
 * interleavings, execute against a shared memory, collect outcomes.
 */

#include "consistency/litmus.hh"

#include <algorithm>
#include <cstddef>
#include <map>
#include <utility>

namespace storemlp
{

namespace
{

/** One memory operation of a litmus thread. */
struct Op
{
    bool isStore = false;
    uint64_t addr = 0;
    size_t loadSlot = 0;  ///< outcome index (loads only)
    size_t recordIdx = 0; ///< position in the thread's record list
};

struct ThreadOps
{
    std::vector<Op> ops;
    /** (record index, effect) of every serializing record. */
    std::vector<std::pair<size_t, SerializeEffect>> fences;
};

ThreadOps
extract(const Trace &t, const ModelDescriptor &m, size_t &load_slot)
{
    ThreadOps out;
    for (size_t i = 0; i < t.size(); ++i) {
        const TraceRecord &r = t[i];
        if (isMemClass(r.cls)) {
            Op op;
            op.isStore = isStoreClass(r.cls);
            op.addr = r.addr;
            op.recordIdx = i;
            if (!op.isStore)
                op.loadSlot = load_slot++;
            out.ops.push_back(op);
        } else if (m.effectOf(r.cls).any()) {
            out.fences.emplace_back(i, m.effectOf(r.cls));
        }
    }
    return out;
}

/** Must `a` stay before `b` (program order a < b) under the model? */
bool
pairOrdered(const ModelDescriptor &m, const ThreadOps &t, const Op &a,
            const Op &b)
{
    if (a.addr == b.addr)
        return true; // same-address program order always holds
    for (const auto &[idx, eff] : t.fences) {
        if (idx < a.recordIdx || idx > b.recordIdx)
            continue;
        // A draining fence orders everything across it; a pure store
        // fence orders only store->store.
        if (eff.pipelineDrain || eff.storeDrain)
            return true;
        if (eff.storeFence && a.isStore && b.isStore)
            return true;
    }
    if (a.isStore && b.isStore)
        return m.inOrderCommit();
    if (!a.isStore && !b.isStore)
        return m.loadLoadOrdered;
    if (!a.isStore) // load -> store
        return m.loadStoreOrdered;
    return m.storeLoadOrdered; // store -> load
}

/** Every permutation of the thread's ops respecting the model's
 *  per-thread partial order. */
std::vector<std::vector<Op>>
linearExtensions(const ModelDescriptor &m, const ThreadOps &t)
{
    std::vector<size_t> idx(t.ops.size());
    for (size_t i = 0; i < idx.size(); ++i)
        idx[i] = i;

    std::vector<std::vector<Op>> out;
    do {
        bool ok = true;
        for (size_t i = 0; ok && i < idx.size(); ++i) {
            for (size_t j = i + 1; ok && j < idx.size(); ++j) {
                // idx[i] executes before idx[j]; illegal if program
                // order requires the opposite.
                if (idx[j] < idx[i] &&
                    pairOrdered(m, t, t.ops[idx[j]], t.ops[idx[i]]))
                    ok = false;
            }
        }
        if (ok) {
            std::vector<Op> seq;
            for (size_t i : idx)
                seq.push_back(t.ops[i]);
            out.push_back(std::move(seq));
        }
    } while (std::next_permutation(idx.begin(), idx.end()));
    return out;
}

void
interleave(const std::vector<Op> &s0, const std::vector<Op> &s1,
           size_t i0, size_t i1, std::map<uint64_t, uint8_t> mem,
           LitmusOutcome obs, std::set<LitmusOutcome> &out)
{
    if (i0 == s0.size() && i1 == s1.size()) {
        out.insert(std::move(obs));
        return;
    }
    auto step = [&](const Op &op, size_t n0, size_t n1) {
        std::map<uint64_t, uint8_t> m2 = mem;
        LitmusOutcome o2 = obs;
        if (op.isStore)
            m2[op.addr] = 1;
        else
            o2.values[op.loadSlot] = m2.count(op.addr) ? m2[op.addr] : 0;
        interleave(s0, s1, n0, n1, std::move(m2), std::move(o2), out);
    };
    if (i0 < s0.size())
        step(s0[i0], i0 + 1, i1);
    if (i1 < s1.size())
        step(s1[i1], i0, i1 + 1);
}

} // namespace

std::set<LitmusOutcome>
litmusOutcomes(const LitmusProgram &prog, const ModelDescriptor &model)
{
    size_t load_slot = 0;
    ThreadOps t0 = extract(prog.thread0, model, load_slot);
    ThreadOps t1 = extract(prog.thread1, model, load_slot);

    std::set<LitmusOutcome> out;
    for (const auto &s0 : linearExtensions(model, t0)) {
        for (const auto &s1 : linearExtensions(model, t1)) {
            interleave(s0, s1, 0, 0, {},
                       std::vector<uint8_t>(load_slot, 0), out);
        }
    }
    return out;
}

bool
litmusAllowsRelaxed(const LitmusProgram &prog,
                    const ModelDescriptor &model)
{
    return litmusOutcomes(prog, model).count(prog.relaxedOutcome) != 0;
}

} // namespace storemlp
