/**
 * @file
 * Synthetic trace generator. Produces SPARC-TSO flavoured dynamic
 * instruction traces whose statistical structure (instruction mix,
 * miss placement and clustering, spatial locality of store misses,
 * lock idioms, register dependences) is set by a WorkloadProfile.
 */

#ifndef STOREMLP_TRACE_GENERATOR_HH
#define STOREMLP_TRACE_GENERATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/rng.hh"
#include "trace/trace.hh"
#include "trace/workload.hh"

namespace storemlp
{

/** The classic two-thread litmus idioms the harness exercises. */
enum class LitmusIdiom : uint8_t
{
    StoreBuffering, ///< SB / Dekker: St x; Ld y || St y; Ld x
    MessagePassing, ///< MP: St x; St y || Ld y; Ld x
    LoadBuffering,  ///< LB: Ld y; St x || Ld x; St y
};

/**
 * A two-thread litmus program: one record sequence per thread plus
 * the idiom's distinguishing weak outcome. Stores conceptually write
 * the value 1 to locations that start at 0.
 */
struct LitmusProgram
{
    std::string name;
    Trace thread0;
    Trace thread1;
    /**
     * The relaxed (weak) outcome: the observed value of every load,
     * thread 0's loads in program order followed by thread 1's. A
     * model "allows" the idiom iff an execution can produce this
     * observation (see consistency/litmus.hh).
     */
    std::vector<uint8_t> relaxedOutcome;
};

/**
 * Emit the idiom's record sequences. The fenced variants insert the
 * fences that restore ordering under every shipped model:
 * Power-dialect programs use lwsync (store-store) and isync
 * (pipeline drain), SPARC-dialect programs use membar.
 */
LitmusProgram litmusProgram(LitmusIdiom idiom, bool power_dialect,
                            bool fenced);

/**
 * Deterministic trace generator; one instance per simulated core/chip.
 * Distinct `chipId`s place the private store-miss and cold-load
 * regions at disjoint addresses while sharing one global shared store
 * region, which is what drives cross-chip coherence in the SMAC
 * experiments (paper Figure 6).
 */
class SyntheticTraceGenerator
{
  public:
    SyntheticTraceGenerator(const WorkloadProfile &profile, uint64_t seed,
                            uint32_t chip_id = 0);

    /** Generate the next `count` instructions (streamable). */
    Trace generate(uint64_t count);

    /** Append `count` instructions to an existing trace. */
    void generateInto(Trace &trace, uint64_t count);

    /**
     * Append at least `count` instructions to `out`: whole slots, so
     * the last one may run past `count` (a critical section is one
     * slot).
     */
    void generateInto(std::vector<TraceRecord> &out, uint64_t count);

    const WorkloadProfile &profile() const { return _prof; }
    uint32_t chipId() const { return _chipId; }

  private:
    void emitSlot(std::vector<TraceRecord> &out);
    void emitCriticalSection(std::vector<TraceRecord> &out);
    void emitLoad(std::vector<TraceRecord> &out);
    void emitStore(std::vector<TraceRecord> &out,
                   bool force_cold = false);
    void emitBranch(std::vector<TraceRecord> &out);
    void emitAlu(std::vector<TraceRecord> &out);
    void emitMembar(std::vector<TraceRecord> &out);

    uint64_t nextPc();
    uint64_t hotDataAddr();
    uint64_t coldLoadAddr();
    uint64_t coldStoreAddr(bool fresh = false);
    uint8_t freshReg();
    uint8_t pickSrc();
    void notePc(uint64_t bytes = 4);

    WorkloadProfile _prof;
    Pcg32 _rng;
    uint32_t _chipId;

    // address-space bases resolved for this chip/core
    uint64_t _privStoreBase;
    uint64_t _coldLoadBase;
    uint64_t _hotDataBase;
    uint64_t _lockBase;

    // pc state
    uint64_t _hotPcOff = 0;       ///< offset within the current window
    uint64_t _hotWindowBase = 0;  ///< hot-code window base offset
    uint64_t _coldPcCursor = 0;   ///< monotonically fresh cold code
    uint32_t _excursionLeft = 0;  ///< cold-code instructions remaining
    uint64_t _excursionPc = 0;

    // cold load state
    uint64_t _coldLoadCursor = 0;
    uint32_t _loadBurstLeft = 0;

    // cold store state (spatial walker)
    uint32_t _flushLeft = 0;      ///< flush-phase instructions left
    uint32_t _burstLeft = 0;      ///< dense-burst instructions left
    uint32_t _storeBurstLeft = 0;
    uint64_t _storeLineOff = 0;   ///< line offset within current region
    bool _storeLineShared = false;
    uint32_t _granulesLeft = 0;
    uint32_t _granuleIdx = 0;
    uint32_t _runLinesLeft = 0;
    /** Ring of recent private-region run offsets (reuse pool). */
    static constexpr size_t kRunRing = 16384;
    uint64_t _runRing[kRunRing] = {};
    size_t _runRingSize = 0;
    size_t _runRingIdx = 0;

    // register state
    uint8_t _recent[8] = {};      ///< ring of recent producer registers
    uint32_t _recentIdx = 0;
    uint8_t _lastLoadDst = 0;

    // in-CS guard so critical sections never nest
    bool _inCs = false;
};

} // namespace storemlp

#endif // STOREMLP_TRACE_GENERATOR_HH
