/**
 * @file
 * Lock detection tool. The paper's methodology (Section 4.2): to
 * simulate weak consistency with processor-consistency traces, "a lock
 * detection tool was developed to identify all the lock acquisition
 * and lock release instruction sequences in the traces". This is that
 * tool: it pairs `casa` acquires with the subsequent release store to
 * the same address, purely from the instruction stream — the
 * generator's ground-truth flags are used only by tests to validate
 * the detector.
 *
 * Simulation runs it as a chunk stage: LockRoleSource attaches each
 * chunk's roles as lanes, so a run detects locks in the same single
 * forward pass that feeds the engine. The batch LockDetector is the
 * whole-trace reference the stage is tested against.
 */

#ifndef STOREMLP_TRACE_LOCK_DETECTOR_HH
#define STOREMLP_TRACE_LOCK_DETECTOR_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "trace/trace.hh"
#include "trace/trace_source.hh"

namespace storemlp
{

/**
 * Default pairing window: the longest acquire -> release distance, in
 * records, still read as a critical section.
 */
inline constexpr uint64_t kLockWindow = 512;

/** One detected critical section. */
struct LockPair
{
    uint64_t acquireIdx = 0; ///< trace index of the casa
    uint64_t releaseIdx = 0; ///< trace index of the release store
    uint64_t lockAddr = 0;
};

/** Per-instruction lock role, indexable by trace position. */
enum class LockRole : uint8_t
{
    None = 0,
    Acquire,    ///< casa (PC) or lwarx (WC): the acquiring access
    AcquireAux, ///< stwcx / isync completing a WC acquire sequence
    Release,    ///< the releasing store
    ReleaseAux, ///< lwsync fencing a WC release
};

/**
 * Result of a batch detector run over a whole trace. Simulation never
 * reads this: the engine takes its roles from LockRoleSource chunks.
 */
struct LockAnalysis
{
    std::vector<LockPair> pairs; ///< in release order
    std::vector<LockRole> roles; ///< one per trace record

    bool
    isAcquire(uint64_t idx) const
    {
        return idx < roles.size() && roles[idx] == LockRole::Acquire;
    }
    bool
    isRelease(uint64_t idx) const
    {
        return idx < roles.size() && roles[idx] == LockRole::Release;
    }
};

/**
 * Scans a trace for lock idioms. PC (TSO) form: a `casa` to address A
 * acquires; the first subsequent plain store to A within `window`
 * instructions releases. WC (PowerPC) form: `lwarx A; stwcx A; isync`
 * acquires and `lwsync; store A` releases. Unmatched atomics (e.g.
 * lock-free CAS loops) are left unpaired and keep their serializing
 * semantics.
 */
class LockDetector
{
  public:
    explicit LockDetector(uint64_t window = kLockWindow) : _window(window)
    {
    }

    LockAnalysis analyze(const Trace &trace) const;

    uint64_t window() const { return _window; }

  private:
    uint64_t _window;
};

/** A record whose lock role is final, as StreamingLockDetector::pop
 *  hands it back. */
struct FinalizedRecord
{
    TraceRecord rec;
    LockRole role = LockRole::None;
    /**
     * Trace index of the acquire of the critical section this record
     * belongs to; meaningful only when `role` is not None.
     */
    uint64_t acquireIdx = 0;
};

/**
 * Incremental lock detection over a record stream. This is the carry
 * state that lets the detector run as a streaming per-chunk transform:
 * push records in trace order, pop each record back out, with its
 * role and its section's acquire, once neither can change. Resident
 * state is O(window), not O(trace).
 *
 * The lag rules mirror exactly what the batch pass reads:
 *  - record j is processed only once record j+1 has been pushed (the
 *    lwarx idiom looks one record ahead), or at finish();
 *  - after processing j, roles at indices <= j - window are final — a
 *    later release store i > j can only annotate indices >= i - window.
 *
 * `LockDetector::analyze`, `LockRoleSource` and `WcRewriteSource` are
 * all loops over this class, so their results agree by construction.
 */
class StreamingLockDetector
{
  public:
    explicit StreamingLockDetector(uint64_t window = kLockWindow);

    /** Append the next record of the stream. */
    void push(const TraceRecord &r);

    /** Declare end of input: every buffered record becomes final. */
    void finish();

    /** Leading records whose roles are final and ready to pop. */
    uint64_t finalizedCount() const;

    /** Pop the oldest finalized record. */
    FinalizedRecord pop();

    /** Trace index of the next record pop() will return. */
    uint64_t baseIdx() const { return _base; }

  private:
    void processAt(uint64_t j);
    /** Double the ring, keeping [_base, _next) at their indices. */
    void grow();
    FinalizedRecord &slotAt(uint64_t idx) { return _ring[idx & _mask]; }
    const TraceRecord &recAt(uint64_t idx) const
    {
        return _ring[idx & _mask].rec;
    }

    uint64_t _window;
    /** Ring over trace indices [_base, _next), slot = index & _mask. */
    std::vector<FinalizedRecord> _ring;
    uint64_t _mask = 0;
    uint64_t _base = 0;            ///< trace index of the oldest slot
    uint64_t _next = 0;            ///< one past the last pushed index
    uint64_t _processed = 0;       ///< next index to process
    bool _finished = false;
    std::unordered_map<uint64_t, uint64_t> _open; ///< addr -> acquire
};

/**
 * The lock-role stage: serves an inner source's chunks unchanged —
 * records and SoA lanes borrowed, never copied — each decorated with
 * its LockLanes, so SLE and TM read lock roles from the chunk they
 * are simulating instead of a whole-trace roles vector.
 *
 * Detection runs one pairing window (kLockWindow) ahead of the
 * consumer: chunk k is served once every record in it is final, which
 * pulls inner chunks up to a window past its end. Resident state is
 * O(window + chunk). Sequential, like the sources it wraps: a forward
 * walk fetches each inner chunk exactly once; a backward fetch
 * restarts detection and refetches the inner source from chunk 0.
 */
class LockRoleSource : public TraceSource
{
  public:
    /** `inner` is borrowed and must outlive this source. */
    explicit LockRoleSource(TraceSource &inner);

    std::shared_ptr<const TraceChunk> fetch(uint64_t chunk_idx) override;
    std::optional<uint64_t> knownSize() const override
    {
        return _inner.knownSize();
    }

  private:
    void restart();
    /** Fetch the next inner chunk into `_ahead`; false at end. */
    bool pull();
    /** Push the next inner record into the detector; false at end. */
    bool pushOne();
    /** Serve chunk `_nextChunk`, or nullptr at end of stream. */
    std::shared_ptr<const TraceChunk> produceNext();

    TraceSource &_inner;
    StreamingLockDetector _det;
    /** Inner chunks fetched, not yet served; the last is being pushed. */
    std::deque<std::shared_ptr<const TraceChunk>> _ahead;
    uint64_t _pushOff = 0;   ///< next record of _ahead.back() to push
    uint64_t _nextInner = 0; ///< next inner chunk to pull
    bool _innerDone = false; ///< inner stream exhausted
    uint64_t _nextChunk = 0; ///< next chunk to serve
};

/** Critical sections of a stream, as the lock-role stage sees them. */
struct LockSummary
{
    uint64_t sections = 0; ///< detected acquire/release pairs
    uint64_t totalLen = 0; ///< sum of release - acquire distances
};

/**
 * One forward pass of `src` through a LockRoleSource: `fn(record)`
 * visits every record in order, and the detected critical sections
 * are summarized on the way.
 */
template <typename Fn>
LockSummary
scanLocks(TraceSource &src, Fn &&fn)
{
    LockRoleSource roles(src);
    LockSummary out;
    forEachChunk(roles, [&](const TraceChunk &c) {
        TraceChunk::LaneRefs lanes = c.lanes();
        for (uint64_t i = 0; i < c.count; ++i) {
            fn(c.data[i]);
            if (lanes.role[i] == static_cast<uint8_t>(LockRole::Release)) {
                ++out.sections;
                out.totalLen += lanes.acqDist[i];
            }
        }
    });
    return out;
}

} // namespace storemlp

#endif // STOREMLP_TRACE_LOCK_DETECTOR_HH
