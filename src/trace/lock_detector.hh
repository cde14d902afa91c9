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
 * Detection is one sparse scan (StreamingLockDetector): only `casa`,
 * `lwarx` and store records are acted on. Simulation runs it as a
 * chunk stage: LockRoleSource attaches each chunk's roles as lanes, so
 * a run detects locks in the same single forward pass that feeds the
 * engine. A WC run detects once, on the PC stream: WcRewriteSource
 * (rewriter.hh) serves its chunks with their WC roles already, and
 * LockRoleSource passes them through. The batch LockDetector is the
 * whole-trace reference both are tested against.
 */

#ifndef STOREMLP_TRACE_LOCK_DETECTOR_HH
#define STOREMLP_TRACE_LOCK_DETECTOR_HH

#include <cstdint>
#include <deque>
#include <memory>
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
 * reads this: the engine takes its roles from its chunks' lock lanes.
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

/**
 * One role the detector assigned: record `idx` plays `role` in the
 * critical section whose acquire is record `acquireIdx`.
 */
struct LockAnnotation
{
    uint64_t idx = 0;
    uint64_t acquireIdx = 0;
    LockRole role = LockRole::None;
};

/**
 * Incremental, sparse lock detection over a record stream: scan spans
 * of records in trace order, then pop the annotations of records whose
 * roles can no longer change. Only `casa`, `lwarx` and store records
 * are acted on; every other record is a class test in the scan loop.
 * The carried state is the open-lock table, the last record's class
 * (the `lwsync` before a release), the class two records after an
 * open `lwarx` (its `isync`), and the annotations not yet popped, so
 * resident state is O(locks in one window), not O(window) records.
 *
 * The lag rules mirror exactly what the batch pass reads:
 *  - record j counts as processed only once record j+1 has been
 *    scanned (the lwarx idiom looks one record ahead), or at finish();
 *  - after processing j, roles at indices <= j - window are final — a
 *    later release store i > j can only annotate indices >= i - window.
 *
 * `LockDetector::analyze`, `LockRoleSource` and `WcRewriteSource` are
 * all loops over this class, so their results agree by construction.
 */
class StreamingLockDetector
{
  public:
    explicit StreamingLockDetector(uint64_t window = kLockWindow)
        : _window(window)
    {
    }

    /** Scan the next `n` records of the stream. */
    void scan(const TraceRecord *recs, uint64_t n);

    /** Declare end of input: every scanned record becomes final. */
    void finish();

    /** Records [0, finalUpTo()) have final roles. */
    uint64_t finalUpTo() const;

    /**
     * The pending annotation with the lowest index, or null. It is
     * final only while its `idx` is below finalUpTo().
     */
    const LockAnnotation *
    peek() const
    {
        return _notes.empty() ? nullptr : &_notes.front();
    }

    /** Drop the annotation peek() returned. */
    void pop() { _notes.pop_front(); }

  private:
    /** An acquire still waiting for its release store. */
    struct OpenLock
    {
        uint64_t addr;
        uint64_t acq;
        bool lwarx;     ///< WC idiom: acq+1 is its stwcx
        bool isyncAt2;  ///< acq+2 is an isync
    };

    void open(uint64_t addr, uint64_t acq, bool lwarx);
    /** Record the class at acq+2 on the lwarx acquire `acq`. */
    void setIsyncAt2(uint64_t acq, InstClass cls);
    void release(uint64_t j, uint64_t addr, InstClass prev_cls);
    /** Set the role and acquire of record `idx`, in index order. */
    void annotate(uint64_t idx, LockRole role, uint64_t acq);
    /** The pending annotation of record `idx`, or null. */
    LockAnnotation *noteAt(uint64_t idx);

    uint64_t _window;
    uint64_t _next = 0; ///< records scanned
    bool _finished = false;
    InstClass _lastCls = InstClass::NumClasses; ///< class of _next - 1
    /** An lwarx ended the last span: its stwcx test waits for the
     *  next record. */
    bool _lwarxPending = false;
    uint64_t _lwarxAddr = 0;
    /** The lwarx opened at _isyncFor waits for record _isyncFor+2. */
    bool _isyncPending = false;
    uint64_t _isyncFor = 0;
    /**
     * Open acquires, one per address. Entries more than a window old
     * can only ever be rejected, so every store drops them: the table
     * holds the locks taken since one window before the last store.
     */
    std::vector<OpenLock> _open;
    /** Annotations not yet popped, sorted by index. */
    std::deque<LockAnnotation> _notes;
};

/**
 * The lock-role stage: serves an inner source's chunks unchanged —
 * records and SoA lanes borrowed, never copied — each decorated with
 * its LockLanes, so SLE and TM read lock roles from the chunk they
 * are simulating instead of a whole-trace roles vector. A chunk that
 * already carries lock lanes (WcRewriteSource serves its WC records
 * with theirs) is passed through as-is, so a WC run detects once; a
 * stream carries lock lanes on every chunk or on none.
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
    /** Serve chunk `_nextChunk`, or nullptr at end of stream. */
    std::shared_ptr<const TraceChunk> produceNext();

    TraceSource &_inner;
    StreamingLockDetector _det;
    /** Inner chunks fetched, not yet served; all of them scanned. */
    std::deque<std::shared_ptr<const TraceChunk>> _ahead;
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
