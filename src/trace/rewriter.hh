/**
 * @file
 * PC -> WC trace rewriter. Implements the paper's methodology: "These
 * instruction sequences [lock acquire/release] were then replaced with
 * the appropriate instruction sequences and barriers" (Section 4.2).
 *
 * Rewrites, per Example 6 of the paper:
 *   casa (acquire)   ->  lwarx ; stwcx ; isync
 *   store (release)  ->  lwsync ; store
 * Everything else is copied through unchanged (standalone membars keep
 * full-fence semantics under both models). The streaming rewrite also
 * labels what it wrote: its chunks carry the WC lock roles, so a WC
 * run needs no second detector pass.
 */

#ifndef STOREMLP_TRACE_REWRITER_HH
#define STOREMLP_TRACE_REWRITER_HH

#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "trace/lock_detector.hh"
#include "trace/trace.hh"
#include "trace/trace_source.hh"

namespace storemlp
{

/**
 * Append the WC rendition of one record given its lock role: Acquire
 * expands to lwarx;stwcx;isync, Release to lwsync;store, everything
 * else copies through. Returns the number of records appended. Both
 * the batch rewriter and the streaming WcRewriteSource funnel every
 * record through this helper, so their outputs are identical by
 * construction.
 */
uint64_t appendWcExpansion(const TraceRecord &r, LockRole role,
                           std::vector<TraceRecord> &out);

/**
 * Produces the weak-consistency rendition of a processor-consistency
 * trace given a lock analysis.
 */
class TraceRewriter
{
  public:
    /** Rewrite using a precomputed analysis. */
    Trace toWeakConsistency(const Trace &trace,
                            const LockAnalysis &locks) const;

    /** Convenience: detect locks, then rewrite. */
    Trace toWeakConsistency(const Trace &trace) const;
};

/**
 * Streaming PC -> WC rewrite of an inner source, fused with the WC
 * side's lock detection. One sparse StreamingLockDetector pass over
 * the PC records places the expansions: the runs between annotated
 * records are copied into the output chunks in bulk, and
 * appendWcExpansion runs only at the acquires and releases. Emits
 * exactly the record stream of `TraceRewriter::toWeakConsistency
 * (materialize(inner))`.
 *
 * Each chunk carries the LockLanes of its WC records, exactly those
 * `LockDetector().analyze` finds on the rewritten stream: a section
 * the PC pass pairs is `lwarx`=Acquire, `stwcx`/`isync`=AcquireAux,
 * `lwsync`=ReleaseAux, store=Release, with `acqDist` in WC indices,
 * unless its WC span exceeds kLockWindow (the expansions make it 3+
 * records longer than the PC one), where the WC pass rejects it too.
 * So a LockRoleSource over this source passes its chunks through. A
 * chunk is served once its roles are final, a window of WC records
 * later: resident state is O(window + chunk). Sequential; backward
 * fetches restart both the detector and the inner source.
 */
class WcRewriteSource : public TraceSource
{
  public:
    explicit WcRewriteSource(std::unique_ptr<TraceSource> inner);

    std::shared_ptr<const TraceChunk> fetch(uint64_t chunk_idx) override;
    std::optional<uint64_t> knownSize() const override;
    std::string fingerprint() const override;

  private:
    void restart();
    /** Pull, scan and rewrite the next inner chunk; false at end. */
    bool advance();
    /** Rewrite the PC records whose roles are final. */
    void emitFinal();
    /** Copy PC records [_pcEmit, end) to the output unchanged. */
    void copyRun(uint64_t end);
    /** Append `n` WC records to the output chunks. */
    void append(const TraceRecord *recs, uint64_t n);
    /** True once chunk `_nextChunk` is complete and its roles final. */
    bool frontReady() const;
    std::shared_ptr<const TraceChunk> produceNext();

    std::unique_ptr<TraceSource> _inner;
    StreamingLockDetector _det;
    /** Inner chunks from the one holding _pcEmit to the scan front. */
    std::deque<std::shared_ptr<const TraceChunk>> _in;
    uint64_t _nextInner = 0;
    uint64_t _pcEmit = 0;  ///< next PC record to rewrite
    bool _drained = false; ///< inner stream rewritten to its end

    /** Acquires rewritten, releases not yet: (PC, WC) index. */
    std::vector<std::pair<uint64_t, uint64_t>> _acquires;
    /** WC roles of records not yet served. */
    std::vector<LockAnnotation> _wcNotes;
    std::vector<TraceRecord> _expansion; ///< one record's rendition

    /** Output chunks not yet served; the last one is being filled. */
    std::deque<std::vector<TraceRecord>> _out;
    uint64_t _outFirst = 0; ///< WC index of _out.front()[0]
    uint64_t _wcNext = 0;   ///< WC records written
    uint64_t _nextChunk = 0;
};

} // namespace storemlp

#endif // STOREMLP_TRACE_REWRITER_HH
