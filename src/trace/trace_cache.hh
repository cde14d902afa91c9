/**
 * @file
 * Keyed, thread-safe cache of immutable trace data. A paper figure
 * runs 6-8 configurations against the *same* workload trace (same
 * profile, seed, length, and memory-model rewrite); regenerating it
 * per run is the dominant redundant work in a sweep. The cache builds
 * each distinct entry exactly once — concurrent requesters for the
 * same key block on the first builder — and hands out shared immutable
 * references, so worker threads never copy or mutate trace data.
 *
 * An entry is a whole trace together with its SoA lanes: the fill
 * derives `Trace::lanes()` before it publishes the entry, so workers
 * never race to derive them, and the byte budget counts both.
 */

#ifndef STOREMLP_TRACE_TRACE_CACHE_HH
#define STOREMLP_TRACE_TRACE_CACHE_HH

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "trace/trace.hh"

namespace storemlp
{

/** Aggregate cache statistics (monotonic; see resetStats()). */
struct TraceCacheStats
{
    uint64_t hits = 0;       ///< lookups served from an existing entry
    uint64_t misses = 0;     ///< lookups that triggered a build
    uint64_t evictions = 0;  ///< entries dropped by the byte budget
    uint64_t bytes = 0;      ///< resident records + lanes + keys
};

/**
 * Shared trace store. Keys are opaque strings; callers compose them
 * from everything that determines the trace bytes (workload profile
 * fingerprint, seed, length, PC->WC rewrite, chip id) — see
 * `Runner::traceCacheKey`. Entries are evicted LRU once the byte
 * budget (`STOREMLP_TRACE_CACHE_MB`, default 2048) is exceeded;
 * outstanding shared_ptrs keep evicted traces alive until released.
 */
class TraceCache
{
  public:
    using Builder = std::function<Trace()>;

    /** Bytes one cached record costs: the record plus its lanes. */
    static constexpr uint64_t kEntryBytesPerRecord = sizeof(TraceRecord) +
        sizeof(decltype(TraceLanes::pc)::value_type) +
        sizeof(decltype(TraceLanes::addr)::value_type) +
        sizeof(decltype(TraceLanes::cls)::value_type) +
        sizeof(decltype(TraceLanes::meta)::value_type);

    explicit TraceCache(uint64_t max_bytes = defaultMaxBytes());

    /**
     * Return the trace for `key`, building it via `build` on the
     * first request. Concurrent callers with the same key wait for
     * the in-flight build instead of duplicating it. If `was_hit` is
     * non-null it reports whether this call found an existing entry.
     * The returned trace's lanes are already derived.
     */
    std::shared_ptr<const Trace> getOrBuild(const std::string &key,
                                            const Builder &build,
                                            bool *was_hit = nullptr);

    /** Drop every completed entry (in-flight builds finish normally). */
    void clear();

    TraceCacheStats stats() const;
    void resetStats();

    /** Byte budget from STOREMLP_TRACE_CACHE_MB (default 2 GiB). */
    static uint64_t defaultMaxBytes();

    /** Process-wide cache shared by benches, tools and tests. */
    static TraceCache &global();

  private:
    struct Entry
    {
        std::shared_future<std::shared_ptr<const Trace>> future;
        uint64_t bytes = 0;                ///< 0 until the build lands
        std::list<std::string>::iterator lruIt;
    };

    void touchLocked(Entry &entry, const std::string &key);
    void evictLocked();

    mutable std::mutex _mu;
    std::unordered_map<std::string, Entry> _entries;
    std::list<std::string> _lru; ///< front = most recently used
    uint64_t _maxBytes;
    TraceCacheStats _stats;
};

} // namespace storemlp

#endif // STOREMLP_TRACE_TRACE_CACHE_HH
