/**
 * @file
 * Stable digests of simulation results for golden comparisons: a
 * result's full stats registry (machine counters included) is rendered
 * to the schemaVersion-1 JSON text, whose number formatting
 * round-trips exactly, and hashed with FNV-1a.
 */

#ifndef STOREMLP_TESTS_STATS_HASH_HH
#define STOREMLP_TESTS_STATS_HASH_HH

#include <cstdint>
#include <cstdio>
#include <string>

#include "core/runner.hh"
#include "stats/stats_json.hh"

namespace storemlp::test
{

inline uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

/**
 * Hash a registry as its serialized document, with the envelope's
 * schemaVersion pinned to 1: the goldens were recorded before the v2
 * envelope existed, and the version token is presentation, not
 * simulation — pinning it keeps the pre-optimization anchors valid
 * across schema bumps.
 */
inline std::string
hashRegistry(const StatsRegistry &reg)
{
    std::string doc = statsToJson(reg, StatsMeta{}, false);
    const std::string tag =
        "\"schemaVersion\":" + std::to_string(kStatsSchemaVersion);
    size_t pos = doc.find(tag);
    if (pos != std::string::npos)
        doc.replace(pos, tag.size(), "\"schemaVersion\":1");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1a(doc)));
    return buf;
}

inline std::string
hashRunOutput(const RunOutput &out)
{
    StatsRegistry reg;
    out.exportStats(reg);
    return hashRegistry(reg);
}

inline std::string
hashSimResult(const SimResult &res)
{
    StatsRegistry reg;
    res.exportStats(reg);
    return hashRegistry(reg);
}

} // namespace storemlp::test

#endif // STOREMLP_TESTS_STATS_HASH_HH
