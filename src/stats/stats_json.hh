/**
 * @file
 * Versioned JSON run artifacts. One document shape is shared by every
 * tool and bench binary:
 *
 *   {
 *     "schemaVersion": 1,
 *     "meta":  { "tool": "storemlp_sim", "workload": "database", ... },
 *     "stats": {
 *       "core.instructions": 1000000,
 *       "core.mlpHist": { "maxBucket": 10, "buckets": [...],
 *                         "overflow": 0, "total": 42, "sum": 97.0 },
 *       "core.storeVsOtherMlp": { "maxX": 10, "maxY": 5,
 *                                 "cells": [[...], ...], "total": 42 },
 *       ...
 *     }
 *   }
 *
 * Key order is stable (registry insertion order; meta before stats),
 * numbers round-trip exactly (integers as decimal digits, doubles via
 * shortest-exact formatting), and `statsFromJson` rejects any
 * schemaVersion it does not understand. TextTable documents (the
 * bench binaries' output) use the same envelope with a "table" member
 * instead of "stats". See docs/EXPERIMENTS_GUIDE.md, "Run artifacts
 * & schema".
 */

#ifndef STOREMLP_STATS_STATS_JSON_HH
#define STOREMLP_STATS_STATS_JSON_HH

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "stats/registry.hh"

namespace storemlp
{

class TextTable;

/**
 * Version of the run-artifact schema emitted by this build. Version 2
 * adds two optional envelope blocks alongside `meta` so a result
 * streamed from a remote sweep daemon is self-describing:
 *
 *   "source": { "host": ..., "tool": ..., "request": <fingerprint> }
 *   "run":    { "name": ..., "workload": ..., "config": ...,
 *               "model": ..., axis values and per-run provenance }
 *
 * Readers accept versions 1..2 and reject anything else.
 */
constexpr int kStatsSchemaVersion = 2;
/** Oldest schema version this build still reads. */
constexpr int kStatsSchemaVersionMin = 1;

/** Raised on malformed JSON or schema-version mismatch. */
class StatsJsonError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Ordered (key, value) metadata attached to a document. */
using StatsMeta = std::vector<std::pair<std::string, std::string>>;

/**
 * Full schemaVersion-2 envelope: free-form `meta` (as in v1) plus the
 * optional `source` (who produced this document) and `run` (which
 * experimental point it is) identity blocks. Blocks left empty are
 * omitted from the document.
 */
struct StatsEnvelope
{
    // Constructors (rather than aggregate init) keep a braced meta
    // list like {{"tool", "x"}} unambiguously a StatsMeta at the
    // writeStatsJson overloads.
    StatsEnvelope() = default;
    StatsEnvelope(StatsMeta m, StatsMeta s, StatsMeta r)
        : meta(std::move(m)), source(std::move(s)), run(std::move(r))
    {
    }

    StatsMeta meta;
    StatsMeta source;
    StatsMeta run;
};

// ---------------------------------------------------------------------
// Generic JSON tree (parser side)
// ---------------------------------------------------------------------

/**
 * A parsed JSON value. Numbers keep their raw token so 64-bit
 * integers survive without a round-trip through double.
 */
class JsonValue
{
  public:
    enum class Type : uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    /** Parse a complete document; throws StatsJsonError. */
    static JsonValue parse(std::string_view text);

    Type type() const { return _type; }
    bool isNumber() const { return _type == Type::Number; }
    /** Number token with no '.', 'e' or leading '-'. */
    bool isUnsignedIntegral() const;

    bool boolean() const;
    uint64_t asU64() const;
    double asDouble() const;
    const std::string &asString() const;
    /** Raw token of a number (diagnostics). */
    const std::string &numberToken() const;

    // ---- object access ----
    const std::vector<std::pair<std::string, JsonValue>> &members() const;
    /** nullptr when absent (objects only). */
    const JsonValue *find(const std::string &key) const;
    /** Throws StatsJsonError naming the key when absent. */
    const JsonValue &at(const std::string &key) const;

    // ---- array access ----
    const std::vector<JsonValue> &items() const;
    size_t size() const { return items().size(); }
    const JsonValue &operator[](size_t i) const { return items().at(i); }

  private:
    friend class JsonParser;

    Type _type = Type::Null;
    bool _bool = false;
    std::string _scalar; ///< raw number token, or string contents
    std::vector<JsonValue> _items;
    std::vector<std::pair<std::string, JsonValue>> _members;
};

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/** Escape a string for embedding in a JSON document (no quotes). */
std::string jsonEscape(std::string_view s);

/**
 * Format a double so that strtod() recovers the exact same bits
 * (formatDoubleExact); non-finite values, which JSON lacks, print "0".
 */
std::string jsonDouble(double v);

/**
 * Minimal streaming JSON writer with caller-controlled (therefore
 * stable) key order. `pretty` indents with two spaces; compact mode
 * emits a single line (used for JSON-lines artifacts).
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os, bool pretty = false);

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();
    JsonWriter &key(std::string_view k);
    JsonWriter &value(uint64_t v);
    JsonWriter &value(int v);
    JsonWriter &value(double v);
    JsonWriter &value(std::string_view v);
    JsonWriter &value(bool v);

  private:
    void separate();
    void indent();
    void raw(std::string_view s);

    std::ostream &_os;
    bool _pretty;
    struct Level
    {
        bool array = false;
        bool first = true;
    };
    std::vector<Level> _stack;
    bool _pendingKey = false;
};

// ---------------------------------------------------------------------
// Registry documents
// ---------------------------------------------------------------------

/** Emit a full stats document (schemaVersion + meta + stats). */
void writeStatsJson(std::ostream &os, const StatsRegistry &reg,
                    const StatsMeta &meta = {}, bool pretty = true);
std::string statsToJson(const StatsRegistry &reg,
                        const StatsMeta &meta = {}, bool pretty = true);

/** Emit a document with the full v2 envelope (source + run blocks). */
void writeStatsJson(std::ostream &os, const StatsRegistry &reg,
                    const StatsEnvelope &env, bool pretty = true);
std::string statsToJson(const StatsRegistry &reg,
                        const StatsEnvelope &env, bool pretty = true);

/**
 * Parse a stats document back into a registry. Throws StatsJsonError
 * on malformed input or when schemaVersion lies outside
 * [kStatsSchemaVersionMin, kStatsSchemaVersion]. When `meta` is
 * non-null the document's meta entries are appended to it.
 */
StatsRegistry statsFromJson(std::string_view text,
                            StatsMeta *meta = nullptr);

/**
 * Envelope-aware parse: fills `env` with the document's meta, source
 * and run blocks (empty when absent) and reports the document's
 * schema version through `version` when non-null.
 */
StatsRegistry statsFromJson(std::string_view text, StatsEnvelope *env,
                            int *version);

/**
 * CSV rendition of a registry: a header line of entry names and one
 * line of values. Histogram entries expand into one column per
 * bucket plus `.overflow`, `.total` and `.sum`; joint histograms
 * expand row-major into `.x<X>y<Y>` cells plus `.total`; text
 * entries are quoted if they contain a comma. Meta pairs prefix the
 * row as ordinary columns.
 */
void writeStatsCsv(std::ostream &os, const StatsRegistry &reg,
                   const StatsMeta &meta = {});
std::string statsToCsv(const StatsRegistry &reg,
                       const StatsMeta &meta = {});

// ---------------------------------------------------------------------
// Table documents (bench binaries)
// ---------------------------------------------------------------------

/** Emit a TextTable as a versioned JSON document (cells as strings). */
void writeTableJson(std::ostream &os, const TextTable &table,
                    const StatsMeta &meta = {}, bool pretty = false);

} // namespace storemlp

#endif // STOREMLP_STATS_STATS_JSON_HH
