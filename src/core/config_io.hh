/**
 * @file
 * Plain-text (key = value) serialization for SimConfig and
 * WorkloadProfile (and, through sweep_request.cc, SweepRequest), so
 * experiments can be captured in version-controlled files and replayed
 * exactly:
 *
 *   # oltp-aggressive.cfg
 *   storePrefetch = sp2
 *   model = wc
 *   sle = true
 *   storeQueueSize = 64
 *
 * Each type has one field table: a row per key naming the member and
 * the codec of its type. The table drives load, save (in table order)
 * and unknown-key errors. One tokenizer, nextConfigLine, reads every
 * text: it trims, skips '#' comments and blank lines, splits
 * `key = value` and numbers its errors by line.
 *
 * Values: integers are unsigned decimal and range-checked against
 * their field (a u32 key rejects 4294967296); doubles are finite
 * decimal numbers, written with the fewest digits (15 to 17) that read
 * back to the same bits, so load(save(x)) == x exactly; booleans are
 * true|false|1|0|on|off|yes|no; enums take the tokens of their
 * `{token, value}` table. Unknown keys are errors (catching typos
 * beats silently ignoring a misspelled knob).
 */

#ifndef STOREMLP_CORE_CONFIG_IO_HH
#define STOREMLP_CORE_CONFIG_IO_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <ostream>
#include <string>
#include <vector>

#include "core/sim_config.hh"
#include "trace/workload.hh"
#include "util/error.hh"

namespace storemlp
{

/**
 * Thrown on malformed or unknown configuration input. Historical name
 * for the shared ConfigError (util/error.hh), kept so existing catch
 * sites keep working.
 */
using ConfigParseError = ConfigError;

/** Parse a SimConfig from key=value text. Starts from defaults. */
SimConfig loadSimConfig(std::istream &is);
SimConfig loadSimConfigFile(const std::string &path);

/** Serialize every SimConfig knob as key=value text. */
void saveSimConfig(std::ostream &os, const SimConfig &config);

/** Parse a WorkloadProfile from key=value text.
 *  A `base = database|tpcw|specjbb|specweb|tiny` line (first) selects
 *  the starting profile; later keys override individual knobs. */
WorkloadProfile loadWorkloadProfile(std::istream &is);
WorkloadProfile loadWorkloadProfileFile(const std::string &path);

/** Serialize every WorkloadProfile knob as key=value text. */
void saveWorkloadProfile(std::ostream &os, const WorkloadProfile &p);

/**
 * Resolve a workload name (the profile `base` key, request workloads
 * and the tools' --workload): the four commercial profiles plus
 * "tiny" (the test profile). Throws ConfigError on anything else.
 */
WorkloadProfile workloadProfileForName(const std::string &name);

// ---------------------------------------------------------------------
// Field tables (shared with the SweepRequest codec)
// ---------------------------------------------------------------------

/** One significant line of key = value text. */
struct ConfigLine
{
    unsigned lineno = 0; ///< 1-based number of the line last read
    std::string key;     ///< trimmed key, or the whole `[...]` line
    std::string value;   ///< trimmed value; empty for a section
    bool section = false; ///< the line starts with '['

    /** "line N: " prefix for error messages. */
    std::string where() const;
};

/**
 * Read the next significant line into `line`, skipping blank and '#'
 * lines. A line starting with '[' is a section; any other must be
 * `key = value` with a non-empty key, else ConfigError names the
 * line. Returns false at end of input.
 */
bool nextConfigLine(std::istream &is, ConfigLine &line);

/** Value codecs: parse into a member (ConfigError on bad text)... */
void decodeValue(const std::string &text, std::string &out);
void decodeValue(const std::string &text, bool &out);
void decodeValue(const std::string &text, uint32_t &out);
void decodeValue(const std::string &text, uint64_t &out);
void decodeValue(const std::string &text, double &out);
void decodeValue(const std::string &text, ModelDescriptor &out);
void decodeValue(const std::string &text, StorePrefetch &out);
void decodeValue(const std::string &text, ScoutMode &out);
/** ...and write it back as the text decodeValue reads. */
std::string encodeValue(const std::string &v);
std::string encodeValue(bool v);
std::string encodeValue(uint32_t v);
std::string encodeValue(uint64_t v);
std::string encodeValue(double v);
std::string encodeValue(const ModelDescriptor &v);
std::string encodeValue(StorePrefetch v);
std::string encodeValue(ScoutMode v);

/** One row of a field table: a key and how to load and save it. */
template <class T>
struct Field
{
    const char *key;
    std::function<void(T &, const std::string &)> load;
    /** Text to save; empty for a load-only alias. */
    std::function<std::string(const T &)> save;
    /** Leave the key out of saved text when its value is empty. */
    bool omitEmpty = false;
};

/** Row for member `m`, through the codec of its type. */
template <class T, class M>
Field<T>
field(const char *key, M T::*m)
{
    return {key, [m](T &o, const std::string &v) { decodeValue(v, o.*m); },
            [m](const T &o) { return encodeValue(o.*m); }};
}

/** Row for member `m` of the nested struct member `s`. */
template <class T, class S, class M>
Field<T>
field(const char *key, S T::*s, M S::*m)
{
    return {key,
            [s, m](T &o, const std::string &v) { decodeValue(v, (o.*s).*m); },
            [s, m](const T &o) { return encodeValue((o.*s).*m); }};
}

/** Set `key` of `obj` through its table; ConfigError names the key. */
template <class T>
void
loadField(const std::vector<Field<T>> &table, T &obj,
          const std::string &key, const std::string &value)
{
    for (const Field<T> &f : table) {
        if (key != f.key)
            continue;
        try {
            f.load(obj, value);
        } catch (const ConfigError &e) {
            throw ConfigError(key + ": " + e.what());
        }
        return;
    }
    throw ConfigError("unknown key '" + key + "'");
}

/** loadField for one tokenized line, with its line number in errors. */
template <class T>
void
loadLine(const std::vector<Field<T>> &table, T &obj,
         const ConfigLine &line)
{
    if (line.section)
        throw ConfigError(line.where() + "expected key = value");
    try {
        loadField(table, obj, line.key, line.value);
    } catch (const ConfigError &e) {
        throw ConfigError(line.where() + e.what());
    }
}

/** Write the saved fields of `obj` as key = value lines, in order. */
template <class T>
void
saveFields(std::ostream &os, const std::vector<Field<T>> &table,
           const T &obj)
{
    for (const Field<T> &f : table) {
        if (!f.save)
            continue;
        std::string v = f.save(obj);
        if (!f.omitEmpty || !v.empty())
            os << f.key << " = " << v << "\n";
    }
}

/** The SimConfig keys, in save order, plus the load-only alias. */
const std::vector<Field<SimConfig>> &simConfigFields();

/** The WorkloadProfile keys, in save order, plus the load-only base. */
const std::vector<Field<WorkloadProfile>> &workloadProfileFields();

} // namespace storemlp

#endif // STOREMLP_CORE_CONFIG_IO_HH
