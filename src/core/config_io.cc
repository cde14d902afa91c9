/**
 * @file
 * Config/profile text serialization implementation: the value codecs,
 * the enum token tables and the SimConfig and WorkloadProfile field
 * tables.
 */

#include "core/config_io.hh"

#include <fstream>
#include <istream>
#include <optional>

#include "util/parse.hh"

namespace storemlp
{

namespace
{

/** One `{token, value}` row of an enum's text table. */
template <class E>
struct Token
{
    const char *text;
    E value;
};

// Each table lists a value's canonical (saved) token first; later
// rows are load-only aliases.
constexpr Token<bool> kBoolTokens[] = {
    {"true", true}, {"false", false}, {"1", true}, {"0", false},
    {"on", true},   {"off", false},   {"yes", true}, {"no", false}};

constexpr Token<StorePrefetch> kStorePrefetchTokens[] = {
    {"sp0", StorePrefetch::None},       {"sp1", StorePrefetch::AtRetire},
    {"sp2", StorePrefetch::AtExecute},  {"none", StorePrefetch::None},
    {"retire", StorePrefetch::AtRetire},
    {"execute", StorePrefetch::AtExecute}};

constexpr Token<ScoutMode> kScoutTokens[] = {
    {"off", ScoutMode::Off}, {"hws0", ScoutMode::Hws0},
    {"hws1", ScoutMode::Hws1}, {"hws2", ScoutMode::Hws2}};

constexpr Token<WorkloadProfile (*)()> kWorkloadTokens[] = {
    {"database", &WorkloadProfile::database},
    {"tpcw", &WorkloadProfile::tpcw},
    {"specjbb", &WorkloadProfile::specjbb},
    {"specweb", &WorkloadProfile::specweb},
    {"tiny", &WorkloadProfile::testTiny}};

template <class E, size_t N>
E
fromToken(const Token<E> (&table)[N], const std::string &text)
{
    for (const Token<E> &t : table) {
        if (text == t.text)
            return t.value;
    }
    std::string all;
    for (const Token<E> &t : table) {
        if (!all.empty())
            all += '|';
        all.append(t.text);
    }
    throw ConfigError("'" + text + "' is not one of " + all);
}

template <class E, size_t N>
std::string
toToken(const Token<E> (&table)[N], E value)
{
    for (const Token<E> &t : table) {
        if (t.value == value)
            return t.text;
    }
    throw ConfigError("value has no token");
}

std::ifstream
openConfigFile(const std::string &path)
{
    std::ifstream ifs(path);
    if (!ifs)
        throw ConfigError("cannot open: " + path);
    return ifs;
}

} // namespace

// ---------------------------------------------------------------------
// Tokenizer and value codecs
// ---------------------------------------------------------------------

std::string
ConfigLine::where() const
{
    return "line " + std::to_string(lineno) + ": ";
}

bool
nextConfigLine(std::istream &is, ConfigLine &line)
{
    std::string raw;
    while (std::getline(is, raw)) {
        ++line.lineno;
        std::string t = trimBlanks(raw);
        if (t.empty() || t[0] == '#')
            continue;
        line.section = t[0] == '[';
        if (line.section) {
            line.key = t;
            line.value.clear();
            return true;
        }
        size_t eq = t.find('=');
        if (eq == std::string::npos)
            throw ConfigError(line.where() + "expected key = value");
        line.key = trimBlanks(t.substr(0, eq));
        line.value = trimBlanks(t.substr(eq + 1));
        if (line.key.empty())
            throw ConfigError(line.where() + "empty key");
        return true;
    }
    return false;
}

// Each decoder accepts the text its encoder writes, plus the load-only
// aliases of its token table.
void decodeValue(const std::string &t, std::string &out) { out = t; }
void decodeValue(const std::string &t, bool &out)
{
    out = fromToken(kBoolTokens, t);
}
void decodeValue(const std::string &t, StorePrefetch &out)
{
    out = fromToken(kStorePrefetchTokens, t);
}
void decodeValue(const std::string &t, ScoutMode &out)
{
    out = fromToken(kScoutTokens, t);
}
void decodeValue(const std::string &t, ModelDescriptor &out)
{
    out = ModelDescriptor::parse(t);
}
std::string encodeValue(const std::string &v) { return v; }
std::string encodeValue(bool v) { return toToken(kBoolTokens, v); }
std::string encodeValue(StorePrefetch v)
{
    return toToken(kStorePrefetchTokens, v);
}
std::string encodeValue(ScoutMode v) { return toToken(kScoutTokens, v); }
std::string encodeValue(const ModelDescriptor &v) { return v.spec(); }
std::string encodeValue(uint32_t v) { return std::to_string(v); }
std::string encodeValue(uint64_t v) { return std::to_string(v); }
std::string encodeValue(double v) { return formatDoubleExact(v); }

void
decodeValue(const std::string &t, uint64_t &out)
{
    // parseU64Strict rejects signs, whitespace and trailing junk —
    // std::stoull would accept "-5" by wrapping it to 2^64-5.
    std::optional<uint64_t> v = parseU64Strict(t);
    if (!v)
        throw ConfigError("'" + t + "' is not an unsigned integer");
    out = *v;
}

void
decodeValue(const std::string &t, uint32_t &out)
{
    uint64_t v = 0;
    decodeValue(t, v);
    if (v > UINT32_MAX)
        throw ConfigError("'" + t + "' exceeds 4294967295");
    out = static_cast<uint32_t>(v);
}

void
decodeValue(const std::string &t, double &out)
{
    std::optional<double> v = parseDoubleStrict(t);
    if (!v)
        throw ConfigError("'" + t + "' is not a finite decimal number");
    out = *v;
}

// ---------------------------------------------------------------------
// SimConfig and WorkloadProfile
// ---------------------------------------------------------------------

// Rows are in save order. A key equal to its member's name is spelled
// once, by the row macro.
#define ROW(m) field(#m, &SimConfig::m)
const std::vector<Field<SimConfig>> &
simConfigFields()
{
    static const std::vector<Field<SimConfig>> table = {
        ROW(name), ROW(fetchBufferSize), ROW(issueWindowSize),
        ROW(robSize), ROW(storeBufferSize), ROW(storeQueueSize),
        ROW(loadBufferSize), ROW(storePrefetch), ROW(coalesceBytes),
        ROW(infiniteStoreQueue), ROW(perfectStores),
        field("model", &SimConfig::memoryModel),
        // Legacy two-model key, a load-only alias of the presets.
        {"memoryModel",
         [](SimConfig &c, const std::string &v) {
             if (v != "pc" && v != "tso" && v != "wc")
                 throw ConfigError("'" + v + "' is not one of pc|tso|wc");
             c.memoryModel = *ModelDescriptor::findPreset(v);
         },
         {}},
        ROW(sle),
        field("tmEnabled", &SimConfig::tm, &TmConfig::enabled),
        field("tmAbortProb", &SimConfig::tm, &TmConfig::abortProb),
        field("tmAbortPenaltyCycles", &SimConfig::tm,
              &TmConfig::abortPenaltyCycles),
        ROW(prefetchPastSerializing), ROW(scout), ROW(missLatency),
        ROW(cpiOnChip), ROW(mispredictPenalty)};
    return table;
}
#undef ROW

#define ROW(m) field(#m, &WorkloadProfile::m)
const std::vector<Field<WorkloadProfile>> &
workloadProfileFields()
{
    static const std::vector<Field<WorkloadProfile>> table = {
        // Load-only: selects the starting profile (first key only).
        {"base",
         [](WorkloadProfile &p, const std::string &v) {
             p = workloadProfileForName(v);
         },
         {}},
        ROW(name), ROW(loadFrac), ROW(storeFrac), ROW(branchFrac),
        ROW(loadColdProb), ROW(loadBurstCont), ROW(storeColdProb),
        ROW(storeBurstCont), ROW(coldStoresPerLine), ROW(storeSpatialRun),
        ROW(storeRevisitFrac), ROW(flushPhaseProb), ROW(flushLenMean),
        ROW(flushStoreFrac), ROW(flushColdProb), ROW(burstPhaseProb),
        ROW(burstLenMean), ROW(burstStoreFrac), ROW(burstColdProb),
        ROW(instColdProb), ROW(instBurstCont), ROW(hotDataBytes),
        ROW(hotL1Frac), ROW(hotL1Bytes), ROW(hotCodeBytes),
        ROW(hotCodeWindowBytes), ROW(hotCodeJumpProb),
        ROW(storeMissRegionBytes), ROW(sharedStoreFrac),
        ROW(sharedStoreRegionBytes), ROW(sharedHotFrac),
        ROW(sharedHotBytes), ROW(sharedLoadFrac), ROW(lockProb),
        ROW(lockCount), ROW(csBodyLen), ROW(membarProb),
        ROW(easyBranchFrac), ROW(branchBias), ROW(staticBranches),
        ROW(branchDependsOnLoadProb), ROW(depNearProb),
        ROW(targetStoresPer100), ROW(targetStoreMissPer100),
        ROW(targetLoadMissPer100), ROW(targetInstMissPer100),
        ROW(cpiOnChip)};
    return table;
}
#undef ROW

SimConfig
loadSimConfig(std::istream &is)
{
    SimConfig c;
    ConfigLine line;
    while (nextConfigLine(is, line))
        loadLine(simConfigFields(), c, line);
    return c;
}

SimConfig
loadSimConfigFile(const std::string &path)
{
    std::ifstream ifs = openConfigFile(path);
    return loadSimConfig(ifs);
}

void
saveSimConfig(std::ostream &os, const SimConfig &c)
{
    saveFields(os, simConfigFields(), c);
}

WorkloadProfile
workloadProfileForName(const std::string &name)
{
    try {
        return fromToken(kWorkloadTokens, name)();
    } catch (const ConfigError &e) {
        throw ConfigError(std::string("workload ") + e.what());
    }
}

WorkloadProfile
loadWorkloadProfile(std::istream &is)
{
    WorkloadProfile p;
    ConfigLine line;
    for (bool first = true; nextConfigLine(is, line); first = false) {
        if (line.key == "base" && !first) {
            throw ConfigError(line.where() +
                              "'base' must be the first profile key");
        }
        loadLine(workloadProfileFields(), p, line);
    }
    return p;
}

WorkloadProfile
loadWorkloadProfileFile(const std::string &path)
{
    std::ifstream ifs = openConfigFile(path);
    return loadWorkloadProfile(ifs);
}

void
saveWorkloadProfile(std::ostream &os, const WorkloadProfile &p)
{
    saveFields(os, workloadProfileFields(), p);
}

} // namespace storemlp
