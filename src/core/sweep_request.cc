/**
 * @file
 * Sweep job API implementation: request (de)serialization, axis
 * expansion, and the schemaVersion-2 per-run artifact envelope.
 */

#include "core/sweep_request.hh"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <unordered_set>

#include "core/config_io.hh"
#include "core/sweep.hh"
#include "util/parse.hh"

#ifndef _WIN32
#include <unistd.h>
#endif

namespace storemlp
{

namespace
{

std::string
joinList(const std::vector<std::string> &items, char sep)
{
    std::string out;
    for (size_t i = 0; i < items.size(); ++i) {
        if (i)
            out += sep;
        out += items[i];
    }
    return out;
}

/** Row for a `sep`-separated list of names. */
Field<SweepRequest>
listField(const char *key, std::vector<std::string> SweepRequest::*m,
          char sep, bool omit_empty)
{
    return {key,
            [m, sep](SweepRequest &r, const std::string &v) {
                r.*m = splitList(v, sep);
            },
            [m, sep](const SweepRequest &r) { return joinList(r.*m, sep); },
            omit_empty};
}

/** The top-level keys; `[config NAME]` blocks follow them. */
const std::vector<Field<SweepRequest>> &
requestFields()
{
    static const std::vector<Field<SweepRequest>> table = {
        listField("workloads", &SweepRequest::workloads, ',', false),
        listField("models", &SweepRequest::models, ';', true),
        field("warmup", &SweepRequest::warmupInsts),
        field("measure", &SweepRequest::measureInsts),
        field("seed", &SweepRequest::seed),
        field("retries", &SweepRequest::retries),
        listField("runs", &SweepRequest::runFilter, ';', true),
    };
    return table;
}

void
validateConfigName(const std::string &name)
{
    if (name.empty())
        throw ConfigError("sweep request: empty config name");
    if (name.find_first_of(" \t\r\n[]") != std::string::npos) {
        throw ConfigError("sweep request: config name '" + name +
                          "' contains whitespace or brackets");
    }
}

} // namespace

std::vector<PlannedRun>
expandSweepRuns(const SweepRequest &req)
{
    if (req.configs.empty())
        throw ConfigError("sweep request has no configs");
    if (req.workloads.empty())
        throw ConfigError("sweep request has no workloads");

    // Parse the model axis once; positional names for custom specs so
    // run names never contain a descriptor's commas.
    std::vector<std::pair<std::string, ModelDescriptor>> models;
    for (size_t mi = 0; mi < req.models.size(); ++mi) {
        ModelDescriptor d = ModelDescriptor::parse(req.models[mi]);
        std::string mname = d.name == "custom"
            ? "custom" + std::to_string(mi)
            : d.name;
        models.emplace_back(std::move(mname), std::move(d));
    }

    std::vector<PlannedRun> runs;
    std::unordered_set<std::string> seen;
    for (const std::string &wl : req.workloads) {
        WorkloadProfile profile = workloadProfileForName(wl);
        for (const SweepConfigEntry &entry : req.configs) {
            validateConfigName(entry.name);
            size_t points = models.empty() ? 1 : models.size();
            for (size_t mi = 0; mi < points; ++mi) {
                PlannedRun run;
                run.workload = wl;
                run.configName = entry.name;
                run.name = wl + "_" + entry.name;
                run.spec.profile = profile;
                run.spec.config = entry.config;
                run.spec.config.name = entry.name;
                if (!models.empty()) {
                    run.model = models[mi].first;
                    run.name += "@" + run.model;
                    run.spec.config.memoryModel = models[mi].second;
                }
                run.spec.warmupInsts = req.warmupInsts;
                run.spec.measureInsts = req.measureInsts;
                run.spec.seed = req.seed;
                if (!seen.insert(run.name).second) {
                    throw ConfigError(
                        "sweep request expands to duplicate run '" +
                        run.name + "'");
                }
                runs.push_back(std::move(run));
            }
        }
    }

    if (!req.runFilter.empty()) {
        std::unordered_set<std::string> wanted(req.runFilter.begin(),
                                               req.runFilter.end());
        std::vector<PlannedRun> filtered;
        for (PlannedRun &run : runs) {
            if (wanted.erase(run.name))
                filtered.push_back(std::move(run));
        }
        if (!wanted.empty()) {
            throw ConfigError("sweep request run filter names unknown "
                              "run '" + *wanted.begin() + "'");
        }
        runs = std::move(filtered);
    }
    return runs;
}

void
applyRequestOptions(SweepOptions &opts, const SweepRequest &req)
{
    opts.maxAttempts = 1 + req.retries;
}

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

void
saveSweepRequest(std::ostream &os, const SweepRequest &req)
{
    os << "# storemlp sweep request\n";
    saveFields(os, requestFields(), req);
    for (const SweepConfigEntry &entry : req.configs) {
        validateConfigName(entry.name);
        os << "[config " << entry.name << "]\n";
        saveSimConfig(os, entry.config);
        os << "[endconfig]\n";
    }
}

std::string
sweepRequestToText(const SweepRequest &req)
{
    std::ostringstream oss;
    saveSweepRequest(oss, req);
    return oss.str();
}

SweepRequest
loadSweepRequest(std::istream &is)
{
    SweepRequest req;
    ConfigLine line;
    while (nextConfigLine(is, line)) {
        if (!line.section) {
            loadLine(requestFields(), req, line);
            continue;
        }
        const std::string &t = line.key;
        if (t.rfind("[config ", 0) != 0 || t.back() != ']') {
            throw ConfigError(line.where() + "malformed config header '" +
                              t + "'");
        }
        SweepConfigEntry entry;
        entry.name = trimBlanks(t.substr(8, t.size() - 9));
        validateConfigName(entry.name);
        bool closed = false;
        while (!closed && nextConfigLine(is, line)) {
            closed = line.section && line.key == "[endconfig]";
            if (!closed)
                loadLine(simConfigFields(), entry.config, line);
        }
        if (!closed) {
            throw ConfigError("config '" + entry.name +
                              "' not closed by [endconfig]");
        }
        req.configs.push_back(std::move(entry));
    }
    return req;
}

SweepRequest
sweepRequestFromText(const std::string &text)
{
    std::istringstream is(text);
    return loadSweepRequest(is);
}

std::string
sweepRequestFingerprint(const SweepRequest &req)
{
    SweepRequest canonical = req;
    canonical.runFilter.clear();
    std::string text = sweepRequestToText(canonical);
    uint64_t h = 1469598103934665603ull; // FNV-1a 64
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

// ---------------------------------------------------------------------
// Result artifacts
// ---------------------------------------------------------------------

std::string
localHostName()
{
#ifndef _WIN32
    char buf[256] = {0};
    if (gethostname(buf, sizeof buf - 1) == 0 && buf[0])
        return buf;
#endif
    return "unknown";
}

StatsEnvelope
runOutcomeEnvelope(const RunOutcome &outcome, const ArtifactSource &src,
                   uint64_t seed, uint64_t warmup, uint64_t measure)
{
    StatsEnvelope env;
    env.meta = {{"tool", src.tool}, {"kind", "run"}};
    if (!outcome.ok)
        env.meta.push_back({"error", outcome.errorMessage});

    env.source = {{"host", src.host},
                  {"tool", src.tool},
                  {"request", src.requestFingerprint}};

    env.run = {{"name", outcome.name},
               {"workload", outcome.workload},
               {"config", outcome.configName}};
    if (!outcome.model.empty())
        env.run.push_back({"model", outcome.model});
    env.run.push_back({"seed", std::to_string(seed)});
    env.run.push_back({"warmup", std::to_string(warmup)});
    env.run.push_back({"measure", std::to_string(measure)});
    env.run.push_back({"ok", outcome.ok ? "1" : "0"});
    env.run.push_back({"attempts", std::to_string(outcome.attempts)});
    env.run.push_back({"wallMs", jsonDouble(outcome.wallMs)});
    env.run.push_back(
        {"traceCacheHit", outcome.traceCacheHit ? "1" : "0"});
    return env;
}

std::string
runOutcomeJson(const RunOutcome &outcome, const ArtifactSource &src,
               uint64_t seed, uint64_t warmup, uint64_t measure)
{
    StatsEnvelope env =
        runOutcomeEnvelope(outcome, src, seed, warmup, measure);
    StatsRegistry reg;
    if (outcome.ok)
        outcome.output.exportStats(reg);
    std::ostringstream oss;
    writeStatsJson(oss, reg, env, /*pretty=*/false);
    return oss.str();
}

} // namespace storemlp
