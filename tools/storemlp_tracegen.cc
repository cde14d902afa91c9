/**
 * @file
 * storemlp_tracegen: generate a synthetic workload trace and write it
 * in the chunk-indexed v4 trace container (docs/TRACE_FORMAT.md). The
 * generation report goes to stdout (text, JSON document, or CSV).
 *
 *   storemlp_tracegen --workload tpcw --count 5000000 \
 *                     --seed 7 --out tpcw.trc [--wc] [--chunk-insts N]
 */

#include <iostream>

#include "cli_util.hh"
#include "core/config_io.hh"
#include "stats/stats_json.hh"
#include "trace/generator.hh"
#include "trace/rewriter.hh"
#include "trace/trace_io.hh"

using namespace storemlp;
using namespace storemlp::tools;

namespace
{

int
toolMain(int argc, char **argv)
{
    Cli cli(argc, argv, {
        kWorkloadFlag,
        {"count", "N", "instructions to generate (default 1M)"},
        kSeedFlag,
        {"chip", "N", "chip id for region placement (default 0)"},
        {"wc", "", "emit the weak-consistency rendition"},
        kChunkInstsFlag,
        {"out", "PATH", "output trace file (required)"},
        kFormatFlag,
    });
    if (!cli.has("out"))
        cli.fail("--out is required");

    WorkloadProfile profile =
        cli.parsed("workload", "database", workloadProfileForName);
    uint64_t seed = cli.num("seed", 42);
    uint64_t count = cli.num("count", 1000 * 1000);
    uint64_t chip = cli.num("chip", 0);
    SyntheticTraceGenerator gen(profile, seed,
                                static_cast<uint32_t>(chip));
    Trace trace = gen.generate(count);

    if (cli.flag("wc"))
        trace = TraceRewriter().toWeakConsistency(trace);

    // Same provenance string GeneratorSource streams under, so a file
    // round-trip is cache-compatible with the equivalent synthesized
    // source.
    std::string fp = profile.cacheKey() +
        "|seed=" + std::to_string(seed) +
        "|n=" + std::to_string(count) +
        "|wc=" + (cli.flag("wc") ? "1" : "0") +
        "|chip=" + std::to_string(chip);
    try {
        writeTraceFileV4(cli.str("out", ""), trace, fp,
                         cli.num("chunk-insts", 65536));
    } catch (const TraceFormatError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }

    Trace::Mix mix = trace.mix();
    OutFormat fmt = outFormat(cli);
    if (fmt != OutFormat::Text) {
        StatsMeta meta = {
            {"tool", "storemlp_tracegen"},
            {"workload", profile.name},
            {"model", cli.flag("wc") ? "wc" : "pc"},
            {"file", cli.str("out", "")},
        };
        StatsRegistry reg;
        reg.counter("trace.records", trace.size());
        reg.counter("trace.loads", mix.loads);
        reg.counter("trace.stores", mix.stores);
        reg.counter("trace.branches", mix.branches);
        reg.counter("trace.atomics", mix.atomics);
        reg.counter("trace.barriers", mix.barriers);
        if (fmt == OutFormat::Json)
            writeStatsJson(std::cout, reg, meta, /*pretty=*/true);
        else
            writeStatsCsv(std::cout, reg, meta);
        return 0;
    }

    std::cout << "wrote " << trace.size() << " records ("
              << profile.name << (cli.flag("wc") ? ", WC" : ", PC/TSO")
              << ")\n"
              << "  loads " << mix.loads << ", stores " << mix.stores
              << ", branches " << mix.branches << ", atomics "
              << mix.atomics << ", barriers " << mix.barriers << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runTool(argv[0], toolMain, argc, argv);
}
