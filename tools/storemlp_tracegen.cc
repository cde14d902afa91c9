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
#include <memory>

#include "cli_util.hh"
#include "core/config_io.hh"
#include "stats/stats_json.hh"
#include "trace/rewriter.hh"
#include "trace/trace_io.hh"
#include "trace/trace_source.hh"

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
    bool wc = cli.flag("wc");
    // The same source chain as Runner::makeSource: the records are
    // generated, rewritten and encoded chunk by chunk, never held
    // whole. The fingerprint is the one the synthesized source
    // streams under, so a file round-trip is cache-compatible with it.
    std::unique_ptr<TraceSource> src = std::make_unique<GeneratorSource>(
        profile, seed, count, static_cast<uint32_t>(chip));
    if (wc)
        src = std::make_unique<WcRewriteSource>(std::move(src));
    Trace::Mix mix;
    try {
        writeTraceFileV4(cli.str("out", ""), *src, src->fingerprint(),
                         cli.num("chunk-insts", 65536),
                         [&](const TraceChunk &c) {
                             mix.add(c.data, c.count);
                         });
    } catch (const TraceFormatError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }

    OutFormat fmt = outFormat(cli);
    if (fmt != OutFormat::Text) {
        StatsMeta meta = {
            {"tool", "storemlp_tracegen"},
            {"workload", profile.name},
            {"model", wc ? "wc" : "pc"},
            {"file", cli.str("out", "")},
        };
        StatsRegistry reg;
        reg.counter("trace.records", mix.total);
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

    std::cout << "wrote " << mix.total << " records (" << profile.name
              << (wc ? ", WC" : ", PC/TSO") << ")\n"
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
