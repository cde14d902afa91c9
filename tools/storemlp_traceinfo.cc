/**
 * @file
 * storemlp_traceinfo: inspect a v4 trace file. The default report
 * comes from the container header and chunk index alone — record
 * count, file bytes, chunk geometry, profile fingerprint — without
 * decoding a single record, so it stays cheap for a multi-gigabyte
 * trace. `--full` streams
 * the records (O(chunk) resident) to add the instruction mix and the
 * detected critical sections; `--dump N` prints the first N records.
 *
 *   storemlp_traceinfo --in trace.trc [--full] [--dump 20]
 */

#include <iomanip>
#include <iostream>

#include "cli_util.hh"
#include "stats/stats_json.hh"
#include "trace/lock_detector.hh"
#include "trace/trace_file_source.hh"

using namespace storemlp;
using namespace storemlp::tools;

namespace
{

/** Bytes the same records occupy at their raw 22-byte field width. */
uint64_t
rawBytes(uint64_t records)
{
    return records * 22;
}

int
toolMain(int argc, char **argv)
{
    Cli cli(argc, argv, {
        {"in", "PATH", "trace file (required)"},
        {"full", "",
         "decode the records (streamed): instruction mix and\n"
         "critical-section analysis"},
        {"dump", "N", "print the first N records (text only)"},
        kFormatFlag, kOutFlag,
    });
    if (!cli.has("in"))
        cli.fail("--in is required");
    std::string path = cli.str("in", "");
    uint64_t dump = cli.num("dump", 0);
    bool full = cli.flag("full");

    // Opening the source parses the envelope and validates the chunk
    // index, which is the whole cost of the default report; mix and
    // lock analysis decode the stream, so they are opt-in.
    std::optional<StreamingFileSource> src;
    try {
        src.emplace(path);
    } catch (const TraceFormatError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    TraceFileInfo info = src->info();

    Trace::Mix mix;
    LockSummary locks;
    if (full) {
        // One pass: the mix is counted on the way through the
        // lock-role stage.
        mix.total = info.records;
        locks = scanLocks(*src, [&](const TraceRecord &r) {
            if (r.cls == InstClass::AtomicCas ||
                r.cls == InstClass::StoreCond ||
                r.cls == InstClass::LoadLocked) {
                ++mix.atomics;
            }
            if (isLoadClass(r.cls))
                ++mix.loads;
            if (isStoreClass(r.cls))
                ++mix.stores;
            if (r.cls == InstClass::Branch)
                ++mix.branches;
            if (isBarrierClass(r.cls))
                ++mix.barriers;
        });
    }

    OutFormat fmt = outFormat(cli);
    OutputSink sink(cli);
    std::ostream &os = sink.stream();

    if (fmt != OutFormat::Text) {
        StatsMeta meta = {
            {"tool", "storemlp_traceinfo"},
            {"file", path},
            {"fingerprint", info.fingerprint},
        };
        StatsRegistry reg;
        reg.counter("trace.records", info.records);
        reg.counter("trace.fileBytes", info.fileBytes);
        reg.counter("trace.version", info.version);
        reg.counter("trace.chunks", info.chunks);
        reg.counter("trace.chunkInsts", info.chunkInsts);
        if (info.records) {
            reg.scalar("trace.compressionRatio",
                       static_cast<double>(info.fileBytes) /
                           static_cast<double>(rawBytes(info.records)));
        }
        if (full) {
            reg.counter("trace.loads", mix.loads);
            reg.counter("trace.stores", mix.stores);
            reg.counter("trace.branches", mix.branches);
            reg.counter("trace.atomics", mix.atomics);
            reg.counter("trace.barriers", mix.barriers);
            reg.counter("trace.criticalSections", locks.sections);
            reg.scalar("trace.meanCriticalSectionLen",
                       locks.sections
                           ? static_cast<double>(locks.totalLen) /
                                 static_cast<double>(locks.sections)
                           : 0.0);
        }
        if (fmt == OutFormat::Json)
            writeStatsJson(os, reg, meta, /*pretty=*/true);
        else
            writeStatsCsv(os, reg, meta);
        return 0;
    }

    os << "records:  " << info.records << "\n"
       << "bytes:    " << info.fileBytes << "\n"
       << "format:   v" << info.version << "\n"
       << "chunks:   " << info.chunks << " x " << info.chunkInsts
       << " records\n";
    if (info.records) {
        // From the header alone: how this container compares to the
        // same records at their raw field width.
        os << "compression: " << std::fixed << std::setprecision(3)
           << static_cast<double>(info.fileBytes) /
                static_cast<double>(rawBytes(info.records))
           << "x of raw (" << rawBytes(info.records) << " bytes)\n"
           << std::defaultfloat << std::setprecision(6);
    }
    if (!info.fingerprint.empty())
        os << "fingerprint: " << info.fingerprint << "\n";

    if (full) {
        double n =
            std::max<double>(1.0, static_cast<double>(mix.total));
        os << std::fixed << std::setprecision(2)
           << "loads:    " << mix.loads << " ("
           << 100.0 * mix.loads / n << "%)\n"
           << "stores:   " << mix.stores << " ("
           << 100.0 * mix.stores / n << "%)\n"
           << "branches: " << mix.branches << " ("
           << 100.0 * mix.branches / n << "%)\n"
           << "atomics:  " << mix.atomics << "\n"
           << "barriers: " << mix.barriers << "\n";

        os << "critical sections: " << locks.sections << "\n";
        if (locks.sections) {
            os << "mean critical-section length: "
               << static_cast<double>(locks.totalLen) /
                      static_cast<double>(locks.sections)
               << " instructions\n";
        }
    }

    if (dump) {
        TraceCursor cur(*src);
        for (uint64_t i = 0; i < dump; ++i) {
            const TraceRecord *rp = cur.tryAt(i);
            if (!rp)
                break;
            const TraceRecord &r = *rp;
            os << std::setw(6) << i << "  0x" << std::hex << r.pc
               << std::dec << "  " << std::setw(6)
               << instClassName(r.cls);
            if (isMemClass(r.cls))
                os << "  addr=0x" << std::hex << r.addr << std::dec;
            if (r.cls == InstClass::Branch)
                os << (r.taken() ? "  taken" : "  not-taken");
            if (r.lockAcquire())
                os << "  [acquire]";
            if (r.lockRelease())
                os << "  [release]";
            os << "\n";
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runTool(argv[0], toolMain, argc, argv);
}
