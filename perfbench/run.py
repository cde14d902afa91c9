#!/usr/bin/env python3
"""Repository benchmark: host throughput of the simulator's three user paths.

Run from the root of a source tree:

    python3 perfbench/run.py --workload synth_wc_sle --seed 1 --seconds 25 --trace 0

Builds the simulator library and the benchmark program (Release, the tree's
own LTO setting) under .bench_build/, runs one workload for --seconds, checks
every run's stats hash against perfbench/refs.json where it holds the seed,
and prints one JSON object as the last stdout line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
perfbench/README.md describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("synth_wc_sle", "sweep_9cfg", "replay_v4_smac")
HERE = os.path.dirname(os.path.abspath(__file__))


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def loadavg():
    try:
        with open("/proc/loadavg") as f:
            return [float(x) for x in f.read().split()[:3]]
    except OSError:
        return None


def source_digest(root):
    """sha256 over the simulator sources, for trees without git."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "configs"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_rev(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def build(root, build_dir, jobs):
    """Configure once, then build the benchmark program (a no-op if fresh)."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(jobs)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        r = subprocess.run(cmd, cwd=root, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=840)
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}", 1)
    return os.path.join(build_dir, "perfbench")


def check_refs(result, refs, trace):
    """Return (failed runs, messages) against the stored references."""
    failed, notes = 0, []
    runs = result["runs"]
    if refs is None:
        return failed, notes
    for name, ref_hash in refs.get("hashes", {}).items():
        run = runs.get(name)
        if run is None:
            failed += 1
            notes.append(f"{name}: missing")
        elif run["hash"] != ref_hash and run["failed"] < run["attempts"]:
            failed += run["attempts"] - run["failed"]
            notes.append(f"{name}: hash {run['hash']} != reference {ref_hash}")
    for name in set(runs) - set(refs.get("hashes", {})):
        failed += runs[name]["attempts"]
        notes.append(f"{name}: not in the reference")
    if trace:
        for name, ref in refs.get("counts", {}).items():
            got = result["metrics"][name]["value"]
            if got != ref:
                notes.append(f"{name}: {got} != reference {ref}")
    return failed, notes


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                 "configs"):
        if not os.path.exists(os.path.join(root, need)):
            fail(f"no simulator source tree here (missing {need}); "
                 "run from the repository root")

    load_before = loadavg()
    ncpu = cpus()
    work = os.path.join(root, ".bench_build")
    binary = build(root, os.path.join(work, "perfbench"), min(ncpu, 4))

    cmd = [binary, "--root", root, "--work", os.path.join(work, "inputs"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("benchmark program timed out", 1)
    if r.returncode != 0 or not r.stdout.strip():
        fail(f"benchmark program exited with {r.returncode}", 1)
    result = json.loads(r.stdout.strip().splitlines()[-1])

    with open(os.path.join(HERE, "refs.json")) as f:
        refs = json.load(f).get(args.workload, {}).get(str(args.seed))
    ref_failed, ref_notes = check_refs(result, refs, args.trace)

    attempted = sum(run["attempts"] for run in result["runs"].values())
    failed = sum(run["failed"] for run in result["runs"].values())
    failed = min(attempted, failed + ref_failed)
    metrics = result["metrics"]
    if args.trace:
        metrics["error_rate"] = {"value": failed / attempted,
                                 "unit": "ratio"}

    build_type = result["context"]["build_type"]
    context = dict(result["context"], nproc=ncpu, load_before=load_before,
                   load_after=loadavg(), git_rev=git_rev(root),
                   source_digest=source_digest(root),
                   reference_checked=refs is not None,
                   comparable=build_type == "Release")
    print(json.dumps({"context": context}))
    if build_type != "Release":
        print(f"WARNING: {build_type} build; figures are not comparable "
              "with Release results")
    print("Table 1 rates per 100 instructions, measured vs paper target "
          "(informational):")
    for row in result["table1"]:
        cells = "  ".join(f"{k} {v[0]:.3f}/{v[1]:.3f}"
                          for k, v in row.items() if isinstance(v, list))
        print(f"  {row['run']} [{row['profile']}]: {cells}")
    for note in result["errors"] + ref_notes:
        print(f"CHECK FAILED: {note}")

    correct = failed == 0 and not result["errors"] and not ref_notes
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
