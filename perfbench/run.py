#!/usr/bin/env python3
"""Build and run the greenhpc benchmark.

    python3 perfbench/run.py --workload sim_dense|sweep_backlog|sweep_fleet \\
        --seed N --seconds S --trace 0|1 [--tiny]

Run from the repository root. The first run configures and builds the
library, the `greenhpc` CLI and the driver from source into
$CARGO_TARGET_DIR (default .bench_build); later runs rebuild only what
changed. The driver's human-readable table goes to stdout, and the last
stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are BENCHMARK.json's end_to_end
list, with --trace 1 its per_layer list; a per-layer metric of a layer the
workload does not exercise reads 0.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_PREFIX = "PERFBENCH_RESULT "


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then build the driver and the CLI; output to a log."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no greenhpc sources next to the benchmark (expected %s)" %
             os.path.join(ROOT, "CMakeLists.txt"))
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                  "--target", "greenhpc_perfbench", "greenhpc_cli"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return (os.path.join(build_dir, "greenhpc_perfbench"),
            os.path.join(build_dir, "greenhpc", "tools", "greenhpc"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="reduced sizes (the benchmark's self-test)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    driver, cli = build(build_dir)

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--worker-bin", cli,
           "--workdir", os.path.join(build_dir, "runs", "%s-%d" % (args.workload, os.getpid())),
           "--spans-out", os.path.join(build_dir, "spans-%s-seed%d.jsonl" %
                                       (args.workload, args.seed))]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("driver timed out")
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith(RESULT_PREFIX):
            result = json.loads(line[len(RESULT_PREFIX):])
        else:
            print(line)
    if proc.returncode != 0 or result is None:
        fail("driver exited with %d and no result" % proc.returncode)

    measured = dict(result["metrics"])
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    measured["failed_case_ratio"] = {"value": ratio, "unit": "1"}
    metrics = {}
    missing = []
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if not args.trace:
                fail("driver did not report end-to-end metric " + m["name"])
            missing.append(m["name"])
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail("%s: driver reports unit %s, BENCHMARK.json says %s" %
                 (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if missing:
        print("  not exercised by %s (reported as 0): %s" % (args.workload, " ".join(missing)))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
