#!/usr/bin/env python3
"""Reduced-size self-test of the benchmark.

Runs every workload in BENCHMARK.json at --tiny sizes for one second,
untraced and traced, and fails unless:
  - every run is correct (digest pin, repeat, reference-engine, fleet vs
    in-process and replay checks) with no failed case;
  - the untraced run reports every end_to_end metric, the traced run every
    per_layer metric, each with the unit BENCHMARK.json gives it;
  - every per_layer metric is measured, not filled in as "not exercised",
    on at least one workload;
  - every traced run passes its sum check.

Run from the repository root:  python3 perfbench/tests/selftest.py
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NOT_EXERCISED = "  not exercised by "


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("FAIL %s trace=%d: exit %d" % (workload, trace, proc.returncode))
    return lines[:-1], json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    measured_somewhere = set()
    for w in spec["workloads"]:
        name = w["name"]
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            human, result = run(name, trace)
            tag = "%s trace=%d" % (name, trace)
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(tag + ": incorrect or failed cases")
            problems += [tag + ": " + l.strip() for l in human if l.strip().startswith("FAIL")]
            for m in wanted:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append("%s: metric %s missing or not in %s" %
                                    (tag, m["name"], m["unit"]))
            if set(result["metrics"]) != {m["name"] for m in wanted}:
                problems.append(tag + ": metrics outside BENCHMARK.json")
            if trace:
                if not any(l.strip().startswith("PASS  sum check") for l in human):
                    problems.append(tag + ": no passing sum check")
                skipped = set()
                for l in human:
                    if l.startswith(NOT_EXERCISED):
                        skipped = set(l.split(":", 1)[1].split())
                measured_somewhere |= {m["name"] for m in wanted} - skipped
            print("ok   " + tag, flush=True)
    never = [m["name"] for m in spec["per_layer"] if m["name"] not in measured_somewhere]
    if never:
        problems.append("per-layer metrics no workload measures: " + " ".join(never))
    for p in problems:
        print("FAIL " + p)
    if problems:
        raise SystemExit(1)
    print("selftest: all %d workloads pass" % len(spec["workloads"]))


if __name__ == "__main__":
    main()
