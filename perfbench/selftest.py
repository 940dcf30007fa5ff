#!/usr/bin/env python3
"""Smoke-scale self-test of the benchmark (a few seconds after the build).

    python3 perfbench/selftest.py

Checks that
  * every workload, untraced and traced, prints each metric BENCHMARK.json
    names, with its unit, both as a `metric` line and in the final JSON;
  * the final line is the JSON result with exactly the expected keys and
    passes all its checks;
  * a forced mismatch (the twin of the first pass runs on another seed)
    raises fail_frac above zero and marks the result incorrect;
  * run.py refuses, without printing a result, in a directory that holds
    only BENCHMARK.json and perfbench/.
Exits non-zero on the first failure.
"""
import json
import os
import shutil
import subprocess
import sys

import run

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["metro-sparse"]


def fail(msg):
    sys.exit(f"selftest: FAIL: {msg}")


def invoke(binary, workload, trace, *extra):
    args = [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--smoke", *extra]
    p = subprocess.run(args, capture_output=True, text=True)
    if p.returncode != 0:
        fail(f"{' '.join(args)} exited {p.returncode}: {p.stderr[-500:]}")
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    return lines, result


def check_metrics(workload, trace, lines, result):
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = (float(value), unit)
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        fail(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
             f"{sorted(set(got) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if got[name]["unit"] != unit or printed.get(name, (0, None))[1] != unit:
            fail(f"{workload}: {name} not printed with unit {unit}")
        if not isinstance(got[name]["value"], (int, float)):
            fail(f"{workload}: {name} value is not a number")


def fail_frac(lines):
    for line in lines:
        if line.startswith("checks "):
            return float(line.rsplit("fail_frac=", 1)[1])
    fail("no checks line")


def main():
    binary = run.build()
    for workload in WORKLOADS:
        for trace in (0, 1):
            lines, result = invoke(binary, workload, trace)
            if not result["correct"] or result["failed"] or fail_frac(lines) != 0:
                fail(f"{workload} trace={trace}: checks failed at smoke scale")
            check_metrics(workload, trace, lines, result)
        print(f"selftest: {workload}: every metric printed with its unit, all checks pass")

    for workload in ("grid-rush", "serve-open"):
        lines, result = invoke(binary, workload, 0, "--inject-mismatch")
        if result["correct"] or result["failed"] == 0 or fail_frac(lines) <= 0:
            fail(f"{workload}: forced mismatch did not raise fail_frac")
        print(f"selftest: {workload}: forced mismatch raises fail_frac to {fail_frac(lines):.3f}")

    bare = os.path.join(run.build_dir(), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    p = subprocess.run(["python3", "perfbench/run.py", "--workload", "grid-rush", "--seed", "1",
                        "--seconds", "1", "--trace", "0"],
                       cwd=bare, env=env, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if p.returncode == 0 or p.stdout.strip():
        fail("run.py produced a result without the program's sources")
    print("selftest: run.py refuses without the program's sources")
    print("selftest: OK")


if __name__ == "__main__":
    main()
