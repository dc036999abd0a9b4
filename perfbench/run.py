#!/usr/bin/env python3
"""Build and run one workload of the Polaris benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the harness in this directory (release, offline) into
$CARGO_TARGET_DIR, or perfbench/target when that is unset, runs it, and
checks that its last output line is a result carrying exactly the
metrics BENCHMARK.json names: the end-to-end ones with --trace 0, the
per-layer ones with --trace 1. That line is printed last. Exits non-zero
without a result if the build, the run or the check fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def check_result(line, expected):
    """The parsed result line, or why it is not a valid result."""
    try:
        res = json.loads(line)
    except ValueError as e:
        return None, f"last line is not JSON ({e}): {line!r}"
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None, f"result keys are wrong: {line!r}"
    if not isinstance(res["correct"], bool):
        return None, "correct is not a boolean"
    for k in ("attempted", "failed"):
        if not isinstance(res[k], int) or isinstance(res[k], bool) or res[k] < 0:
            return None, f"{k} is not a whole number"
    if res["attempted"] < 1:
        return None, "nothing was attempted"
    if not isinstance(res["metrics"], dict) or not all(isinstance(m, dict) for m in res["metrics"].values()):
        return None, "metrics is not a map of name to value and unit"
    got = {n: m.get("unit") for n, m in res["metrics"].items()}
    if got != expected:
        return None, f"metrics {sorted(got.items())} differ from BENCHMARK.json's {sorted(expected.items())}"
    for n, m in res["metrics"].items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            return None, f"metric {n} has no finite value: {v!r}"
    return res, None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    a = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if a.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {a.workload}")
    kind = "per_layer" if a.trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in bench[kind]}

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace]
    if a.trace == "1":
        cmd += ["--trace-file", os.path.join(target, f"perfbench-trace-{a.workload}-{a.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        fail(f"run exited with {proc.returncode}")
    res, why = check_result(lines[-1], expected)
    if res is None:
        print("\n".join(lines), file=sys.stderr)
        fail(why)
    print("\n".join(lines[:-1]))
    print(json.dumps(res))


if __name__ == "__main__":
    main()
