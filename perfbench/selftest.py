"""Self-test of the benchmark itself (not part of the znav test suite).

    python3 perfbench/selftest.py [--seconds S]

For every workload it checks that:
  - an untraced and a traced run report every metric BENCHMARK.json
    names, each with its unit and a finite value, and pass every gate;
  - two traced runs with the same seed report identical exact counts;
and that the benchmark, copied without the znav sources, exits non-zero
without printing a result.  Exits 0 when every check passes.
"""
import argparse
import contextlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Per-layer metrics that count work: they depend on the seed, never on
# the machine.  An empty tracer lists their names.
EXACT = tuple(Tracer(count_calls=True).count_metrics())
RUN_TIMEOUT_S = 180


def bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False,
    )


def result_of(done: subprocess.CompletedProcess, wanted: dict, label: str) -> dict:
    problems = []
    if done.returncode != 0:
        problems.append(f"exit code {done.returncode}: {done.stderr[-2000:]}")
    else:
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"result keys {sorted(result)}")
        if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
            problems.append(f"gates: {done.stdout[-2000:]}")
        metrics = result["metrics"]
        if set(metrics) != set(wanted):
            problems.append(f"metric names {sorted(set(metrics) ^ set(wanted))}")
        for name, unit in wanted.items():
            m = metrics.get(name, {})
            if m.get("unit") != unit or not math.isfinite(m.get("value", math.nan)):
                problems.append(f"{name}: {m}")
    if problems:
        raise AssertionError(f"{label}: " + "; ".join(problems))
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark self-test")
    parser.add_argument("--seconds", default="2")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for workload in (w["name"] for w in spec["workloads"]):
        common = ("--workload", workload, "--seed", "7", "--seconds", args.seconds)
        result_of(bench(ROOT, *common, "--trace", "0"), end_to_end, f"{workload} untraced")
        first, second = (
            result_of(bench(ROOT, *common, "--trace", "1"), per_layer, f"{workload} traced")
            for _ in range(2)
        )
        for name in EXACT:
            if first[name]["value"] != second[name]["value"]:
                raise AssertionError(
                    f"{workload}: {name} differs between same-seed runs: "
                    f"{first[name]['value']} != {second[name]['value']}"
                )
        counts = ", ".join(f"{n}={first[n]['value']:g}" for n in EXACT)
        print(f"ok {workload}: {counts}")

    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = bench(bare, "--workload", spec["workloads"][0]["name"], "--seed", "1",
                     "--seconds", args.seconds, "--trace", "0")
        if done.returncode == 0 or done.stdout.strip():
            raise AssertionError(f"run without sources: {done.returncode} {done.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a benchmark run
            os.rmdir(scratch)
    print("ok: without sources the benchmark exits", done.returncode, "and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
