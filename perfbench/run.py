"""znav benchmark: one closed-loop workload, one client, one process.

    python3 perfbench/run.py --workload rotation_fan|custom_wind|recipes \
        --seed N --seconds S --trace 0|1

Run from a source checkout (``src/znav`` beside this directory).  The
job inputs come from ``--seed``, and every job's output is checked
against the workload's correctness gates (failures are printed and
counted).  The last stdout line is the result JSON: with ``--trace 0``
the end-to-end metrics of an untraced run (job times in reference
seconds, see CALIBRATION_REF_S), with ``--trace 1`` the per-layer
metrics of a traced run, preceded by an untraced half-run for
``trace.overhead``.  The line before it records the run's environment,
sample counts and raw wall times.  See README.md for what each workload
and metric is for.
"""
import argparse
import contextlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

from tracing import Tracer
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
# The reported tail is the value with at least TAIL_BEYOND jobs beyond
# it: the highest percentile that many samples support.
TAIL_BEYOND = 10
# Job times are reported in reference seconds: each wall time is scaled by
# CALIBRATION_REF_S over the mean of the calibration loops timed just
# before and just after the job.  On a shared host the effective CPU speed
# drifts by +-25% over tens of seconds; the loop slows with the machine,
# but no change to znav moves it.  CALIBRATION_REF_S only fixes the unit:
# it is one median of the loop on the baseline machine (README.md).
CALIBRATION_REF_S = 0.012
CALIBRATION_ITERS = 9000


def calibrate() -> float:
    """Wall seconds of a fixed pure-Python loop: float math, calls, small tuples."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(CALIBRATION_ITERS):
        x = (i * 0.001, math.sin(i * 0.01), math.cos(i * 0.01))
        acc += sum(v * v for v in x) ** 0.5
    return time.perf_counter() - t0


class Phase:
    """Job times, failures and accuracy errors of one measured loop."""

    def __init__(self):
        self.durations: list[float] = []  # wall seconds
        self.ref_durations: list[float] = []  # reference seconds
        self.errors: list[float] = []  # one per job with an accuracy reference
        self.failed = 0

    @property
    def attempted(self) -> int:
        return len(self.durations)


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the tail: the TAIL_BEYOND+1-th largest value.

    With 2 * TAIL_BEYOND values or fewer the tail is the maximum.
    """
    n = len(values)
    if n <= 2 * TAIL_BEYOND:
        return 100.0, max(values)
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(values)[n - 1 - TAIL_BEYOND]


def measure(workload, seconds: float, tracer: Tracer | None = None,
            min_jobs: int = 1) -> Phase:
    """Run whole job cycles, closed loop, until the next one would overrun."""
    phase = Phase()
    clock = time.perf_counter
    began = clock()
    i = 0
    calibration = calibrate()
    while True:
        cycle_began = clock()
        for _ in range(workload.cycle):
            inputs = workload.inputs(i)
            span = tracer.job(i) if tracer else contextlib.nullcontext()
            errors = None
            with span:
                t0 = clock()
                try:
                    result = workload.run(inputs)
                except Exception:  # a failed job is counted, never dropped
                    errors = [f"job raised:\n{traceback.format_exc()}"]
                wall = clock() - t0
            after = calibrate()
            phase.durations.append(wall)
            phase.ref_durations.append(wall * 2 * CALIBRATION_REF_S / (calibration + after))
            calibration = after
            if errors is None:
                try:
                    errors, error = workload.check(inputs, result)
                    if error is not None:
                        phase.errors.append(error)
                except Exception:
                    errors = [f"gate raised:\n{traceback.format_exc()}"]
            if errors:
                phase.failed += 1
                for line in errors:
                    print(f"gate failed: {workload.name} job {i}: {line}", flush=True)
            i += 1
        now = clock()
        if phase.attempted >= min_jobs and now - began + (now - cycle_began) > seconds:
            return phase


def probe_setups(name: str, seed: int) -> list[dict]:
    """Set the workload up in SETUP_PROBES fresh interpreters, one after another."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, probe, name, str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def end_to_end(phase: Phase, setups: list[dict]) -> dict[str, float]:
    d = phase.ref_durations
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "jobs_per_s": len(d) / sum(d),
        "job_s_p50": statistics.median(d),
        "job_s_tail": tail(d)[1],
        # no job with a reference left (all failed): no digits to claim
        "accuracy_digits": -math.log10(tail(phase.errors)[1]) if phase.errors else 0.0,
        "success_ratio": (phase.attempted - phase.failed) / phase.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def git_commit() -> str:
    """HEAD of the checkout's git metadata, or 'unknown' outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    numpy = sys.modules.get("numpy")
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", "not imported"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
        "znav_threads_env": os.environ.get("ZNAV_THREADS"),
    }


def phase_info(phase: Phase) -> dict:
    return {
        "jobs": phase.attempted,
        "failed": phase.failed,
        "wall_jobs_per_s": phase.attempted / sum(phase.durations),
        "wall_job_s_p50": statistics.median(phase.durations),
        "wall_job_s_tail": tail(phase.durations)[1],
        "tail_percentile": tail(phase.durations)[0],
        "accuracy_tail_percentile": tail(phase.errors)[0] if phase.errors else None,
        "worst_error": max(phase.errors, default=None),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so the workload still cleans up
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "znav", "__init__.py")):
        print(f"perfbench: no znav source at {os.path.join(ROOT, 'src', 'znav')}",
              file=sys.stderr)
        return 2

    setups = probe_setups(args.workload, args.seed)
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    info = {"workload": args.workload, "trace": args.trace,
            "setup_s_samples": [s["setup_s"] for s in setups]}
    try:
        workload.setup()
        if args.trace:
            plain = measure(workload, args.seconds / 2)
            counter = Tracer(count_calls=True)
            workload.instrument(counter.count_wind)
            counter.install()
            try:
                counted = measure(workload, 0.0, counter, min_jobs=workload.count_jobs)
            finally:
                counter.uninstall()
                workload.instrument(None)
            timer = Tracer(count_calls=False)
            timer.install()
            try:
                traced = measure(workload, args.seconds / 2, timer)
            finally:
                timer.uninstall()
            metrics = {**counter.count_metrics(), **timer.time_metrics()}
            metrics["wind.validate_mild_s"] = statistics.median(
                s["validate_mild_s"] for s in setups)
            metrics["trace.overhead"] = (
                statistics.median(traced.ref_durations)
                / statistics.median(plain.ref_durations)
                - 1.0
            )
            phases = {"untraced": plain, "counted": counted, "traced": traced}
            info["fan_workers_observed"] = timer.fan_workers()
        else:
            # Every job type of a cycle needs more than TAIL_BEYOND samples,
            # or the tail falls from one job type to the next as the
            # machine's speed moves the cycle count.
            plain = measure(workload, args.seconds,
                            min_jobs=workload.cycle * (TAIL_BEYOND + 2))
            metrics = end_to_end(plain, setups)
            phases = {"untraced": plain}
    finally:
        workload.close()

    info.update(environment(args.seed))
    # what integrate_family resolves with ZNAV_THREADS unset
    info["fan_workers"] = min(8, os.cpu_count() or 1)
    info["phases"] = {k: phase_info(p) for k, p in phases.items()}
    print(json.dumps({"info": info}))

    attempted = sum(p.attempted for p in phases.values())
    failed = sum(p.failed for p in phases.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": metrics[k], "unit": u}
            for k, u in declared_units(args.trace).items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
