"""The three benchmark workloads: inputs from a seed, one job, its gates.

A workload is built by ``setup`` (import of znav plus the problem
build, timed as set-up) and then serves an endless, seeded job stream:
``inputs(i)`` is a pure function of the seed and the job index, so a
run and its traced rerun see the same jobs in the same order.  ``run``
is the timed call into znav; ``check`` applies the correctness gates to
its result outside the timed region.

This module imports nothing from znav at import time, so the import
cost lands inside ``setup`` where it is measured.
"""
import contextlib
import importlib
import io
import math
import os
import random
import re
import shutil
import sys
import tempfile
import time

# Correctness gates (ROADMAP acceptance budgets).
F_DRIFT_MAX = 1e-6  # criterion 4: conserved travel-time value F
DRAG_RESIDUAL_MAX = 1e-6  # criterion 3: wind-drag identity residuals
INDICATRIX_RESIDUAL_MAX = 1e-9  # criterion 6: max |F - 1| on the indicatrix

A = 0.75
C = 5 / 7
# Steps of Roberts' R1 and R2 sequences: powers of 1/g for the golden
# ratio (d = 1) and the plastic number (d = 2).
R1 = (0.6180339887498949,)
R2 = (0.7548776662466927, 0.5698402909980532)
WIND_SPEC = "rotation:0.7142857142857143"


class Workload:
    """One job stream over a problem built once in ``setup``."""

    name = ""
    cycle = 1  # runs stop only at cycle boundaries, keeping the job mix whole
    count_jobs = 8  # exact per-layer counts are means over the first jobs

    def __init__(self, root: str, seed: int):
        self.root = root
        self.seed = seed
        self.validate_mild_s = 0.0

    def setup(self) -> None:
        sys.path.insert(0, os.path.join(self.root, "src"))
        self.znav = importlib.import_module("znav")
        self.integ = importlib.import_module("znav.integrate")
        self.spray = importlib.import_module("znav.spray")

    def instrument(self, wrap) -> None:
        """Wrap inputs the tracer cannot reach by patching znav (None restores them)."""

    def close(self) -> None:
        """Remove what the workload left behind."""

    def point(self, i: int, steps: tuple[float, ...]) -> list[float]:
        """Job i's point in [0, 1)^d: an additive low-discrepancy sequence under a seeded shift.

        Any run of consecutive jobs covers the input domain evenly, so the
        job-time statistics of a run barely depend on the seed.
        """
        # str seeds hash with SHA-512: stable across processes and hash seeds
        shift = random.Random(f"{self.name}/{self.seed}")
        return [(shift.random() + (i + 1) * a) % 1.0 for a in steps]

    def inputs(self, i: int):
        raise NotImplementedError

    def run(self, inputs):
        raise NotImplementedError

    def check(self, inputs, result) -> tuple[list[str], float | None]:
        """Gate failures (empty when the job passed) and the job's worst error.

        The error is None for a job with no accuracy reference.
        """
        raise NotImplementedError

    def traj_errors(self, rd, traj, label: str) -> tuple[list[str], float]:
        errors = []
        if traj.termination == "step_failure":
            errors.append(f"{label}: step_failure {traj.events}")
        F_value = self.znav.F_value
        drift = max(abs(F_value(rd, s.point, s.vel) - 1.0) for _, s in traj.samples)
        if not drift <= F_DRIFT_MAX:
            errors.append(f"{label}: F drift {drift:.3e} > {F_DRIFT_MAX:g}")
        return errors, drift


class RotationFan(Workload):
    """The benchmark scenario as a library fan: closed-form spray, DP5 stepping."""

    name = "rotation_fan"
    members = 8

    def setup(self) -> None:
        super().setup()
        z = self.znav
        self.sph = z.Spheroid(A)
        self.wind = z.rotation_wind(C)
        self.start = z.SurfacePoint(0.0, math.pi / 2)
        self.cfg = z.IntegratorConfig(t_end=3.0)
        self.rd = z.RandersData(self.sph, self.wind)

    def inputs(self, i: int) -> list[float]:
        step = 2.0 * math.pi / self.members
        offset = step * self.point(i, R1)[0]
        return [offset + k * step for k in range(self.members)]

    def run(self, headings):
        return self.integ.integrate_family(
            self.sph, self.wind, self.start, headings, "randers", self.cfg
        )

    def check(self, headings, members):
        errors, worst = [], 0.0
        for m in members:
            label = f"heading {m.heading:.6f}"
            if m.trajectory is None:
                errors.append(f"{label}: member error {m.error!r}")
                continue
            errs, drift = self.traj_errors(self.rd, m.trajectory, label)
            errors += errs
            worst = max(worst, drift)
        return errors, worst


def mild_custom_components(phi: float, theta: float) -> tuple[float, float]:
    """A non-Killing mild wind: sampled max |W|_h is 0.60 at a = 3/4."""
    return (-0.5 + 0.1 * math.cos(phi), 0.15 * math.sin(phi) * math.sin(theta))


class CustomWind(Workload):
    """Single randers tracks under a custom wind: the numeric quotient spray."""

    name = "custom_wind"
    count_jobs = 16

    def setup(self) -> None:
        super().setup()
        z = self.znav
        self.sph = z.Spheroid(A)
        self.wind = z.custom_wind(mild_custom_components)
        t0 = time.perf_counter()
        z.validate_mild(self.sph, self.wind)
        self.validate_mild_s = time.perf_counter() - t0
        self.cfg = z.IntegratorConfig(t_end=1.0)
        self.rd = z.RandersData(self.sph, self.wind)

    def instrument(self, wrap) -> None:
        # The wind is the benchmark's own input: count its evaluations by
        # wrapping the component function it hands to znav.
        components = wrap(mild_custom_components) if wrap else mild_custom_components
        self.wind = self.znav.custom_wind(components)
        self.rd = self.znav.RandersData(self.sph, self.wind)

    def inputs(self, i: int) -> tuple[float, float]:
        # Headings within 45 degrees of due east or west.  By Clairaut's
        # relation such tracks stay >= 0.2 rad from the poles over t_end.
        # Nearer the pole the finite-difference stencil (2e-3 rad in
        # theta) spans the pole itself, and the numeric spray breaks
        # down: see README.md, "Known defect".
        u, v = self.point(i, R2)
        east_west, frac = divmod(2.0 * v, 1.0)
        heading = math.pi * east_west + math.pi / 2 * (frac - 0.5)
        return 0.3 + (math.pi - 0.6) * u, heading

    def run(self, inputs):
        theta, heading = inputs
        z = self.znav
        rhs = self.spray.make_rhs("randers", self.sph, self.wind)
        s0 = z.initial_state_randers(
            self.sph, self.wind, z.SurfacePoint(0.0, theta), heading
        )
        return self.integ.integrate(rhs, s0, self.cfg, kind="randers")

    def check(self, inputs, traj):
        theta, heading = inputs
        return self.traj_errors(
            self.rd, traj, f"theta {theta:.6f} heading {heading:.6f}"
        )


_FAN_ARGS = (
    "--a 0.75 --start 0,pi/2 --heading-start 0 --heading-step pi/8 "
    "--heading-count 16 --t-end 3"
)
_SCENARIO = f"--a 0.75 --wind {WIND_SPEC} --start 0,pi/2"

# The README figure-recipe table, one CLI command per job, in cycle order.
# Outputs are relative names, placed in the workload's temp dir.
RECIPES = {
    "fan_h": f"family {_FAN_ARGS} --wind none --kind h --svg fan_h.svg",
    "fan_alpha": f"family {_FAN_ARGS} --wind {WIND_SPEC} --kind alpha"
    " --svg fan_alpha.svg",
    "fan_f": f"family {_FAN_ARGS} --wind {WIND_SPEC} --kind randers"
    " --segments 1,2,3 --svg fan_f.svg",
    "fan50": f"family {_SCENARIO} --kind randers --heading-start 0"
    " --heading-step pi/4 --heading-count 8 --t-end 50 --svg fan50.svg",
    "geodesic": f"geodesic {_SCENARIO} --kind randers --heading pi/3"
    " --plot path3d --csv path.csv --svg path.svg",
    "compare": f"compare {_SCENARIO} --heading pi/3 --t-end 7"
    " --svg overlay.svg --csv diff.csv",
    "indicatrix": f"indicatrix {_SCENARIO} --n 360 --svg indicatrix.svg",
    "report": f"report {_SCENARIO} --heading pi/3 --t-end 7 --csv channel.csv"
    " --svg channel.svg --speed-svg speed.svg",
}
_FAN_COUNTS = {"fan_h": (14, 2), "fan_alpha": (14, 2), "fan_f": (14, 2), "fan50": (6, 2)}
_OUTPUT_FLAGS = ("--csv", "--svg", "--speed-svg")
_NUMBER = r"([-+0-9.eE]+|nan|inf)"


def _printed(text: str, key: str) -> float | None:
    m = re.search(rf"\b{key}\s*=\s*{_NUMBER}", text)
    return float(m.group(1)) if m else None


class Recipes(Workload):
    """The README figure recipes through znav.cli.main: the CLI as users run it."""

    name = "recipes"
    cycle = len(RECIPES)
    count_jobs = len(RECIPES)

    def setup(self) -> None:
        super().setup()
        self.cli = importlib.import_module("znav.cli")
        scratch = os.path.join(self.root, ".bench_tmp")
        os.makedirs(scratch, exist_ok=True)
        self.outdir = tempfile.mkdtemp(prefix="recipes-", dir=scratch)
        self.argv = {}
        for name, line in RECIPES.items():
            argv = line.split()
            for k, arg in enumerate(argv[:-1]):
                if arg in _OUTPUT_FLAGS:
                    argv[k + 1] = os.path.join(self.outdir, argv[k + 1])
            self.argv[name] = argv

    def close(self) -> None:
        if getattr(self, "outdir", None):
            shutil.rmtree(self.outdir, ignore_errors=True)
            with contextlib.suppress(OSError):  # still in use by another run
                os.rmdir(os.path.dirname(self.outdir))

    def inputs(self, i: int) -> str:
        # the seed only rotates where the fixed cycle starts
        names = list(RECIPES)
        return names[(self.seed + i) % len(names)]

    def run(self, name: str):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(self.argv[name])
        return code, out.getvalue(), err.getvalue()

    def check(self, name: str, result):
        code, out, err = result
        errors = []
        if code != 0:
            errors.append(f"{name}: exit code {code}: {err.strip()}")
        argv = self.argv[name]
        for k, arg in enumerate(argv[:-1]):
            path = argv[k + 1]
            if arg in _OUTPUT_FLAGS and not (
                os.path.isfile(path) and os.path.getsize(path) > 0
            ):
                errors.append(f"{name}: missing or empty output {path}")
        worst = None
        if name in _FAN_COUNTS:
            circ, trans = _FAN_COUNTS[name]
            want = f"counts: circumpolar={circ} transpolar={trans} failed=0"
            if want not in out:
                errors.append(f"{name}: expected '{want}'")
        elif name == "geodesic":
            drift = _printed(out, "conservation_drift")
            if drift is None or not drift <= F_DRIFT_MAX:
                errors.append(f"{name}: conservation_drift {drift} > {F_DRIFT_MAX:g}")
            if "termination=step_failure" in out:
                errors.append(f"{name}: step_failure")
            worst = drift
        elif name == "compare":
            residuals = [
                _printed(out, key)
                for key in ("killing_residual_phi", "killing_residual_theta")
            ]
            for key, value in zip(("phi", "theta"), residuals):
                if value is None or not value < DRAG_RESIDUAL_MAX:
                    errors.append(
                        f"{name}: wind-drag residual {key} {value} >= {DRAG_RESIDUAL_MAX:g}"
                    )
            worst = None if None in residuals else max(residuals)
        elif name == "indicatrix":
            residual = _printed(out, "indicatrix_residual")
            if residual is None or not residual <= INDICATRIX_RESIDUAL_MAX:
                errors.append(f"{name}: indicatrix residual {residual}"
                              f" > {INDICATRIX_RESIDUAL_MAX:g}")
        elif name == "report":
            if "speed_0 = 0.8921" not in out:
                errors.append(f"{name}: expected 'speed_0 = 0.8921'")
        return errors, worst


WORKLOADS = {w.name: w for w in (RotationFan, CustomWind, Recipes)}
