"""Mutation gate: every curated single-line mutant must fail its tests.

Each mutant replaces one line of one file, found by its text without
the indentation, which the replacement keeps.  On a fresh temporary copy
of src/, tests/ and pyproject.toml, the script first runs all the
mutants' test files unmutated, which must pass, and then, per mutant,
`python -m pytest -x -q` on that mutant's test files, which must fail a
test.  It exits 1 if a mutant's line is not found exactly once, the
unmutated run fails, or a mutant survives or breaks collection instead
of failing a test.  The unmutated run draws its hypothesis seed at
random and, if it fails, prints pytest's whole output, hypothesis's
falsifying example included, and the seed that replays its draws (a
drawn wind's coefficients do not show in the example); a mutant prints
one line.

Run it with the test dependencies installed:

    python tests/mutants.py

pytest does not collect this file, whose name does not match test_*.py.
"""
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INTEGRATE = "src/znav/integrate.py"
CLI = "src/znav/cli.py"
EXPORT = "src/znav/export.py"
SPRAY = "src/znav/spray.py"
CONTROL = "src/znav/control.py"
RANDERS = "src/znav/randers.py"
WIND = "src/znav/wind.py"
SPHEROID = "src/znav/spheroid.py"
T_INTEGRATE = ("tests/test_integrate.py",)
T_CLI = ("tests/test_cli.py",)
T_EXPORT = ("tests/test_export.py",)
T_SPRAY = ("tests/test_spray.py",)
T_CONTROL = ("tests/test_control.py",)
T_RANDERS = ("tests/test_randers.py",)
T_SPHEROID = ("tests/test_spheroid.py",)
T_RECORDS = ("tests/test_records.py",)
# the variational oracle: the custom-wind jet and the alpha route without spray_numeric
T_VARIATION = ("tests/test_variation.py",)

# (what the mutant breaks, file, line, replacement, test files)
MUTANTS = [
    ("step-end retry of a spherical step", INTEGRATE,
     "if not cap and (q13 <= theta_lo or q13 >= theta_hi):", "if False:", T_INTEGRATE),
    ("cap guard stop", INTEGRATE,
     "t_stop = t + tau_in * h", "pass", T_INTEGRATE),
    ("stop at the halving floor", INTEGRATE, "t_stop = t", "pass", T_INTEGRATE),
    ("step underflow as an error, not a returned track", INTEGRATE,
     'raise NavigationError(f"step underflow at t={t}")', "break", T_INTEGRATE),
    ("transpolar as the label of a stopped track", INTEGRATE,
     'return "circumpolar" if traj.t_stop is None else "transpolar"',
     'return "transpolar" if traj.t_stop is None else "circumpolar"', T_INTEGRATE),
    ("band entry, not the closest approach, as the stop time", INTEGRATE,
     "t_stop = t + tau_in * h", "t_stop = t + tau_c * h", T_INTEGRATE),
    ("finiteness check of the guard test", INTEGRATE,
     "if not math.isfinite(rho):", "if False:", T_INTEGRATE),
    ("per-sample pivot unwrap", INTEGRATE,
     "if tau > tau_c:", "if False:", T_INTEGRATE),
    ("step-end pivot unwrap", INTEGRATE,
     "if tau_c <= 1.0:", "if False:", T_INTEGRATE),
    ("per-step update of the rhs's phi branch", INTEGRATE,
     "phi1 = branch[0] = _unwrap(math.atan2(q13, p13), last)",
     "phi1 = _unwrap(math.atan2(q13, p13), last)", T_INTEGRATE),
    ("guard band width", SPHEROID,
     "POLE_GUARD = 1e-6", "POLE_GUARD = 1e-7", T_INTEGRATE),
    ("a leg started from the spherical rhs in any chart", INTEGRATE,
     "du1, dv1 = f(p1, q1, u1, v1)", "du1, dv1 = rhs(p1, q1, u1, v1)", T_INTEGRATE),
    ("refusal of a non-finite error norm", INTEGRATE,
     "if not math.isfinite(deno):", "if False:", T_INTEGRATE),
    ("printed conservation drift", CLI,
     'f"conservation_drift={_conservation_drift(cfg, traj):.3e}"',
     'f"conservation_drift={_conservation_drift(cfg, traj) / 2:.3e}"', T_CLI),
    ("a drawn fan member kept referenced", CLI,
     "traj = member.trajectory", "traj = cfg.held = member.trajectory", T_CLI),
    # a member's engine error is an except clause: catching nothing aborts the fan,
    # and catching everything turns a defect into a member's error
    ("failed member of a fan", INTEGRATE,
     "except NavigationError as error:", "except ():", T_INTEGRATE),
    ("only engine errors carried by a fan member", INTEGRATE,
     "except NavigationError as error:", "except Exception as error:", T_INTEGRATE),
    ("finite-heading check of a fan", CLI,
     "if not all(map(math.isfinite, cfg.headings)):", "if False:", T_CLI),
    ("finite-curve check of the indicatrix", CLI,
     "if not all(map(math.isfinite, ext)):", "if False:", T_CLI),
    ("residual line of compare in still air", CLI,
     "if cfg.wind is not STILL_AIR:", "if True:", T_CLI),
    ("sign of the wind drag in compare's residual", CLI,
     "res_phi = max(abs(rf[1] - (rh[1] + w1 * rh[0])) for rf, rh in zip(rows_f, rows_h))",
     "res_phi = max(abs(rf[1] - (rh[1] - w1 * rh[0])) for rf, rh in zip(rows_f, rows_h))",
     T_CLI),
    ("undefined departure of a report", CLI, "if rec0 is None:", "if False:", T_CLI),
    ("shared boundary point of two time segments", EXPORT,
     "seg = [k for k, tk in enumerate(t) if lo <= tk <= hi]",
     "seg = [k for k, tk in enumerate(t) if lo < tk <= hi]", T_EXPORT),
    ("finite range and scale of a figure's frame", EXPORT,
     "if not all(map(math.isfinite, (xspan, yspan, sx, sy))):", "if False:", T_EXPORT),
    ("y-axis flip of a figure", EXPORT,
     "xy[1::2] = [size - (y0 + (b - ymin) * sy) for b in y]",
     "xy[1::2] = [y0 + (b - ymin) * sy for b in y]", T_EXPORT),
    # the row-width check is an except clause: catching no exception disables it
    ("row-width check of a CSV table", EXPORT,
     "except TypeError as exc:  # too few or too many cells for the line",
     "except () as exc:", T_EXPORT),
    ("length check of a CSV's control channel", EXPORT,
     "rows, embed_rows(sph, again), channel, strict=True",
     "rows, embed_rows(sph, again), channel", T_EXPORT),
    ("one pass over a CSV's rows", EXPORT, "rows, again = tee(rows)", "again = rows", T_EXPORT),
    ("escape of < in figure text", EXPORT,
     'return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")',
     'return (text.replace("&", "&amp;").replace(">", "&gt;")', T_EXPORT),
    ("wind-Jacobian term of the theta costate rate", SPRAY,
     "pd2 = -f * (q + p1 * j12 + p2 * j22)", "pd2 = -f * (q + p2 * j22)", T_SPRAY),
    ("costate term of the heading's norm rate", SPRAY,
     "norm_d = q * v + n1 * pd1 + n2 * pd2", "norm_d = q * v + n2 * pd2", T_SPRAY),
    ("pi, not -pi, as the wrapped end of a signed angle", CONTROL,
     "return math.pi if r == -math.pi else r", "return r", T_CONTROL),
    ("gap of an undefined heading or course", CONTROL,
     "except (ZeroRelativeVelocity, ZeroVelocity):", "except ():", T_CONTROL),
    ("None entry of a gap row", CONTROL, "records.append(None)", "pass", T_CONTROL),
    ("<W, y>_h term of alpha's radicand", RANDERS,
     "return lam, math.sqrt(b * b + lam * (u * u * h11 + v * v * h22)) / lam, -b / lam",
     "return lam, math.sqrt(lam * (u * u * h11 + v * v * h22)) / lam, -b / lam", T_RANDERS),
    ("lam factor of alpha's radicand", RANDERS,
     "return lam, math.sqrt(b * b + lam * (u * u * h11 + v * v * h22)) / lam, -b / lam",
     "return lam, math.sqrt(b * b + (u * u * h11 + v * v * h22)) / lam, -b / lam", T_RANDERS),
    ("theta stencil entry of a custom wind's jet", WIND,
     "q1, q2 = components(phi, theta + WIND_FD_STEP)", "q1, q2 = components(phi, theta)",
     T_VARIATION),
    ("factor of a custom wind's central differences", WIND,
     "k = 0.5 / WIND_FD_STEP", "k = 1.0 / WIND_FD_STEP", T_VARIATION),
    ("W_1 theta-derivative term of the alpha metric's a12", SPRAY,
     "a12t = (l1t * l2 + l1 * l2t - 2.0 * l1 * l2 * gt) * il2",
     "a12t = (l1 * l2t - 2.0 * l1 * l2 * gt) * il2", T_VARIATION),
    ("cross term of the alpha metric's determinant", SPRAY,
     "det = a11 * a22 - a12 * a12", "det = a11 * a22", T_VARIATION),
    ("semiaxis of the embedded z coordinate", SPHEROID,
     "yield r[0], s * cos(phi), s * sin(phi), a * cos(theta)",
     "yield r[0], s * cos(phi), s * sin(phi), cos(theta)", T_SPHEROID),
    ("t column of a projected series split in time", EXPORT,
     't = array("d") if spec.segments and spec.kind in PATH_KINDS else None', "t = None",
     T_EXPORT),
    ("plane columns of the view along x", EXPORT,
     '_PROJECTION = {"z": (1, 2), "x": (2, 3), "y": (1, 3)}',
     '_PROJECTION = {"z": (1, 2), "x": (3, 2), "y": (1, 3)}', T_EXPORT),
    ("first line of a written file", EXPORT,
     "for line in chain((first,), lines):", "for line in lines:", T_EXPORT),
    ("newline that ends a figure", EXPORT, 'yield "</svg>\\n"', 'yield "</svg>"', T_EXPORT),
    ("lone point of a series drawn as a circle", EXPORT, "if len(x) == 1:", "if False:",
     T_EXPORT),
    # the figure refusal is an except clause: catching nothing makes it exit 3, not 2
    ("refusal of an unscalable indicatrix figure", CLI,
     "except EmptyData as exc:  # a range or scale of the figure that is not finite",
     "except () as exc:", T_CLI),
    ("--view of a geodesic figure left unread", CLI,
     'segments=cfg.segments, view_axis=cfg.view or "z")', 'segments=cfg.segments, view_axis="z")',
     T_CLI),
    ("--view of a fan figure left unread", CLI,
     'frame = PlotSpec("path3d_projection", segments=cfg.segments, view_axis=cfg.view or "z")',
     'frame = PlotSpec("path3d_projection", segments=cfg.segments, view_axis="z")', T_CLI),
    ("fan members held as embedded rows, not projected", CLI,
     "project(frame, embed_rows(cfg.sph, traj.rows))))",
     "list(embed_rows(cfg.sph, traj.rows))))", T_CLI),
    ("a fan member's track alive while the next member is integrated", CLI,
     "del member, traj", "del member", T_CLI),
    ("a geodesic figure labelled with --kind, not the flow it ran", CLI,
     'write_svg(spec, [(SeriesStyle(label=traj.kind, color="#d62728"), data)], cfg.svg)',
     'write_svg(spec, [(SeriesStyle(label=cfg.kind, color="#d62728"), data)], cfg.svg)', T_CLI),
    ("refusal of a None wind for alpha and randers", SPRAY,
     "if wind is None:", "if False:", T_SPRAY),
    ("compare integrating once per kind, not once per flow", CLI,
     "for kind, wind in dict.fromkeys(flows.values())}", "for kind, wind in flows.values()}",
     T_CLI),
    ("h channel of compare measured in the --wind wind", CLI,
     "channels = {flow: control_channel(cfg.sph, flow[1], runs[flow].rows)",
     "channels = {flow: control_channel(cfg.sph, cfg.wind, runs[flow].rows)", T_CLI),
    ("compare computing a channel per kind, not per flow", CLI,
     'for flow in dict.fromkeys((flows["randers"], flows["h"]))}',
     'for flow in (flows["randers"], flows["h"])}', T_CLI),
    ("a track labelled with the kind asked for, not the flow it ran", INTEGRATE,
     "kind, wind = resolve_flow(kind, wind)", "wind = resolve_flow(kind, wind)[1]",
     T_INTEGRATE),
    ("speed curve seeded as randers whatever --kind says", CLI,
     "speeds = [speed_of(cfg.sph, initial_state(cfg.sph, cfg.wind, cfg.kind, cfg.start, hd))",
     'speeds = [speed_of(cfg.sph, initial_state(cfg.sph, cfg.wind, "randers", cfg.start, hd))',
     T_CLI),
    ("refusal of an empty path", CLI,
     'raise argparse.ArgumentTypeError("path must not be empty")', "pass", T_CLI),
    ("unsigned zero drift in compass mode", CLI,
     "drift0 = 0.0 - rec0.drift if cfg.compass else rec0.drift  # 0, not -0, for no drift",
     "drift0 = -rec0.drift if cfg.compass else rec0.drift", T_CLI),
    ("refusal of a rotation rate that is not a number", CLI,
     'raise ValidationError(f"bad rotation rate in {text!r}") from exc', "return 0.5", T_CLI),
    ("refusal of segment boundaries out of order", CLI,
     "if list(cfg.segments) != sorted(set(cfg.segments)):", "if False:", T_CLI),
    ("refusal of a family without all three heading options", CLI,
     "if cfg.heading_start is None or cfg.heading_step is None or cfg.heading_count is None:",
     "if False:", T_CLI),
    ("refusal of a multiplier that is not positive", CLI,
     "if any(m <= 0 for m in cfg.mults):", "if False:", T_CLI),
    ("first-phase starting step kept when the probe's d2 is not finite", INTEGRATE,
     "if not math.isfinite(d2):", "if False:", T_INTEGRATE),
    ("refusal of a --start without exactly two angles", CLI,
     "if len(parts) != 2:", "if False:", T_CLI),
    ("PlotSpec.__new__'s refusal of an unknown view axis", EXPORT,
     'if self.view_axis not in ("x", "y", "z"):', "if False:", T_EXPORT),
    ("a __dict__ on every Spheroid", SPHEROID, "__slots__ = ()", "pass", T_RECORDS),
    ("IntegratorConfig._replace unchecked", INTEGRATE,
     "return cls(*super()._make(iterable))", "return super()._make(iterable)", T_RECORDS),
    ("zero-length chord of a cap step at rest", INTEGRATE,
     "if not dd > 0.0:", "if False:", T_INTEGRATE),
    ("wind's phi-rate in a time-optimal start", SPRAY,
     "return [TangentVector(w1 + u.u, w2 + u.v) for u in units]",
     "return [TangentVector(u.u, w2 + u.v) for u in units]", (*T_CONTROL, *T_RANDERS)),
    ("alpha start of the alpha flow", SPRAY, 'if kind == "alpha":', "if False:", T_CONTROL),
    ("each overlay track drawn in the h colour", CLI,
     "[(SeriesStyle(label=k, color=palette[k]), embed_rows(cfg.sph, runs[flow].rows))",
     '[(SeriesStyle(label=k, color=palette["h"]), embed_rows(cfg.sph, runs[flow].rows))',
     T_CLI),
    ("drift of the channel figure drawn solid", CLI,
     '(SeriesStyle(label="drift", color="#1f77b4", dash="6,3"),',
     '(SeriesStyle(label="drift", color="#1f77b4", dash=""),', T_CLI),
    ("every indicatrix curve in the first colour", CLI,
     'curves.append((SeriesStyle(label=f"t={mult:g}", color=palette[i % len(palette)]), pts))',
     'curves.append((SeriesStyle(label=f"t={mult:g}", color=palette[0]), pts))', T_CLI),
    ("fan colours of the two classes swapped", CLI,
     'color = "#1f77b4" if label == "transpolar" else "#d62728"',
     'color = "#1f77b4" if label == "circumpolar" else "#d62728"', T_CLI),
    ("refusal of two files of a run that are one", CLI, "if real in seen:", "if False:", T_CLI),
    ("refusal of a run without --heading", CLI, "if cfg.heading is None:", "if False:", T_CLI),
    ("refusal of a path holding a NUL byte", CLI,
     'if "\\0" in text:  # no file system takes one in a name', "if False:", T_CLI),
    ("refusal of a figure option without --svg", CLI,
     "if getattr(cfg, option, None) is not None and not cfg.svg:", "if False:", T_CLI),
    ("refusal of --view for a polar figure", CLI,
     'if getattr(cfg, "plot", None) == "polar" and cfg.view is not None:', "if False:", T_CLI),
    ("a fan's member files left out of the files its run names", CLI,
     'if cfg.csv and "heading_count" in cfg:', "if False:", T_CLI),
]


def mutate(text: str, line: str, replacement: str) -> str:
    """text with its one line whose stripped form is line replaced."""
    lines = text.split("\n")
    hits = [i for i, old in enumerate(lines) if old.strip() == line]
    if len(hits) != 1:
        raise SystemExit(f"line {line!r} found {len(hits)} times, not once")
    old = lines[hits[0]]
    lines[hits[0]] = old[:len(old) - len(old.lstrip())] + replacement
    return "\n".join(lines)


def run_pytest(tests, path: str | None = None,
               text: str | None = None) -> subprocess.CompletedProcess:
    """pytest -x run on a fresh copy, path's text replaced by text."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, Path(tmp) / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        if path is not None:
            (Path(tmp) / path).write_text(text)
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=tmp, env=env, capture_output=True, text=True)


def first_failure(run: subprocess.CompletedProcess) -> str:
    """The first FAILED line of pytest's output, else its last line."""
    lines = run.stdout.strip().splitlines() or [""]
    return ([ln for ln in lines if ln.startswith("FAILED")] + lines[-1:])[0]


def main() -> int:
    start = time.perf_counter()
    mutated = [(what, path, mutate((ROOT / path).read_text(), line, new), tests)
               for what, path, line, new, tests in MUTANTS]
    every = sorted({test for *_, tests in MUTANTS for test in tests})
    seed = random.randrange(2**32)
    run = run_pytest([f"--hypothesis-seed={seed}", *every])
    print(f"unmutated: exit {run.returncode}: {first_failure(run)}", flush=True)
    if run.returncode != 0:
        print(run.stdout + run.stderr)
        print(f"replay: python -m pytest --hypothesis-seed={seed} {' '.join(every)}")
        return 1
    survivors = []
    for what, path, text, tests in mutated:
        t0 = time.perf_counter()
        run = run_pytest(tests, path, text)
        code = run.returncode
        verdict = "killed" if code == 1 else "SURVIVED" if code == 0 else f"ERROR {code}"
        print(f"{verdict:9} {time.perf_counter() - t0:5.1f} s  {what}: {first_failure(run)}",
              flush=True)
        if code != 1:
            survivors.append(what)
    print(f"{len(MUTANTS) - len(survivors)}/{len(MUTANTS)} mutants killed"
          f" in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
