"""Output and work manifest: a fixed list of CLI runs, pinned by digest and step counts.

Each run goes through znav.cli.main in a fresh temporary directory, with
relative output names.  One sha256 covers its exit code, stdout, stderr
and every file left in the directory (sorted name plus bytes); beside it
stand its rhs calls and accepted and rejected steps, summed over the
run's tracks from Trajectory.stats.  tests/manifest.json holds them, and
the test names each run whose digest or counts changed.  Every figure a
run leaves must parse, each polyline holding two or more finite x,y
pairs.  Run as a script, the file makes the same check on the standard
library alone and exits 1 with the test's message, else 0; a change
that moves an output or the work behind it on purpose rewrites the
file with --update:

    python tests/test_manifest.py
    python tests/test_manifest.py --update
"""
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import sys
import tempfile
from pathlib import Path
from unittest import mock
from xml.etree import ElementTree

if __name__ == "__main__":  # a script run from a checkout imports the package from src/
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import znav.cli  # noqa: E402

MANIFEST = Path(__file__).with_name("manifest.json")
# The package's name znav.integrate is the function: its module, whose
# integrate runs every CLI track (through track), is reached through sys.modules.
INTEGRATE = sys.modules["znav.integrate"]

W = "rotation:0.7142857142857143"
S = ["--a", "0.75", "--wind", W, "--start", "0,pi/2"]
FAN = ["--a", "0.75", "--start", "0,pi/2", "--heading-start", "0", "--heading-step", "pi/8",
       "--heading-count", "16", "--t-end", "3"]
FAN50 = ["family", *S, "--kind", "randers", "--heading-start", "0", "--heading-step", "pi/4",
         "--heading-count", "8", "--t-end", "50"]
FAN2 = ["family", "--heading-start", "0", "--heading-step", "pi/2", "--heading-count", "2",
        "--t-end", "1"]
TINY_TOL = ["--rel-tol", "1e-300", "--abs-tol", "1e-300", "--t-end", "1"]

# name: argv.  The README figure recipes with --csv added come first, then
# edge and refused runs; a config file of CONFIGS is written before each run naming it.
RUNS = {
    "fan_h": ["family", *FAN, "--wind", "none", "--kind", "h",
              "--svg", "fan_h.svg", "--csv", "fan_h.csv"],
    "fan_alpha": ["family", *FAN, "--wind", W, "--kind", "alpha",
                  "--svg", "fan_alpha.svg", "--csv", "fan_alpha.csv"],
    "fan_f": ["family", *FAN, "--wind", W, "--kind", "randers", "--segments", "1,2,3",
              "--svg", "fan_f.svg", "--csv", "fan_f.csv"],
    "fan50": [*FAN50, "--svg", "fan50.svg", "--csv", "fan50.csv"],
    "geodesic": ["geodesic", *S, "--kind", "randers", "--heading", "pi/3", "--plot", "path3d",
                 "--csv", "path.csv", "--svg", "path.svg"],
    "compare": ["compare", *S, "--heading", "pi/3", "--t-end", "7",
                "--svg", "overlay.svg", "--csv", "diff.csv"],
    "indicatrix": ["indicatrix", *S, "--n", "360", "--svg", "indicatrix.svg",
                   "--csv", "indicatrix.csv"],
    "report": ["report", *S, "--heading", "pi/3", "--t-end", "7", "--csv", "channel.csv",
               "--svg", "channel.svg", "--speed-svg", "speed.svg"],
    "geodesic_polar": ["geodesic", *S, "--heading", "pi/3", "--plot", "polar",
                       "--svg", "path.svg", "--csv", "path.csv"],
    "geodesic_view_segments": ["geodesic", *S, "--heading", "pi/3", "--view", "y",
                               "--segments", "1,2", "--svg", "path.svg"],
    "fan50_view_x": [*FAN50, "--view", "x", "--segments", "10,20,30", "--svg", "fan50_x.svg"],
    "compare_still_air": ["compare", "--wind", "none", "--heading", "0.3", "--t-end", "2",
                          "--csv", "diff.csv"],
    "report_alpha_speed": ["report", *S, "--kind", "alpha", "--heading", "pi/3",
                           "--csv", "channel.csv", "--speed-svg", "speed.svg"],
    "report_compass": ["report", *S, "--heading", "0", "--compass"],
    "config_run": ["geodesic", "--config", "run.cfg", "--csv", "out.csv"],
    "lone_point_fan": ["family", "--a", "0.75", "--start", "0,2e-5", "--heading-start", "pi/2",
                       "--heading-step", "pi", "--heading-count", "2", "--t-end", "1",
                       "--svg", "lone.svg", "--csv", "lone.csv"],
    "fan_svg_stem": [*FAN2, "--csv", "out.csv", "--svg", "out.csv"],
    "fan_svg_past_members": [*FAN2, "--csv", "out.csv", "--svg", "out_002.csv"],
    "all_underflow_fan": ["family", "--heading-start", "0", "--heading-step", "1",
                          "--heading-count", "2", *TINY_TOL],
    "report_tiny_heading": ["report", "--wind", "none", "--heading", "1e-310", "--t-end", "1",
                            "--csv", "r.csv", "--svg", "r.svg"],
    "indicatrix_tiny": ["indicatrix", *S, "--multipliers", "1e-306", "--svg", "tiny.svg"],
    "indicatrix_huge": ["indicatrix", *S, "--multipliers", "1e308", "--svg", "huge.svg"],
    "geodesic_no_heading": ["geodesic", *S],
    "compare_no_heading": ["compare", *S],
    "report_no_heading": ["report", *S],
    "heading_foo": ["geodesic", *S, "--heading", "foo"],
    "segments_out_of_order": ["geodesic", *S, "--heading", "0.3", "--segments", "2,1",
                              "--svg", "path.svg"],
    "segments_without_svg": ["geodesic", "--heading", "0.3", "--segments", "1,2",
                             "--csv", "out.csv"],
    "fan_needs_headings": ["family", "--heading-count", "2", "--segments", "2,1"],
    "fan_bad_view": [*FAN2, "--view", "w", "--svg", "fan.svg"],
    "same_path": ["geodesic", "--heading", "0.3", "--svg", "same", "--csv", "same"],
    "fan_svg_over_member": [*FAN2, "--csv", "out.csv", "--svg", "out_000.csv"],
    "nul_path": ["geodesic", "--heading", "0.3", "--csv", "a\0b"],
    "empty_config": ["geodesic", "--heading", "0.3", "--config="],
    "pole_start": ["geodesic", "--start", "0,0", "--heading", "0.3"],
    "wind_not_mild": ["geodesic", "--wind", "rotation:2", "--heading", "0.3"],
    "geodesic_negative_heading": ["geodesic", *S, "--heading", "-pi/8", "--csv", "path_neg.csv"],
    "config_clobber": ["geodesic", "--config", "run.cfg", "--csv", "run.cfg"],
    "view_without_svg": ["geodesic", "--heading", "0.3", "--view", "x"],
    "nul_config_line": ["geodesic", "--heading", "0.3", "--config", "nul.cfg"],
}
CONFIGS = {"run.cfg": "heading = 0.3\nt_end = 0.5\n", "nul.cfg": "csv = a\0b\n"}


def check_svg(path: Path) -> None:
    """Raise unless the figure parses and each polyline has 2+ finite x,y pairs."""
    for line in ElementTree.parse(path).getroot().iter("{http://www.w3.org/2000/svg}polyline"):
        points = line.get("points")
        pairs = [pair.split(",") for pair in points.split(" ")]
        if len(pairs) < 2 or any(len(xy) != 2 for xy in pairs) \
                or not all(math.isfinite(float(v)) for xy in pairs for v in xy):
            raise ValueError(f"{path.name}: bad points {points[:80]!r}")


def run_entry(argv: list[str]) -> dict:
    """sha256 and summed step counts of one run, in a fresh temporary directory."""
    work = {"rhs_calls": 0, "accepted": 0, "rejected": 0}
    integrate = INTEGRATE.integrate

    def counted(*args, **kwargs):
        traj = integrate(*args, **kwargs)
        for key in work:
            work[key] += getattr(traj.stats, key)
        return traj

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name in CONFIGS.keys() & argv:
                Path(name).write_text(CONFIGS[name])
            with mock.patch.object(INTEGRATE, "integrate", counted), \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = znav.cli.main(argv)
            parts = [str(code).encode(), out.getvalue().encode(), err.getvalue().encode()]
            for name in sorted(os.listdir()):
                if name.endswith(".svg"):
                    check_svg(Path(name))
                parts += [name.encode(), Path(name).read_bytes()]
        finally:
            os.chdir(cwd)
    digest = hashlib.sha256()
    for part in parts:  # length-prefixed, so no two sequences of parts hash alike
        digest.update(len(part).to_bytes(8, "big") + part)
    return {"sha256": digest.hexdigest(), **work}


def manifest() -> dict:
    return {"python": platform.python_version(),
            "runs": {name: run_entry(argv) for name, argv in RUNS.items()}}


def mismatch() -> str:
    """A message naming each run that differs from the manifest, or '' if none does."""
    want = json.loads(MANIFEST.read_text())
    got = manifest()
    changed = [f"{name}: {want['runs'].get(name)} -> {got['runs'].get(name)}"
               for name in sorted(want["runs"].keys() | got["runs"].keys())
               if want["runs"].get(name) != got["runs"].get(name)]
    if not changed:
        return ""
    return (
        f"{len(changed)} run(s) differ from {MANIFEST.name}, generated on Python"
        f" {want['python']}, here Python {got['python']}; rewrite it with"
        " python tests/test_manifest.py --update if the change is meant:\n"
        + "\n".join(changed))


def test_every_run_matches_the_manifest():
    message = mismatch()
    assert not message, message


if __name__ == "__main__":
    if sys.argv[1:] == ["--update"]:
        MANIFEST.write_text(json.dumps(manifest(), indent=1) + "\n")
        print(f"wrote {MANIFEST} for {len(RUNS)} runs")
    elif message := mismatch():
        sys.exit(message)
    else:
        print(f"{len(RUNS)} runs match {MANIFEST.name}")
