"""End-to-end command-line behavior: outputs, summaries, exit codes."""
import contextlib
import gc
import io
import math
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
import xml.etree.ElementTree as ET
from array import array
from datetime import timedelta
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies

import znav
import znav.cli
from znav import Spheroid, integrate, make_rhs, render_svg
from znav.cli import ValidationError, build_parser, main, parse_angle
from znav.spheroid import embed_rows
from tests.conftest import ROTATION_RATE, nan_after, read_csv

BENCH = ["--a", "0.75", "--wind", "rotation:0.7142857142857143",
         "--start", "0,pi/2"]
# Heading 0 into a rotation wind just below 1: the ground speed stays ~5e-13,
# so the course is undefined on every row of the randers track.
BECALMED = ["--a", "0.75", "--wind", "rotation:0.9999999999995", "--start", "0,pi/2",
            "--heading", "0", "--t-end", "0.05"]
# 2e-5 from the north pole, heading pi/2 meets the pole guard before its first
# sample: a valid transpolar track of one row, drawn as a dot.
LONE_START = ["--a", "0.75", "--start", "0,2e-5"]
LONE_SUMMARY = "termination=pole_proximity classification=transpolar t_last=0 "
# A two-member fan of horizon 1, writing out_000.csv and out_001.csv for --csv out.csv.
FAN2 = ["family", "--heading-start", "0", "--heading-step", "pi/2", "--heading-count", "2",
        "--t-end", "1"]
# The package's name znav.integrate is the function: its module, where
# every track is seeded and integrated, is reached through sys.modules.
INTEGRATE = sys.modules["znav.integrate"]
# Each subcommand's parser, whose option table is what the subcommand accepts.
SUBPARSERS = next(a for a in build_parser()._actions if a.dest == "command").choices


class TestParseAngle:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("pi", math.pi),
            ("pi/3", math.pi / 3),
            ("2pi/3", 2 * math.pi / 3),
            ("-pi/8", -math.pi / 8),
            ("0.5pi", math.pi / 2),
            ("1.0471975511965976", 1.0471975511965976),
        ],
    )
    def test_literals(self, text, expected):
        assert parse_angle(text) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "pi/0", ".pi", "east"])
    def test_rejected(self, text):
        with pytest.raises(ValidationError):
            parse_angle(text)

    def test_degrees_mode(self):
        assert parse_angle("60", degrees=True) == pytest.approx(math.pi / 3)
        # pi-literals stay exact radians regardless of the toggle
        assert parse_angle("pi/3", degrees=True) == pytest.approx(math.pi / 3)


def _stdout(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process run; stderr is discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


class TestNegativeValues:
    @pytest.mark.parametrize(
        "flag, value",
        [("--heading", "-pi/8"), ("--heading", "-PI/8"), ("--heading", "-0.5"),
         ("--heading", "-.5"), ("--start", "-0.0,pi/3"), ("--start", "-pi,pi/3")],
    )
    def test_separate_value_reads_as_attached(self, flag, value):
        base = ["geodesic", *BENCH, "--heading", "0.3", "--t-end", "1"]
        separate = _stdout([*base, flag, value])
        assert separate[0] == 0
        assert separate == _stdout([*base, f"{flag}={value}"])


class TestStartAzimuth:
    def test_full_turn_is_the_same_start(self):
        runs = [_stdout(["geodesic", *BENCH, "--heading", "pi/3", "--t-end", "1",
                         "--start", f"{phi},pi/2"]) for phi in ("0", "2pi")]
        assert runs[0][0] == 0
        assert runs[1] == runs[0]

    def test_huge_azimuth_is_wrapped(self):
        code, out = _stdout(["geodesic", "--heading", "0.3", "--t-end", "1",
                             "--start", "1e308,pi/2"])
        assert code == 0
        final_phi = float(out.split("final_phi=")[1].split()[0])
        assert 0.0 <= final_phi < 2 * math.pi + 2.0


class TestGeodesic:
    def test_benchmark_summary_and_csv(self, tmp_path, capsys):
        csv = tmp_path / "path.csv"
        code = main(["geodesic", *BENCH, "--heading", "pi/3", "--kind", "randers",
                     "--t-end", "3", "--csv", str(csv)])
        out = capsys.readouterr().out
        assert code == 0
        assert "termination=completed" in out
        assert "classification=circumpolar" in out
        cols = read_csv(str(csv))
        assert len(cols["t"]) == 301
        assert cols["phi_dot"][0] == pytest.approx(-3 / 14, abs=1e-15)

    def test_printed_drift_matches_csv_rows(self, tmp_path):
        # the geodesic recipe prints max |F - 1| over the rows it writes
        # to its CSV, recomputed here from the file
        csv, svg = tmp_path / "path.csv", tmp_path / "path.svg"
        code, out = _stdout(["geodesic", *BENCH, "--kind", "randers", "--heading", "pi/3",
                             "--plot", "path3d", "--csv", str(csv), "--svg", str(svg)])
        assert code == 0
        cols = read_csv(str(csv))
        rd = znav.RandersData(znav.Spheroid(0.75), znav.rotation_wind(0.7142857142857143))
        worst = max(
            abs(znav.F_value(rd, znav.SurfacePoint(phi, theta), znav.TangentVector(u, v)) - 1.0)
            for phi, theta, u, v in zip(cols["phi"], cols["theta"], cols["phi_dot"],
                                        cols["theta_dot"])
        )
        assert len(cols["t"]) == 301 and worst > 0.0
        assert re.search(r"conservation_drift=(\S+)", out).group(1) == f"{worst:.3e}"

    def test_svg_kinds(self, tmp_path):
        for plot, view in (("path3d", ["--view", "x"]), ("polar", [])):
            svg = tmp_path / f"{plot}.svg"
            code = main(["geodesic", *BENCH, "--heading", "pi/3", "--t-end", "1",
                         "--svg", str(svg), "--plot", plot, *view])
            assert code == 0
            ET.parse(svg)  # well-formed document

    def test_segmented_figure(self, tmp_path):
        svg = tmp_path / "seg.svg"
        code = main(["geodesic", *BENCH, "--heading", "pi/3", "--t-end", "3",
                     "--svg", str(svg), "--segments", "1,2,3"])
        assert code == 0
        root = ET.parse(svg).getroot()
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 3

    def test_segment_tail_drawn(self, tmp_path):
        # the 200 samples after the last boundary take the next colour
        svg = tmp_path / "seg.svg"
        code = main(["geodesic", *BENCH, "--heading", "pi/3", "--t-end", "5",
                     "--svg", str(svg), "--segments", "1,2,3"])
        assert code == 0
        root = ET.parse(svg).getroot()
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 4
        assert polylines[3].get("stroke") == "#e377c2"
        assert len(polylines[3].get("points").split()) == 201

    @pytest.mark.parametrize("theta", ["0", "1e-7", "pi"])
    def test_start_in_pole_band_rejected(self, theta, capsys):
        code = main(["geodesic", *BENCH, "--start", f"0,{theta}", "--heading", "0"])
        assert code == 2
        assert "of a pole; chart undefined" in capsys.readouterr().err

    def test_invalid_shape_rejected(self, capsys):
        code = main(["geodesic", "--a", "0", "--heading", "0"])
        assert code == 2
        assert "error[validation]" in capsys.readouterr().err

    @pytest.mark.parametrize("a", ["nan", "inf"])
    def test_non_finite_shape_rejected(self, a, capsys):
        code = main(["geodesic", "--a", a, "--heading", "0"])
        assert code == 2
        assert "error[validation]" in capsys.readouterr().err

    def test_strong_wind_rejected(self, capsys):
        code = main(["geodesic", "--a", "0.75", "--wind", "rotation:1.0",
                     "--heading", "0"])
        assert code == 2

    def test_missing_heading(self):
        assert main(["geodesic", *BENCH]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["geodesic", "--heading", "0", "--t-end", "1"],
            ["family", "--heading-start", "0", "--heading-step", "1",
             "--heading-count", "1", "--t-end", "1"],
            ["compare", "--heading", "0", "--t-end", "1"],
            ["indicatrix"],
            ["report", "--heading", "0", "--t-end", "1"],
        ],
        ids=["geodesic", "family", "compare", "indicatrix", "report"],
    )
    def test_io_failure(self, argv, capsys):
        code = main([*argv, *BENCH, "--csv", "no/such/dir/out.csv"])
        assert code == 4
        err = capsys.readouterr().err
        assert "error[io]: cannot write CSV to no/such/dir/" in err

    def test_tiny_abs_tol_completes(self, capsys):
        # the default start has phi = 0: the initial-step scale is abs_tol
        code = main(["geodesic", "--heading", "0.3", "--abs-tol", "1e-200",
                     "--t-end", "1"])
        assert code == 0
        assert "termination=completed" in capsys.readouterr().out

    def test_zero_rotation_is_still_air(self, tmp_path, capsys):
        # rotation:0 and rotation:-0.0 run the flow of --wind none, and
        # compare prints no wind-drag residuals for any of the three
        for command in (["geodesic", "--kind", "alpha"], ["compare"]):
            runs = []
            for i, wind in enumerate(("none", "rotation:0", "rotation:-0.0")):
                path = tmp_path / f"{command[0]}{i}.csv"
                code = main([*command, "--a", "0.75", "--wind", wind, "--start", "0,pi/2",
                             "--heading", "pi/3", "--t-end", "1", "--csv", str(path)])
                assert code == 0
                runs.append((capsys.readouterr().out, path.read_bytes()))
            assert runs[1] == runs[0] and runs[2] == runs[0]
            assert "killing_residual" not in runs[0][0]

    @pytest.mark.parametrize("kind", ["alpha", "randers"])
    @pytest.mark.parametrize("wind", ["none", "rotation:0"])
    def test_still_air_figure_names_the_h_flow(self, wind, kind, tmp_path):
        # in still air every kind runs the h flow, and the figure's one
        # series is labelled with the flow that ran, not with --kind
        svg = tmp_path / "path.svg"
        code, _ = _stdout(["geodesic", "--wind", wind, "--kind", kind, "--heading", "pi/3",
                           "--t-end", "1", "--svg", str(svg)])
        assert code == 0
        titles = [e.text for e in ET.parse(svg).getroot().iter("{http://www.w3.org/2000/svg}title")]
        assert titles == ["h"]

    @pytest.mark.parametrize("argv, printed, dots", [
        (["geodesic", "--plot", "path3d"], LONE_SUMMARY, 1),
        (["geodesic", "--plot", "polar", "--segments", "0.5"], LONE_SUMMARY, 1),
        (["compare"], "max_dphi=0.000e+00 max_dtheta=0.000e+00", 3),
    ], ids=["path3d", "polar-segmented", "compare"])
    def test_track_stopped_before_first_sample_drawn(self, argv, printed, dots, tmp_path):
        # each exited 3 after writing its CSV: its figure refused a lone point
        csv, svg = tmp_path / "out.csv", tmp_path / "out.svg"
        code, out = _stdout([*argv, *LONE_START, "--heading", "pi/2",
                             "--csv", str(csv), "--svg", str(svg)])
        assert code == 0
        assert printed in out
        assert len(csv.read_text().splitlines()) == 1 + 1
        root = ET.parse(svg).getroot()
        assert len(root.findall("{http://www.w3.org/2000/svg}circle")) == dots
        assert not root.findall("{http://www.w3.org/2000/svg}polyline")

    def test_nan_mid_run_is_numeric_failure(self, monkeypatch, capsys):
        monkeypatch.setattr(INTEGRATE, "make_rhs",
                            lambda *args: nan_after(make_rhs(*args), 0.5))
        code = main(["geodesic", "--heading", "0.3", "--t-end", "2"])
        assert code == 3
        assert "error[numeric]: colatitude nan is not finite" in capsys.readouterr().err


class TestStepFailure:
    # at tolerances of 1e-300 every step is refused until h underflows
    TINY_TOL = ["--rel-tol", "1e-300", "--abs-tol", "1e-300", "--t-end", "1"]

    @pytest.mark.parametrize("command", ["geodesic", "compare", "report"])
    def test_numeric_exit(self, command, tmp_path, monkeypatch, capsys):
        # in still air and under the benchmark wind: one error line, no file
        monkeypatch.chdir(tmp_path)
        for wind in ("none", BENCH[3]):
            assert main([command, "--wind", wind, "--heading", "0.3", *self.TINY_TOL,
                         "--csv", "u.csv", "--svg", "u.svg"]) == 3
            assert capsys.readouterr().err == "error[numeric]: step underflow at t=0.0\n"
            assert list(tmp_path.iterdir()) == []

    def test_family_member_failed(self, capsys):
        code = main(["family", "--heading-start", "0", "--heading-step", "1",
                     "--heading-count", "1", *self.TINY_TOL])
        out = capsys.readouterr().out
        assert code == 3
        assert "member=00 heading=0 error=step underflow at t=" in out
        assert "counts: circumpolar=0 transpolar=0 failed=1" in out

    def test_library_fan_carries_the_printed_errors(self, capsys):
        # both members underflow, in still air and under the benchmark wind:
        # integrate_family carries, as each member's error, the
        # NavigationError whose text the CLI prints
        for rate in (None, ROTATION_RATE):
            code = main(["family", "--a", "0.75", "--start", "0,pi/2",
                         "--wind", f"rotation:{rate!r}" if rate else "none",
                         "--heading-start", "0", "--heading-step", "1",
                         "--heading-count", "2", *self.TINY_TOL])
            lines = capsys.readouterr().out.splitlines()
            assert code == 3
            assert lines == ["member=00 heading=0 error=step underflow at t=0.0",
                             "member=01 heading=1 error=step underflow at t=0.0",
                             "counts: circumpolar=0 transpolar=0 failed=2"]
            members = znav.integrate_family(
                Spheroid(0.75), znav.rotation_wind(rate) if rate else znav.STILL_AIR,
                znav.SurfacePoint(0.0, math.pi / 2), [0.0, 1.0], "randers",
                znav.IntegratorConfig(t_end=1.0, rel_tol=1e-300, abs_tol=1e-300))
            assert [m.trajectory for m in members] == [None, None]
            assert all(type(m.error) is znav.NavigationError for m in members)
            assert [f"member={i:02d} heading={m.heading:.6g} error={m.error}"
                    for i, m in enumerate(members)] == lines[:2]

    def test_failed_member_left_out_of_a_fan(self, tmp_path, monkeypatch):
        # the second rhs made returns NaN, so member 01 underflows at once;
        # the fan goes on, and the member has no class, CSV or polyline
        made = []

        def second_nan(*args):
            made.append(make_rhs(*args))
            return (lambda *state: (math.nan, math.nan)) if len(made) == 2 else made[-1]

        monkeypatch.setattr(INTEGRATE, "make_rhs", second_nan)
        csv, svg = tmp_path / "fan.csv", tmp_path / "fan.svg"
        code, out = _stdout(["family", *BENCH, "--heading-start", "0", "--heading-step",
                             "pi/2", "--heading-count", "4", "--t-end", "3",
                             "--csv", str(csv), "--svg", str(svg)])
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "member=01 heading=1.5708 error=step underflow at t=0.0"
        for i in (0, 2, 3):
            assert lines[i].startswith(f"member={i:02d} ")
            assert "classification=" in lines[i]
        assert lines[4] == "counts: circumpolar=2 transpolar=1 failed=1"
        assert sorted(os.listdir(tmp_path)) == ["fan.svg", "fan_000.csv", "fan_002.csv",
                                               "fan_003.csv"]
        root = ET.parse(svg).getroot()
        assert len(root.findall(".//{http://www.w3.org/2000/svg}polyline")) == 3


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["geodesic", "--wind", "rotation:nan", "--heading", "pi/3"],
            ["geodesic", "--wind", "rotation:0.5", "--heading", "nan"],
            ["report", "--wind", "rotation:0.5", "--heading", "nan"],
            ["family", *BENCH, "--heading-start", "0", "--heading-step", "nan",
             "--heading-count", "4"],
            ["geodesic", "--heading", "inf"],
            ["geodesic", "--start", "nan,pi/2", "--heading", "0"],
            ["geodesic", "--heading", "0.3", "--t-end", "1", "--segments", "nan"],
            ["geodesic", "--heading", "0.3", "--t-end", "1", "--segments", "1,nan"],
            ["family", *BENCH, "--heading-start", "0", "--heading-step", "1",
             "--heading-count", "2", "--t-end", "1", "--segments", "0.5,inf"],
            ["indicatrix", "--multipliers", "nan"],
            ["indicatrix", "--multipliers", "1,inf"],
            ["geodesic", "--heading", "0.3", "--t-end", "1e308"],
            ["geodesic", "--heading", "0.3", "--t-end", "1e20"],
            ["geodesic", "--heading", "0.3", "--t-end", "1e308", "--sample-dt", "1e308"],
            ["geodesic", "--heading", "0.3", "--t-end", "1", "--max-step", "1e-13"],
            ["geodesic", "--heading", "0.3", "--a", "1e160"],
            ["geodesic", "--heading", "0.3", "--rel-tol", "1", "--abs-tol", "1"],
            # rejected before a heading list or a curve is built
            ["family", "--heading-start", "0", "--heading-step", "1",
             "--heading-count", "1000000000"],
            ["indicatrix", "--n", "1000000000"],
        ],
        ids=["wind-nan", "heading-nan", "report-heading-nan", "family-step-nan",
             "heading-inf", "start-nan", "segments-nan", "segments-tail-nan",
             "family-segments-inf", "multipliers-nan", "multipliers-inf",
             "t-end-sample-overflow", "t-end-over-grid-budget", "t-end-over-horizon",
             "no-step-cap", "a-square-overflow",
             "rel-tol-one", "fan-over-budget", "n-over-grid"],
    )
    def test_rejected(self, argv, capsys):
        assert main(argv) == 2
        assert "error[validation]" in capsys.readouterr().err

    @pytest.mark.parametrize("horizon, message", [
        (["--t-end", "1e308", "--sample-dt", "1e308"], "t_end must be in (0, 1000000]"),
        (["--t-end", "1000", "--sample-dt", "1e-4"], "exceeds the per-track grid"),
    ], ids=["horizon", "grid"])
    def test_endless_horizon_exits_at_once(self, horizon, message):
        # each once ran without end: a fresh process must exit 2 within 10 s,
        # on its own bound and not on an unknown flag
        src = os.path.dirname(os.path.dirname(znav.__file__))
        proc = subprocess.run([sys.executable, "-m", "znav.cli", "geodesic", "--heading", "0.3",
                               *horizon], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=10)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error[validation]: ") and message in proc.stderr


class TestFamily:
    def test_fan_counts_and_outputs(self, tmp_path, capsys):
        csv = tmp_path / "fan.csv"
        svg = tmp_path / "fan.svg"
        code = main(["family", *BENCH, "--kind", "randers",
                     "--heading-start", "0", "--heading-step", "pi/4",
                     "--heading-count", "8", "--t-end", "2",
                     "--csv", str(csv), "--svg", str(svg)])
        out = capsys.readouterr().out
        assert code == 0
        assert "counts:" in out
        assert out.count("member=") == 8
        for i in range(8):
            assert (tmp_path / f"fan_{i:03d}.csv").exists()
        root = ET.parse(svg).getroot()
        assert len(root.findall(".//{http://www.w3.org/2000/svg}polyline")) == 8

    def test_figure_may_take_the_stem_name(self, tmp_path, monkeypatch, capsys):
        # --csv names no file of its own, so --svg may take its name
        monkeypatch.chdir(tmp_path)
        assert main([*FAN2, "--csv", "out.csv", "--svg", "out.csv"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "out.csv", "out_000.csv", "out_001.csv"]
        ET.parse(tmp_path / "out.csv")  # the figure

    def test_lone_point_member_drawn(self, tmp_path, capsys):
        # member 00 stops at the pole guard before its first sample; the fan
        # once printed its counts and then exited 3 on the figure
        svg = tmp_path / "fan.svg"
        code = main(["family", *LONE_START, "--heading-start", "pi/2", "--heading-step", "pi",
                     "--heading-count", "2", "--t-end", "1", "--svg", str(svg)])
        assert code == 0
        assert "counts: circumpolar=1 transpolar=1 failed=0" in capsys.readouterr().out
        root = ET.parse(svg).getroot()
        assert len(root.findall("{http://www.w3.org/2000/svg}polyline")) == 1
        assert len(root.findall("{http://www.w3.org/2000/svg}circle")) == 1

    def test_long_fan_mixes_classes(self, capsys):
        code = main(["family", *BENCH, "--kind", "randers",
                     "--heading-start", "0", "--heading-step", "pi/4",
                     "--heading-count", "8", "--t-end", "50"])
        out = capsys.readouterr().out
        assert code == 0
        assert "classification=transpolar" in out
        assert "classification=circumpolar" in out
        # the README's t=50 fan: the step sequence, charts included, must
        # not move a classification
        assert "counts: circumpolar=6 transpolar=2 failed=0" in out

    @pytest.mark.parametrize("rate, kind", [
        (None, "h"), (ROTATION_RATE, "alpha"), (ROTATION_RATE, "randers"),
    ], ids=["h", "alpha", "randers"])
    def test_readme_t3_fan_counts(self, rate, kind, capsys):
        code = main(["family", "--a", "0.75", "--start", "0,pi/2", "--heading-start", "0",
                     "--heading-step", "pi/8", "--heading-count", "16", "--t-end", "3",
                     "--wind", f"rotation:{rate!r}" if rate else "none", "--kind", kind])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[16] == "counts: circumpolar=14 transpolar=2 failed=0"
        # integrate_family runs the CLI's fan path: its members print the CLI's lines
        members = znav.integrate_family(
            Spheroid(0.75), rate and znav.rotation_wind(rate), znav.SurfacePoint(0.0, math.pi / 2),
            [k * (math.pi / 8) for k in range(16)], kind, znav.IntegratorConfig(t_end=3.0))
        assert [f"member={i:02d} heading={m.heading:.6g} termination={m.trajectory.termination}"
                f" classification={znav.classify_path(m.trajectory)}"
                for i, m in enumerate(members)] == lines[:16]

    def test_figure_drawn_with_no_member_track_alive(self, tmp_path, monkeypatch):
        # a member's rows are dropped once its line is printed, its CSV
        # written and its rows projected: the figure sees only projections
        argv = ["family", *BENCH, "--heading-start", "0", "--heading-step", "pi/2",
                "--heading-count", "4", "--t-end", "3"]

        def run(name):
            return _stdout([*argv, "--csv", str(tmp_path / f"{name}.csv"),
                            "--svg", str(tmp_path / f"{name}.svg")])

        want = run("free")
        refs, alive = [], []
        integrate_track, write_svg = INTEGRATE.integrate, znav.cli.write_svg

        def tracked(*args, **kwargs):
            traj = integrate_track(*args, **kwargs)
            refs.append(weakref.ref(traj))
            return traj

        def checked(*args):
            gc.collect()
            alive.extend(ref() is not None for ref in refs)
            return write_svg(*args)

        monkeypatch.setattr(INTEGRATE, "integrate", tracked)
        monkeypatch.setattr("znav.cli.write_svg", checked)
        assert run("held") == want
        assert len(refs) == 4 and alive == [False] * 4
        code, out = want
        assert code == 0
        assert out.count("member=") == 4
        assert "counts: circumpolar=2 transpolar=2 failed=0" in out
        for suffix in (".svg", *(f"_{i:03d}.csv" for i in range(4))):
            assert (tmp_path / f"held{suffix}").read_bytes() == \
                (tmp_path / f"free{suffix}").read_bytes()
        root = ET.parse(tmp_path / "held.svg").getroot()
        assert len(root.findall(".//{http://www.w3.org/2000/svg}polyline")) == 4

    def test_one_member_alive_at_each_csv(self, tmp_path, monkeypatch):
        # each member is integrated when it is drawn: while member i's CSV
        # is written, no other member's trajectory exists, and no earlier
        # member's trajectory outlives the start of the next integration
        refs, alive, held = [], [], []
        integrate_track, write_csv = INTEGRATE.integrate, znav.cli.write_csv

        def tracked(*args, **kwargs):
            gc.collect()
            held.append(sum(ref() is not None for ref in refs))
            traj = integrate_track(*args, **kwargs)
            refs.append(weakref.ref(traj))
            return traj

        def checked(sph, rows, channel, path):
            gc.collect()
            alive.append(sum(ref() is not None and ref().rows is not rows for ref in refs))
            return write_csv(sph, rows, channel, path)

        monkeypatch.setattr(INTEGRATE, "integrate", tracked)
        monkeypatch.setattr("znav.cli.write_csv", checked)
        code, _ = _stdout(["family", *BENCH, "--heading-start", "0", "--heading-step", "pi/2",
                           "--heading-count", "4", "--t-end", "1",
                           "--csv", str(tmp_path / "fan.csv")])
        assert code == 0
        assert len(refs) == 4 and alive == [0] * 4
        assert held == [0] * 4

    @pytest.mark.parametrize("segments", [[], ["--segments", "1,2"]], ids=["whole", "segmented"])
    @pytest.mark.parametrize("view", ["x", "y", "z"])
    def test_members_held_as_projected_columns(self, view, segments, tmp_path, monkeypatch):
        # each member reaches the figure as array('d') columns of its
        # projection, with t only where the figure is split in time, and the
        # figure is the one drawn from the members' embedded rows
        svg = tmp_path / "fan.svg"
        argv = ["family", *BENCH, "--heading-start", "0", "--heading-step", "pi/2",
                "--heading-count", "4", "--t-end", "3", "--view", view, "--svg", str(svg),
                *segments]
        rows, received = [], []
        integrate_track, write_svg = INTEGRATE.integrate, znav.cli.write_svg

        def tracked(*args, **kwargs):
            traj = integrate_track(*args, **kwargs)
            rows.append(traj.rows)
            return traj

        def checked(spec, series, path):
            received.append((spec, series))
            return write_svg(spec, series, path)

        monkeypatch.setattr(INTEGRATE, "integrate", tracked)
        monkeypatch.setattr("znav.cli.write_svg", checked)
        assert _stdout(argv)[0] == 0
        [(spec, pairs)] = received
        assert len(pairs) == len(rows) == 4
        for (_, series), member_rows in zip(pairs, rows):
            assert (series.t is not None) == bool(segments)
            columns = [series.x, series.y, *([series.t] if segments else [])]
            for column in columns:
                assert type(column) is array and column.typecode == "d"
                assert len(column) == len(member_rows)
        embedded = [(style, list(embed_rows(Spheroid(0.75), r)))
                    for (style, _), r in zip(pairs, rows)]
        assert svg.read_bytes() == render_svg(spec, embedded).encode()

    @pytest.mark.parametrize("segments", [[], ["--segments", "2,4,6"]], ids=["whole", "segmented"])
    def test_fan_figure_peak_within_six_figures(self, segments, tmp_path, monkeypatch):
        # members held as projected columns and a figure written line by
        # line: drawing an 8-member t=10 fan peaks within 6x its SVG.  The
        # members are integrated before tracing starts, since tracemalloc
        # slows integrate some 300-fold, and handed out one at a time.
        svg = tmp_path / "fan.svg"
        argv = ["family", *BENCH, "--heading-start", "0", "--heading-step", "pi/4",
                "--heading-count", "8", "--t-end", "10", "--svg", str(svg), *segments]
        integrate_track, members = INTEGRATE.integrate, {}

        def kept(rhs, state0, *args, **kwargs):
            members[state0] = integrate_track(rhs, state0, *args, **kwargs)
            return members[state0]

        monkeypatch.setattr(INTEGRATE, "integrate", kept)
        assert _stdout(argv)[0] == 0
        want = svg.read_bytes()
        monkeypatch.setattr(INTEGRATE, "integrate",
                            lambda rhs, state0, *args, **kwargs: members.pop(state0))
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            code, _ = _stdout(argv)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert code == 0 and not members
        assert svg.read_bytes() == want
        assert peak <= 6 * len(want), f"peak {peak} B for a {len(want)} B figure"

    def test_overflowing_heading_rejected_before_work(self, capsys, monkeypatch):
        # member 2's heading 0 + 2 * 1e308 is inf
        def no_work(*args, **kwargs):
            raise AssertionError("integrate called on a rejected fan")

        monkeypatch.setattr(INTEGRATE, "integrate", no_work)
        code = main(["family", *BENCH, "--heading-start", "0",
                     "--heading-step", "1e308", "--heading-count", "3"])
        assert code == 2
        assert "are not all finite" in capsys.readouterr().err

    def test_empty_fan_rejected(self, capsys):
        code = main(["family", *BENCH, "--heading-start", "0",
                     "--heading-step", "pi/4", "--heading-count", "0"])
        assert code == 2
        assert "heading count must be >= 1" in capsys.readouterr().err


class TestCompare:
    def test_wind_drag_residual(self, tmp_path, capsys):
        csv = tmp_path / "diff.csv"
        code = main(["compare", *BENCH, "--heading", "pi/3", "--t-end", "2",
                     "--csv", str(csv), "--svg", str(tmp_path / "overlay.svg")])
        out = capsys.readouterr().out
        assert code == 0
        killing = [ln for ln in out.splitlines() if "killing_residual_phi" in ln]
        assert killing
        assert float(killing[0].split("killing_residual_phi=")[1].split()[0]) < 1e-6
        cols = read_csv(str(csv))
        assert max(abs(v) for v in cols["d_theta"]) < 1e-6
        # azimuthal rate translates by exactly -c
        assert max(abs(v + 5 / 7) for v in cols["d_phi_dot"]) < 1e-6
        # each track is measured in its flow's wind: the randers heading,
        # relative to the medium, is the h heading in still air
        assert max(abs(v) for v in cols["d_heading"]) < 1e-6
        root = ET.parse(tmp_path / "overlay.svg").getroot()
        assert len(root.findall(".//{http://www.w3.org/2000/svg}polyline")) == 3

    @pytest.mark.parametrize("svg, tracks", [(False, 2), (True, 3)])
    def test_alpha_track_only_for_the_figure(self, svg, tracks, tmp_path, monkeypatch):
        # each distinct flow is integrated, and its channel computed, once: in
        # still air, however it is spelled, the three kinds are one h track,
        # drawn three times, with one channel
        calls, channels = [], []
        control_channel = znav.cli.control_channel

        def counted(rhs, s0, cfg, kind=""):
            calls.append(kind)
            return integrate(rhs, s0, cfg, kind=kind)

        def counted_channel(*args):  # a channel's flow by its wind: STILL_AIR is the h flow
            channels.append("h" if args[1] is znav.STILL_AIR else "randers")
            return control_channel(*args)

        monkeypatch.setattr(INTEGRATE, "integrate", counted)
        monkeypatch.setattr("znav.cli.control_channel", counted_channel)
        for wind, want in ((BENCH[3], tracks), ("none", 1), ("rotation:0", 1)):
            calls.clear()
            channels.clear()
            argv = ["compare", "--a", "0.75", "--wind", wind, "--start", "0,pi/2",
                    "--heading", "pi/3", "--t-end", "1", "--csv", str(tmp_path / "diff.csv")]
            if svg:
                argv += ["--svg", str(tmp_path / "overlay.svg")]
            assert _stdout(argv)[0] == 0
            assert len(calls) == want
            assert ("alpha" in calls) == (svg and want > 1)
            assert channels == (["randers", "h"] if want > 1 else ["h"])
            if svg:
                root = ET.parse(tmp_path / "overlay.svg").getroot()
                points = [line.get("points")
                          for line in root.findall(".//{http://www.w3.org/2000/svg}polyline")]
                assert len(points) == 3 and (len(set(points)) == 1) == (want == 1)

    def test_channels_only_for_the_table(self, tmp_path, monkeypatch):
        # the printed maxima and residuals read the rows: without --csv no
        # control channel is computed
        calls = []
        control_channel = znav.cli.control_channel

        def counted(*args):  # a channel's flow by its wind: STILL_AIR is the h flow
            calls.append("h" if args[1] is znav.STILL_AIR else "randers")
            return control_channel(*args)

        monkeypatch.setattr("znav.cli.control_channel", counted)
        argv = ["compare", *BENCH, "--heading", "pi/3", "--t-end", "1"]
        plain = _stdout([*argv, "--svg", str(tmp_path / "overlay.svg")])
        assert plain[0] == 0 and calls == []
        assert _stdout([*argv, "--csv", str(tmp_path / "diff.csv")]) == plain
        assert calls == ["randers", "h"]

    def test_becalmed_channel_cells_empty(self, tmp_path):
        code, _ = _stdout(["compare", *BECALMED, "--csv", str(tmp_path / "diff.csv")])
        assert code == 0
        lines = (tmp_path / "diff.csv").read_text().splitlines()
        assert len(lines) == 1 + 6
        assert all(line.endswith(",,,,") and ",," not in line[:-4] for line in lines[1:])

    def test_channels_paired_by_row(self, tmp_path, monkeypatch):
        # a gap on one side empties that row's channel cells only: the
        # rows after it still pair the records of one time
        argv = ["compare", *BENCH, "--heading", "pi/3", "--t-end", "0.1"]
        assert _stdout([*argv, "--csv", str(tmp_path / "whole.csv")])[0] == 0
        control_channel = znav.cli.control_channel

        def gapped(sph, wind, rows):
            channel = control_channel(sph, wind, rows)
            if wind is not znav.STILL_AIR:  # the randers channel
                channel[3] = None
            return channel

        monkeypatch.setattr("znav.cli.control_channel", gapped)
        assert _stdout([*argv, "--csv", str(tmp_path / "gap.csv")])[0] == 0
        whole = (tmp_path / "whole.csv").read_text().splitlines()
        gap = (tmp_path / "gap.csv").read_text().splitlines()
        assert len(gap) == len(whole) == 1 + 11
        assert gap[4] == ",".join(whole[4].split(",")[:5] + [""] * 4)
        assert gap[:4] + gap[5:] == whole[:4] + whole[5:]

    def test_still_air_flows_coincide(self, capsys):
        code = main(["compare", "--a", "0.75", "--wind", "none",
                     "--start", "0,pi/2", "--heading", "pi/3", "--t-end", "2"])
        out = capsys.readouterr().out
        assert code == 0
        max_dphi = float(out.split("max_dphi=")[1].split()[0])
        assert max_dphi < 1e-8


class TestIndicatrix:
    def test_residual_and_curves(self, tmp_path, capsys):
        csv = tmp_path / "ind.csv"
        svg = tmp_path / "ind.svg"
        code = main(["indicatrix", *BENCH, "--n", "360",
                     "--csv", str(csv), "--svg", str(svg)])
        out = capsys.readouterr().out
        assert code == 0
        residual = float(out.split("indicatrix_residual=")[1].split()[0])
        assert residual < 1e-9
        root = ET.parse(svg).getroot()
        assert len(root.findall(".//{http://www.w3.org/2000/svg}polyline")) == 4
        with open(csv) as fh:
            assert len(fh.read().strip().split("\n")) == 1 + 4 * 360

    def test_too_few_samples(self):
        assert main(["indicatrix", *BENCH, "--n", "2"]) == 2

    @pytest.mark.parametrize("argv", [
        ["--multipliers", "1e308", "--svg", "i.svg"],
        ["--a", "0.3", "--multipliers", "1e308", "--csv", "i.csv"],
        ["--multipliers", "1e-306", "--svg", "i.svg"],
        ["--multipliers", "1e-320", "--svg", "i.svg"],
        ["--multipliers", "1e-306", "--csv", "i.csv", "--svg", "i.svg"],
        ["--multipliers", "1e-320", "--csv", "i.csv", "--svg", "i.svg"],
    ], ids=["figure-range", "curve", "figure-scale", "figure-scale-subnormal",
            "csv-figure-scale", "csv-figure-scale-subnormal"])
    def test_overflowing_multiplier_writes_nothing(self, argv, tmp_path, monkeypatch, capsys):
        # the first once drew a polyline of nan points, the second wrote
        # -inf cells to v; both exited 0.  Curves too small for their
        # figure's scale drew nan points and exited 0 too
        monkeypatch.chdir(tmp_path)
        assert main(["indicatrix", *argv]) == 2
        assert "overflow the indicatrix" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_tiny_multiplier_csv_still_runs(self, tmp_path):
        # the curves themselves are finite: without a figure they are written
        csv = tmp_path / "i.csv"
        assert main(["indicatrix", "--multipliers", "1e-306", "--csv", str(csv)]) == 0
        cells = [float(c) for line in csv.read_text().split()[1:] for c in line.split(",")]
        assert len(cells) == 6 * 360 and all(map(math.isfinite, cells))

    def test_large_multiplier_still_runs(self, tmp_path):
        csv, svg = tmp_path / "i.csv", tmp_path / "i.svg"
        code = main(["indicatrix", "--a", "0.3", "--multipliers", "1e307",
                     "--csv", str(csv), "--svg", str(svg)])
        assert code == 0
        assert "inf" not in csv.read_text() and "nan" not in svg.read_text()


class TestReport:
    def test_benchmark_block(self, capsys):
        code = main(["report", *BENCH, "--heading", "pi/3", "--t-end", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "heading_0 = 60 deg" in out
        assert "course_0 = 103.9 deg" in out
        assert "drift_0 = -43.9 deg" in out
        assert "speed_0 = 0.8921" in out

    def test_reversed_block(self, capsys):
        code = main(["report", *BENCH, "--heading", "2pi/3", "--t-end", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "course_0 = 144.5 deg" in out
        assert "drift_0 = -24.5 deg" in out
        assert "speed_0 = 1.491" in out

    def test_h_ignores_wind(self, capsys):
        # kind h is the still-air flow: seeded, integrated and measured in it
        code = main(["report", *BENCH, "--kind", "h", "--heading", "pi/3",
                     "--t-end", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "heading_0 = 60 deg" in out
        assert "drift_0 = 0 deg" in out

    def test_compass_conversion(self, capsys):
        code = main(["report", *BENCH, "--heading", "pi/3", "--t-end", "1",
                     "--compass"])
        out = capsys.readouterr().out
        assert code == 0
        # 60 deg counterclockwise from the parallel is azimuth 030
        assert "heading_0 = 30 deg (compass azimuth)" in out

    @pytest.mark.parametrize("argv", [
        ["--wind", "none", "--heading", "0.3"],
        ["--a", "0.75", "--wind", "rotation:0.7142857142857143", "--heading", "0"],
    ], ids=["still-air", "upwind"])
    def test_compass_zero_drift_unsigned(self, argv, capsys):
        # a zero drift once printed as -0 in compass mode
        assert main(["report", *argv, "--t-end", "1", "--compass"]) == 0
        assert "drift_0 = 0 deg\n" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["h", "alpha", "randers"])
    def test_speed_curve_is_the_departure_speed_of_its_kind(self, kind, tmp_path, monkeypatch):
        # the speed curve at heading H is the speed of the start that
        # report --heading H runs for its --kind, and prints as its speed_0
        curves, write_svg = [], znav.cli.write_svg

        def captured(spec, series, path):
            if spec.kind == "speed_vs_heading":
                curves.extend(rows for _, rows in series)
            return write_svg(spec, series, path)

        monkeypatch.setattr("znav.cli.write_svg", captured)
        argv = ["report", *BENCH, "--kind", kind, "--t-end", "1"]
        assert _stdout([*argv, "--heading", "0.3",
                        "--speed-svg", str(tmp_path / "speed.svg")])[0] == 0
        [curve] = curves
        sph, wind = Spheroid(0.75), znav.rotation_wind(ROTATION_RATE)
        start = znav.SurfacePoint(0.0, math.pi / 2)
        assert len(curve) == 361
        assert [speed for _, speed in curve] == [
            znav.speed_of(sph, znav.initial_state(sph, wind, kind, start, hd)) for hd, _ in curve]
        code, out = _stdout([*argv, "--heading", "60", "--deg"])
        assert code == 0
        assert f"speed_0 = {curve[60][1]:.4g}\n" in out

    def test_undefined_departure_is_numeric_error(self, tmp_path, capsys):
        code = main(["report", *BECALMED, "--csv", str(tmp_path / "r.csv")])
        assert code == 3
        assert "departure heading or course undefined" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_figure_outputs(self, tmp_path):
        code = main(["report", *BENCH, "--heading", "pi/3", "--t-end", "2",
                     "--svg", str(tmp_path / "channel.svg"),
                     "--speed-svg", str(tmp_path / "speed.svg")])
        assert code == 0
        assert (tmp_path / "channel.svg").exists()
        assert (tmp_path / "speed.svg").exists()


@pytest.mark.parametrize("argv, flag, styles", [
    (["compare", "--heading", "pi/3", "--t-end", "2"], "--svg",
     [("h", "#1f77b4", None), ("alpha", "#2ca02c", None), ("randers", "#d62728", None)]),
    (["report", "--heading", "pi/3", "--t-end", "2"], "--svg",
     [("heading", "#000000", None), ("course", "#d62728", None), ("drift", "#1f77b4", "6,3")]),
    (["indicatrix", "--n", "12", "--multipliers", "1,2,3,4,5"], "--svg",
     [(f"t={m}", color, None) for m, color in
      enumerate(("#1f77b4", "#d62728", "#9467bd", "#e377c2", "#1f77b4"), 1)]),
    (["report", "--heading", "pi/3", "--t-end", "2"], "--speed-svg",
     [("initial speed", "#000000", None)]),
    (["family", "--heading-start", "0", "--heading-step", "pi/2", "--heading-count", "4",
      "--t-end", "3"], "--svg", None),
], ids=["overlay", "channel", "indicatrix", "speed", "fan"])
def test_each_series_keeps_its_style(argv, flag, styles, tmp_path):
    # each figure's polylines, in order, carry the title, stroke and dash of
    # the series they draw; a fan member is blue if it printed transpolar
    svg = tmp_path / "figure.svg"
    code, out = _stdout([argv[0], *BENCH, *argv[1:], flag, str(svg)])
    assert code == 0
    polylines = ET.parse(svg).getroot().findall(".//{http://www.w3.org/2000/svg}polyline")
    drawn = [(p.find("{http://www.w3.org/2000/svg}title").text, p.get("stroke"),
              p.get("stroke-dasharray")) for p in polylines]
    if styles is None:
        classes = re.findall(r"classification=(\w+)", out)
        assert sorted(classes) == ["circumpolar"] * 2 + ["transpolar"] * 2
        assert [stroke for _, stroke, _ in drawn] == [
            "#1f77b4" if c == "transpolar" else "#d62728" for c in classes]
    else:
        assert drawn == styles


class TestConfigFile:
    def test_file_plus_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# benchmark setup\n"
            "a = 0.75\n"
            "wind = rotation:0.7142857142857143\n"
            "start = 0,pi/2\n"
            "heading = pi/3\n"
            "kind = randers\n"
            "t_end = 1\n"
        )
        code = main(["report", "--config", str(cfg), "--heading", "2pi/3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "course_0 = 144.5 deg" in out  # override took effect

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("a = 0.75\nwarp_factor = 9\n")
        code = main(["report", "--config", str(cfg), "--heading", "0"])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_int_and_bool_keys(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "a = 0.75\n"
            "wind = rotation:0.7142857142857143\n"
            "t_end = 1\n"
            "heading = 60\n"
            "heading_start = 0\n"
            "heading_step = 90\n"
            "heading_count = 3\n"
            "n = 7\n"
            "deg = true\n"
            "compass = yes\n"
        )
        assert main(["report", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        # 60 read as degrees, printed as compass azimuth 030
        assert "heading_0 = 30 deg (compass azimuth)" in out
        assert main(["family", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.count("member=") == 3
        assert "member=01 heading=1.5708 " in out
        assert main(["indicatrix", "--config", str(cfg)]) == 0
        assert " n=7 " in capsys.readouterr().out

    def test_unknown_kind_rejected(self, tmp_path, capsys):
        # config values meet the flags' argparse choices
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("kind = finsler\n")
        assert main(["geodesic", "--config", str(cfg), "--heading", "0"]) == 2
        assert "invalid choice: 'finsler'" in capsys.readouterr().err

    def test_non_integer_count_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n = 3.5\n")
        assert main(["indicatrix", "--config", str(cfg)]) == 2
        assert "error[validation]: argument --n: invalid int value: '3.5'" in capsys.readouterr().err

    def test_missing_file(self):
        assert main(["report", "--config", "nope.cfg", "--heading", "0"]) == 2

    # One README recipe per subcommand, with its output flags.
    RECIPES = [
        ["geodesic", *BENCH, "--heading", "pi/3", "--plot", "polar",
         "--svg", "path.svg", "--csv", "path.csv"],
        ["family", *BENCH, "--kind", "randers", "--heading-start", "0",
         "--heading-step", "pi/8", "--heading-count", "16", "--t-end", "3",
         "--segments", "1,2,3", "--svg", "fan_f.svg", "--csv", "fan_f.csv"],
        ["compare", *BENCH, "--heading", "pi/3", "--t-end", "7",
         "--svg", "overlay.svg", "--csv", "diff.csv"],
        ["indicatrix", *BENCH, "--n", "360", "--svg", "indicatrix.svg",
         "--csv", "indicatrix.csv"],
        ["report", *BENCH, "--heading", "pi/3", "--t-end", "7", "--svg",
         "channel.svg", "--csv", "channel.csv", "--speed-svg", "speed.svg"],
    ]

    @pytest.mark.parametrize("recipe", RECIPES, ids=[r[0] for r in RECIPES])
    def test_config_matches_flags(self, recipe, tmp_path, capsys, monkeypatch):
        command, options = recipe[0], recipe[1:]
        runs = {}
        for form in ("flags", "config"):
            (tmp_path / form).mkdir()
            monkeypatch.chdir(tmp_path / form)
            if form == "flags":
                argv = recipe
            else:
                lines = [f"{flag[2:].replace('-', '_')} = {value}"
                         for flag, value in zip(options[::2], options[1::2])]
                (tmp_path / "run.cfg").write_text("\n".join(lines) + "\n")
                argv = [command, "--config", str(tmp_path / "run.cfg")]
            assert main(argv) == 0
            files = {p.name: p.read_bytes() for p in (tmp_path / form).iterdir()}
            runs[form] = (capsys.readouterr().out, files)
        assert runs["config"] == runs["flags"]
        assert runs["flags"][1]

    @pytest.mark.parametrize(
        "command, line",
        [("geodesic", "view = q"), ("geodesic", "plot = pie"), ("report", "deg = y"),
         ("report", "config = other.cfg"), ("report", "help = yes"),
         ("geodesic", "view = x")],
    )
    def test_bad_entry_rejected_before_work(self, command, line, tmp_path, capsys,
                                            monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("integrate called on a rejected config")

        monkeypatch.setattr(INTEGRATE, "integrate", no_work)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"heading = 60\n{line}\n")
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error[validation]: ")

    def test_other_subcommand_keys_skipped(self, tmp_path, capsys):
        # a bad value under a key report does not have is not parsed
        cfg = tmp_path / "run.cfg"
        cfg.write_text("heading = pi/3\nt_end = 1\nn = 3.5\nplot = pie\n")
        assert main(["report", "--config", str(cfg)]) == 0
        assert "heading_0 = 60 deg" in capsys.readouterr().out
        # indicatrix integrates nothing: its horizon and compass keys are skipped
        cfg.write_text("t_end = -1\nkind = finsler\ncompass = maybe\n")
        assert main(["indicatrix", "--config", str(cfg), "--n", "36"]) == 0

    def test_undecodable_file(self, tmp_path, capsys):
        cfg = tmp_path / "bin.cfg"
        cfg.write_bytes(b"\xff\xfe\n")
        assert main(["report", "--config", str(cfg), "--heading", "0"]) == 2
        assert "cannot read config" in capsys.readouterr().err


class TestParseErrors:
    @pytest.mark.parametrize(
        "argv",
        [["geodesic", "--a", "foo"], ["indicatrix", "--n", "abc"], [],
         ["geodesic", "--heading", "0", "--warp", "9"], ["orbit"],
         ["geodesic", "--heading", "0", "-x"]],
        ids=["bad-float", "bad-int", "no-command", "unknown-flag", "unknown-command",
             "dash-letter"],
    )
    def test_exit_2_without_usage(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[validation]: ")
        assert "usage:" not in err

    @pytest.mark.parametrize("argv", [
        ["indicatrix", "--t-end", "1"],
        ["compare", "--heading", "0.3", "--kind", "h"],
        ["geodesic", "--heading", "0.3", "--compass"],
        ["geodesic", "--heading", "0.3", "--plot", "xy"],
        ["geodesic", "--heading", "0.3", "--wind", "zero"],
        ["geodesic", "--heading", "0.3", "--wind", "0"],
    ], ids=["indicatrix-t-end", "compare-kind", "geodesic-compass", "plot-xy", "wind-zero",
            "wind-0"])
    def test_unread_input_rejected(self, argv, tmp_path, monkeypatch, capsys):
        # each was once accepted and changed nothing, or ran as another spelling
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--csv", "out.csv", "--svg", "out.svg"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[validation]: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["geodesic", "--heading", "0.3", "--csv="],
        ["geodesic", "--heading", "0.3", "--svg="],
        ["report", "--heading", "0.3", "--speed-svg="],
        ["family", "--heading-start", "0", "--heading-step", "1", "--heading-count", "2",
         "--csv="],
        ["geodesic", "--heading", "0.3", "--segments=", "--svg", "out.svg"],
        ["geodesic", "--heading", "0.3", "--config", "../empty.cfg"],
        ["geodesic", "--heading", "0.3", "--config="],
        ["geodesic", "--heading", "0.3", "--csv", "a\0b"],
        ["geodesic", "--heading", "0.3", "--config", "../nul.cfg"],
        ["geodesic", "--heading", "0.3", "--config", "a\0b"],
    ], ids=["csv", "svg", "speed-svg", "family-csv", "segments", "config-csv", "config",
            "nul-csv", "nul-config-csv", "nul-config"])
    def test_empty_value_rejected(self, argv, tmp_path, monkeypatch, capsys):
        # an empty path, or one holding a NUL byte, names no file, and an
        # empty segment list no boundary
        (tmp_path / "empty.cfg").write_text("csv =\n")
        (tmp_path / "nul.cfg").write_text("csv = a\0b\n")
        (tmp_path / "out").mkdir()
        monkeypatch.chdir(tmp_path / "out")
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[validation]: ")
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["geodesic", "--heading", "0.3", "--wind", "rotation:abc"],
        ["geodesic", "--heading", "0.3", "--segments", "2,1", "--csv", "out.csv",
         "--svg", "out.svg"],
        ["family", "--heading-start", "0", "--heading-step", "1", "--csv", "out.csv"],
        ["indicatrix", "--multipliers", "1,0"],
        ["indicatrix", "--multipliers", "-1"],
        ["geodesic", "--heading", "0.3", "--start", "0", "--csv", "out.csv"],
        ["geodesic", "--heading", "0.3", "--start", "0,1,2", "--csv", "out.csv"],
        ["geodesic", "--heading", "0.3", "--plot", "path3d", "--csv", "out.csv"],
        ["geodesic", "--heading", "0.3", "--view", "x"],
        ["geodesic", "--heading", "0.3", "--segments", "1,2", "--csv", "out.csv"],
        [*FAN2, "--view", "y", "--csv", "out.csv"],
        [*FAN2, "--segments", "0.5"],
        ["compare", "--heading", "0.3", "--view", "z", "--csv", "out.csv"],
        ["geodesic", "--heading", "0.3", "--plot", "polar", "--view", "x", "--svg", "out.svg"],
    ], ids=["rotation-rate", "segment-order", "family-count", "zero-multiplier",
            "negative-multiplier", "start-one-angle", "start-three-angles", "plot-without-svg",
            "view-without-svg", "segments-without-svg", "family-view-without-svg",
            "family-segments-without-svg", "compare-view-without-svg", "polar-view"])
    def test_bad_value_rejected(self, argv, tmp_path, monkeypatch, capsys):
        # each value passes argparse and fails a check of the command's
        # own; the segment list is refused before its track is integrated,
        # so not by PlotSpec, which is built only after it.  A figure option
        # without --svg, or a view axis of a polar figure, shapes no figure
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[validation]: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["geodesic", "--heading", "pi/3", "--svg", "same", "--csv", "same"],
        ["report", "--heading", "pi/3", "--svg", "r", "--speed-svg", "r"],
        ["compare", "--heading", "pi/3", "--svg", "./c", "--csv", "c"],
        ["indicatrix", "--svg", "i", "--csv", "{cwd}/i"],
        [*FAN2, "--csv", "out.csv", "--svg", "out_000.csv"],
        [*FAN2, "--csv", "out.csv", "--svg", "./out_001.csv"],
    ], ids=["geodesic", "report", "compare-dot", "indicatrix-absolute", "family-member",
            "family-member-dot"])
    def test_outputs_name_different_files(self, argv, tmp_path, monkeypatch, capsys):
        # each once exited 0 with its last output written over the others
        monkeypatch.chdir(tmp_path)
        assert main([argv[0], *BENCH, *(a.format(cwd=tmp_path) for a in argv[1:])]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[validation]: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, links", [
        (["geodesic", "--config", "run.cfg", "--csv", "run.cfg"], {}),
        ([*FAN2, "--csv", "out.csv", "--svg", "fig.svg"], {"out_000.csv": "fig.svg"}),
        ([*FAN2, "--csv", "out.csv"], {"out_001.csv": "out_000.csv"}),
    ], ids=["config-as-csv", "member-linked-to-figure", "member-linked-to-member"])
    def test_files_of_a_run_are_distinct(self, argv, links, tmp_path, monkeypatch, capsys):
        # each once exited 0 with one file written over another: the config
        # by the track CSV, the member CSVs by the figure, member 0 by member 1
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text("heading = 0.3\nt_end = 0.5\n")
        for name, target in links.items():
            (tmp_path / name).symlink_to(target)

        def files():
            return {p.name: os.readlink(p) if p.is_symlink() else p.read_bytes()
                    for p in tmp_path.iterdir()}

        before = files()
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[validation]: ")
        assert files() == before

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["geodesic", "--help"])
        assert exc.value.code == 0
        assert "--heading" in capsys.readouterr().out


# Edge values of a float, angle or count option, and garbage.
EDGE = ["0", "-0.0", "5e-324", "1e-310", "1e-300", "1e308", "nan", "inf", "-inf",
        "pi/3", "-pi/8", "2pi", "foo", "0.5", "1"]
COUNTS = ["0", "-1", "1", "2", "3.5", "foo", "1000000000", "1" + "0" * 400]
# Value pools per option.  The only horizons above 1 drawn are 1e308 and
# inf, which the horizon bound rejects whatever the sample_dt.
POOLS = {
    "--a": EDGE, "--heading": EDGE, "--heading-start": EDGE, "--heading-step": EDGE,
    "--t-end": EDGE, "--rel-tol": EDGE, "--abs-tol": EDGE, "--sample-dt": EDGE,
    "--start": [f"{p},{t}" for p in ("0", "1e308", "nan") for t in ("pi/2", "1", "0")]
    + ["foo", "1", "-0.0,1e-300", "0,2e-5"],
    "--wind": ["none", "rotation:0", "rotation:-0.0", "rotation:0.5", "rotation:5e-324",
               "rotation:1e308", "rotation:nan", "rotation:inf", "rotation:foo", "breeze"],
    "--kind": ["h", "alpha", "randers", "finsler"],
    "--heading-count": COUNTS, "--n": COUNTS + ["3", "36"],
    "--multipliers": ["1,2", "nan", "1,inf", "-1", "foo", "1e308", "0.5", "1e-306", "1e-320"],
    "--segments": ["0.5", "0.3,0.6", "nan", "0.6,0.3", "foo", ""],
    "--plot": ["path3d", "xy", "polar", "pie"], "--view": ["x", "y", "z", "q"],
    "--warp": ["9"],
}
SWITCHES = ["--deg", "--compass", "-x"]
# Output flags and their file names, placed in a fresh directory per run.
OUTPUTS = {"--csv": "out.csv", "--svg": "out.svg"}
# A valid run of each subcommand that the drawn options then override.
VALID_BASE = {
    "geodesic": ["--heading", "0.3"], "compare": ["--heading", "0.3"],
    "report": ["--heading", "0.3"], "indicatrix": ["--n", "36"],
    "family": ["--heading-start", "0", "--heading-step", "1", "--heading-count", "2"],
}
CONFIG_LINES = ["garbage", "warp = 9", "config = x", "deg = y", "deg = off",
                "compass = yes", "n = 3.5"]


@strategies.composite
def edge_runs(draw):
    """(argv, config text or None) over the edge alphabet, horizon 1 unless drawn
    or the subcommand has none.

    Output flags name files relative to the directory the run writes in.
    """
    command = draw(strategies.sampled_from(sorted(VALID_BASE)))
    argv = [command, *VALID_BASE[command]]
    if "--t-end" in SUBPARSERS[command]._option_string_actions:
        argv += ["--t-end", "1"]
    for flag in draw(strategies.lists(
            strategies.sampled_from(sorted(POOLS) + SWITCHES + sorted(OUTPUTS)), max_size=6)):
        if flag in SWITCHES:
            argv += [flag]
        elif flag in OUTPUTS:
            argv += [flag, OUTPUTS[flag]]
        else:
            argv += [flag, draw(strategies.sampled_from(POOLS[flag]))]
    entry = strategies.one_of(
        strategies.sampled_from(CONFIG_LINES),
        strategies.sampled_from(sorted(POOLS)).flatmap(
            lambda f: strategies.sampled_from(POOLS[f]).map(lambda v: f"{f[2:]} = {v}")),
    )
    lines = draw(strategies.none() | strategies.lists(entry, max_size=4))
    return argv, None if lines is None else "\n".join(lines)


class TestTotal:
    @settings(max_examples=200, deadline=timedelta(seconds=5))
    @given(run=edge_runs())
    @example(run=(["geodesic", "--heading", "0.3", "--t-end", "1e308"], None))
    @example(run=(["geodesic", "--heading", "0.3", "--t-end", "1e308",
                   "--sample-dt", "1e308"], None))
    @example(run=(["geodesic", "--heading", "0.3", "--t-end", "1",
                   "--max-step", "1e-13"], None))
    @example(run=(["geodesic", "--heading", "0.3", "--rel-tol", "1e-300",
                   "--abs-tol", "1e-300", "--t-end", "1"], None))
    @example(run=(["family", "--heading-start", "0", "--heading-step", "1",
                   "--heading-count", "0"], None))
    @example(run=(["report", "--t-end", "1"], "heading = 60\ndeg = y"))
    @example(run=(["indicatrix", "--n", "36", "--multipliers", "1e-306", "--svg", "out.svg"],
                  None))
    @example(run=(["geodesic", "--heading", "pi/2", "--start", "0,2e-5",
                   "--csv", "out.csv", "--svg", "out.svg"], None))
    # a heading too small for the channel figure's scale once wrote its
    # CSV and then raised ValueError out of main
    @example(run=(["report", "--wind", "none", "--heading", "1e-310", "--t-end", "1",
                   "--csv", "out.csv", "--svg", "out.svg"], None))
    def test_every_input_ends_in_a_documented_exit(self, run, tmp_path_factory):
        argv, config = run
        outdir = tmp_path_factory.mktemp("out")
        argv = [str(outdir / arg) if flag in OUTPUTS else arg
                for flag, arg in zip(["", *argv], argv)]
        if config is not None:
            path = tmp_path_factory.mktemp("cfg") / "run.cfg"
            path.write_text(config + "\n")
            argv = [*argv, "--config", str(path)]
        code, out = _stdout(argv)
        assert code in (0, 2, 3, 4)
        if code in (2, 3):
            # a refused run writes nothing; an IO error (4) may leave files
            assert list(outdir.iterdir()) == []
        if code == 0:
            # neither what it prints nor a file it writes holds a non-finite number
            for text in [out, *(p.read_text() for p in outdir.iterdir())]:
                assert not re.search(r"\b(nan|inf)\b", text, re.IGNORECASE)


# Every subcommand with its CSV and SVG outputs, short horizons.
_NO_NUMPY_RUNS = [
    ["geodesic", *BENCH, "--heading", "pi/3", "--t-end", "1", "--plot", "path3d",
     "--csv", "g.csv", "--svg", "g3d.svg"],
    ["geodesic", *BENCH, "--heading", "pi/3", "--t-end", "1", "--plot", "polar",
     "--svg", "gpolar.svg"],
    ["family", *BENCH, "--heading-start", "0", "--heading-step", "pi/2",
     "--heading-count", "4", "--t-end", "1", "--segments", "0.3,0.6",
     "--csv", "f.csv", "--svg", "f.svg"],
    ["compare", *BENCH, "--heading", "pi/3", "--t-end", "1",
     "--csv", "c.csv", "--svg", "c.svg"],
    ["indicatrix", *BENCH, "--n", "36", "--csv", "i.csv", "--svg", "i.svg"],
    ["report", *BENCH, "--heading", "pi/3", "--t-end", "1",
     "--csv", "r.csv", "--svg", "r.svg", "--speed-svg", "rs.svg"],
]


def test_runs_without_numpy(tmp_path):
    # numpy is a test dependency only: with its import blocked, every
    # subcommand still runs and writes its files
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None  # import numpy raises ImportError\n"
        "from znav.cli import main\n"
        f"sys.exit(max(main(argv) for argv in {_NO_NUMPY_RUNS!r}))\n"
    )
    src = os.path.dirname(os.path.dirname(znav.__file__))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    written = {p.name: p.stat().st_size for p in tmp_path.iterdir()}
    assert sorted(written) == sorted([
        "g.csv", "g3d.svg", "gpolar.svg",
        *(f"f_{i:03d}.csv" for i in range(4)), "f.svg",
        "c.csv", "c.svg", "i.csv", "i.svg", "r.csv", "r.svg", "rs.svg",
    ])
    assert all(written.values())


# Per option, the tokens after it that make a run differ from the base
# run's: a switch set, another value or another output path.
ALTERNATE = {
    "--a": ["0.5"], "--wind": ["none"], "--start": ["0.3,1"], "--deg": [],
    "--csv": ["other.csv"], "--svg": ["other.svg"], "--speed-svg": ["speed.svg"],
    "--t-end": ["0.7"], "--rel-tol": ["1e-6"], "--abs-tol": ["1e-9"], "--sample-dt": ["0.05"],
    "--kind": ["alpha"], "--heading": ["0.4"], "--view": ["x"], "--segments": ["0.2"],
    "--plot": ["polar"], "--heading-start": ["0.5"], "--heading-step": ["0.5"],
    "--heading-count": ["3"], "--n": ["37"], "--multipliers": ["1,2"], "--compass": [],
}


def test_every_accepted_option_is_read(tmp_path, monkeypatch):
    # a flag a subcommand accepts changes its exit code, what it prints or
    # the files it writes: none is checked and then ignored.  The base run
    # has a wind for --kind, a plain-number start for --deg and a CSV, and
    # runs with and without a figure, which the figure options shape
    unread = []
    for (command, parser), figure in product(sorted(SUBPARSERS.items()),
                                              (["--svg", "out.svg"], [])):
        options = parser._option_string_actions
        base = [command, *VALID_BASE[command], "--wind", "rotation:0.5", "--start", "0.5,1.2",
                "--csv", "out.csv", *figure]
        if "--t-end" in options:
            base += ["--t-end", "0.5"]

        def run(argv, name):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            code, out = _stdout(argv)
            return code, out, {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}

        case = f"{command}{'-svg' if figure else ''}"
        want = run(base, case)
        for option in sorted(set(options) - {"-h", "--help", "--config"}):
            if option not in ALTERNATE:
                unread.append(f"{case} {option} (no alternate value)")
            elif run([*base, option, *ALTERNATE[option]], case + option) == want:
                unread.append(f"{case} {option}")
    assert not unread, f"accepted but never read: {unread}"
