"""End-to-end command-line behavior: outputs, summaries, exit codes."""
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import znav
from znav import make_rhs
from znav.cli import ValidationError, main, parse_angle
from tests.conftest import nan_after, read_csv

BENCH = ["--a", "0.75", "--wind", "rotation:0.7142857142857143",
         "--start", "0,pi/2"]


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

    def test_svg_kinds(self, tmp_path):
        for plot in ("path3d", "xy", "polar"):
            svg = tmp_path / f"{plot}.svg"
            code = main(["geodesic", *BENCH, "--heading", "pi/3", "--t-end", "1",
                         "--svg", str(svg), "--plot", plot, "--view", "x"])
            assert code == 0
            ET.parse(svg)  # well-formed document
        # xy is the path3d projection along z, whatever --view says
        main(["geodesic", *BENCH, "--heading", "pi/3", "--t-end", "1",
              "--svg", str(tmp_path / "z.svg"), "--plot", "path3d", "--view", "z"])
        assert (tmp_path / "xy.svg").read_bytes() == (tmp_path / "z.svg").read_bytes()

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
            ["geodesic", "--heading", "0"],
            ["family", "--heading-start", "0", "--heading-step", "1",
             "--heading-count", "1"],
            ["compare", "--heading", "0"],
            ["indicatrix"],
            ["report", "--heading", "0"],
        ],
        ids=["geodesic", "family", "compare", "indicatrix", "report"],
    )
    def test_io_failure(self, argv, capsys):
        code = main([*argv, *BENCH, "--t-end", "1", "--csv", "no/such/dir/out.csv"])
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
        # rotation:0 and rotation:-0.0 run the flow of --wind none
        winds = ("none", "rotation:0", "rotation:-0.0")
        for i, wind in enumerate(winds):
            code = main(["geodesic", "--a", "0.75", "--wind", wind, "--start", "0,pi/2",
                         "--kind", "alpha", "--heading", "pi/3", "--t-end", "1",
                         "--csv", str(tmp_path / f"{i}.csv")])
            assert code == 0
        csvs = [(tmp_path / f"{i}.csv").read_bytes() for i in range(len(winds))]
        assert csvs[1] == csvs[0] and csvs[2] == csvs[0]

    def test_nan_mid_run_is_numeric_failure(self, monkeypatch, capsys):
        monkeypatch.setattr("znav.cli.make_rhs",
                            lambda *args: nan_after(make_rhs(*args), 0.5))
        code = main(["geodesic", "--heading", "0.3", "--t-end", "2"])
        assert code == 3
        assert "error[numeric]: colatitude nan is not finite" in capsys.readouterr().err


class TestStepFailure:
    # at tolerances of 1e-300 every step is refused until h underflows
    TINY_TOL = ["--rel-tol", "1e-300", "--abs-tol", "1e-300", "--t-end", "1"]

    @pytest.mark.parametrize("command", ["geodesic", "compare", "report"])
    def test_numeric_exit(self, command, capsys):
        assert main([command, "--heading", "0.3", *self.TINY_TOL]) == 3
        assert "error[numeric]: step underflow at t=" in capsys.readouterr().err

    def test_family_member_failed(self, capsys):
        code = main(["family", "--heading-start", "0", "--heading-step", "1",
                     "--heading-count", "1", *self.TINY_TOL])
        out = capsys.readouterr().out
        assert code == 3
        assert "member=00 heading=0 error=step underflow at t=" in out
        assert "counts: circumpolar=0 transpolar=0 failed=1" in out


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
        ],
        ids=["wind-nan", "heading-nan", "report-heading-nan", "family-step-nan",
             "heading-inf", "start-nan", "segments-nan", "segments-tail-nan",
             "family-segments-inf", "multipliers-nan", "multipliers-inf",
             "t-end-sample-overflow", "t-end-over-grid-budget"],
    )
    def test_rejected(self, argv, capsys):
        assert main(argv) == 2
        assert "error[validation]" in capsys.readouterr().err


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

    def test_long_fan_mixes_classes(self, capsys):
        code = main(["family", *BENCH, "--kind", "randers",
                     "--heading-start", "0", "--heading-step", "pi/4",
                     "--heading-count", "8", "--t-end", "50"])
        out = capsys.readouterr().out
        assert code == 0
        assert "classification=transpolar" in out
        assert "classification=circumpolar" in out

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
        root = ET.parse(tmp_path / "overlay.svg").getroot()
        assert len(root.findall(".//{http://www.w3.org/2000/svg}polyline")) == 3

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

    def test_figure_outputs(self, tmp_path):
        code = main(["report", *BENCH, "--heading", "pi/3", "--t-end", "2",
                     "--svg", str(tmp_path / "channel.svg"),
                     "--speed-svg", str(tmp_path / "speed.svg")])
        assert code == 0
        assert (tmp_path / "channel.svg").exists()
        assert (tmp_path / "speed.svg").exists()


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
        # --kind has argparse choices; a config file reaches resolve_flow
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("kind = finsler\n")
        assert main(["geodesic", "--config", str(cfg), "--heading", "0"]) == 2
        assert "unknown metric kind 'finsler'" in capsys.readouterr().err

    def test_non_integer_count_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n = 3.5\n")
        assert main(["indicatrix", "--config", str(cfg)]) == 2
        assert "error[validation]: bad value for n: '3.5'" in capsys.readouterr().err

    def test_missing_file(self):
        assert main(["report", "--config", "nope.cfg", "--heading", "0"]) == 2


# Every subcommand with its CSV and SVG outputs, short horizons.
_NO_NUMPY_RUNS = [
    ["geodesic", *BENCH, "--heading", "pi/3", "--t-end", "1", "--plot", "path3d",
     "--csv", "g.csv", "--svg", "g3d.svg"],
    ["geodesic", *BENCH, "--heading", "pi/3", "--t-end", "1", "--plot", "xy",
     "--svg", "gxy.svg"],
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
        "g.csv", "g3d.svg", "gxy.svg", "gpolar.svg",
        *(f"f_{i:03d}.csv" for i in range(4)), "f.svg",
        "c.csv", "c.svg", "i.csv", "i.svg", "r.csv", "r.svg", "rs.svg",
    ])
    assert all(written.values())
