"""CSV round-trips and deterministic SVG structure."""
import math
import operator
import random
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies

from znav import (
    EmptyData,
    IntegratorConfig,
    PlotSpec,
    SeriesStyle,
    control_channel,
    initial_state_randers,
    integrate,
    make_rhs,
    render_svg,
    write_csv,
    write_svg,
    write_table,
)
from tests import export_reference
from tests.conftest import read_csv
from tests.oracles import csv_cell
from znav.export import SEGMENT_COLORS, project, unwrap_angles


@pytest.fixture
def bench_traj(oblate, rot_wind, equator_start):
    s0 = initial_state_randers(oblate, rot_wind, equator_start, math.pi / 3)
    return integrate(make_rhs("randers", oblate, rot_wind), s0,
                     IntegratorConfig(t_end=7.0, sample_dt=0.01), kind="randers")


class TestWriteCsv:
    def test_row_count_and_header(self, oblate, rot_wind, bench_traj, tmp_path):
        path = tmp_path / "bench.csv"
        channel = control_channel(oblate, rot_wind, bench_traj.rows)
        nbytes = write_csv(oblate, bench_traj.rows, channel, str(path))
        text = path.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "t,phi,theta,phi_dot,theta_dot,x,y,z,heading,course,drift,speed"
        assert len(lines) == 1 + 701
        assert nbytes == len(text.encode())

    def test_first_row_initial_conditions(self, oblate, rot_wind, bench_traj, tmp_path):
        path = tmp_path / "bench.csv"
        channel = control_channel(oblate, rot_wind, bench_traj.rows)
        write_csv(oblate, bench_traj.rows, channel, str(path))
        cols = read_csv(str(path))
        assert cols["t"][0] == 0.0
        assert cols["phi_dot"][0] == bench_traj.samples[0][1].vel.u
        assert cols["theta_dot"][0] == pytest.approx(-2.0 / math.sqrt(3.0), abs=1e-15)
        assert cols["x"][0] == 1.0
        assert cols["heading"][0] == pytest.approx(math.pi / 3, abs=1e-14)

    def test_round_trip_exact(self, oblate, rot_wind, bench_traj, tmp_path):
        path = tmp_path / "bench.csv"
        channel = control_channel(oblate, rot_wind, bench_traj.rows)
        write_csv(oblate, bench_traj.rows, channel, str(path))
        cols = read_csv(str(path))
        for (t, state), t_back, th_back, u_back in zip(
            bench_traj.samples, cols["t"], cols["theta"], cols["phi_dot"]
        ):
            assert t_back == t
            assert th_back == state.point.theta
            assert u_back == state.vel.u

    def test_phi_wrapped_on_export(self, oblate, rot_wind, equator_start, tmp_path):
        s0 = initial_state_randers(oblate, rot_wind, equator_start, math.pi)
        traj = integrate(make_rhs("randers", oblate, rot_wind), s0,
                         IntegratorConfig(t_end=10.0), kind="randers")
        # downwind run accumulates phi beyond 2*pi internally
        assert max(abs(s.point.phi) for _, s in traj.samples) > 2 * math.pi
        path = tmp_path / "wrap.csv"
        write_csv(oblate, traj.rows, control_channel(oblate, rot_wind, traj.rows), str(path))
        cols = read_csv(str(path))
        assert all(0.0 <= phi < 2 * math.pi for phi in cols["phi"])

    def test_iterators_write_the_list_bytes(self, oblate, rot_wind, bench_traj, tmp_path):
        # rows are read once, so an iterator of them writes what the list does
        channel = control_channel(oblate, rot_wind, bench_traj.rows)
        listed, streamed = tmp_path / "list.csv", tmp_path / "iter.csv"
        write_csv(oblate, bench_traj.rows, channel, str(listed))
        write_csv(oblate, iter(bench_traj.rows), iter(channel), str(streamed))
        assert streamed.read_bytes() == listed.read_bytes()

    def test_empty_trajectory_header_only(self, oblate, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(oblate, [], [], str(path))
        assert path.read_text().strip().count("\n") == 0

    def test_channel_gaps_leave_empty_cells(self, oblate, rot_wind, bench_traj, tmp_path):
        path = tmp_path / "gaps.csv"
        channel = control_channel(oblate, rot_wind, bench_traj.rows)
        channel[0] = None  # a gap at the departure row only
        write_csv(oblate, bench_traj.rows, channel, str(path))
        lines = path.read_text().split("\n")
        assert lines[1].endswith(",,,,")
        assert not lines[2].endswith(",")
        assert lines[2].split(",")[8:] == [repr(v) for v in (
            channel[1].heading, channel[1].course, channel[1].drift, channel[1].speed)]
        # the general writer: ints stay ints, None leaves the cell empty
        table = tmp_path / "table.csv"
        write_table(("k", "x", "gap"), [(3, 0.1, None), (4, None, 2.5)], str(table))
        assert table.read_text() == "k,x,gap\n3,0.1,\n4,,2.5\n"

    def test_io_error_carries_path(self, oblate, bench_traj):
        channel = [None] * len(bench_traj.rows)
        with pytest.raises(OSError, match="no/such/dir"):
            write_csv(oblate, bench_traj.rows, channel, "no/such/dir/out.csv")

    def test_channel_of_another_length_writes_nothing(self, oblate, rot_wind, bench_traj,
                                                       tmp_path):
        # the channel is read by position: one entry too few or too many is
        # refused while the lines are formatted, before the file is opened
        channel = control_channel(oblate, rot_wind, bench_traj.rows)
        for wrong in (channel[:-1], [*channel, None]):
            path = tmp_path / "wrong.csv"
            with pytest.raises(ValueError):
                write_csv(oblate, bench_traj.rows, wrong, str(path))
            assert not path.exists()

    def test_ragged_row_rejected(self, tmp_path):
        for row in [(1.0,), (1.0, 2.0, 3.0)]:
            with pytest.raises(ValueError, match="2 cells"):
                write_table(("a", "b"), [(0.5, 0.5), row], str(tmp_path / "t.csv"))


    def test_ragged_row_writes_nothing(self, tmp_path):
        # every line is checked before the file is opened: a bad last row
        # creates no file and leaves an existing one as it was
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        old.write_bytes(b"a,b\nkept\n")
        for path in (new, old):
            rows = ((0.5, 0.5) if k < 3 else (1.0,) for k in range(4))
            with pytest.raises(ValueError, match="2 cells"):
                write_table(("a", "b"), rows, str(path))
        assert not new.exists()
        assert old.read_bytes() == b"a,b\nkept\n"

    def test_table_held_about_once(self, tmp_path):
        # the formatted lines are the one copy of the file's text: no joined,
        # replaced or encoded copy of the body on top of them
        rng = random.Random(7)
        rows = [tuple(rng.random() for _ in range(12)) for _ in range(20_000)]
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            nbytes = write_table([f"c{j}" for j in range(12)], rows, str(tmp_path / "t.csv"))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert nbytes == (tmp_path / "t.csv").stat().st_size
        assert peak <= 1.6 * nbytes

    def test_writers_return_utf8_bytes(self, tmp_path):
        # an ASCII text counts its len; any other its encoded length
        table, figure = tmp_path / "t.csv", tmp_path / "f.svg"
        nbytes = write_table(("phi", "θ"), [("é", 1.5), (2, None)], str(table))
        assert table.read_bytes() == "phi,θ\né,1.5\n2,\n".encode()
        assert nbytes == table.stat().st_size
        spec = PlotSpec("indicatrix")
        for label in ("t=1", "t=1 — ü"):
            data = [(SeriesStyle(label), [(0.0, 0.0), (1.0, 2.0)])]
            nbytes = write_svg(spec, data, str(figure))
            assert figure.read_bytes() == render_svg(spec, data).encode()
            assert nbytes == figure.stat().st_size


# CSV cells: floats of every magnitude and the edge values, numpy
# float64 scalars, ints of any size, gaps and strs free of the CSV's
# separators.
CELLS = strategies.one_of(
    strategies.floats(),
    strategies.floats().map(np.float64),
    strategies.sampled_from([-0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf]),
    strategies.integers(),
    strategies.none(),
    strategies.text(strategies.characters(codec="utf-8", exclude_characters=",\r\n")),
)


@settings(max_examples=300, deadline=None)
@given(rows=strategies.integers(1, 12).flatmap(
    lambda width: strategies.lists(strategies.tuples(*[CELLS] * width), max_size=20)))
@example(rows=[(None, -0.0, 5e-324, math.nan, math.inf, -math.inf, 0, -7, True)])
# a str cell holding "None" was once emptied of it, as a None cell is
@example(rows=[("None", 1.0), ("NoneType", None)])
def test_write_table_matches_cell_rule(rows, tmp_path_factory):
    width = len(rows[0]) if rows else 3
    columns = [f"c{j}" for j in range(width)]
    path = tmp_path_factory.mktemp("table") / "t.csv"
    nbytes = write_table(columns, rows, str(path))
    want = "".join(
        ",".join(cells) + "\n" for cells in [columns, *([csv_cell(v) for v in row] for row in rows)]
    )
    assert path.read_bytes() == want.encode()
    assert nbytes == len(want.encode())


def render_both(spec, series):
    """render_svg of ndarray series, checked against the same series as float-row lists."""
    doc = render_svg(spec, series)
    assert render_svg(spec, [(style, a.tolist()) for style, a in series]) == doc
    return doc


def spiral(n=50, turns=2.0):
    t = np.linspace(0.0, 1.0, n)
    ang = 2 * math.pi * turns * t
    return np.column_stack([t * 3, np.cos(ang) * (1 + t), np.sin(ang) * (1 + t), t - 0.5])


class TestRenderSvg:
    def test_deterministic(self):
        spec = PlotSpec(kind="path3d_projection")
        data = [(SeriesStyle("a", "#d62728"), spiral())]
        assert render_both(spec, data) == render_svg(spec, data)

    def test_valid_xml_and_member_count(self):
        spec = PlotSpec(kind="path3d_projection")
        doc = render_both(spec, [(SeriesStyle(f"m{i}", "#d62728"), spiral(turns=0.5 + 0.1 * i))
                                 for i in range(16)])
        root = ET.fromstring(doc)
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 16

    def test_time_segmentation_splits_series(self):
        spec = PlotSpec(kind="path3d_projection", segments=(1.0, 2.0, 3.0))
        doc = render_both(spec, [(SeriesStyle("path", "#000000"), spiral(n=400))])
        root = ET.fromstring(doc)
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 3
        colors = [p.get("stroke") for p in polylines]
        assert colors == ["#d62728", "#1f77b4", "#9467bd"]

    def test_view_axis_projection(self):
        spec_z = PlotSpec(kind="path3d_projection")
        spec_x = PlotSpec(kind="path3d_projection", view_axis="x")
        data = [(SeriesStyle("a"), spiral())]
        assert render_both(spec_z, data) != render_both(spec_x, data)

    def test_polar_kind(self):
        t = np.linspace(0.0, 3.0, 40)
        data = [(SeriesStyle("sol", "#d62728"), np.column_stack([t, 2 * t, 1.0 + 0.2 * np.sin(t)]))]
        spec = PlotSpec(kind="polar")
        assert "<polyline" in render_both(spec, data)

    def test_indicatrix_nest(self):
        curves = []
        ang = np.linspace(0, 2 * math.pi, 90)
        for mult in (1, 2, 3, 4):
            curves.append((SeriesStyle(f"t={mult}"), np.column_stack([
                mult * (np.cos(ang) - 0.7), mult * np.sin(ang)
            ])))
        spec = PlotSpec(kind="indicatrix")
        root = ET.fromstring(render_both(spec, curves))
        assert len(root.findall(".//{http://www.w3.org/2000/svg}polyline")) == 4

    def test_single_point_marker_vs_path(self):
        # a lone point of any kind is one circle, split in time or not: a
        # track that stops at the pole guard before its first sample is drawn
        for kind, row, segments in [("speed_vs_heading", (0.5, 0.5), None),
                                    ("path3d_projection", (0.0, 0.5, 0.5, 0.0), None),
                                    ("path3d_projection", (0.0, 0.5, 0.5, 0.0), (1.0,)),
                                    ("polar", (0.0, 0.5, 0.5), None)]:
            spec = PlotSpec(kind=kind, segments=segments)
            root = ET.fromstring(render_both(spec, [(SeriesStyle("pt"), np.asarray([row]))]))
            assert [e.tag for e in root] == [f"{SVG}rect", f"{SVG}circle"]

    def test_no_data_refused(self):
        spec = PlotSpec(kind="channel_vs_time")
        # no series, or series of no point
        for empty in ([], [(SeriesStyle("x"), np.zeros((0, 2)))], [(SeriesStyle("x"), [])]):
            with pytest.raises(EmptyData):
                render_svg(spec, empty)

    def test_empty_series_skipped(self):
        # an empty series beside a drawn one was drawn as <polyline points="">
        spec = PlotSpec("speed_vs_heading")
        root = ET.fromstring(render_svg(spec, [(SeriesStyle("a"), []),
                                               (SeriesStyle("b"), [(0.0, 0.0), (1.0, 1.0)])]))
        assert len(root.findall(f"{SVG}polyline")) == 1

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PlotSpec(kind="pie_chart")
        with pytest.raises(ValueError):
            PlotSpec(kind="polar", segments=(2.0, 1.0))
        with pytest.raises(ValueError):
            PlotSpec(kind="polar", view_axis="w")

    @pytest.mark.parametrize("kind, rows", [
        ("indicatrix", [(-1.5e308, -1.0), (1.5e308, 1.0)]),
        ("channel_vs_time", [(0.0, 1e-310), (1.0, 3e-310)]),
    ], ids=["range-overflows", "scale-overflows"])
    def test_unscalable_figure_refused(self, kind, rows, tmp_path):
        # both once drew nan coordinates: a padded range too wide for a
        # float, and a span too narrow for a float scale.  A frame that
        # cannot be scaled is data the figure cannot draw, as no data is
        spec, series = PlotSpec(kind=kind), [(SeriesStyle("x"), rows)]
        with pytest.raises(EmptyData, match="no finite frame"):
            render_svg(spec, series)
        with pytest.raises(EmptyData):
            write_svg(spec, series, str(tmp_path / "f.svg"))
        assert list(tmp_path.iterdir()) == []

    def test_tiny_span_path_still_drawn(self):
        # equal aspect scales a flat path by its long axis
        spec = PlotSpec(kind="path3d_projection")
        doc = render_svg(spec, [(SeriesStyle("x"), [(0.0, 0.0, 1e-310, 0.0),
                                                    (1.0, 1.0, 3e-310, 0.0)])])
        points = ET.fromstring(doc).find(f".//{SVG}polyline").get("points")
        assert [float(v) for xy in points.split() for v in xy.split(",")] == [
            29.0909, 320.0, 610.9091, 320.0]


SVG = "{http://www.w3.org/2000/svg}"

# Columns of a row per plot kind, as in the export module docstring.
ROW_WIDTH = {"path3d_projection": 4, "polar": 3, "channel_vs_time": 2,
             "speed_vs_heading": 2, "indicatrix": 2}
MAGNITUDES = strategies.floats(1e-9, 1e6)
COORDS = strategies.one_of(MAGNITUDES, MAGNITUDES.map(operator.neg), strategies.just(-0.0))
LABELS = strategies.text("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789=. -",
                         max_size=12)


@strategies.composite
def figures(draw):
    """(spec, series): every kind and view axis, 1-3 styled series of 1-60 rows, lists
    or ndarrays, segment boundaries partly on the series' own t values."""
    kind = draw(strategies.sampled_from(sorted(ROW_WIDTH)))
    row = strategies.tuples(*[COORDS] * ROW_WIDTH[kind])
    data = draw(strategies.lists(strategies.lists(row, min_size=1, max_size=60),
                                 min_size=1, max_size=3))
    times = [r[0] for rows in data for r in rows]
    bounds = draw(strategies.lists(
        strategies.one_of(strategies.sampled_from(times), COORDS), max_size=4))
    styles = [
        SeriesStyle(draw(LABELS), draw(strategies.sampled_from(SEGMENT_COLORS)),
                    draw(strategies.sampled_from(("", "6,3"))))
        for _ in data
    ]
    spec = PlotSpec(kind=kind, segments=tuple(sorted(set(bounds))) or None,
                    view_axis=draw(strategies.sampled_from("xyz")))
    if draw(strategies.booleans()):
        data = [np.asarray(rows) for rows in data]
    return spec, list(zip(styles, data))


def outcome(render, spec, data):
    """The rendered text, or the type and message of what render raised."""
    try:
        return render(spec, data)
    except (EmptyData, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(figure=figures())
# a boundary on a sample: the segments on both sides of it keep that point
@example(figure=(PlotSpec(kind="path3d_projection", segments=(1.0,)),
                 [(SeriesStyle("a"),
                   [(0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 1.0, 1.0), (2.0, 2.0, 0.0, 0.0)])]))
# the view along x: its plane columns in the other order transpose the figure
@example(figure=(PlotSpec(kind="path3d_projection", view_axis="x"),
                 [(SeriesStyle("a"),
                   [(0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 1.0, 3.0), (2.0, 0.0, 2.0, -1.0)])]))
def test_render_svg_matches_per_point_reference(figure):
    spec, series = figure
    want = outcome(export_reference.render_svg, spec, series)
    assert outcome(render_svg, spec, series) == want
    # each series projected first, from a one-pass iterator of its rows
    assert outcome(render_svg, spec,
                   [(style, project(spec, iter(rows))) for style, rows in series]) == want


def test_style_text_is_escaped():
    label, color, dash = "t<1 & a>0", 'red" onload="x', '6,3"><x a="'
    for kind, rows in (("path3d_projection", spiral()), ("speed_vs_heading", [(0.5, 0.5)])):
        root = ET.fromstring(render_svg(PlotSpec(kind=kind),
                                        [(SeriesStyle(label, color, dash), rows)]))
        [shape] = [e for e in root if e.tag in (f"{SVG}polyline", f"{SVG}circle")]
        assert "onload" not in shape.attrib
        assert shape.find(f"{SVG}title").text == label
        assert color in (shape.get("stroke"), shape.get("fill"))
    assert shape.tag == f"{SVG}circle"  # the lone point's marker
    path = ET.fromstring(render_svg(
        PlotSpec(kind="polar", segments=(0.5,)),
        [(SeriesStyle(label, color, dash), spiral()[:, :3])]))
    titles = [p.find(f"{SVG}title").text for p in path.iter(f"{SVG}polyline")]
    assert titles == [f"{label} [0]", f"{label} [1]"]
    assert {p.get("stroke-dasharray") for p in path.iter(f"{SVG}polyline")} == {dash}


def test_unwrap_angles():
    wrapped = [0.1, 2.0, 4.0, 6.0, 0.5 + 2 * math.pi - 2 * math.pi]
    lifted = unwrap_angles(wrapped)
    assert all(b - a < math.pi for a, b in zip(lifted, lifted[1:]))


# Angles on a wide range, mixed with multiples of pi so that jumps of
# exactly +-pi and +-3*pi (numpy's boundary cases) come up often.
ANGLES = strategies.one_of(
    strategies.floats(-20.0, 20.0),
    strategies.sampled_from([k * math.pi for k in range(-4, 5)]),
)


@settings(max_examples=500, deadline=None)
@given(values=strategies.lists(ANGLES, max_size=40))
@example(values=[0.0, math.pi, 0.0, -math.pi, 0.0])
@example(values=[0.0, 3 * math.pi, 0.0, -3 * math.pi, -0.0])
@example(values=[1.0, math.nan, 2.0])
def test_unwrap_angles_matches_numpy(values):
    want = np.unwrap(np.asarray(values, dtype=float)).tolist()
    # repr compares element for element, NaN and the sign of zero included
    assert list(map(repr, unwrap_angles(values))) == list(map(repr, want))
