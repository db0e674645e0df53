"""CSV serialization and standalone SVG figures.

write_table is the one CSV writer: each cell is written as its str,
which for floats (numpy.float64 included) is the shortest round-trip
form, for ints the int, and None becomes an empty cell.  The trajectory
schema of write_csv is fixed at twelve columns (times, chart state,
embedded position, control channel): row i of the file zips row i of
the trajectory, its embedding and entry i of the control channel.
_write is the one place a file is opened: it takes the first line
before it opens the file, so a writer whose checks run before its
first line writes nothing when it refuses.  A table is formatted and
checked line by line before its file is opened, and those lines are the
one copy of its text; an SVG document is written line by line as it is
rendered, so its text is never held whole.  No joined or encoded copy
is made.  SVG output is deterministic: no timestamps, stable element
order, fixed coordinate formatting, each polyline's points written in
one format call.  Labels, colours and dash patterns are written with
&, <, > and " escaped.  3D paths are drawn by orthographic projection
along a configurable view axis.

A figure is a PlotSpec, its frame, plus (SeriesStyle, series) pairs,
each style drawn with the data it travels with.  A series is an
iterable of float rows, one row per point, read once in plain Python
(a list of tuples, a generator or a 2-D array alike), or a Projected
series.  The columns of a row depend on the plot kind:

    path3d_projection   (t, x, y, z)
    polar               (t, phi, theta), drawn at radius theta; the
                        Rows of a track serve as they are
    channel_vs_time,
    speed_vs_heading,
    indicatrix          (x, y)

project is the one projection rule: it maps a series's rows to their
plane coordinates, plus t where the figure is split in time, as
array('d') columns (16 or 24 bytes a point).  render_svg projects each
row series with it and draws a Projected series as it is, so a caller
that draws many long series (a fan) can project each one as it is made.
"""
import math
from array import array
from itertools import chain, tee
from typing import Iterable, Iterator, NamedTuple, Sequence

from znav.control import ControlRecord, wrap_2pi
from znav.errors import EmptyData
from znav.spheroid import Row, Spheroid, embed_rows

CSV_COLUMNS = (
    "t",
    "phi",
    "theta",
    "phi_dot",
    "theta_dot",
    "x",
    "y",
    "z",
    "heading",
    "course",
    "drift",
    "speed",
)

# Time-segment palette: red, blue, purple, magenta.
SEGMENT_COLORS = ("#d62728", "#1f77b4", "#9467bd", "#e377c2")

# Width and height of every figure, in SVG user units.
FIGURE_SIZE = 640

PATH_KINDS = {"path3d_projection", "polar"}
MARKER_KINDS = {"channel_vs_time", "indicatrix", "speed_vs_heading"}


def _utf8_size(text: str) -> int:
    """Bytes of text in UTF-8; an ASCII text's count is its len, without an encoded copy."""
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def _write(path: str, what: str, lines: Iterable[str]) -> int:
    """Write lines to path as UTF-8 text; returns bytes written.

    The first line is taken before the file is opened: a line source
    whose checks run before its first line writes nothing when it refuses.

    Raises:
        OSError: surfaced with what and the target path in the message.
    """
    lines = iter(lines)
    first = next(lines, "")
    nbytes = 0
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            for line in chain((first,), lines):
                fh.write(line)
                nbytes += _utf8_size(line)
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc
    return nbytes


def write_table(columns: Sequence[str], rows: Iterable[Sequence], path: str) -> int:
    """Write a header and one CSV line per row; returns bytes written.

    Each cell is written as its str: floats (built-in or numpy.float64)
    in shortest round-trip form, equal to their repr, ints as ints, and
    None as an empty cell.  numpy.float32 and numpy integer cells are out
    of scope.  Each row is formatted in one operation.  rows may be a
    generator: every row is formatted and width-checked into its line
    before the file is opened, so a bad row writes nothing, and the file
    is written from those lines, the one copy of its text.

    Raises:
        ValueError: a row whose length differs from the header's.
        OSError: surfaced with the target path in the message.
    """
    line = ",".join(["%s"] * len(columns)) + "\n"
    try:
        # %s prints None as "None": a None cell is emptied before the row is formatted
        lines = [line % (tuple("" if c is None else c for c in row) if None in row else tuple(row))
                 for row in rows]
    except TypeError as exc:  # too few or too many cells for the line
        raise ValueError(f"every row needs {len(columns)} cells: {exc}") from exc
    return _write(path, "CSV", chain((",".join(columns) + "\n",), lines))


def write_csv(
    sph: Spheroid,
    rows: Iterable[Row],
    channel: Iterable[ControlRecord | None],
    path: str,
) -> int:
    """Write a track's Rows plus their control channel; returns bytes written.

    rows and channel are each read once, so iterators serve.  channel
    has one entry per row, as control_channel returns it; a None entry
    (a gap) leaves the row's last four cells empty.  The azimuth is
    wrapped to [0, 2*pi) on export.  The twelve-cell rows are generated
    one at a time for write_table.

    Raises:
        ValueError: channel and rows differ in length; raised while
            the lines are formatted, so no file is written.
        OSError: as write_table.
    """
    gap = (None,) * 4
    rows, again = tee(rows)

    def table():
        for (t, phi, theta, u, v), (_, x, y, z), rec in zip(
            rows, embed_rows(sph, again), channel, strict=True
        ):
            ch = gap if rec is None else (rec.heading, rec.course, rec.drift, rec.speed)
            yield t, wrap_2pi(phi), theta, u, v, x, y, z, *ch

    return write_table(CSV_COLUMNS, table(), path)


class SeriesStyle(NamedTuple):
    """Label, stroke color and dash pattern ('' for solid) of one series."""

    label: str
    color: str = "#000000"
    dash: str = ""


# The fields of PlotSpec, which checks them as it is constructed.
class _PlotSpecFields(NamedTuple):
    kind: str
    segments: tuple[float, ...] | None = None
    view_axis: str = "z"


class PlotSpec(_PlotSpecFields):
    """A figure's frame: its kind, optional time segmentation and a path3d view axis.

    These are all that project reads; each series brings its own SeriesStyle.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: check it too
        return cls(*super()._make(iterable))

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in PATH_KINDS | MARKER_KINDS:
            raise ValueError(f"unknown plot kind {self.kind!r}")
        if self.segments is not None and list(self.segments) != sorted(set(self.segments)):
            raise ValueError("segment boundaries must be strictly increasing")
        if self.view_axis not in ("x", "y", "z"):
            raise ValueError(f"view_axis must be x, y or z, got {self.view_axis!r}")
        return self


class Projected(NamedTuple):
    """A series in the figure's plane: x, y and t columns, one entry per point.

    t is None unless the figure is a path split in time.
    """

    x: array
    y: array
    t: array | None


# One figure series: float rows (columns as in the module docstring) or Projected.
Series = Iterable[Sequence[float]] | Projected

# (first, second) plane column of a (t, x, y, z) row per view axis
_PROJECTION = {"z": (1, 2), "x": (2, 3), "y": (1, 3)}


def project(spec: PlotSpec, rows: Iterable[Sequence[float]]) -> Projected:
    """rows mapped to spec's figure plane, in one pass over them.

    Reads only spec's kind, its view axis and whether it is segmented:
    the t column is kept for a path kind split in time, the one figure
    that reads it.
    """
    x, y = array("d"), array("d")
    t = array("d") if spec.segments and spec.kind in PATH_KINDS else None
    if spec.kind == "path3d_projection":
        i, j = _PROJECTION[spec.view_axis]
    elif spec.kind == "polar":  # (t, x, y) of the point drawn at radius theta
        rows = ((r[0], r[2] * math.cos(r[1]), r[2] * math.sin(r[1])) for r in rows)
        i, j = 1, 2
    else:  # channel_vs_time, speed_vs_heading, indicatrix: already planar
        i, j = 0, 1
    add_x, add_y = x.append, y.append
    for r in rows:
        add_x(r[i])
        add_y(r[j])
        if t is not None:
            t.append(r[0])
    return Projected(x, y, t)


def _frame(kind: str, xlo: float, xhi: float, ylo: float, yhi: float):
    """(xmin, ymin, sx, sy, x0, y0) of a figure of data in [xlo, xhi] x [ylo, yhi].

    Each range is widened by 5% of its span each way, by 1 if empty, and
    geometric kinds take equal aspect.  A point (a, b) is drawn at
    x0 + (a - xmin) sx from the left and y0 + (b - ymin) sy from the bottom.

    Raises:
        EmptyData: a padded range, or a scale after equal aspect, is not finite.
    """
    xpad = 0.05 * (xhi - xlo) or 1.0
    ypad = 0.05 * (yhi - ylo) or 1.0
    xmin, ymin = xlo - xpad, ylo - ypad
    xspan, yspan = (xhi + xpad) - xmin, (yhi + ypad) - ymin
    sx, sy = FIGURE_SIZE / xspan, FIGURE_SIZE / yspan
    if kind in PATH_KINDS or kind == "indicatrix":
        sx = sy = min(sx, sy)  # equal aspect for geometric figures
    if not all(map(math.isfinite, (xspan, yspan, sx, sy))):
        raise EmptyData(f"{kind} data [{xlo:g}, {xhi:g}] x [{ylo:g}, {yhi:g}] has no finite frame")
    return xmin, ymin, sx, sy, 0.5 * (FIGURE_SIZE - sx * xspan), 0.5 * (FIGURE_SIZE - sy * yspan)


def _escape(text: str) -> str:
    """text with &, <, > and " as XML character references, for attributes and titles."""
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


def _svg_lines(spec: PlotSpec, series: Sequence[tuple[SeriesStyle, Series]]) -> Iterator[str]:
    """The lines of render_svg's document, each ending in a newline, made one at a time.

    Every check runs, and every series is projected, before the first
    line is made.
    """
    planes = [(style, s if isinstance(s, Projected) else project(spec, s)) for style, s in series]
    drawn = [(style, p) for style, p in planes if p.x]  # skip empty series
    if not drawn:
        raise EmptyData(f"no data for {spec.kind} plot")

    xmin, ymin, sx, sy, x0, y0 = _frame(
        spec.kind, min(min(p.x) for _, p in drawn), max(max(p.x) for _, p in drawn),
        min(min(p.y) for _, p in drawn), max(max(p.y) for _, p in drawn))
    size = FIGURE_SIZE

    yield '<?xml version="1.0" encoding="UTF-8"?>\n'
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">\n')
    yield (f'<rect x="0" y="0" width="{size}" height="{size}" '
           f'fill="white" stroke="#cccccc"/>\n')

    def polyline(xy: list[float], color: str, dash: str, label: str) -> str:
        dash_attr = f' stroke-dasharray="{_escape(dash)}"' if dash else ""
        points = ("%.4f,%.4f " * (len(xy) // 2) % tuple(xy))[:-1]
        return (f'<polyline fill="none" stroke="{_escape(color)}" stroke-width="1.5"'
                f'{dash_attr} points="{points}"><title>{_escape(label)}</title></polyline>\n')

    for style, (x, y, t) in drawn:
        # pixel coordinates px0, py0, px1, py1, ..., the y axis pointing up
        xy = [0.0] * (2 * len(x))
        xy[0::2] = [x0 + (a - xmin) * sx for a in x]
        xy[1::2] = [size - (y0 + (b - ymin) * sy) for b in y]
        if len(x) == 1:
            yield ('<circle cx="%.4f" cy="%.4f" r="3" fill="%s"><title>%s</title></circle>\n'
                   % (xy[0], xy[1], _escape(style.color), _escape(style.label)))
            continue
        if spec.segments and t is not None:
            bounds = [-math.inf, *spec.segments, math.inf]
            for i in range(len(bounds) - 1):
                lo, hi = bounds[i], bounds[i + 1]
                # keep shared boundary points so segments join up
                seg = [k for k, tk in enumerate(t) if lo <= tk <= hi]
                if len(seg) < 2:
                    continue
                color = SEGMENT_COLORS[i % len(SEGMENT_COLORS)]
                yield polyline([c for k in seg for c in xy[2 * k:2 * k + 2]],
                               color, style.dash, f"{style.label} [{i}]")
        else:
            yield polyline(xy, style.color, style.dash, style.label)

    yield "</svg>\n"


def render_svg(spec: PlotSpec, series: Sequence[tuple[SeriesStyle, Series]]) -> str:
    """Render (style, series) pairs in spec's frame to a standalone SVG 1.1 document string.

    Each series of rows is projected with project; a Projected series
    is drawn as it is.  Each series is drawn in the style it is paired
    with.  A series of no point is skipped, and a series of one point,
    of any kind, is drawn as a small circle (a track that stops at the
    pole guard before its first sample is one).  Series
    are drawn in order; when time segmentation is set, each path series
    is split at the boundaries and colored through the segment palette,
    the part after the last boundary included.

    Raises:
        EmptyData: no series has a point, or the data's padded range or
            its scale is not finite.
    """
    return "".join(_svg_lines(spec, series))


def write_svg(spec: PlotSpec, series: Sequence[tuple[SeriesStyle, Series]], path: str) -> int:
    """Write render_svg's document line by line as it is rendered; returns bytes written.

    The document's text is never held whole: _write writes each line as
    it is made.  The checks run before the first line, so a refused
    figure writes nothing.

    Raises:
        EmptyData: as render_svg, before the file is opened.
        OSError: surfaced with the target path in the message.
    """
    return _write(path, "SVG", _svg_lines(spec, series))


def unwrap_angles(values: Sequence[float]) -> list[float]:
    """Lift wrapped angles to a continuous curve (for plotting).

    numpy.unwrap's rule with period 2*pi, float for float: a jump of pi
    or more is mapped into [-pi, pi), a positive jump that lands on -pi
    to +pi, and the running sum of the corrections is added to each
    later value.
    """
    vals = [float(v) for v in values]
    out = vals[:1]
    correction = 0.0
    for prev, v in zip(vals, vals[1:]):
        d = v - prev
        if not abs(d) < math.pi:  # NaN jumps too, as in numpy
            dmod = (d + math.pi) % (2.0 * math.pi) - math.pi
            if dmod == -math.pi and d > 0:
                dmod = math.pi
            correction += dmod - d
        out.append(v + correction)
    return out
