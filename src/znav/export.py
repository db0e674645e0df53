"""CSV serialization and standalone SVG figures.

write_table is the one CSV writer: each cell is written as its str,
which for floats (numpy.float64 included) is the shortest round-trip
form, for ints the int, and None becomes an empty cell.  The trajectory
schema of write_csv is fixed at twelve columns (times, chart state,
embedded position, control channel): row i of the file zips row i of
the trajectory, its embedding and entry i of the control channel.
A table is formatted and checked line by line before its file is
opened, and each file is written from one copy of its text: the CSV
lines or the rendered SVG document, never a joined or encoded second
copy.  SVG output is deterministic: no timestamps, stable element
order, fixed coordinate formatting, each polyline's points written in
one format call.  Labels, colours and dash patterns are written with
&, <, > and " escaped.  3D paths are drawn by orthographic projection
along a configurable view axis.

A figure series is a sequence of float rows, one row per point, read
in plain Python (any sequence of number sequences works, a list of
tuples or a 2-D array alike).  The columns depend on the plot kind:

    path3d_projection   (t, x, y, z)
    polar               (t, phi, theta), drawn at radius theta; the
                        rows of a Trajectory serve as they are
    channel_vs_time,
    speed_vs_heading,
    indicatrix          (x, y)
"""
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from znav.control import ControlRecord, wrap_2pi
from znav.errors import EmptyData
from znav.spheroid import Spheroid, embed_rows

if TYPE_CHECKING:
    from znav.integrate import Trajectory

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

# One figure series: a float row per point, columns as in the module docstring.
Series = Sequence[Sequence[float]]

# Width and height of every figure, in SVG user units.
FIGURE_SIZE = 640

PATH_KINDS = {"path3d_projection", "polar"}
MARKER_KINDS = {"channel_vs_time", "indicatrix", "speed_vs_heading"}


def _utf8_size(text: str) -> int:
    """Bytes of text in UTF-8; an ASCII text's count is its len, without an encoded copy."""
    return len(text) if text.isascii() else len(text.encode("utf-8"))


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
        # %s prints None as "None", which no int or float str contains
        lines = [(line % tuple(row)).replace("None", "") for row in rows]
    except TypeError as exc:  # too few or too many cells for the line
        raise ValueError(f"every row needs {len(columns)} cells: {exc}") from exc
    header = ",".join(columns) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(header)
            fh.writelines(lines)
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc
    return _utf8_size(header) + sum(map(_utf8_size, lines))


def write_csv(
    sph: Spheroid,
    traj: "Trajectory",
    channel: Sequence[ControlRecord | None],
    path: str,
) -> int:
    """Write a sampled trajectory plus its control channel; returns bytes written.

    channel has one entry per row of traj.rows, as control_channel
    returns it; a None entry (a gap) leaves the row's last four cells
    empty.  The azimuth is wrapped to [0, 2*pi) on export.  The
    twelve-cell rows are generated one at a time for write_table.

    Raises:
        ValueError: channel and traj.rows differ in length; raised while
            the lines are formatted, so no file is written.
        OSError: as write_table.
    """
    gap = (None,) * 4

    def rows():
        for (t, phi, theta, u, v), (_, x, y, z), rec in zip(
            traj.rows, embed_rows(sph, traj.rows), channel, strict=True
        ):
            ch = gap if rec is None else (rec.heading, rec.course, rec.drift, rec.speed)
            yield t, wrap_2pi(phi), theta, u, v, x, y, z, *ch

    return write_table(CSV_COLUMNS, rows(), path)


@dataclass(frozen=True)
class SeriesStyle:
    """Label, stroke color and dash pattern ('' for solid) of one series."""

    label: str
    color: str = "#000000"
    dash: str = ""


@dataclass(frozen=True)
class PlotSpec:
    """Figure request: kind, per-series styling, optional time segmentation."""

    kind: str
    series: tuple[SeriesStyle, ...]
    segments: tuple[float, ...] | None = None
    view_axis: str = "z"

    def __post_init__(self):
        if self.kind not in PATH_KINDS | MARKER_KINDS:
            raise ValueError(f"unknown plot kind {self.kind!r}")
        if not self.series:
            raise ValueError("plot needs at least one series")
        if self.segments is not None and list(self.segments) != sorted(set(self.segments)):
            raise ValueError("segment boundaries must be strictly increasing")
        if self.view_axis not in ("x", "y", "z"):
            raise ValueError(f"view_axis must be x, y or z, got {self.view_axis!r}")


# (first, second) plane column of a (t, x, y, z) row per view axis
_PROJECTION = {"z": (1, 2), "x": (2, 3), "y": (1, 3)}


def _to_plane(
    spec: PlotSpec, rows: Series
) -> tuple[list[float], list[float], list[float] | None]:
    """Map one series to (px, py, t-or-None) for the requested plot kind."""
    kind = spec.kind
    if kind == "path3d_projection":
        i, j = _PROJECTION[spec.view_axis]
        return [r[i] for r in rows], [r[j] for r in rows], [r[0] for r in rows]
    if kind == "polar":
        return (
            [r[2] * math.cos(r[1]) for r in rows],
            [r[2] * math.sin(r[1]) for r in rows],
            [r[0] for r in rows],
        )
    # channel_vs_time, speed_vs_heading, indicatrix: already planar
    return [r[0] for r in rows], [r[1] for r in rows], None


def _padded_range(lo: float, hi: float) -> tuple[float, float]:
    """A figure axis's range: [lo, hi] widened by 5% of its span each way, by 1 if empty."""
    pad = 0.05 * (hi - lo) or 1.0
    return lo - pad, hi + pad


def _escape(text: str) -> str:
    """text with &, <, > and " as XML character references, for attributes and titles."""
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


def render_svg(spec: PlotSpec, data: Sequence[Series]) -> str:
    """Render series of float rows to a standalone SVG 1.1 document string.

    Path kinds refuse series with fewer than two points; marker kinds
    draw lone points as small circles.  Series are drawn in order; when
    time segmentation is set, each path series is split at the
    boundaries and colored through the segment palette, the part after
    the last boundary included.

    Raises:
        EmptyData: no data, or a path series with fewer than two points.
    """
    if len(data) != len(spec.series):
        raise ValueError(
            f"{len(spec.series)} series styles but {len(data)} data arrays"
        )
    if all(len(rows) == 0 for rows in data):
        raise EmptyData(f"no data for {spec.kind} plot")
    if spec.kind in PATH_KINDS:
        for style, rows in zip(spec.series, data):
            if len(rows) < 2:
                raise EmptyData(
                    f"series {style.label!r} has {len(rows)} points; "
                    f"{spec.kind} needs at least 2"
                )

    planes = [_to_plane(spec, rows) for rows in data]
    xmin, xmax = _padded_range(min(min(x) for x, _, _ in planes if x),
                               max(max(x) for x, _, _ in planes if x))
    ymin, ymax = _padded_range(min(min(y) for _, y, _ in planes if y),
                               max(max(y) for _, y, _ in planes if y))

    size = FIGURE_SIZE
    sx = size / (xmax - xmin)
    sy = size / (ymax - ymin)
    if spec.kind in PATH_KINDS or spec.kind == "indicatrix":
        sx = sy = min(sx, sy)  # equal aspect for geometric figures
    x0 = 0.5 * (size - sx * (xmax - xmin))
    y0 = 0.5 * (size - sy * (ymax - ymin))

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect x="0" y="0" width="{size}" height="{size}" '
        f'fill="white" stroke="#cccccc"/>',
    ]

    def emit_polyline(xy: list[float], color: str, dash: str, label: str) -> None:
        dash_attr = f' stroke-dasharray="{_escape(dash)}"' if dash else ""
        points = ("%.4f,%.4f " * (len(xy) // 2) % tuple(xy))[:-1]
        parts.append(
            f'<polyline fill="none" stroke="{_escape(color)}" stroke-width="1.5"'
            f'{dash_attr} points="{points}"><title>{_escape(label)}</title></polyline>'
        )

    for style, (x, y, t) in zip(spec.series, planes):
        # pixel coordinates px0, py0, px1, py1, ..., the y axis pointing up
        xy = [0.0] * (2 * len(x))
        xy[0::2] = [x0 + (a - xmin) * sx for a in x]
        xy[1::2] = [size - (y0 + (b - ymin) * sy) for b in y]
        if len(x) == 1:
            parts.append(
                '<circle cx="%.4f" cy="%.4f" r="3" fill="%s"><title>%s</title></circle>'
                % (xy[0], xy[1], _escape(style.color), _escape(style.label))
            )
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
                emit_polyline([c for k in seg for c in xy[2 * k:2 * k + 2]],
                              color, style.dash, f"{style.label} [{i}]")
        else:
            emit_polyline(xy, style.color, style.dash, style.label)

    parts += ["</svg>", ""]  # the empty part ends the document with a newline
    return "\n".join(parts)


def write_svg(spec: PlotSpec, data: Sequence[Series], path: str) -> int:
    """Render and write an SVG; returns bytes written.

    The rendered document is the one copy of the file's text: it is
    written in text mode, not encoded first.

    Raises:
        EmptyData: as render_svg.
        OSError: surfaced with the target path in the message.
    """
    doc = render_svg(spec, data)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(doc)
    except OSError as exc:
        raise OSError(f"cannot write SVG to {path}: {exc}") from exc
    return _utf8_size(doc)


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
