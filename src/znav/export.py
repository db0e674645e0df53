"""CSV serialization and standalone SVG figures.

write_table is the one CSV writer: floats in shortest round-trip form,
ints as ints, None as an empty cell.  The trajectory schema of
write_csv is fixed at twelve columns (times, chart state, embedded
position, control channel).  SVG output is deterministic: no
timestamps, stable element order, fixed coordinate formatting.  3D
paths are drawn by orthographic projection along a configurable view
axis.
"""
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from znav.control import ControlRecord, wrap_2pi
from znav.errors import EmptyData
from znav.spheroid import Spheroid, embed

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

PATH_KINDS = {"path3d_projection", "polar"}
MARKER_KINDS = {"channel_vs_time", "indicatrix", "speed_vs_heading"}


def write_table(columns: Sequence[str], rows: Iterable[Sequence], path: str) -> int:
    """Write a header and one CSV line per row; returns bytes written.

    Floats are written in shortest round-trip form (repr), ints as ints
    and None as an empty cell.

    Raises:
        OSError: surfaced with the target path in the message.
    """
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(
            "" if v is None else repr(v if isinstance(v, int) else float(v)) for v in row
        ))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc
    return len(data)


def write_csv(
    sph: Spheroid,
    traj: "Trajectory",
    channel: Sequence[ControlRecord],
    path: str,
) -> int:
    """Write a sampled trajectory plus its control channel; returns bytes written.

    Channel gaps (samples whose record is missing) leave the last four
    cells empty.  The azimuth is wrapped to [0, 2*pi) on export.

    Raises:
        OSError: as write_table.
    """
    by_t = {rec.t: rec for rec in channel}
    rows = []
    for t, s in traj.samples:
        rec = by_t.get(t)
        ch = (None,) * 4 if rec is None else (rec.heading, rec.course, rec.drift, rec.speed)
        rows.append((t, wrap_2pi(s.point.phi), s.point.theta, s.vel.u, s.vel.v,
                     *embed(sph, s.point), *ch))
    return write_table(CSV_COLUMNS, rows, path)


def read_csv(path: str) -> dict[str, list[float]]:
    """Parse a file written by write_csv back into per-column float lists.

    Gap cells come back as NaN.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        cols: dict[str, list[float]] = {name: [] for name in header}
        for line in fh:
            for name, cell in zip(header, line.rstrip("\n").split(",")):
                cols[name].append(float(cell) if cell else math.nan)
    return cols


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
    width: int = 640
    height: int = 640

    def __post_init__(self):
        if self.kind not in PATH_KINDS | MARKER_KINDS:
            raise ValueError(f"unknown plot kind {self.kind!r}")
        if not self.series:
            raise ValueError("plot needs at least one series")
        if self.segments is not None and list(self.segments) != sorted(set(self.segments)):
            raise ValueError("segment boundaries must be strictly increasing")
        if self.view_axis not in ("x", "y", "z"):
            raise ValueError(f"view_axis must be x, y or z, got {self.view_axis!r}")


def _to_plane(spec: PlotSpec, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Map one series array to (px, py, t-or-None) for the requested plot kind."""
    kind = spec.kind
    if kind == "path3d_projection":
        t, x, y, z = arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]
        if spec.view_axis == "z":
            return x, y, t
        if spec.view_axis == "x":
            return y, z, t
        return x, z, t
    if kind == "polar":
        t, phi, theta = arr[:, 0], arr[:, 1], arr[:, 2]
        return theta * np.cos(phi), theta * np.sin(phi), t
    # channel_vs_time, speed_vs_heading, indicatrix: already planar
    return arr[:, 0], arr[:, 1], None


def _fmt(v: float) -> str:
    return f"{v:.4f}"


def render_svg(spec: PlotSpec, data: Sequence[np.ndarray]) -> str:
    """Render series data to a standalone SVG 1.1 document string.

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
    arrays = [np.asarray(a, dtype=float) for a in data]
    if not arrays or all(a.size == 0 for a in arrays):
        raise EmptyData(f"no data for {spec.kind} plot")
    if spec.kind in PATH_KINDS:
        for style, a in zip(spec.series, arrays):
            if a.shape[0] < 2:
                raise EmptyData(
                    f"series {style.label!r} has {a.shape[0]} points; "
                    f"{spec.kind} needs at least 2"
                )

    planes = [_to_plane(spec, a) for a in arrays]
    all_x = np.concatenate([p[0] for p in planes])
    all_y = np.concatenate([p[1] for p in planes])
    xmin, xmax = float(all_x.min()), float(all_x.max())
    ymin, ymax = float(all_y.min()), float(all_y.max())
    pad_x = 0.05 * (xmax - xmin) or 1.0
    pad_y = 0.05 * (ymax - ymin) or 1.0
    xmin, xmax = xmin - pad_x, xmax + pad_x
    ymin, ymax = ymin - pad_y, ymax + pad_y

    sx = spec.width / (xmax - xmin)
    sy = spec.height / (ymax - ymin)
    if spec.kind in PATH_KINDS or spec.kind == "indicatrix":
        sx = sy = min(sx, sy)  # equal aspect for geometric figures
    x0 = 0.5 * (spec.width - sx * (xmax - xmin))
    y0 = 0.5 * (spec.height - sy * (ymax - ymin))

    def to_px(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return x0 + (x - xmin) * sx, spec.height - (y0 + (y - ymin) * sy)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{spec.width}" height="{spec.height}" '
        f'viewBox="0 0 {spec.width} {spec.height}">',
        f'<rect x="0" y="0" width="{spec.width}" height="{spec.height}" '
        f'fill="white" stroke="#cccccc"/>',
    ]

    def emit_polyline(px, py, color: str, dash: str, label: str) -> None:
        pts = " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in zip(px, py))
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5"'
            f'{dash_attr} points="{pts}"><title>{label}</title></polyline>'
        )

    for style, (x, y, t) in zip(spec.series, planes):
        px, py = to_px(x, y)
        if px.shape[0] == 1:
            parts.append(
                f'<circle cx="{_fmt(px[0])}" cy="{_fmt(py[0])}" r="3" '
                f'fill="{style.color}"><title>{style.label}</title></circle>'
            )
            continue
        if spec.segments and t is not None:
            bounds = [-math.inf, *spec.segments, math.inf]
            for i in range(len(bounds) - 1):
                mask = (t >= bounds[i]) & (t <= bounds[i + 1])
                # keep shared boundary points so segments join up
                if mask.sum() < 2:
                    continue
                color = SEGMENT_COLORS[i % len(SEGMENT_COLORS)]
                emit_polyline(px[mask], py[mask], color, style.dash,
                              f"{style.label} [{i}]")
        else:
            emit_polyline(px, py, style.color, style.dash, style.label)

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(spec: PlotSpec, data: Sequence[np.ndarray], path: str) -> int:
    """Render and write an SVG; returns bytes written.

    Raises:
        EmptyData: as render_svg.
        OSError: surfaced with the target path in the message.
    """
    doc = render_svg(spec, data).encode("utf-8")
    try:
        with open(path, "wb") as fh:
            fh.write(doc)
    except OSError as exc:
        raise OSError(f"cannot write SVG to {path}: {exc}") from exc
    return len(doc)


def unwrap_angles(values: Sequence[float]) -> np.ndarray:
    """Lift wrapped angles to a continuous curve (for plotting)."""
    return np.unwrap(np.asarray(values, dtype=float))
