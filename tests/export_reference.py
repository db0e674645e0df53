"""A per-point render_svg: the reference that the figure property compares against.

render_svg as it was before it drew a polyline with one format call:
one "px,py" string per point, joined per polyline, and time segments
picked point by point.  Label, colour and dash are written as given
(unescaped), so the property draws only text that needs no escaping.
"""
import math
from typing import Sequence

from znav.errors import EmptyData
from znav.export import FIGURE_SIZE, PATH_KINDS, SEGMENT_COLORS, PlotSpec, Series, SeriesStyle

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


def render_svg(spec: PlotSpec, series: Sequence[tuple[SeriesStyle, Series]]) -> str:
    """Render (style, float rows) pairs to a standalone SVG 1.1 document string.

    A series of no point is skipped, and a series of one point, of any
    kind, is drawn as a small circle.
    Series are drawn in order; when time segmentation is set, each path
    series is split at the boundaries and colored through the segment
    palette, the part after the last boundary included.

    Raises:
        EmptyData: no series has a point.
    """
    data = [rows for _, rows in series]
    if all(len(rows) == 0 for rows in data):
        raise EmptyData(f"no data for {spec.kind} plot")

    planes = [_to_plane(spec, rows) for rows in data]
    xmin = min(min(x) for x, _, _ in planes if x)
    xmax = max(max(x) for x, _, _ in planes if x)
    ymin = min(min(y) for _, y, _ in planes if y)
    ymax = max(max(y) for _, y, _ in planes if y)
    pad_x = 0.05 * (xmax - xmin) or 1.0
    pad_y = 0.05 * (ymax - ymin) or 1.0
    xmin, xmax = xmin - pad_x, xmax + pad_x
    ymin, ymax = ymin - pad_y, ymax + pad_y

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

    def emit_polyline(pts: list[str], color: str, dash: str, label: str) -> None:
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5"'
            f'{dash_attr} points="{" ".join(pts)}"><title>{label}</title></polyline>'
        )

    for (style, _), (x, y, t) in zip(series, planes):
        if not x:
            continue
        # one "px,py" pixel pair per point, the y axis pointing up
        pts = [
            f"{x0 + (a - xmin) * sx:.4f},{size - (y0 + (b - ymin) * sy):.4f}"
            for a, b in zip(x, y)
        ]
        if len(pts) == 1:
            cx, cy = pts[0].split(",")
            parts.append(
                f'<circle cx="{cx}" cy="{cy}" r="3" '
                f'fill="{style.color}"><title>{style.label}</title></circle>'
            )
            continue
        if spec.segments and t is not None:
            bounds = [-math.inf, *spec.segments, math.inf]
            for i in range(len(bounds) - 1):
                lo, hi = bounds[i], bounds[i + 1]
                # keep shared boundary points so segments join up
                seg = [p for p, tk in zip(pts, t) if lo <= tk <= hi]
                if len(seg) < 2:
                    continue
                color = SEGMENT_COLORS[i % len(SEGMENT_COLORS)]
                emit_polyline(seg, color, style.dash, f"{style.label} [{i}]")
        else:
            emit_polyline(pts, style.color, style.dash, style.label)

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
