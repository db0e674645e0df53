"""Command-line front end.

Subcommands:

    geodesic    one path: CSV, optional figure, summary line
    family      a fan of headings: per-member CSVs, combined figure,
                transpolar/circumpolar counts
    compare     h-, alpha- and F-geodesics from one heading: overlay
                figure, difference CSV, wind-drift residuals
    indicatrix  unit-time destination curves at a point
    report      control channel, speed-vs-heading curve, departure
                summary (course, drift, speed)

Angles are radians by default; pi-fraction literals like pi/3 are
accepted anywhere, --deg switches plain numbers to degrees.  A flat
key=value config file can be given with --config; its entries are
parsed as the flags they name, and explicit flags override them.
Every file goes through export: a CSV through write_table, a figure
through write_svg.  Figures are written before tables (family's member
CSVs aside), so a refused figure writes no file.  Every track is run
by integrate.track.  resolve_problem checks every option value and
every file a run names before any work, so a command only runs.  Exit
codes: 0 ok, 2 validation, 3 numeric failure (an unscalable figure
included), 4 IO.
"""
import argparse
import math
import os
import re
import sys
from typing import NoReturn

from znav.control import control_channel, speed_of, wrap_2pi, wrap_signed
from znav.errors import EmptyData, NavigationError
from znav.export import (
    PlotSpec,
    SeriesStyle,
    project,
    unwrap_angles,
    write_csv,
    write_svg,
    write_table,
)
from znav.integrate import (
    MAX_GRID, IntegratorConfig, Trajectory, classify_path, iter_family, track,
)
from znav.randers import F_value, RandersData
from znav.spheroid import Spheroid, SurfacePoint, embed_rows, require_off_pole
from znav.spray import METRIC_KINDS, indicatrix, initial_state, resolve_flow
from znav.wind import STILL_AIR, rotation_wind


class ValidationError(Exception):
    """Bad flag or config value; reported before any computation."""


_PI_PATTERN = re.compile(r"([+-]?\d*\.?\d*)\s*pi\s*(?:/\s*(\d+\.?\d*))?")


def parse_angle(text: str, degrees: bool = False) -> float:
    """Parse an angle: plain number (radians, or degrees with --deg) or pi-fraction.

    Raises:
        ValidationError: unparsable text or a non-finite angle.
    """
    t = text.strip().lower()
    m = _PI_PATTERN.fullmatch(t)
    try:
        if m:
            num, den = m.group(1), m.group(2)
            if num in ("", "+"):
                factor = 1.0
            elif num == "-":
                factor = -1.0
            else:
                factor = float(num)
            value = factor * math.pi / (float(den) if den else 1.0)
        else:
            value = float(t)
            value = math.radians(value) if degrees else value
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"cannot parse angle {text!r}") from exc
    if not math.isfinite(value):
        raise ValidationError(f"angle {text!r} is not finite")
    return value


def parse_wind(text: str) -> float | None:
    """Rotation rate of a wind spec 'rotation:C', or None for still air ('none')."""
    t = text.strip().lower()
    if t == "none":
        return None
    if t.startswith("rotation:"):
        try:
            return float(t.split(":", 1)[1])
        except ValueError as exc:
            raise ValidationError(f"bad rotation rate in {text!r}") from exc
    raise ValidationError(f"wind spec must be 'rotation:C' or 'none', got {text!r}")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose parse errors raise ValidationError (exit 2 in main).

    A token that starts like a negative number or pi literal is a value.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\d|\.\d|pi)", re.IGNORECASE)

    def error(self, message: str) -> NoReturn:
        raise ValidationError(message)


# config-file spellings of a switch (--deg, --compass): on, off
_SWITCH = {"1": True, "true": True, "yes": True, "on": True,
           "0": False, "false": False, "no": False, "off": False}


def _config_tokens(path: str, parser: argparse.ArgumentParser, command: str) -> list[str]:
    """A flat key=value config file as command-line tokens of one subcommand.

    '#' starts a comment; a key is a long option with '_' read as '-'.
    A value option gives '--key=value', a switch its bare flag for
    1/true/yes/on and nothing for 0/false/no/off.  Keys of other
    subcommands are skipped; a key of none (or config) is rejected.
    """
    # argparse lists no actions publicly: read each subparser's option table
    subparsers = next(a for a in parser._actions if a.dest == "command").choices
    keys = {o for p in subparsers.values() for o in p._option_string_actions}
    keys -= {"-h", "--help", "--config"}
    tokens = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValidationError(f"{path}:{lineno}: expected key=value")
                key, value = (part.strip() for part in line.split("=", 1))
                option = "--" + key.replace("_", "-")
                if option not in keys:
                    raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
                action = subparsers[command]._option_string_actions.get(option)
                if action is None:  # a key of another subcommand
                    continue
                if action.nargs != 0:
                    tokens.append(f"{option}={value}")
                elif value.lower() not in _SWITCH:
                    raise ValidationError(f"{path}:{lineno}: {key} = {value!r} is not"
                                          f" one of {'/'.join(_SWITCH)}")
                elif _SWITCH[value.lower()]:
                    tokens.append(option)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    return tokens


def _path(text: str) -> str:
    if not text:  # an empty path names no file
        raise argparse.ArgumentTypeError("path must not be empty")
    if "\0" in text:  # no file system takes one in a name
        raise argparse.ArgumentTypeError("path must not hold a NUL byte")
    return text


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser; each subcommand accepts exactly the options it reads."""
    common = _Parser(add_help=False)
    common.add_argument("--config", type=_path, help="flat key=value config file; flags override")
    common.add_argument("--a", type=float, default=0.75,
                        help="shape parameter of the spheroid (1,1,a)")
    common.add_argument("--wind", default="none", help="wind spec: rotation:C or none")
    common.add_argument("--start", default="0,pi/2", help="start point as phi,theta")
    common.add_argument("--deg", action="store_true", help="plain-number angles are degrees")
    common.add_argument("--csv", type=_path, help="CSV output path")
    common.add_argument("--svg", type=_path, help="SVG output path")
    steps = _Parser(add_help=False)
    # a NamedTuple's class attributes are its field accessors, not their defaults
    defaults = IntegratorConfig._field_defaults
    steps.add_argument("--t-end", type=float, default=3.0, help="integration horizon")
    steps.add_argument("--rel-tol", type=float, default=defaults["rel_tol"],
                       help="relative tolerance")
    steps.add_argument("--abs-tol", type=float, default=defaults["abs_tol"],
                       help="absolute tolerance")
    steps.add_argument("--sample-dt", type=float, default=defaults["sample_dt"],
                       help="output grid spacing")
    kind = _Parser(add_help=False)
    kind.add_argument("--kind", choices=METRIC_KINDS, default="randers", help="metric kind")
    heading = _Parser(add_help=False)
    heading.add_argument("--heading", help="initial heading angle")
    view = _Parser(add_help=False)
    view.add_argument("--view", choices=["x", "y", "z"],
                      help="projection axis of a path3d figure (default z)")
    segments = _Parser(add_help=False)
    segments.add_argument("--segments", help="time boundaries for color segmentation"
                          " of the figure, e.g. 1,2,3")

    parser = _Parser(
        prog="znav",
        description="Time-optimal navigation on spheroids under mild stationary winds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("geodesic", parents=[common, steps, kind, heading, view, segments],
                       help="integrate one geodesic")
    p.add_argument("--plot", choices=["path3d", "polar"],
                   help="figure kind for --svg (default path3d)")
    p = sub.add_parser("family", parents=[common, steps, kind, view, segments],
                       help="integrate a fan of headings")
    p.add_argument("--heading-start", help="first heading")
    p.add_argument("--heading-step", help="heading increment")
    p.add_argument("--heading-count", type=int, help="number of members")
    sub.add_parser("compare", parents=[common, steps, heading, view],
                   help="h vs alpha vs randers from one heading")
    p = sub.add_parser("indicatrix", parents=[common],
                       help="unit-time destination curves at a point")
    p.add_argument("--n", type=int, default=360, help="samples per curve, 3 to 10**6")
    p.add_argument("--multipliers", default="1,2,3,4",
                   help="curve time multipliers, e.g. 1,2,3,4")
    p = sub.add_parser("report", parents=[common, steps, kind, heading],
                       help="control channel and departure summary")
    p.add_argument("--compass", action="store_true",
                   help="print azimuths clockwise from north")
    p.add_argument("--speed-svg", type=_path, help="SVG path for the speed-vs-heading curve")
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv; --config file tokens go before the flags, which override them."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        at = argv.index(args.command) + 1
        args = parser.parse_args(
            [*argv[:at], *_config_tokens(args.config, parser, args.command), *argv[at:]]
        )
    return args


def resolve_problem(cfg: argparse.Namespace) -> None:
    """Parse and check the options onto cfg; only those the subcommand declares are read.

    Sets cfg.sph (Spheroid), cfg.wind (WindField of --kind's flow by
    spray.resolve_flow, else of --wind; may be STILL_AIR), cfg.start
    (SurfacePoint), cfg.steps (IntegratorConfig; None without --t-end)
    and, where the subcommand declares the option, cfg.heading (radians),
    cfg.headings (family's fan, radians), cfg.mults (indicatrix's
    multipliers) and cfg.segments (increasing boundaries, or None).
    This is the one place a run is refused before any work: last, each
    file the run names must be a file of its own.
    """
    rate = parse_wind(cfg.wind)
    parts = cfg.start.split(",")
    if len(parts) != 2:
        raise ValidationError(f"start must be 'phi,theta', got {cfg.start!r}")
    # the azimuth is wrapped: phi + h u would not move a huge phi
    cfg.start = SurfacePoint(
        wrap_2pi(parse_angle(parts[0], cfg.deg)), parse_angle(parts[1], cfg.deg)
    )
    try:
        # a zero rate (0 or -0.0) is still air, the same flow as --wind none;
        # a rate rotation_wind accepts is mild everywhere
        cfg.wind = STILL_AIR if not rate else rotation_wind(rate)
        require_off_pole(cfg.start.theta)
        cfg.wind = resolve_flow(cfg.kind, cfg.wind)[1] if "kind" in cfg else cfg.wind
        cfg.sph = Spheroid(cfg.a)
        cfg.steps = IntegratorConfig(t_end=cfg.t_end, rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
                                     sample_dt=cfg.sample_dt) if "t_end" in cfg else None
    except (ValueError, NavigationError) as exc:  # NotMild, PoleSingularity
        raise ValidationError(str(exc)) from exc
    if "heading" in cfg:
        if cfg.heading is None:
            raise ValidationError(f"{cfg.command} needs --heading")
        cfg.heading = parse_angle(cfg.heading, cfg.deg)
    if "heading_count" in cfg:
        if cfg.heading_start is None or cfg.heading_step is None or cfg.heading_count is None:
            raise ValidationError(
                "family needs --heading-start, --heading-step and --heading-count"
            )
        if cfg.heading_count < 1:
            raise ValidationError("heading count must be >= 1")
        # fan budget: at most MAX_GRID rows integrated over all members, each of
        # at most t_end / sample_dt + 2 rows, and no member's rows outlive the
        # next member's integration; a count is compared, never multiplied
        if cfg.heading_count > MAX_GRID / (cfg.steps.t_end / cfg.steps.sample_dt + 2):
            raise ValidationError(f"{cfg.heading_count} members of t_end / sample_dt ="
                                  f" {cfg.steps.t_end / cfg.steps.sample_dt:g} exceed"
                                  f" the fan budget of {MAX_GRID} rows")
        h0 = parse_angle(cfg.heading_start, cfg.deg)
        dh = parse_angle(cfg.heading_step, cfg.deg)
        cfg.headings = [h0 + k * dh for k in range(cfg.heading_count)]
        if not all(map(math.isfinite, cfg.headings)):
            raise ValidationError(f"fan headings {cfg.heading_start} + k * {cfg.heading_step}"
                                  f" for k < {cfg.heading_count} are not all finite")
    if "n" in cfg:
        if not 3 <= cfg.n <= MAX_GRID:
            raise ValidationError(f"--n must be in [3, {MAX_GRID}], got {cfg.n}")
        cfg.mults = _float_list(cfg.multipliers, "multipliers")
        if any(m <= 0 for m in cfg.mults):
            raise ValidationError("multipliers must be positive")
    if "segments" in cfg and cfg.segments is not None:
        cfg.segments = _float_list(cfg.segments, "segment list")
        if list(cfg.segments) != sorted(set(cfg.segments)):
            raise ValidationError("segment boundaries must be strictly increasing")
    # a figure option without the figure it shapes would change nothing
    for option in ("plot", "view", "segments"):
        if getattr(cfg, option, None) is not None and not cfg.svg:
            raise ValidationError(f"--{option} needs --svg")
    if getattr(cfg, "plot", None) == "polar" and cfg.view is not None:
        raise ValidationError("--view needs a path3d figure, not --plot polar")
    # each file the run names is one of its own; family's --csv names no
    # file but the stem of its members' files
    csvs = [cfg.csv]
    if cfg.csv and "heading_count" in cfg:
        csvs = [_member_csv(cfg.csv, i) for i in range(cfg.heading_count)]
    seen = {}
    for name in filter(None, (cfg.config, *csvs, cfg.svg, getattr(cfg, "speed_svg", None))):
        real = os.path.realpath(name)
        if real in seen:
            raise ValidationError(f"two outputs name the same file: {seen[real]}, {name}")
        seen[real] = name


def _conservation_drift(cfg: argparse.Namespace, traj: Trajectory) -> float:
    """Largest deviation of the conserved speed (alpha- or F-norm) from 1.

    The flow's wind is still air for h, where the h-norm is F.
    """
    terms = RandersData(cfg.sph, cfg.wind).terms
    alpha_only = traj.kind == "alpha"
    worst = 0.0
    for _, phi, theta, u, v in traj.rows:
        _, alpha, beta = terms(phi, theta, u, v)
        worst = max(worst, abs((alpha if alpha_only else alpha + beta) - 1.0))
    return worst


def _float_list(text: str, what: str) -> tuple[float, ...]:
    """Parse comma-separated finite floats; ValidationError otherwise."""
    try:
        vals = tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"bad {what} {text!r}") from exc
    if not all(map(math.isfinite, vals)):
        raise ValidationError(f"{what} {text!r} must be finite")
    return vals


def _member_csv(csv: str, i: int) -> str:
    """family's i-th member file of the --csv stem: out.csv -> out_000.csv, ..."""
    stem, ext = os.path.splitext(csv)
    return f"{stem}_{i:03d}{ext}"


def _heading_deg(cfg: argparse.Namespace, angle: float) -> float:
    """Angle for display: degrees, optionally converted to a compass azimuth."""
    deg = math.degrees(angle)
    return (90.0 - deg) % 360.0 if cfg.compass else deg


def cmd_geodesic(cfg: argparse.Namespace) -> int:
    traj = track(cfg.sph, cfg.wind, cfg.kind, cfg.start, cfg.heading, cfg.steps)
    if cfg.svg:
        spec = PlotSpec("polar" if cfg.plot == "polar" else "path3d_projection",
                        segments=cfg.segments, view_axis=cfg.view or "z")
        data = traj.rows if spec.kind == "polar" else embed_rows(cfg.sph, traj.rows)
        write_svg(spec, [(SeriesStyle(label=traj.kind, color="#d62728"), data)], cfg.svg)
    if cfg.csv:
        write_csv(cfg.sph, traj.rows, control_channel(cfg.sph, cfg.wind, traj.rows), cfg.csv)
    t_last, phi, theta, u, v = traj.rows[-1]
    print(
        f"termination={traj.termination} classification={classify_path(traj)} "
        f"t_last={t_last:.6g} final_phi={phi:.9g} final_theta={theta:.9g} "
        f"final_phi_dot={u:.9g} final_theta_dot={v:.9g} "
        f"conservation_drift={_conservation_drift(cfg, traj):.3e}"
    )
    return 0


def cmd_family(cfg: argparse.Namespace) -> int:
    frame = PlotSpec("path3d_projection", segments=cfg.segments, view_axis=cfg.view or "z")
    counts = {"circumpolar": 0, "transpolar": 0, "failed": 0}
    figure = []
    members = iter_family(cfg.sph, cfg.wind, cfg.start, cfg.headings, cfg.kind, cfg.steps)
    # next() and del, not enumerate or zip, whose iterators keep member i while
    # member i + 1 is integrated; the figure keeps only each member's projection
    for i in range(len(cfg.headings)):
        member = next(members)
        traj = member.trajectory
        if traj is None:
            counts["failed"] += 1
            print(f"member={i:02d} heading={member.heading:.6g} error={member.error}")
        else:
            label = classify_path(traj)
            counts[label] += 1
            print(f"member={i:02d} heading={member.heading:.6g} "
                  f"termination={traj.termination} classification={label}")
            if cfg.csv:
                write_csv(cfg.sph, traj.rows, control_channel(cfg.sph, cfg.wind, traj.rows),
                          _member_csv(cfg.csv, i))
            if cfg.svg:
                color = "#1f77b4" if label == "transpolar" else "#d62728"
                figure.append((SeriesStyle(label=f"heading={member.heading:.4g}", color=color),
                               project(frame, embed_rows(cfg.sph, traj.rows))))
        del member, traj
    print(f"counts: circumpolar={counts['circumpolar']} "
          f"transpolar={counts['transpolar']} failed={counts['failed']}")
    if figure:
        write_svg(frame, figure, cfg.svg)
    return 0 if counts["circumpolar"] + counts["transpolar"] >= 1 else 3


def cmd_compare(cfg: argparse.Namespace) -> int:
    # each distinct flow of spray.resolve_flow is integrated, and its channel computed,
    # once (one h flow in still air); the alpha track, only drawn, only for --svg
    flows = {k: resolve_flow(k, cfg.wind) for k in (METRIC_KINDS if cfg.svg else ("h", "randers"))}
    runs = {(kind, wind): track(cfg.sph, wind, kind, cfg.start, cfg.heading, cfg.steps)
            for kind, wind in dict.fromkeys(flows.values())}
    rows_f, rows_h = runs[flows["randers"]].rows, runs[flows["h"]].rows

    if cfg.svg:
        palette = {"h": "#1f77b4", "alpha": "#2ca02c", "randers": "#d62728"}
        write_svg(PlotSpec("path3d_projection", view_axis=cfg.view or "z"),
                  [(SeriesStyle(label=k, color=palette[k]), embed_rows(cfg.sph, runs[flow].rows))
                   for k, flow in flows.items()], cfg.svg)
    if cfg.csv:
        # each channel in its flow's wind; one row per time of the shorter
        # track, channel cells empty where either record is undefined
        channels = {flow: control_channel(cfg.sph, flow[1], runs[flow].rows)
                    for flow in dict.fromkeys((flows["randers"], flows["h"]))}
        ch_f, ch_h = channels[flows["randers"]], channels[flows["h"]]
        table = []
        for rf, rh, cf, ch in zip(rows_f, rows_h, ch_f, ch_h):
            if cf is None or ch is None:
                dch = (None,) * 4
            else:
                dch = (wrap_signed(cf.heading - ch.heading), wrap_signed(cf.course - ch.course),
                       wrap_signed(cf.drift - ch.drift), cf.speed - ch.speed)
            table.append((rh[0], rf[1] - rh[1], rf[2] - rh[2], rf[3] - rh[3], rf[4] - rh[4],
                          *dch))
        write_table(("t", "d_phi", "d_theta", "d_phi_dot", "d_theta_dot",
                     "d_heading", "d_course", "d_drift", "d_speed"), table, cfg.csv)

    max_dphi = max(abs(rf[1] - rh[1]) for rf, rh in zip(rows_f, rows_h))
    max_dtheta = max(abs(rf[2] - rh[2]) for rf, rh in zip(rows_f, rows_h))
    print(f"max_dphi={max_dphi:.3e} max_dtheta={max_dtheta:.3e}")
    if cfg.wind is not STILL_AIR:
        w1 = cfg.wind.at(cfg.start)[0]  # a rotation wind's drag, the same everywhere
        res_phi = max(abs(rf[1] - (rh[1] + w1 * rh[0])) for rf, rh in zip(rows_f, rows_h))
        print(f"killing_residual_phi={res_phi:.3e} "
              f"killing_residual_theta={max_dtheta:.3e}")
    return 0


def cmd_indicatrix(cfg: argparse.Namespace) -> int:
    rd = RandersData(cfg.sph, cfg.wind)
    vecs = indicatrix(rd, cfg.start, cfg.n)
    f_vals = [F_value(rd, cfg.start, y) for y in vecs]
    residual = max(abs(f - 1.0) for f in f_vals)
    # the scaled curves must be finite before any file is written; m * c
    # rounds monotonically in c for m > 0, so extremes scale c's
    ext = [op(m * op(c) for m in cfg.mults)
           for c in ([y.u for y in vecs], [y.v for y in vecs]) for op in (min, max)]
    if not all(map(math.isfinite, ext)):
        raise ValidationError(f"multipliers {cfg.multipliers} overflow the indicatrix curves")

    if cfg.svg:
        palette = ("#1f77b4", "#d62728", "#9467bd", "#e377c2")
        curves = []
        for i, mult in enumerate(cfg.mults):
            pts = [(mult * y.u, mult * y.v) for y in vecs]
            pts.append(pts[0])  # close the curve
            curves.append((SeriesStyle(label=f"t={mult:g}", color=palette[i % len(palette)]), pts))
        try:
            write_svg(PlotSpec("indicatrix"), curves, cfg.svg)
        except EmptyData as exc:  # a range or scale of the figure that is not finite
            raise ValidationError(f"multipliers {cfg.multipliers} overflow the indicatrix"
                                  " figure's range or scale") from exc
    if cfg.csv:
        rows = (
            (mult, k, 2.0 * math.pi * k / cfg.n, mult * y.u, mult * y.v, f)
            for mult in cfg.mults
            for k, (y, f) in enumerate(zip(vecs, f_vals))
        )
        write_table(("mult", "k", "heading", "u", "v", "F"), rows, cfg.csv)
    print(f"indicatrix_residual={residual:.3e} n={cfg.n} "
          f"multipliers={','.join(f'{m:g}' for m in cfg.mults)}")
    return 0


def cmd_report(cfg: argparse.Namespace) -> int:
    traj = track(cfg.sph, cfg.wind, cfg.kind, cfg.start, cfg.heading, cfg.steps)
    channel = control_channel(cfg.sph, cfg.wind, traj.rows)
    rec0 = channel[0]  # the departure
    if rec0 is None:
        raise EmptyData("departure heading or course undefined")
    if cfg.svg:
        records = [r for r in channel if r is not None]
        t = [r.t for r in records]
        write_svg(PlotSpec("channel_vs_time"), [
            (SeriesStyle(label="heading", color="#000000"),
             zip(t, unwrap_angles([r.heading for r in records]))),
            (SeriesStyle(label="course", color="#d62728"),
             zip(t, unwrap_angles([r.course for r in records]))),
            (SeriesStyle(label="drift", color="#1f77b4", dash="6,3"),
             zip(t, [r.drift for r in records])),
        ], cfg.svg)
    if cfg.speed_svg:
        # numpy.linspace(0, 2*pi, 361), float for float
        hds = [k * (2.0 * math.pi / 360) for k in range(360)] + [2.0 * math.pi]
        # the departure speed of the start that report --heading hd runs
        speeds = [speed_of(cfg.sph, initial_state(cfg.sph, cfg.wind, cfg.kind, cfg.start, hd))
                  for hd in hds]
        write_svg(PlotSpec("speed_vs_heading"),
                  [(SeriesStyle(label="initial speed", color="#000000"), list(zip(hds, speeds)))],
                  cfg.speed_svg)
    if cfg.csv:
        write_csv(cfg.sph, traj.rows, channel, cfg.csv)

    conv = " (compass azimuth)" if cfg.compass else ""
    drift0 = 0.0 - rec0.drift if cfg.compass else rec0.drift  # 0, not -0, for no drift
    print(f"heading_0 = {_heading_deg(cfg, rec0.heading):.4g} deg{conv}")
    print(f"course_0 = {_heading_deg(cfg, rec0.course):.4g} deg{conv}")
    print(f"drift_0 = {math.degrees(drift0):.4g} deg")
    print(f"speed_0 = {rec0.speed:.4g}")
    return 0


_COMMANDS = {
    "geodesic": cmd_geodesic,
    "family": cmd_family,
    "compare": cmd_compare,
    "indicatrix": cmd_indicatrix,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        resolve_problem(args)
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error[validation]: {exc}", file=sys.stderr)
        return 2
    except NavigationError as exc:
        # module preconditions are vetted in resolve_problem, so any
        # engine error past that point is a runtime/numeric failure
        print(f"error[numeric]: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
