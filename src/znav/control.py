"""Heading/state conversions and the control channel along a trajectory.

Angle conventions: the heading is the angle of the velocity relative to
the medium, the course the angle of the resulting (ground) velocity,
both measured counterclockwise from the local parallel, in [0, 2*pi).
Positive theta-rates point south.  The drift is heading minus course
wrapped to (-pi, pi]; under a mild wind it stays strictly inside
(-pi/2, pi/2).  Unit own speed is assumed throughout: states produced
by the initial-state builders (and geodesics of the travel-time metric
generally) carry a relative velocity of unit h-norm.
"""
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from znav.errors import ZeroRelativeVelocity, ZeroVelocity
from znav.randers import RandersData, alpha_term
from znav.spheroid import (
    NavState,
    Spheroid,
    SurfacePoint,
    TangentVector,
    metric_components,
    require_off_pole,
    unit_heading_vector,
)
from znav.spray import METRIC_KINDS
from znav.wind import WindField

if TYPE_CHECKING:
    from znav.integrate import Trajectory

TWO_PI = 2.0 * math.pi


def wrap_2pi(angle: float) -> float:
    """Wrap an angle to [0, 2*pi)."""
    return angle % TWO_PI


def wrap_signed(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    r = (angle + math.pi) % TWO_PI - math.pi
    return math.pi if r == -math.pi else r


@dataclass(frozen=True)
class ControlRecord:
    """Per-sample control channel: time, heading, course, drift, speed."""

    t: float
    heading: float
    course: float
    drift: float
    speed: float


def _wind_at(wind: WindField | None, point: SurfacePoint) -> tuple[float, float]:
    return (0.0, 0.0) if wind is None else wind.at(point)


def initial_state_riemannian(
    sph: Spheroid, p0: SurfacePoint, heading0: float
) -> NavState:
    """Unit-speed start for an unperturbed geodesic at the given heading.

    Raises:
        PoleSingularity: p0 inside the polar guard band.
    """
    return NavState(p0, unit_heading_vector(sph, p0, heading0))


def initial_state_randers(
    sph: Spheroid, wind: WindField, p0: SurfacePoint, heading0: float
) -> NavState:
    """Time-optimal start under wind: resulting velocity W + unit h-vector.

        phi_dot(0)   = W1 + cos(heading0) / sin(theta0)
        theta_dot(0) = W2 - sin(heading0) / sqrt(h22)

    The velocity relative to the medium has unit h-norm and the full
    velocity has unit travel-time value.

    Raises:
        PoleSingularity: p0 inside the polar guard band.
        NotMild: wind not mild at p0.
    """
    RandersData(sph, wind).mildness_factor(p0)
    unit = unit_heading_vector(sph, p0, heading0)
    w1, w2 = wind.at(p0)
    return NavState(p0, TangentVector(w1 + unit.u, w2 + unit.v))


def initial_state_alpha(
    sph: Spheroid, wind: WindField, p0: SurfacePoint, heading0: float
) -> NavState:
    """Heading vector normalized to unit alpha-length.

    Seeds geodesics of the Riemannian alpha-part so their conserved
    alpha-speed is 1, mirroring the unit-speed conventions of the other
    two flows.
    """
    rd = RandersData(sph, wind)
    unit = unit_heading_vector(sph, p0, heading0)
    scale = alpha_term(rd, p0, unit)
    return NavState(p0, TangentVector(unit.u / scale, unit.v / scale))


def initial_state(
    sph: Spheroid,
    wind: WindField | None,
    kind: str,
    p0: SurfacePoint,
    heading0: float,
) -> NavState:
    """Start state of the chosen flow at the given heading.

    Dispatches like spray.make_rhs: without wind (or for kind "h") the
    unit h-vector, for "alpha" the unit alpha-vector, for "randers" the
    time-optimal start W + unit h-vector.

    Raises:
        PoleSingularity: p0 inside the polar guard band.
        NotMild: wind not mild at p0.
        ValueError: unknown metric kind.
    """
    if kind not in METRIC_KINDS:
        raise ValueError(f"unknown metric kind {kind!r}")
    if kind == "h" or wind is None:
        return initial_state_riemannian(sph, p0, heading0)
    if kind == "alpha":
        return initial_state_alpha(sph, wind, p0, heading0)
    return initial_state_randers(sph, wind, p0, heading0)


def speed_of(sph: Spheroid, state: NavState) -> float:
    """Resulting (ground) speed: h-norm of the state velocity."""
    h11, h22 = metric_components(sph, state.point.theta)
    u, v = state.vel.u, state.vel.v
    return math.sqrt(u * u * h11 + v * v * h22)


def heading_of(sph: Spheroid, wind: WindField | None, state: NavState) -> float:
    """Heading angle of the velocity relative to the medium, in [0, 2*pi).

        cos = (phi_dot - W1) sin(theta),  sin = (W2 - theta_dot) sqrt(h22)

    Exact unit components when the relative speed is 1; the quadrant
    comes from the two-argument arctangent, which is scale-invariant.

    Raises:
        ZeroRelativeVelocity: velocity relative to the medium vanishes.
    """
    w1, w2 = _wind_at(wind, state.point)
    h11, h22 = metric_components(sph, state.point.theta)
    cos_h = (state.vel.u - w1) * math.sqrt(h11)
    sin_h = (w2 - state.vel.v) * math.sqrt(h22)
    if math.hypot(cos_h, sin_h) < 1e-12:
        raise ZeroRelativeVelocity("relative velocity vanishes; heading undefined")
    return wrap_2pi(math.atan2(sin_h, cos_h))


def course_of(sph: Spheroid, state: NavState) -> float:
    """Course over ground: angle of the resulting velocity, in [0, 2*pi).

    Same component relations as the heading with the wind zeroed,
    normalized by the resulting speed (the resulting velocity is not
    unit in general).

    Raises:
        ZeroVelocity: resulting velocity vanishes.
    """
    speed = speed_of(sph, state)
    if speed < 1e-12:
        raise ZeroVelocity("resulting velocity vanishes; course undefined")
    h11, h22 = metric_components(sph, state.point.theta)
    cos_c = state.vel.u * math.sqrt(h11) / speed
    sin_c = -state.vel.v * math.sqrt(h22) / speed
    return wrap_2pi(math.atan2(sin_c, cos_c))


def drift_of(sph: Spheroid, wind: WindField | None, state: NavState) -> float:
    """Drift angle heading - course, wrapped to (-pi, pi].

    Positive drift means the wind pushes the craft counterclockwise off
    its heading.  Under a mild wind |drift| < pi/2.

    Raises:
        ZeroRelativeVelocity, ZeroVelocity: either angle undefined.
    """
    return wrap_signed(heading_of(sph, wind, state) - course_of(sph, state))


def drift_cos_velocity(sph: Spheroid, wind: WindField | None, state: NavState) -> float:
    """cos(drift) from the dot product of resulting and relative velocities.

        [u (u - W1) h11 + v (v - W2) h22] / |v|_h

    Assumes unit relative speed (holds on time-optimal states).
    """
    w1, w2 = _wind_at(wind, state.point)
    h11, h22 = metric_components(sph, state.point.theta)
    u, v = state.vel.u, state.vel.v
    num = u * (u - w1) * h11 + v * (v - w2) * h22
    return num / speed_of(sph, state)


def drift_cos_mildness(sph: Spheroid, wind: WindField | None, state: NavState) -> float:
    """cos(drift) via the mildness factor: (lam + |v|^2) / (2 |v|).

    Expanded form, equivalent to the dot-product formula at unit
    relative speed:

        [1 + h11 (u^2 - W1^2) + h22 (v^2 - W2^2)] / (2 |v|_h)
    """
    w1, w2 = _wind_at(wind, state.point)
    h11, h22 = metric_components(sph, state.point.theta)
    u, v = state.vel.u, state.vel.v
    num = 1.0 + h11 * (u * u - w1 * w1) + h22 * (v * v - w2 * w2)
    return num / (2.0 * speed_of(sph, state))


def rotation_drift(sph: Spheroid, c: float, state: NavState) -> float:
    """Signed drift for the rotation wind: sign(c * theta_dot) * arccos(...).

    Specialization of the dot-product formula; kept as a cross-check of
    the generic heading-minus-course definition.
    """
    h11, h22 = metric_components(sph, state.point.theta)
    u, v = state.vel.u, state.vel.v
    num = u * (u + c) * h11 + v * v * h22
    cos_psi = num / speed_of(sph, state)
    mag = math.acos(min(1.0, max(-1.0, cos_psi)))
    sign = 1.0 if c * v > 0 else (-1.0 if c * v < 0 else 0.0)
    return sign * mag


def initial_speed_vs_heading(
    sph: Spheroid, wind: WindField, p0: SurfacePoint, heading0: float
) -> float:
    """Resulting speed at departure as a function of the chosen heading.

        |v|^2 = 1 + (W1 sin)^2 + 2 W1 sin cos(heading)
                  + W2^2 h22 - 2 W2 sin(heading) sqrt(h22)

    Over all headings the range of |v| is exactly 2 |W|_h: the wind
    adds fully downwind and subtracts fully upwind.

    Raises:
        PoleSingularity: p0 inside the polar guard band.
        NotMild: wind not mild at p0.
    """
    require_off_pole(p0.theta)
    RandersData(sph, wind).mildness_factor(p0)
    h11, h22 = metric_components(sph, p0.theta)
    w1, w2 = wind.at(p0)
    sin_t = math.sqrt(h11)
    sq = (
        1.0
        + (w1 * sin_t) ** 2
        + 2.0 * w1 * sin_t * math.cos(heading0)
        + w2 * w2 * h22
        - 2.0 * w2 * math.sin(heading0) * math.sqrt(h22)
    )
    return math.sqrt(max(sq, 0.0))


def control_channel(
    sph: Spheroid, wind: WindField | None, traj: "Trajectory"
) -> list[ControlRecord]:
    """Extract the control channel for every trajectory sample.

    Samples where an angle is undefined are skipped (gaps); all angles
    are wrapped.  Use unwrapped copies downstream for plotting.
    """
    records = []
    for t, state in traj.samples:
        try:
            heading = heading_of(sph, wind, state)
            course = course_of(sph, state)
        except (ZeroRelativeVelocity, ZeroVelocity):
            continue
        records.append(
            ControlRecord(
                t=t,
                heading=heading,
                course=course,
                drift=wrap_signed(heading - course),
                speed=speed_of(sph, state),
            )
        )
    return records
