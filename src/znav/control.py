"""Heading, course and speed of a state, and the control channel of a track.

Angle conventions: the heading is the angle of the velocity relative to
the medium, the course the angle of the resulting (ground) velocity,
both measured counterclockwise from the local parallel, in [0, 2*pi).
Positive theta-rates point south.  The drift is heading minus course
wrapped to (-pi, pi]; under a mild wind it stays strictly inside
(-pi/2, pi/2).  Unit own speed is assumed throughout: geodesics of the
travel-time metric carry a relative velocity of unit h-norm.
"""
import math
from typing import Iterable, NamedTuple

from znav.errors import ZeroRelativeVelocity, ZeroVelocity
from znav.spheroid import NavState, Row, Spheroid, metric_components
from znav.wind import WindField

TWO_PI = 2.0 * math.pi


def wrap_2pi(angle: float) -> float:
    """Wrap an angle to [0, 2*pi)."""
    return angle % TWO_PI


def wrap_signed(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    r = (angle + math.pi) % TWO_PI - math.pi
    return math.pi if r == -math.pi else r


class ControlRecord(NamedTuple):
    """Per-sample control channel: time, heading, course, drift, speed.

    A tuple, without a __dict__: a long track holds one record per sample.
    """

    t: float
    heading: float
    course: float
    drift: float
    speed: float


def _speed(u: float, v: float, h11: float, h22: float) -> float:
    return math.sqrt(u * u * h11 + v * v * h22)


def _heading(
    u: float, v: float, w1: float, w2: float, sqrt_h11: float, sqrt_h22: float
) -> float:
    cos_h = (u - w1) * sqrt_h11
    sin_h = (w2 - v) * sqrt_h22
    if math.hypot(cos_h, sin_h) < 1e-12:
        raise ZeroRelativeVelocity("relative velocity vanishes; heading undefined")
    return wrap_2pi(math.atan2(sin_h, cos_h))


def _course(u: float, v: float, sqrt_h11: float, sqrt_h22: float, speed: float) -> float:
    if speed < 1e-12:
        raise ZeroVelocity("resulting velocity vanishes; course undefined")
    cos_c = u * sqrt_h11 / speed
    sin_c = -v * sqrt_h22 / speed
    return wrap_2pi(math.atan2(sin_c, cos_c))


def speed_of(sph: Spheroid, state: NavState) -> float:
    """Resulting (ground) speed: h-norm of the state velocity."""
    h11, h22 = metric_components(sph, state.point.theta)
    return _speed(state.vel.u, state.vel.v, h11, h22)


def heading_of(sph: Spheroid, wind: WindField, state: NavState) -> float:
    """Heading angle of the velocity relative to the medium, in [0, 2*pi).

        cos = (phi_dot - W1) sin(theta),  sin = (W2 - theta_dot) sqrt(h22)

    Exact unit components when the relative speed is 1; the quadrant
    comes from the two-argument arctangent, which is scale-invariant.

    Raises:
        ZeroRelativeVelocity: velocity relative to the medium vanishes.
    """
    w1, w2 = wind.at(state.point)
    h11, h22 = metric_components(sph, state.point.theta)
    return _heading(state.vel.u, state.vel.v, w1, w2, math.sqrt(h11), math.sqrt(h22))


def course_of(sph: Spheroid, state: NavState) -> float:
    """Course over ground: angle of the resulting velocity, in [0, 2*pi).

    Same component relations as the heading with the wind zeroed,
    normalized by the resulting speed (the resulting velocity is not
    unit in general).

    Raises:
        ZeroVelocity: resulting velocity vanishes.
    """
    h11, h22 = metric_components(sph, state.point.theta)
    u, v = state.vel.u, state.vel.v
    return _course(u, v, math.sqrt(h11), math.sqrt(h22), _speed(u, v, h11, h22))


def drift_of(sph: Spheroid, wind: WindField, state: NavState) -> float:
    """Drift angle heading - course, wrapped to (-pi, pi].

    Positive drift means the wind pushes the craft counterclockwise off
    its heading.  Under a mild wind |drift| < pi/2.

    Raises:
        ZeroRelativeVelocity, ZeroVelocity: either angle undefined.
    """
    return wrap_signed(heading_of(sph, wind, state) - course_of(sph, state))


def drift_cos_velocity(sph: Spheroid, wind: WindField, state: NavState) -> float:
    """cos(drift) from the dot product of resulting and relative velocities.

        [u (u - W1) h11 + v (v - W2) h22] / |v|_h

    Assumes unit relative speed (holds on time-optimal states).
    """
    w1, w2 = wind.at(state.point)
    h11, h22 = metric_components(sph, state.point.theta)
    u, v = state.vel.u, state.vel.v
    num = u * (u - w1) * h11 + v * (v - w2) * h22
    return num / speed_of(sph, state)


def drift_cos_mildness(sph: Spheroid, wind: WindField, state: NavState) -> float:
    """cos(drift) via the mildness factor: (lam + |v|^2) / (2 |v|).

    Expanded form, equivalent to the dot-product formula at unit
    relative speed:

        [1 + h11 (u^2 - W1^2) + h22 (v^2 - W2^2)] / (2 |v|_h)
    """
    w1, w2 = wind.at(state.point)
    h11, h22 = metric_components(sph, state.point.theta)
    u, v = state.vel.u, state.vel.v
    num = 1.0 + h11 * (u * u - w1 * w1) + h22 * (v * v - w2 * w2)
    return num / (2.0 * speed_of(sph, state))


def control_channel(
    sph: Spheroid, wind: WindField, rows: Iterable[Row]
) -> list[ControlRecord | None]:
    """The control channel of a track's Rows: one entry per row.

    One pass over rows, so an iterator serves: per row one wind
    evaluation and one metric evaluation feed the heading_of, course_of
    and speed_of formulas.  A row where an angle is undefined (the
    heading tested first) has None for its record (a gap), so entry i
    always belongs to row i.  All angles are wrapped; use unwrapped
    copies downstream for plotting.
    """
    components = wind.components
    records = []
    for t, phi, theta, u, v in rows:
        w1, w2 = components(phi, theta)
        h11, h22 = metric_components(sph, theta)
        sqrt_h11, sqrt_h22 = math.sqrt(h11), math.sqrt(h22)
        speed = _speed(u, v, h11, h22)
        try:
            heading = _heading(u, v, w1, w2, sqrt_h11, sqrt_h22)
            course = _course(u, v, sqrt_h11, sqrt_h22, speed)
        except (ZeroRelativeVelocity, ZeroVelocity):
            records.append(None)
            continue
        records.append(ControlRecord(t, heading, course, wrap_signed(heading - course), speed))
    return records
