"""Stationary wind fields on the spheroid.

A wind is a tangent vector field W = W1 d/dphi + W2 d/dtheta given by
closed-form component functions of (phi, theta).  The engine requires
the wind to be mild, |W|_h < 1 everywhere: the craft's unit own speed
must dominate the flow for time-optimal paths to exist in every
direction.
"""
import math
from typing import Callable, NamedTuple

from znav.errors import NotMild
from znav.spheroid import POLE_GUARD, Spheroid, SurfacePoint, metric_components

ComponentFn = Callable[[float, float], tuple[float, float]]
JetFn = Callable[[float, float], tuple[float, float, float, float, float, float]]

# Step of the central differences for the Jacobian of a custom wind.
# Their truncation error (~step^2) and roundoff (~eps/step) balance near
# 1e-5 for winds of unit-order derivatives, leaving ~1e-11.
WIND_FD_STEP = 1e-5


class WindField(NamedTuple):
    """Stationary vector field in the coordinate basis (d/dphi, d/dtheta).

    components maps (phi, theta) to (W1, W2).  jet maps (phi, theta) to
    the components and their first derivatives, in the order

        (W1, W2, dW1/dphi, dW1/dtheta, dW2/dphi, dW2/dtheta),

    and is what the sprays call, once per evaluation.  Its W1 and W2
    equal those of components at the same point.
    """

    components: ComponentFn
    jet: JetFn

    def at(self, point: SurfacePoint) -> tuple[float, float]:
        return self.components(point.phi, point.theta)


def not_mild(phi: float, theta: float, lam: float) -> NotMild:
    """The error for lam = 1 - |W|_h^2 <= 0, or not a number, at (phi, theta)."""
    return NotMild(
        f"|W|_h^2 = {1.0 - lam} >= 1 at (phi={phi}, theta={theta})",
        point=SurfacePoint(phi, theta),
        norm=math.sqrt(1.0 - lam),
    )


def rotation_wind(c: float) -> WindField:
    """Rigid rotation about the polar axis with angular rate c.

    In chart components W = (-c, 0), with norm |W|_h = |c| sin(theta),
    so mildness is exactly |c| < 1.

    Raises:
        NotMild: |c| >= 1 or c not finite.
    """
    if not abs(c) < 1.0:
        raise NotMild(f"rotation rate {c} gives |W|_h = {abs(c)} at the equator", norm=abs(c))
    # constant components: the Jacobian is exactly zero
    jet = (-c, 0.0, 0.0, 0.0, 0.0, 0.0)
    return WindField(components=lambda phi, theta: (-c, 0.0), jet=lambda phi, theta: jet)


# The zero wind: the travel-time metric of still air is the induced metric h.
# spray.resolve_flow reads it as the h flow.
STILL_AIR = rotation_wind(0.0)


def custom_wind(components: ComponentFn) -> WindField:
    """Wrap closed-form component functions (phi, theta) -> (W1, W2).

    The jet takes the Jacobian by central differences WIND_FD_STEP
    apart: five component evaluations per call.
    """
    k = 0.5 / WIND_FD_STEP

    def jet(phi: float, theta: float):
        w1, w2 = components(phi, theta)
        p1, p2 = components(phi + WIND_FD_STEP, theta)
        m1, m2 = components(phi - WIND_FD_STEP, theta)
        q1, q2 = components(phi, theta + WIND_FD_STEP)
        r1, r2 = components(phi, theta - WIND_FD_STEP)
        return w1, w2, (p1 - m1) * k, (q1 - r1) * k, (p2 - m2) * k, (q2 - r2) * k

    return WindField(components=components, jet=jet)


class MildnessReport(NamedTuple):
    """Outcome of a mildness sweep: the largest sampled norm and where."""

    max_norm: float
    worst_point: SurfacePoint
    grid_n: int


def validate_mild(sph: Spheroid, wind: WindField, grid_n: int = 256) -> MildnessReport:
    """Sample |W|_h on a grid_n x grid_n lattice and check |W|_h < 1.

    The lattice covers phi in [0, 2*pi] and theta in the chart band
    [POLE_GUARD, pi - POLE_GUARD], both with grid_n - 1 intervals, so a
    refinement 2*grid_n - 1 samples a superset of the coarser points.
    Sampling cannot prove mildness for adversarial fields, but suffices
    for the analytic winds in scope.

    Raises:
        NotMild: first sampled point with norm >= 1 - 1e-12 or not finite.
        ValueError: grid_n < 2.
    """
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    components = wind.components
    rows = []
    for j in range(grid_n):
        theta = POLE_GUARD + (math.pi - 2.0 * POLE_GUARD) * j / (grid_n - 1)
        rows.append((theta, *metric_components(sph, theta)))
    max_norm = -1.0
    worst = SurfacePoint(0.0, math.pi / 2)
    for i in range(grid_n):
        phi = 2.0 * math.pi * i / (grid_n - 1)
        for theta, h11, h22 in rows:
            w1, w2 = components(phi, theta)
            norm = math.sqrt(w1 * w1 * h11 + w2 * w2 * h22)
            if not norm < 1.0 - 1e-12:
                raise NotMild(
                    f"|W|_h = {norm} at (phi={phi}, theta={theta})",
                    point=SurfacePoint(phi, theta),
                    norm=norm,
                )
            if norm > max_norm:
                max_norm, worst = norm, SurfacePoint(phi, theta)
    return MildnessReport(max_norm=max_norm, worst_point=worst, grid_n=grid_n)
