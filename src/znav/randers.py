"""Travel-time (Randers) metric induced by a mild wind.

For a craft of unit own speed in a wind W, the time needed to traverse
a tangent vector y is measured by the Randers metric F = alpha + beta
built from the induced metric h and W.  On the spheroid chart, with
lam = 1 - |W|_h^2,

    alpha = sqrt(u^2 h11 + h22 [v^2 - h11 (u W2 - v W1)^2]) / lam
    beta  = -(u W1 h11 + v W2 h22) / lam

Geodesics of F are the time-optimal paths; its indicatrix {F = 1} is
the unit h-circle rigidly translated by W (the unit-time destination
locus).
"""
import math
from dataclasses import dataclass

from znav.errors import NotMild
from znav.spheroid import (
    Spheroid,
    SurfacePoint,
    TangentVector,
    metric_components,
    unit_heading_vector,
)
from znav.wind import WindField


@dataclass(frozen=True)
class RandersData:
    """A spheroid-wind pair defining a travel-time metric."""

    sph: Spheroid
    wind: WindField

    def mildness_factor(self, point: SurfacePoint) -> float:
        """lam = 1 - |W|_h^2 at a point; positive exactly where the wind is mild.

        Raises:
            NotMild: lam <= 0 or not a number at the point.
        """
        w1, w2 = self.wind.at(point)
        h11, h22 = metric_components(self.sph, point.theta)
        lam = 1.0 - w1 * w1 * h11 - w2 * w2 * h22
        if not lam > 0.0:
            raise NotMild(
                f"|W|_h^2 = {1.0 - lam} >= 1 at (phi={point.phi}, theta={point.theta})",
                point=point,
                norm=math.sqrt(1.0 - lam),
            )
        return lam


def alpha_term(rd: RandersData, point: SurfacePoint, y: TangentVector) -> float:
    """Riemannian part of the travel-time metric (absolutely homogeneous)."""
    lam = rd.mildness_factor(point)
    w1, w2 = rd.wind.at(point)
    h11, h22 = metric_components(rd.sph, point.theta)
    cross = y.u * w2 - y.v * w1
    arg = y.u * y.u * h11 + h22 * (y.v * y.v - h11 * cross * cross)
    return math.sqrt(max(arg, 0.0)) / lam


def beta_term(rd: RandersData, point: SurfacePoint, y: TangentVector) -> float:
    """One-form part of the travel-time metric (linear in y)."""
    lam = rd.mildness_factor(point)
    w1, w2 = rd.wind.at(point)
    h11, h22 = metric_components(rd.sph, point.theta)
    return -(y.u * w1 * h11 + y.v * w2 * h22) / lam


def F_value(rd: RandersData, point: SurfacePoint, y: TangentVector) -> float:
    """Travel time per unit parameter along y: F = alpha + beta."""
    return alpha_term(rd, point, y) + beta_term(rd, point, y)


def F_rotation_closed(sph: Spheroid, c: float, theta: float, y: TangentVector) -> float:
    """Travel-time metric specialized to the rotation wind (-c, 0).

    Reference implementation only: no runtime path calls it, and the
    tests check it against the general alpha + beta path.
    """
    s2 = math.sin(theta) ** 2
    _, h22 = metric_components(sph, theta)
    arg = -c * c * y.v * y.v * s2 * h22 + y.v * y.v * h22 + y.u * y.u * s2
    return (math.sqrt(max(arg, 0.0)) + c * y.u * s2) / (1.0 - c * c * s2)


def lagrangian(rd: RandersData, point: SurfacePoint, y: TangentVector) -> float:
    """Energy form F^2 / 2 whose extremals are the time-optimal paths."""
    f = F_value(rd, point, y)
    return 0.5 * f * f


def indicatrix(rd: RandersData, point: SurfacePoint, n: int) -> list[TangentVector]:
    """Sample the unit-time destination locus {F = 1} at a point.

    Returns n vectors W + u_k, where u_k is the unit h-vector at
    heading 2*pi*k/n; each satisfies F = 1 by construction (the wind
    translates the h-unit circle rigidly).

    Raises:
        ValueError: n < 3.
        NotMild: wind not mild at the point.
        PoleSingularity: point inside the polar guard band.
    """
    if n < 3:
        raise ValueError(f"need at least 3 samples, got {n}")
    rd.mildness_factor(point)
    w1, w2 = rd.wind.at(point)
    out = []
    for k in range(n):
        unit = unit_heading_vector(rd.sph, point, 2.0 * math.pi * k / n)
        out.append(TangentVector(w1 + unit.u, w2 + unit.v))
    return out
