"""Travel-time (Randers) metric induced by a mild wind.

For a craft of unit own speed in a wind W, the time needed to traverse
a tangent vector y is measured by the Randers metric F = alpha + beta
built from the induced metric h and W.  On the spheroid chart, with
lam = 1 - |W|_h^2,

    b     = u W1 h11 + v W2 h22            (<W, y>_h)
    alpha = sqrt(b^2 + lam (u^2 h11 + v^2 h22)) / lam
    beta  = -b / lam

The radicand is a sum of non-negative terms, so it cannot cancel where
|W|_h nears 1.

Geodesics of F are the time-optimal paths; its indicatrix {F = 1} is
the unit h-circle rigidly translated by W (the unit-time destination
locus).
"""
import math
from typing import NamedTuple

from znav.spheroid import Spheroid, SurfacePoint, TangentVector, metric_components
from znav.wind import WindField, not_mild


class RandersData(NamedTuple):
    """A spheroid-wind pair defining a travel-time metric."""

    sph: Spheroid
    wind: WindField

    def terms(self, phi: float, theta: float, u: float, v: float) -> tuple[float, float, float]:
        """(lam, alpha, beta) at the point (phi, theta) along the vector (u, v).

        The one evaluation of the wind and of h behind every travel-time
        quantity below.  alpha's radicand lam |y|_h^2 + <W, y>_h^2 is
        summed from non-negative terms, as the navigation rhs sums it.

        Raises:
            NotMild: lam <= 0 or not a number at the point.
        """
        w1, w2 = self.wind.components(phi, theta)
        h11, h22 = metric_components(self.sph, theta)
        lam = 1.0 - w1 * w1 * h11 - w2 * w2 * h22
        if not lam > 0.0:
            raise not_mild(phi, theta, lam)
        b = u * w1 * h11 + v * w2 * h22
        return lam, math.sqrt(b * b + lam * (u * u * h11 + v * v * h22)) / lam, -b / lam

    def mildness_factor(self, point: SurfacePoint) -> float:
        """lam = 1 - |W|_h^2 at a point; positive exactly where the wind is mild.

        Raises:
            NotMild: lam <= 0 or not a number at the point.
        """
        return self.terms(point.phi, point.theta, 0.0, 0.0)[0]


def alpha_term(rd: RandersData, point: SurfacePoint, y: TangentVector) -> float:
    """Riemannian part of the travel-time metric (absolutely homogeneous)."""
    return rd.terms(point.phi, point.theta, y.u, y.v)[1]


def F_value(rd: RandersData, point: SurfacePoint, y: TangentVector) -> float:
    """Travel time per unit parameter along y: F = alpha + beta."""
    _, alpha, beta = rd.terms(point.phi, point.theta, y.u, y.v)
    return alpha + beta


def lagrangian(rd: RandersData, point: SurfacePoint, y: TangentVector) -> float:
    """Energy form F^2 / 2 whose extremals are the time-optimal paths."""
    f = F_value(rd, point, y)
    return 0.5 * f * f
