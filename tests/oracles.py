"""Closed forms that only the tests use, as cross-checks of the runtime routes.

christoffels and riemannian_rhs give the Christoffel spray of the
induced metric h, which make_rhs runs as the navigation spray of still
air; F_rotation_closed is F = alpha + beta specialized to the rotation
wind; rotation_drift is the dot- and cross-product drift formula for that wind.
"""
import math

from znav.spheroid import (
    NavState,
    Spheroid,
    TangentVector,
    metric_components,
    require_off_pole,
)


def christoffels(sph: Spheroid, theta: float) -> tuple[float, float, float]:
    """Nonzero Christoffel symbols (second kind) at colatitude theta.

    Returns (G1_12, G2_11, G2_22):

        G1_12 = cot(theta)
        G2_11 = -sin(theta) cos(theta) / (a^2 sin^2 + cos^2)
        G2_22 = (a^2 - 1) sin(theta) cos(theta) / (a^2 sin^2 + cos^2)

    Raises:
        PoleSingularity: theta inside the polar guard band.
    """
    require_off_pole(theta)
    s = math.sin(theta)
    c = math.cos(theta)
    h22 = c * c + sph.a * sph.a * s * s
    sc = s * c
    return c / s, -sc / h22, (sph.a * sph.a - 1.0) * sc / h22


def riemannian_rhs(sph: Spheroid, state: NavState) -> tuple[float, float]:
    """Accelerations (phi_dd, theta_dd) of the induced-metric geodesic flow.

        phi_dd   = -2 u v cot(theta)
        theta_dd = -sin cos [ (a^2 - 1) v^2 - u^2 ] / (a^2 sin^2 + cos^2)

    Raises:
        PoleSingularity: theta inside the polar guard band.
    """
    g112, g211, g222 = christoffels(sph, state.point.theta)
    u, v = state.vel.u, state.vel.v
    return -2.0 * g112 * u * v, -(g211 * u * u + g222 * v * v)


def F_rotation_closed(sph: Spheroid, c: float, theta: float, y: TangentVector) -> float:
    """Travel-time metric specialized to the rotation wind (-c, 0)."""
    s2 = math.sin(theta) ** 2
    _, h22 = metric_components(sph, theta)
    arg = -c * c * y.v * y.v * s2 * h22 + y.v * y.v * h22 + y.u * y.u * s2
    return (math.sqrt(max(arg, 0.0)) + c * y.u * s2) / (1.0 - c * c * s2)


def rotation_drift(sph: Spheroid, c: float, state: NavState) -> float:
    """Signed drift for the rotation wind: sign(c * theta_dot) * angle(v, v - W).

    The angle between the resulting velocity (u, v) and the relative one
    (u + c, v) comes from their h dot product and h cross product,

        dot = u (u + c) h11 + v^2 h22,   |cross| = |c v| sqrt(h11 h22),

    through atan2, which keeps full precision for small drifts, where
    arccos of the normalized dot product does not.
    """
    h11, h22 = metric_components(sph, state.point.theta)
    u, v = state.vel.u, state.vel.v
    dot = u * (u + c) * h11 + v * v * h22
    mag = math.atan2(abs(c * v) * math.sqrt(h11 * h22), dot)
    sign = 1.0 if c * v > 0 else (-1.0 if c * v < 0 else 0.0)
    return sign * mag
