"""Spray coefficients and geodesic right-hand sides for h, alpha and F.

A spray encodes the geodesic equation of a (Finsler or Riemannian)
metric as accelerations quadratic in velocity:

    phi_dd = -2 G(phi, theta, u, v),   theta_dd = -2 H(phi, theta, u, v),

with G, H positively 2-homogeneous in (u, v).  A rotation wind is a
Killing field of h, so its travel-time geodesics are the h-geodesics
carried along by the wind's flow (wind-drag identity): the randers
accelerations are the h accelerations at the velocity through the
medium, y - F(y) W.  The alpha flow under a rotation wind has a closed
form.  Arbitrary winds go through the generic quotient formulas, with
all partial derivatives of the Lagrangian L = F^2/2 taken by
Richardson-extrapolated central differences:

    G = [(L_vv L_phi - L_th L_uv) - L_v (L_phiv - L_thu)] / (2 D)
    H = [(L_uu L_th - L_phi L_uv) + L_u (L_phiv - L_thu)] / (2 D)

where D = L_uu L_vv - L_uv^2 is the velocity-Hessian determinant.
"""
import math
from dataclasses import dataclass
from typing import Callable, Literal

from znav.errors import DegenerateHessian
from znav.randers import F_rotation_closed, RandersData, alpha_term, lagrangian
from znav.spheroid import (
    NavState,
    Spheroid,
    SurfacePoint,
    TangentVector,
    require_off_pole,
    riemannian_rhs,
)
from znav.wind import WindField

MetricKind = Literal["h", "alpha", "randers"]

# Base relative step for the Lagrangian partials.  Each partial is
# evaluated at this step and at half of it, then Richardson-combined;
# plain central differences at much smaller steps hit the roundoff
# floor eps/step^2 and cannot reach the 1e-6 oracle agreement.
FD_REL_STEP = 2e-3

Lagrangian = Callable[[float, float, float, float], float]
RhsFn = Callable[[float, float, float, float], tuple[float, float]]


@dataclass(frozen=True)
class SprayCoefficients:
    """Spray pair (G, H) at one state; geodesic accelerations are -2*(G, H)."""

    G: float
    H: float


def randers_lagrangian(sph: Spheroid, wind: WindField) -> Lagrangian:
    """Evaluator of the travel-time Lagrangian F^2/2 as a function of (phi, theta, u, v)."""
    rd = RandersData(sph, wind)

    def L(phi: float, theta: float, u: float, v: float) -> float:
        return lagrangian(rd, SurfacePoint(phi, theta), TangentVector(u, v))

    return L


def alpha_lagrangian(sph: Spheroid, wind: WindField) -> Lagrangian:
    """Evaluator of alpha^2/2 for the Riemannian part of the travel-time metric."""
    rd = RandersData(sph, wind)

    def L(phi: float, theta: float, u: float, v: float) -> float:
        a = alpha_term(rd, SurfacePoint(phi, theta), TangentVector(u, v))
        return 0.5 * a * a

    return L


def _spray_quotient(L: Lagrangian, x: tuple[float, float, float, float], rel: float):
    """Quotient-formula spray from central-difference partials at one step size."""
    phi, theta, u, v = x
    dp = rel * max(1.0, abs(phi))
    dt = rel * max(1.0, abs(theta))
    du = rel * max(1.0, abs(u))
    dv = rel * max(1.0, abs(v))

    L0 = L(phi, theta, u, v)
    Lpp = L(phi + dp, theta, u, v)
    Lpm = L(phi - dp, theta, u, v)
    Ltp = L(phi, theta + dt, u, v)
    Ltm = L(phi, theta - dt, u, v)
    Lup = L(phi, theta, u + du, v)
    Lum = L(phi, theta, u - du, v)
    Lvp = L(phi, theta, u, v + dv)
    Lvm = L(phi, theta, u, v - dv)

    L_phi = (Lpp - Lpm) / (2 * dp)
    L_th = (Ltp - Ltm) / (2 * dt)
    L_u = (Lup - Lum) / (2 * du)
    L_v = (Lvp - Lvm) / (2 * dv)
    L_uu = (Lup - 2 * L0 + Lum) / (du * du)
    L_vv = (Lvp - 2 * L0 + Lvm) / (dv * dv)
    L_uv = (
        L(phi, theta, u + du, v + dv)
        - L(phi, theta, u + du, v - dv)
        - L(phi, theta, u - du, v + dv)
        + L(phi, theta, u - du, v - dv)
    ) / (4 * du * dv)
    L_phiv = (
        L(phi + dp, theta, u, v + dv)
        - L(phi + dp, theta, u, v - dv)
        - L(phi - dp, theta, u, v + dv)
        + L(phi - dp, theta, u, v - dv)
    ) / (4 * dp * dv)
    L_thu = (
        L(phi, theta + dt, u + du, v)
        - L(phi, theta + dt, u - du, v)
        - L(phi, theta - dt, u + du, v)
        + L(phi, theta - dt, u - du, v)
    ) / (4 * dt * du)

    det = L_uu * L_vv - L_uv * L_uv
    scale = max(abs(L_uu * L_vv), L_uv * L_uv)
    if abs(det) < 1e-10 * scale or scale == 0.0:
        raise DegenerateHessian(
            f"velocity Hessian determinant {det} below 1e-10 of scale {scale}"
        )
    mixed = L_phiv - L_thu
    G = ((L_vv * L_phi - L_th * L_uv) - L_v * mixed) / (2 * det)
    H = ((L_uu * L_th - L_phi * L_uv) + L_u * mixed) / (2 * det)
    return G, H


def spray_numeric(
    L: Lagrangian, state: NavState, rel_step: float = FD_REL_STEP
) -> SprayCoefficients:
    """Spray of an arbitrary smooth Lagrangian by numerical differentiation.

    Evaluates the quotient formulas at steps rel_step and rel_step/2 and
    Richardson-extrapolates, cancelling the leading quadratic error of
    the central differences.

    Raises:
        PoleSingularity: state inside the polar guard band.
        DegenerateHessian: velocity Hessian numerically singular.
    """
    require_off_pole(state.point.theta)
    x = (state.point.phi, state.point.theta, state.vel.u, state.vel.v)
    G1, H1 = _spray_quotient(L, x, rel_step)
    G2, H2 = _spray_quotient(L, x, rel_step / 2)
    return SprayCoefficients((4 * G2 - G1) / 3, (4 * H2 - H1) / 3)


def spray_rotation_closed(sph: Spheroid, c: float, state: NavState) -> SprayCoefficients:
    """Closed-form spray of the travel-time metric under the rotation wind (-c, 0).

    Written in terms of the abbreviations

        psi = sqrt(sin^2 (a^2 v^2 (1 - c^2 sin^2) + u^2) + v^2 cos^2 (1 - c^2 sin^2))
        mu  = a^2 v^2 + u^2
        tau = 3 c u^2 psi - c a^2 v^2 psi + 3 u mu

    and reducing to the unperturbed Christoffel spray at c = 0.

    Reference implementation only: make_rhs computes the same spray
    through the wind-drag identity, and the tests compare the two.

    Raises:
        PoleSingularity: state inside the polar guard band.
    """
    require_off_pole(state.point.theta)
    a = sph.a
    theta = state.point.theta
    u, v = state.vel.u, state.vel.v
    if u == 0.0 and v == 0.0:
        return SprayCoefficients(0.0, 0.0)

    s = math.sin(theta)
    co = math.cos(theta)
    s2 = s * s
    csc = 1.0 / s
    cot = co / s
    c2t = math.cos(2.0 * theta)
    a2 = a * a
    c2 = c * c
    h22 = co * co + a2 * s2

    psi = math.sqrt(
        max(s2 * (-c2 * a2 * v * v * s2 + a2 * v * v + u * u)
            + v * v * co * co * (1.0 - c2 * s2), 0.0)
    )
    mu = a2 * v * v + u * u
    tau = 3.0 * c * u * u * psi - c * a2 * v * v * psi + 3.0 * u * mu

    g_num = v * co * (c * psi + u) * (csc ** 3 * psi + c * u * csc) ** 3
    g_den = (csc * csc - c2) * (
        c ** 3 * u * (u * u - 3.0 * a2 * v * v)
        + csc ** 4 * mu * psi
        - 0.125 * v * v * cot * cot * csc ** 4
        * (c2 * c2t - c2 + 2.0)
        * (-4.0 * psi + 6.0 * c * u * c2t - 6.0 * c * u)
        + c * csc * csc * tau
    )

    h_num = 2.0 * s * co * (psi + c * u * s2) ** 3 * (
        c2 * c2 * (2.0 * a2 - 1.0) * v * v * s2 * s2
        - c2 * s2 * ((3.0 * a2 - 2.0) * v * v + u * u)
        - 2.0 * c * u * psi
        + c2 * v * v * (c2 * s2 - 1.0) * co * co
        + a2 * v * v
        - u * u
        - v * v
    )
    h_den = (c2 * s2 - 1.0) ** 2 * h22 * (
        v * v * co * co * (c2 * c2t - c2 + 2.0) * (-2.0 * psi + 3.0 * c * u * c2t - 3.0 * c * u)
        - 4.0 * s2 * (c ** 3 * u * (u * u - 3.0 * a2 * v * v) * s2 * s2 + mu * psi + c * tau * s2)
    )
    return SprayCoefficients(g_num / g_den, -h_num / h_den)


def spray_alpha_closed(sph: Spheroid, c: float, state: NavState) -> SprayCoefficients:
    """Closed-form spray of the Riemannian alpha-metric under the rotation wind.

    Raises:
        PoleSingularity: state inside the polar guard band.
    """
    require_off_pole(state.point.theta)
    a2 = sph.a * sph.a
    c2 = c * c
    theta = state.point.theta
    u, v = state.vel.u, state.vel.v
    s = math.sin(theta)
    csc2 = 1.0 / (s * s)
    cot = math.cos(theta) / s
    c2t = math.cos(2.0 * theta)

    G = u * v * (c2 + csc2) * cot / (csc2 - c2)
    H = (
        cot * csc2 * csc2
        * (
            c2 * c2t * (v * v * (c2 + a2 - 1.0) + u * u)
            - (c2 - 2.0) * v * v * (c2 + a2 - 1.0)
            - (c2 + 2.0) * u * u
        )
    ) / (4.0 * (c2 - csc2) ** 2 * (a2 + cot * cot))
    return SprayCoefficients(G, H)


def geodesic_rhs(
    kind: MetricKind, sph: Spheroid, wind: WindField | None, state: NavState
) -> tuple[float, float]:
    """Accelerations (phi_dd, theta_dd) = -2 (G, H) for the chosen metric.

    The unperturbed metric and the alpha flow under a rotation wind use
    closed forms, the travel-time metric under a rotation wind uses the
    wind-drag identity; anything else routes through the numeric
    quotient spray.
    """
    return make_rhs(kind, sph, wind)(
        state.point.phi, state.point.theta, state.vel.u, state.vel.v
    )


def make_rhs(kind: MetricKind, sph: Spheroid, wind: WindField | None) -> RhsFn:
    """Build a plain-float acceleration evaluator for the integrator."""
    if kind == "h" or wind is None:

        def rhs_h(phi: float, theta: float, u: float, v: float) -> tuple[float, float]:
            return riemannian_rhs(
                sph, NavState(SurfacePoint(phi, theta), TangentVector(u, v))
            )

        return rhs_h

    if kind == "alpha":
        if wind.kind == "rotation":
            c = wind.c

            def rhs_ac(phi: float, theta: float, u: float, v: float) -> tuple[float, float]:
                sc = spray_alpha_closed(
                    sph, c, NavState(SurfacePoint(phi, theta), TangentVector(u, v))
                )
                return -2.0 * sc.G, -2.0 * sc.H

            return rhs_ac
        L = alpha_lagrangian(sph, wind)
    elif kind == "randers":
        if wind.kind == "rotation":
            c = wind.c

            def rhs_rc(phi: float, theta: float, u: float, v: float) -> tuple[float, float]:
                # W = (-c, 0) is Killing, so by 2-homogeneity
                # rhs_F(y) = F^2 rhs_h(y/F - W) = rhs_h(y - F W) for every y
                f = F_rotation_closed(sph, c, theta, TangentVector(u, v))
                return riemannian_rhs(
                    sph, NavState(SurfacePoint(phi, theta), TangentVector(u + c * f, v))
                )

            return rhs_rc
        L = randers_lagrangian(sph, wind)
    else:
        raise ValueError(f"unknown metric kind {kind!r}")

    def rhs_numeric(phi: float, theta: float, u: float, v: float) -> tuple[float, float]:
        sc = spray_numeric(L, NavState(SurfacePoint(phi, theta), TangentVector(u, v)))
        return -2.0 * sc.G, -2.0 * sc.H

    return rhs_numeric
