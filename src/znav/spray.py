"""Spray coefficients, geodesic right-hand sides and starts for h, alpha and F.

A spray encodes the geodesic equation of a (Finsler or Riemannian)
metric as accelerations quadratic in velocity:

    phi_dd = -2 G(phi, theta, u, v),   theta_dd = -2 H(phi, theta, u, v),

with G, H positively 2-homogeneous in (u, v).

There are two runtime routes for the three flows.  The travel-time
metric F follows Zermelo's navigation equation for every wind
(Bao-Robles-Shen 2004; Huang-Mo 2011).  With

    lam = 1 - |W|_h^2,   b = <y, W>_h,   F = (sqrt(b^2 + lam |y|_h^2) - b) / lam,

the geodesic through (x, y) moves as y = F (n + W), where the unit
heading n = (y - F W) / F is steered by the costate p = (h11 n1, h22 n2)
of the Hamiltonian H(x, p) = |p|_h* + p . W:

    p' = -F d_x H,   n^i = h^ii p_i / |p|_h*,   y' = F (n' + (dW) y),

with ' the derivative along the geodesic and dW the Jacobian of the
wind.  For a Killing wind this is the h flow at the velocity through
the medium (wind-drag identity).  The h flow is the same route in still
air (W = 0, so lam = 1 and F = |y|_h); resolve_flow maps a kind and a
wind to the flow they run.

The alpha flow is the Christoffel spray of the Riemannian part of F,

    a_ij = h_ij / lam + W_i W_j / lam^2,   W_i = h_ii W^i,

with its derivatives built from the same W and dW, for every wind.

initial_state starts each flow on the same two routes: alpha from the
heading vector of unit alpha-length (initial_state_alpha), randers and
h from W plus the unit h-vector of the heading (initial_state_randers).

Both routes read W and dW from one WindField.jet call per evaluation:
the rotation wind and still air hand over an exactly zero dW, a custom
wind central differences of its components (wind.custom_wind).

Reference implementations, which the tests compare against and no
runtime path calls: spray_alpha_closed and spray_rotation_closed, the
closed-form alpha and F sprays under the rotation wind, and
spray_numeric, the generic quotient formulas with all partial
derivatives of a Lagrangian L = F^2/2 (randers_lagrangian,
alpha_lagrangian) taken by Richardson-extrapolated central
differences:

    G = [(L_vv L_phi - L_th L_uv) - L_v (L_phiv - L_thu)] / (2 D)
    H = [(L_uu L_th - L_phi L_uv) + L_u (L_phiv - L_thu)] / (2 D)

where D = L_uu L_vv - L_uv^2 is the velocity-Hessian determinant.
tests/oracles.py holds the Christoffel spray of h.
"""
import math
from typing import Callable, Iterable, Literal, NamedTuple, get_args

from znav.errors import DegenerateHessian
from znav.randers import RandersData, alpha_term, lagrangian
from znav.spheroid import (
    POLE_GUARD,
    NavState,
    Spheroid,
    SurfacePoint,
    TangentVector,
    h_norm,
    require_off_pole,
    unit_heading_vector,
)
from znav.wind import STILL_AIR, WindField, not_mild

MetricKind = Literal["h", "alpha", "randers"]
METRIC_KINDS = get_args(MetricKind)

# Base relative step for the Lagrangian partials.  Each partial is
# evaluated at this step and at half of it, then Richardson-combined;
# plain central differences at much smaller steps hit the roundoff
# floor eps/step^2 and cannot reach the 1e-6 oracle agreement.
FD_REL_STEP = 2e-3

# Upper end of the chart band (POLE_GUARD, _THETA_MAX) the sprays accept.
_THETA_MAX = math.pi - POLE_GUARD

Lagrangian = Callable[[float, float, float, float], float]
RhsFn = Callable[[float, float, float, float], tuple[float, float]]


class SprayCoefficients(NamedTuple):
    """Spray pair (G, H) at one state; geodesic accelerations are -2*(G, H)."""

    G: float
    H: float


def randers_lagrangian(sph: Spheroid, wind: WindField) -> Lagrangian:
    """Evaluator of the travel-time Lagrangian F^2/2 as a function of (phi, theta, u, v).

    Reference implementation only: input to the spray_numeric oracle.
    """
    rd = RandersData(sph, wind)

    def L(phi: float, theta: float, u: float, v: float) -> float:
        return lagrangian(rd, SurfacePoint(phi, theta), TangentVector(u, v))

    return L


def alpha_lagrangian(sph: Spheroid, wind: WindField) -> Lagrangian:
    """Evaluator of alpha^2/2 for the Riemannian part of the travel-time metric.

    Reference implementation only: input to the spray_numeric oracle.
    """
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

    Reference implementation only: the tests compare the runtime sprays
    against it.  Its theta stencil, rel_step * max(1, theta) wide,
    spans the pole for states nearer to it than that.

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
    through the navigation equation, and the tests compare the two.

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

    Reference implementation only: make_rhs computes the same spray as
    the Christoffel spray of a_ij, and the tests compare the two.

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


def _randers_rhs(sph: Spheroid, wind: WindField) -> RhsFn:
    """Accelerations of the travel-time metric under any mild wind.

    Zermelo's navigation equation (see the module docstring): the unit
    heading n = (y - F W) / F turns with the costate of
    H = |p|_h* + p . W, and y' = F (n' + (dW) y).

    The returned function makes one wind.jet call per evaluation and raises
    PoleSingularity for theta inside the polar guard band, NonFiniteState
    for a theta that is not finite, and NotMild where lam <= 0 or is not
    a number.
    """
    jet = wind.jet
    a2 = sph.a * sph.a
    # closure locals: one cell load each instead of a global and an attribute
    sin, cos, sqrt = math.sin, math.cos, math.sqrt
    lo, hi = POLE_GUARD, _THETA_MAX

    def rhs_randers(phi: float, theta: float, u: float, v: float) -> tuple[float, float]:
        if not (lo < theta < hi):
            require_off_pole(theta)
        w1, w2, j11, j12, j21, j22 = jet(phi, theta)
        s = sin(theta)
        co = cos(theta)
        h11 = s * s
        h22 = co * co + a2 * h11
        lam = 1.0 - w1 * w1 * h11 - w2 * w2 * h22
        if not lam > 0.0:
            raise not_mild(phi, theta, lam)
        if u == 0.0 and v == 0.0:
            return 0.0, 0.0
        # theta-derivatives of h
        dh11 = 2.0 * s * co
        dh22 = (a2 - 1.0) * dh11
        b = u * w1 * h11 + v * w2 * h22
        yy = u * u * h11 + v * v * h22
        r = sqrt(b * b + lam * yy)
        # the two roots of lam F^2 + 2 b F - |y|^2 = 0, without cancellation
        f = (r - b) / lam if b <= 0.0 else yy / (r + b)
        n1 = u / f - w1
        n2 = v / f - w2
        p1 = h11 * n1
        p2 = h22 * n2
        # d|p|_h*/dtheta at |p|_h* = 1, then the costate p' = -F d_x H
        q = -0.5 * (n1 * n1 * dh11 + n2 * n2 * dh22)
        pd1 = -f * (p1 * j11 + p2 * j21)
        pd2 = -f * (q + p1 * j12 + p2 * j22)
        # n^i = h^ii p_i / |p|_h*, differentiated along the geodesic
        norm_d = q * v + n1 * pd1 + n2 * pd2
        nd1 = pd1 / h11 - n1 * (dh11 * v / h11 + norm_d)
        nd2 = pd2 / h22 - n2 * (dh22 * v / h22 + norm_d)
        return f * (nd1 + j11 * u + j12 * v), f * (nd2 + j21 * u + j22 * v)

    return rhs_randers


def _alpha_rhs(sph: Spheroid, wind: WindField) -> RhsFn:
    """Accelerations of the Riemannian part alpha of F under any mild wind.

    Christoffel spray of a_ij = h_ij / lam + W_i W_j / lam^2 with
    W_i = h_ii W^i, written as acc = -a^-1 [(D_y a) y - (1/2) y . (d a) y].

    The returned function makes one wind.jet call per evaluation and
    raises what the randers route raises.
    """
    jet = wind.jet
    a2 = sph.a * sph.a
    # closure locals: one cell load each instead of a global and an attribute
    sin, cos = math.sin, math.cos
    lo, hi = POLE_GUARD, _THETA_MAX

    def rhs_alpha(phi: float, theta: float, u: float, v: float) -> tuple[float, float]:
        if not (lo < theta < hi):
            require_off_pole(theta)
        w1, w2, j11, j12, j21, j22 = jet(phi, theta)
        s = sin(theta)
        co = cos(theta)
        h11 = s * s
        h22 = co * co + a2 * h11
        lam = 1.0 - w1 * w1 * h11 - w2 * w2 * h22
        if not lam > 0.0:
            raise not_mild(phi, theta, lam)
        # theta-derivatives of h
        dh11 = 2.0 * s * co
        dh22 = (a2 - 1.0) * dh11
        il = 1.0 / lam
        il2 = il * il
        # lowered wind and its derivatives in phi (index p) and theta (t)
        l1 = h11 * w1
        l2 = h22 * w2
        l1p, l2p = h11 * j11, h22 * j21
        l1t, l2t = dh11 * w1 + h11 * j12, dh22 * w2 + h22 * j22
        gp = -2.0 * (l1 * j11 + l2 * j21) * il
        gt = -(2.0 * (l1 * j12 + l2 * j22) + w1 * w1 * dh11 + w2 * w2 * dh22) * il
        a11 = h11 * il + l1 * l1 * il2
        a12 = l1 * l2 * il2
        a22 = h22 * il + l2 * l2 * il2
        # d a_ij = (d h_ij - h_ij g) / lam + (d W_i W_j + W_i d W_j - 2 W_i W_j g) / lam^2
        # with g = d lam / lam
        a11p = -h11 * gp * il + (2.0 * l1p * l1 - 2.0 * l1 * l1 * gp) * il2
        a12p = (l1p * l2 + l1 * l2p - 2.0 * l1 * l2 * gp) * il2
        a22p = -h22 * gp * il + (2.0 * l2p * l2 - 2.0 * l2 * l2 * gp) * il2
        a11t = (dh11 - h11 * gt) * il + (2.0 * l1t * l1 - 2.0 * l1 * l1 * gt) * il2
        a12t = (l1t * l2 + l1 * l2t - 2.0 * l1 * l2 * gt) * il2
        a22t = (dh22 - h22 * gt) * il + (2.0 * l2t * l2 - 2.0 * l2 * l2 * gt) * il2
        # T_l = (D_y a y)_l - y . (d_l a) y / 2
        d11 = u * a11p + v * a11t
        d12 = u * a12p + v * a12t
        d22 = u * a22p + v * a22t
        uu, uv, vv = u * u, u * v, v * v
        t1 = d11 * u + d12 * v - 0.5 * (a11p * uu + 2.0 * a12p * uv + a22p * vv)
        t2 = d12 * u + d22 * v - 0.5 * (a11t * uu + 2.0 * a12t * uv + a22t * vv)
        det = a11 * a22 - a12 * a12
        return (a12 * t2 - a22 * t1) / det, (a12 * t1 - a11 * t2) / det

    return rhs_alpha


def resolve_flow(kind: str, wind: WindField) -> tuple[MetricKind, WindField]:
    """The flow (kind, wind) that a metric kind runs under a wind.

    h is F in still air: kind "h", whose wind is not read, and STILL_AIR
    (by identity) give ("h", STILL_AIR); alpha and randers keep their wind.

    Raises:
        ValueError: unknown metric kind.
        TypeError: a None wind of alpha or randers (still air is STILL_AIR).
    """
    if kind not in METRIC_KINDS:
        raise ValueError(f"unknown metric kind {kind!r}")
    if kind == "h" or wind is STILL_AIR:
        return "h", STILL_AIR
    if wind is None:
        raise TypeError(f"the wind of a {kind} flow must be a WindField, not None;"
                        " pass STILL_AIR for still air")
    return kind, wind


def make_rhs(kind: MetricKind, sph: Spheroid, wind: WindField) -> RhsFn:
    """Build a plain-float acceleration evaluator for the integrator.

    Two routes for the flows of resolve_flow: alpha is the Christoffel
    spray of a_ij, randers and h (its still-air case) the navigation
    spray.  Both hold for every wind.

    Raises:
        ValueError: unknown metric kind.
        TypeError: a None wind of alpha or randers, as resolve_flow.
    """
    kind, wind = resolve_flow(kind, wind)
    return (_alpha_rhs if kind == "alpha" else _randers_rhs)(sph, wind)


def initial_state_riemannian(
    sph: Spheroid, p0: SurfacePoint, heading0: float
) -> NavState:
    """Unit-speed start for an unperturbed geodesic at the given heading.

    Raises:
        PoleSingularity: p0 inside the polar guard band.
    """
    return NavState(p0, unit_heading_vector(sph, p0, heading0))


def _departures(
    sph: Spheroid, wind: WindField, p0: SurfacePoint, headings: Iterable[float]
) -> list[TangentVector]:
    """W + the unit h-vector at p0 per heading; mildness is checked and W read once."""
    RandersData(sph, wind).mildness_factor(p0)
    w1, w2 = wind.at(p0)
    units = (unit_heading_vector(sph, p0, heading) for heading in headings)
    return [TangentVector(w1 + u.u, w2 + u.v) for u in units]


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
    return NavState(p0, _departures(sph, wind, p0, (heading0,))[0])


def indicatrix(rd: RandersData, point: SurfacePoint, n: int) -> list[TangentVector]:
    """Sample the unit-time destination locus {F = 1} at a point.

    Returns n vectors W + u_k, the initial_state_randers velocities at
    heading 2*pi*k/n; each satisfies F = 1 by construction (the wind
    translates the h-unit circle rigidly).

    Raises:
        ValueError: n < 3.
        NotMild: wind not mild at the point.
        PoleSingularity: point inside the polar guard band.
    """
    if n < 3:
        raise ValueError(f"need at least 3 samples, got {n}")
    return _departures(rd.sph, rd.wind, point, (2.0 * math.pi * k / n for k in range(n)))


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
    wind: WindField,
    kind: str,
    p0: SurfacePoint,
    heading0: float,
) -> NavState:
    """Start state of the chosen flow at the given heading.

    Two routes for the flows of resolve_flow, as make_rhs:
    alpha starts from the unit alpha-vector, randers and h (its
    still-air case, W = (-0.0, 0.0)) from W + unit h-vector.

    Raises:
        PoleSingularity: p0 inside the polar guard band.
        NotMild: wind not mild at p0.
        ValueError: unknown metric kind.
        TypeError: a None wind of alpha or randers, as resolve_flow.
    """
    kind, wind = resolve_flow(kind, wind)
    if kind == "alpha":
        return initial_state_alpha(sph, wind, p0, heading0)
    return initial_state_randers(sph, wind, p0, heading0)


def initial_speed_vs_heading(
    sph: Spheroid, wind: WindField, p0: SurfacePoint, heading0: float
) -> float:
    """Resulting speed at departure as a function of the chosen heading.

    The speed of the initial_state_randers start.  Over all headings the
    range of |v| is exactly 2 |W|_h: the wind adds fully downwind and
    subtracts fully upwind.

    Raises:
        PoleSingularity: p0 inside the polar guard band.
        NotMild: wind not mild at p0.
    """
    return h_norm(sph, p0, initial_state_randers(sph, wind, p0, heading0).vel)
