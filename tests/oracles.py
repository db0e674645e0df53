"""Closed forms that only the tests use, as cross-checks of the runtime routes.

christoffels and riemannian_rhs give the Christoffel spray of the
induced metric h, which make_rhs runs as the navigation spray of still
air; F_rotation_closed is F = alpha + beta specialized to the rotation
wind; rotation_drift is the dot- and cross-product drift formula for that wind.
azimuthal_costate and alpha_azimuthal_momentum are the Noether invariants
of the travel-time and alpha flows under a wind that does not depend on phi.
initial_speed_closed is the departure speed expanded in the heading.
wind_norm, beta_term and embed are the h-norm of the wind, the one-form
part of F and the embedding, one point at a time.
position_reference is a tight scipy DOP853 track, the oracle of position error.
travel_time_variations is the variational oracle: a track of a flow
makes that flow's length functional stationary, so bumping it with both
ends fixed changes its length only at second order.
csv_cell is the per-cell rule that write_table formats whole rows by.
"""
import math

from znav.randers import F_value, RandersData
from znav.spheroid import (
    NavState,
    Spheroid,
    SurfacePoint,
    TangentVector,
    metric_components,
    require_off_pole,
)
from znav.spray import resolve_flow
from znav.wind import WindField


def wind_norm(sph: Spheroid, wind: WindField, point: SurfacePoint) -> float:
    """h-norm of the wind at a point: sqrt((W1)^2 h11 + (W2)^2 h22)."""
    w1, w2 = wind.at(point)
    h11, h22 = metric_components(sph, point.theta)
    return math.sqrt(w1 * w1 * h11 + w2 * w2 * h22)


def beta_term(rd: RandersData, point: SurfacePoint, y: TangentVector) -> float:
    """One-form part of the travel-time metric (linear in y)."""
    return rd.terms(point.phi, point.theta, y.u, y.v)[2]


def embed(sph: Spheroid, point: SurfacePoint) -> tuple[float, float, float]:
    """Cartesian coordinates (sin cos phi, sin sin phi, a cos) of a chart point."""
    s = math.sin(point.theta)
    return s * math.cos(point.phi), s * math.sin(point.phi), sph.a * math.cos(point.theta)


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


def azimuthal_costate(sph: Spheroid, wind: WindField, state: NavState) -> float:
    """Azimuthal costate P_phi = h11 n1 / (1 + <n, W>_h) of the travel-time flow.

    n = y / F - W is the unit heading through the medium.  P_phi is
    dF/du, the phi-momentum of the Hamiltonian H = |p|_h* + p . W at
    H = 1, so it is conserved along F-geodesics when neither h nor the
    wind depends on phi (Noether; Bao-Robles-Shen 2004, Huang-Mo 2011).
    The unnormalised h11 n1 is conserved only under Killing winds.
    """
    f = F_value(RandersData(sph, wind), state.point, state.vel)
    w1, w2 = wind.at(state.point)
    h11, h22 = metric_components(sph, state.point.theta)
    n1 = state.vel.u / f - w1
    n2 = state.vel.v / f - w2
    return h11 * n1 / (1.0 + n1 * w1 * h11 + n2 * w2 * h22)


def alpha_azimuthal_momentum(sph: Spheroid, wind: WindField, state: NavState) -> float:
    """Clairaut momentum a11 u + a12 v of the alpha metric.

    a_ij = h_ij / lam + W_i W_j / lam^2 with W_i = h_ii W^i; the
    phi-momentum is conserved along alpha-geodesics when a_ij does not
    depend on phi.
    """
    w1, w2 = wind.at(state.point)
    h11, h22 = metric_components(sph, state.point.theta)
    lam = 1.0 - w1 * w1 * h11 - w2 * w2 * h22
    l1 = h11 * w1
    l2 = h22 * w2
    a11 = h11 / lam + l1 * l1 / (lam * lam)
    a12 = l1 * l2 / (lam * lam)
    return a11 * state.vel.u + a12 * state.vel.v


def initial_speed_closed(
    sph: Spheroid, wind: WindField, p0: SurfacePoint, heading0: float
) -> float:
    """Departure speed |W + unit h-vector at heading0| in closed form.

        |v|^2 = 1 + (W1 sin)^2 + 2 W1 sin cos(heading)
                  + W2^2 h22 - 2 W2 sin(heading) sqrt(h22)
    """
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


def csv_cell(value) -> str:
    """One CSV cell: empty for None, a str as is, repr of an int, repr(float(value)) else."""
    if value is None or isinstance(value, str):
        return value or ""
    return repr(value if isinstance(value, int) else float(value))


def position_reference(rhs, s0: NavState, times: list[float]) -> list[tuple[float, float]]:
    """(phi, theta) at each of times along the track of rhs from s0.

    scipy's DOP853 at rtol 1e-13, atol 1e-15: a reference for the
    position error that conservation drift cannot see, since a track can
    keep F = 1 and still lag along its geodesic.  times starts at 0.
    """
    from scipy.integrate import solve_ivp

    def f(t, y):
        return [y[2], y[3], *rhs(*y)]

    y0 = [s0.point.phi, s0.point.theta, s0.vel.u, s0.vel.v]
    sol = solve_ivp(f, (0.0, times[-1]), y0, method="DOP853",
                    rtol=1e-13, atol=1e-15, t_eval=times)
    assert sol.success, sol.message
    return [(float(phi), float(theta)) for phi, theta in zip(sol.y[0], sol.y[1])]


def travel_time_variations(sph: Spheroid, wind: WindField, kind: str, rows,
                           coord: int, k: int, eps: float) -> tuple[float, float]:
    """First and second variation of a track's length under a bump of one coordinate.

    rows (t, phi, theta, phi_dot, theta_dot) sample the track on a
    uniform grid of an even number of intervals over [t0, t0 + T].  The
    coordinate rows[j][coord] (1 phi, 2 theta) is bumped by
    e sin(k pi (t - t0) / T), its rate by the derivative, so both ends
    stay fixed.  The length is the composite Simpson integral of the
    flow's speed along the bumped curve: F = alpha + beta for randers,
    alpha for alpha, |y|_h for h (F in still air, as spray.resolve_flow
    reads it).  Returns the central differences at e = +-eps,

        (L(eps) - L(-eps)) / (2 eps),  (L(eps) - 2 L(0) + L(-eps)) / eps^2,

    which vanish and are positive on a geodesic arc free of conjugate
    points.  Their O(eps^2) error and round-off keep eps near 1e-4.
    """
    kind, flow_wind = resolve_flow(kind, wind)
    terms = RandersData(sph, flow_wind).terms
    n = len(rows) - 1
    assert n % 2 == 0, "Simpson needs an even number of intervals"
    t0 = rows[0][0]
    span = rows[-1][0] - t0
    w = k * math.pi / span
    weights = [1.0, *([4.0, 2.0] * (n // 2))]
    weights[-1] = 1.0

    def length(e: float) -> float:
        total = 0.0
        for weight, row in zip(weights, rows):
            bumped = list(row)
            tau = w * (row[0] - t0)
            bumped[coord] += e * math.sin(tau)
            bumped[coord + 2] += e * w * math.cos(tau)
            _, alpha, beta = terms(*bumped[1:])
            total += weight * (alpha if kind == "alpha" else alpha + beta)
        return total * span / (3 * n)

    plus, zero, minus = length(eps), length(0.0), length(-eps)
    return (plus - minus) / (2 * eps), (plus - 2 * zero + minus) / (eps * eps)
