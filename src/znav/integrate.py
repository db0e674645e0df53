"""Adaptive geodesic integration with dense output and pole monitoring.

The DOP853 pair of Prince and Dormand (8th order, with 5th- and
3rd-order error estimates) as Hairer's dop853.f runs it: a two-phase
starting step and a step-size controller stabilised by the previous
step's error (Hairer, Norsett and Wanner, Solving ODEs I, II.4-II.6,
and II, IV.2).  Each trajectory counts its steps and rhs calls.
Accepted steps are resampled onto a uniform output grid by the pair's
7th-order continuous extension, whose three extra rhs calls are spent
only on steps that hold a sample.

A track runs as a sequence of legs, each one DOP853 run in one chart.
The spherical chart (phi, theta) breaks down at the poles, which are
singular points of the chart only: a track that comes within CAP_IN of
a pole continues in the pole-centred chart (x, y) = rho (cos phi,
sin phi), rho the distance theta or pi - theta to that pole, until rho
exceeds CAP_OUT.  The one runtime rhs still computes the accelerations
there (_polar_rhs maps a stage to the spherical chart and back).  A
track still halts where it enters the guard band of POLE_GUARD around
a pole, always in a cap, where that entry is found on the dense output
by closest approach; its t_stop is the time of that entry.  Velocity
norms are monitored, never re-normalized, making conservation drift
the primary accuracy diagnostic.
"""
import math
from functools import cached_property
from typing import Iterator, Literal, NamedTuple

from znav.errors import NavigationError, NonFiniteState, PoleSingularity
from znav.spheroid import (
    POLE_GUARD, NavState, Row, Spheroid, SurfacePoint, TangentVector, require_off_pole,
)
from znav.spray import MetricKind, RhsFn, initial_state, make_rhs, resolve_flow
from znav.wind import WindField

# DOP853 tableau (Prince and Dormand 1981, in Hairer's DOP853 form) with
# 1-based stages and only the nonzero weights.  Stage 13 is the 8th-order
# solution, whose derivative is the next step's stage 1 (FSAL); stages
# 14-16 serve only the dense output.  The values are those of
# scipy.integrate._ivp.dop853_coefficients, which the tests compare.
_A = (
    # stage 2: weights of stages 1
    (0.05260015195876773,),
    # stage 3: weights of stages 1 2
    (0.0197250569845379, 0.0591751709536137),
    # stage 4: weights of stages 1 3
    (0.02958758547680685, 0.08876275643042054),
    # stage 5: weights of stages 1 3 4
    (0.2413651341592667, -0.8845494793282861, 0.924834003261792),
    # stage 6: weights of stages 1 4 5
    (0.037037037037037035, 0.17082860872947386, 0.12546768756682242),
    # stage 7: weights of stages 1 4 5 6
    (0.037109375, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    # stage 8: weights of stages 1 4 5 6 7
    (0.03709200011850479, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
     0.008273789163814023),
    # stage 9: weights of stages 1 4 5 6 7 8
    (0.6241109587160757, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996),
    # stage 10: weights of stages 1 4 5 6 7 8 9
    (0.47766253643826434, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627),
    # stage 11: weights of stages 1 4 5 6 7 8 9 10
    (-0.9371424300859873, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    # stage 12: weights of stages 1 4 5 6 7 8 9 10 11
    (2.273310147516538, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636),
    # stage 13: weights of stages 1 6 7 8 9 10 11 12
    (0.054293734116568765, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
     0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259),
    # stage 14: weights of stages 1 7 8 9 10 11 12 13
    (0.056167502283047954, 0.25350021021662483, -0.2462390374708025, -0.12419142326381637,
     0.15329179827876568, 0.00820105229563469, 0.007567897660545699, -0.008298),
    # stage 15: weights of stages 1 6 7 8 11 12 13 14
    (0.03183464816350214, 0.028300909672366776, 0.053541988307438566, -0.05492374857139099,
     -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456,
     0.1413124436746325),
    # stage 16: weights of stages 1 6 7 8 9 13 14 15
    (-0.42889630158379194, -4.697621415361164, 7.683421196062599, 4.06898981839711,
     0.3567271874552811, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987),
)

# 5th- and 3rd-order error estimates, weights of stages 1 and 6-12.
_E5 = (0.01312004499419488, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
       -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294)
_E3 = (-0.18980075407240762, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
       -0.4226823213237919, -0.1521609496625161, 0.20136540080403034, 0.02265179219836082)
# Dense-output weights of stages 1 and 6-16: the last four coefficients
# of Hairer's 7th-order continuous extension, per unit step.
_D = (
    (-8.428938276109013, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894),
    (10.427508642579134, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408),
    (19.985053242002433, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279),
    (-25.69393346270375, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564),
)

# Hairer's stabilised controller (dop853.f; Solving ODEs II, IV.2): after
# an accepted step the next one is h / fac with
# fac = err ** (1/8 - 0.2 beta) / facold ** beta / 0.9 clamped to [1/6, 3]
# (at most 6-fold growth and 3-fold shrinkage), where facold is the
# previous accepted step's err, at least 1e-4.  The facold term damps
# the step sequence, so fewer steps overshoot and are rejected.  A
# rejected step shrinks by min(3, err ** (1/8 - 0.2 beta) / 0.9), and the
# step accepted right after a rejection does not grow.
_SAFETY = 0.9
_FAC_MIN = 1 / 6
_FAC_MAX = 3.0
_BETA = 0.04
_EXPO1 = 0.125 - 0.2 * _BETA

# Largest horizon t_end and output grid t_end / sample_dt of one track.
# A track holds at most MAX_GRID + 2 rows, ~200 MB at this size; a larger
# grid or horizon is rejected before any work starts.
MAX_GRID = 10**6

# Polar caps: a step that ends within CAP_IN of a pole starts a leg in
# that pole's centred chart, and a cap step that ends beyond CAP_OUT
# starts a spherical leg again.  Each switch restarts the controller.
# The caps are kept small: a cap stage costs the wrapper's conversions
# (about 1 us on a 1.5-2.2 us rhs call), which pay only where phi
# sweeps fast near a pole.
CAP_IN = 0.5
CAP_OUT = 0.7
# A cap step whose chord passes within _NEAR_CHORDS chord lengths of the
# pole gets the closest-approach test.  The dense path strays from its
# chord by about |x''| h^2 / 8, a small part of the chord's length
# |x'| h on the steps of a geodesic in the cap, where |x'| ~ 1.
_NEAR_CHORDS = 2.0
_NEWTON_ITERS = 12
_TWO_PI = 2.0 * math.pi


# The fields of IntegratorConfig, which checks them as it is constructed.
class _IntegratorConfigFields(NamedTuple):
    t_end: float
    rel_tol: float = 1e-10
    abs_tol: float = 1e-13
    sample_dt: float = 0.01


class IntegratorConfig(_IntegratorConfigFields):
    """Tolerances, horizon and output grid for geodesic integration.

    The tolerances alone set the step length: the continuous extension
    samples inside a long step to the step's own accuracy.  The horizon
    is bounded by MAX_GRID like the grid, so the work of a track is too.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: check it too
        return cls(*super()._make(iterable))

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0 < self.t_end <= MAX_GRID:
            raise ValueError(f"t_end must be in (0, {MAX_GRID}], got {self.t_end}")
        if not (0 < self.rel_tol < 1 and 0 < self.abs_tol < math.inf):
            raise ValueError("rel_tol must be in (0, 1) and abs_tol positive and finite")
        if not 0 < self.sample_dt <= self.t_end:
            raise ValueError(
                f"sample_dt must be in (0, t_end], got {self.sample_dt}"
            )
        if not self.t_end / self.sample_dt <= MAX_GRID:  # an infinite ratio too
            raise ValueError(
                f"t_end / sample_dt = {self.t_end / self.sample_dt} sample intervals"
                f" exceeds the per-track grid of {MAX_GRID}"
            )
        return self


class StepStats(NamedTuple):
    """Step counts of one integration.

    accepted steps advanced t; rejected ones failed the error test (or
    had a non-finite error estimate) and were retried shorter; pole
    halvings are retries after a stage, or the end of a spherical step,
    landed in the pole guard band.
    rhs_calls counts every evaluation of the chart's rhs: each leg's start
    and starting-step probe, the stages and the dense-output stages.
    cap_legs counts the legs run in a polar cap's chart.
    """

    accepted: int = 0
    rejected: int = 0
    pole_halvings: int = 0
    rhs_calls: int = 0
    cap_legs: int = 0


class Trajectory:
    """Uniformly sampled geodesic and where it stopped at the pole, if it did.

    rows holds one (t, phi, theta, phi_dot, theta_dot) float tuple per
    sample, with strictly increasing t; the first row is the initial
    state at t = 0.  phi values accumulate (no wrapping) so winding
    counts are recoverable.  The control channel, the CSV and the
    figures read rows; samples is the same track as (t, NavState)
    pairs, built from rows on first access and then kept.  kind names the
    flow that ran the track (track resolves it, integrate takes it as
    given).  t_stop is the time the track stopped at the pole guard, None
    for a track that ran to t_end.  stats counts the steps behind them.
    """

    def __init__(
        self, rows: list[Row], kind: str = "", t_stop: float | None = None,
        stats: StepStats = StepStats(),
    ):
        self.rows = rows
        self.kind = kind
        self.t_stop = t_stop
        self.stats = stats

    @property
    def termination(self) -> Literal["completed", "pole_proximity"]:
        """How the track ended, read from t_stop."""
        return "completed" if self.t_stop is None else "pole_proximity"

    @cached_property
    def samples(self) -> list[tuple[float, NavState]]:
        """(t, NavState) per row, built once, on first access."""
        return [
            (t, NavState(SurfacePoint(phi, theta), TangentVector(u, v)))
            for t, phi, theta, u, v in self.rows
        ]

    def final_state(self) -> NavState:
        _, phi, theta, u, v = self.rows[-1]
        return NavState(SurfacePoint(phi, theta), TangentVector(u, v))


def _rms(x, sc) -> float:
    """Root mean square of x / sc over the four components."""
    # products, not ** 2: a float square that overflows raises OverflowError
    a, b, c, d = (x[i] / sc[i] for i in range(4))
    return math.sqrt((a * a + b * b + c * c + d * d) / 4)


def _initial_step(rhs: RhsFn, y0, f0, cfg: IntegratorConfig) -> tuple[float, int]:
    """Hairer's two-phase starting step (Solving ODEs I, II.4), as scipy's DOP853.

    The first phase, h0 = 0.01 d0 / d1, compares the state y0 with its
    derivative f0 in the tolerance scale.  The second spends one rhs call
    at y0 + h0 f0 for the size d2 of the second derivative, and returns
    the step on which an 8th-order error term would be 0.01, at most
    100 h0 and t_end.  It keeps h0 when the probe lands in the pole guard
    band, or when d1 or d2 is not finite (a scale that overflows them).
    Returns the step and the number of rhs calls spent (0 or 1).
    """
    sc = [cfg.abs_tol + cfg.rel_tol * abs(y0[i]) for i in range(4)]
    d0 = _rms(y0, sc)
    d1 = _rms(f0, sc)
    if not (math.isfinite(d0) and math.isfinite(d1)) or d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 1e-2 * d0 / d1
    h0 = min(h0, cfg.t_end)
    if not math.isfinite(d1):
        return h0, 0
    y1 = [y0[i] + h0 * f0[i] for i in range(4)]
    try:
        f1 = [y1[2], y1[3], *rhs(*y1)]
    except PoleSingularity:
        return h0, 1
    d2 = _rms([f1[i] - f0[i] for i in range(4)], sc) / h0
    if not math.isfinite(d2):
        return h0, 1
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.125
    return min(100 * h0, h1, cfg.t_end), 1


# Polar-cap chart of the pole at theta = 0 (south False) or theta = pi
# (south True): x = rho cos(phi), y = rho sin(phi), where rho is theta or
# pi - theta.  With rho' = +-theta' and u = phi', the accelerations are
#   x'' = A cos(phi) - B sin(phi),  y'' = A sin(phi) + B cos(phi),
#   A = rho'' - rho u^2,  B = rho u' + 2 rho' u.
# The rows keep phi continuous: each point's atan2 is moved by whole
# turns to lie within pi of the point before it.


def _unwrap(phi: float, ref: float) -> float:
    """phi moved by whole turns to lie within pi of ref."""
    return phi + _TWO_PI * round((ref - phi) / _TWO_PI)


def _to_cap(south: bool, phi, theta, u, v) -> tuple[float, float, float, float]:
    """Spherical state (phi, theta, u, v) -> cap (x, y, x', y')."""
    rho, rd = (math.pi - theta, -v) if south else (theta, v)
    c, s = math.cos(phi), math.sin(phi)
    return rho * c, rho * s, rd * c - rho * u * s, rd * s + rho * u * c


def _from_cap(south: bool, x, y, xd, yd, ref: float) -> tuple[float, float, float, float]:
    """Cap state -> spherical (phi, theta, u, v), phi within pi of ref."""
    rr = x * x + y * y
    rho = math.sqrt(rr)
    rd = (x * xd + y * yd) / rho
    u = (x * yd - y * xd) / rr
    phi = _unwrap(math.atan2(y, x), ref)
    return (phi, math.pi - rho, u, -rd) if south else (phi, rho, u, rd)


def _polar_rhs(rhs: RhsFn, south: bool, branch: list[float]) -> RhsFn:
    """rhs in the cap chart: (x, y, x', y') -> (x'', y'').

    The stage goes to the spherical chart with phi on the branch nearest
    branch[0], the continuous phi that the caller keeps at the step's
    start, so that rhs sees the phi it would see in the spherical chart.
    A stage in the guard band raises PoleSingularity (NonFiniteState if
    it is not finite) without calling rhs.
    """
    pi = math.pi
    lo, hi = POLE_GUARD, pi - POLE_GUARD
    sqrt, atan2 = math.sqrt, math.atan2

    def f(x, y, xd, yd):
        rr = x * x + y * y
        rho = sqrt(rr)
        if not lo < rho < hi:
            require_off_pole(pi - rho if south else rho)
        c, s = x / rho, y / rho
        rd = c * xd + s * yd
        u = (x * yd - y * xd) / rr
        phi = atan2(y, x)
        phi += _TWO_PI * round((branch[0] - phi) / _TWO_PI)
        if south:
            du, dv = rhs(phi, pi - rho, u, -rd)
            dv = -dv
        else:
            du, dv = rhs(phi, rho, u, rd)
        a = dv - rho * u * u
        b = rho * du + 2.0 * rd * u
        return a * c - b * s, a * s + b * c

    return f


def _dense_at(cx, tau: float) -> float:
    """Continuous extension (y0, f0, ..., f6) of one component at tau."""
    y, f0, f1, f2, f3, f4, f5, f6 = cx
    tau1 = 1.0 - tau
    return y + tau * (f0 + tau1 * (f1 + tau * (f2 + tau1 * (
        f3 + tau * (f4 + tau1 * (f5 + tau * f6))))))


def _chord_near_pole(x1, y1, x2, y2) -> float | None:
    """Fraction of the chord (x1, y1)-(x2, y2) nearest the pole, if it passes
    within _NEAR_CHORDS chord lengths of it; None otherwise."""
    dx, dy = x2 - x1, y2 - y1
    dd = dx * dx + dy * dy
    if not dd > 0.0:
        return None
    tau = min(max(-(x1 * dx + y1 * dy) / dd, 0.0), 1.0)
    cx, cy = x1 + tau * dx, y1 + tau * dy
    return tau if cx * cx + cy * cy < _NEAR_CHORDS * _NEAR_CHORDS * dd else None


def _guard_test(h: float, dense, tau: float) -> tuple[float, float, float | None]:
    """Closest approach of a cap step's dense path to the pole.

    dense holds the continuous extensions of x, y, x', y', and tau is the
    chord's fraction nearest the pole.  Newton on d(rho^2)/dt = 2 (x x' +
    y y') from tau, kept in [0, 1], finds the fraction tau_c of the
    closest approach.  Returns tau_c, the pivot phi there (principal
    value), and the fraction where the path enters the guard band, or
    None if it stays out: the root of rho = POLE_GUARD before tau_c, from
    a straight-line estimate refined by Newton on rho.

    Raises:
        NonFiniteState: the distance at the closest approach is not finite.
    """
    cx, cy, cxd, cyd = dense
    for _ in range(_NEWTON_ITERS):
        x, y = _dense_at(cx, tau), _dense_at(cy, tau)
        xd, yd = _dense_at(cxd, tau), _dense_at(cyd, tau)
        speed2 = xd * xd + yd * yd
        if not speed2 > 0.0:
            break
        new = min(max(tau - (x * xd + y * yd) / (speed2 * h), 0.0), 1.0)
        done = abs(new - tau) <= 1e-15
        tau = new
        if done:
            break
    tau_c = tau
    xc, yc = _dense_at(cx, tau_c), _dense_at(cy, tau_c)
    rho = math.sqrt(xc * xc + yc * yc)
    if rho > POLE_GUARD:
        return tau_c, math.atan2(yc, xc), None
    if not math.isfinite(rho):
        raise NonFiniteState(f"distance {rho} to the pole is not finite")
    xd, yd = _dense_at(cxd, tau_c), _dense_at(cyd, tau_c)
    speed2 = xd * xd + yd * yd
    gap = POLE_GUARD * POLE_GUARD - rho * rho
    tau = max(tau_c - math.sqrt(gap / speed2) / h, 0.0) if speed2 > 0.0 else tau_c
    for _ in range(_NEWTON_ITERS):
        x, y = _dense_at(cx, tau), _dense_at(cy, tau)
        xd, yd = _dense_at(cxd, tau), _dense_at(cyd, tau)
        rho = math.sqrt(x * x + y * y)
        rate = (x * xd + y * yd) / rho * h if rho > 0.0 else 0.0
        if not rate < 0.0:
            break
        new = min(max(tau - (rho - POLE_GUARD) / rate, 0.0), tau_c)
        done = abs(new - tau) <= 1e-15
        tau = new
        if done:
            break
    return tau_c, math.atan2(yc, xc), tau


def integrate(
    rhs: RhsFn, s0: NavState, cfg: IntegratorConfig, kind: str = ""
) -> Trajectory:
    """Integrate accelerations rhs from s0 over [0, t_end].

    rhs maps (phi, theta, phi_dot, theta_dot) to the two accelerations;
    the error estimate against cfg's tolerances alone sets each step.
    The trajectory is sampled at multiples of cfg.sample_dt, one row
    (t, phi, theta, phi_dot, theta_dot) per sample, the first row being
    s0 at t = 0.  The track runs in legs: spherical ones, and cap ones
    within CAP_IN of a pole (see the module docstring), each started
    afresh from its own rhs call; only the state, the rows, the grid and
    stats carry over, and phi stays continuous.  stats counts the accepted
    and rejected steps, pole-guard halvings, rhs calls and cap legs.

    A pole approach ends the rows early, and the trajectory's t_stop
    records its time.  A step with a stage or its end in the guard band
    is retried at half length, so every approach reaches the band in a
    cap, whose closest-approach test reports where the dense path enters
    it; a step halved below 1e-12 max(1, t) stops the track at the
    step's start.  The rule does not rest on the rhs raising in the
    band, as znav's own does.

    Raises:
        ValueError: a component of s0 is not finite.
        PoleSingularity: the initial state itself violates the guard band.
        NonFiniteState: a stage colatitude or a distance to the pole
            turned NaN or infinite mid-run (raised by the rhs through
            spheroid.require_off_pole, or by the cap chart's checks).
        NavigationError: the step size underflowed below 1e-14 max(1, t),
            as every step is refused; the message is "step underflow at
            t=..." with the time reached.
    """
    p1, q1, u1, v1 = s0.point.phi, s0.point.theta, s0.vel.u, s0.vel.v
    if not all(map(math.isfinite, (p1, q1, u1, v1))):
        raise ValueError(f"initial state must be finite, got {s0}")
    require_off_pole(q1)

    (
        (a2_1,),
        (a3_1, a3_2),
        (a4_1, a4_3),
        (a5_1, a5_3, a5_4),
        (a6_1, a6_4, a6_5),
        (a7_1, a7_4, a7_5, a7_6),
        (a8_1, a8_4, a8_5, a8_6, a8_7),
        (a9_1, a9_4, a9_5, a9_6, a9_7, a9_8),
        (a10_1, a10_4, a10_5, a10_6, a10_7, a10_8, a10_9),
        (a11_1, a11_4, a11_5, a11_6, a11_7, a11_8, a11_9, a11_10),
        (a12_1, a12_4, a12_5, a12_6, a12_7, a12_8, a12_9, a12_10, a12_11),
        (b1, b6, b7, b8, b9, b10, b11, b12),
        (a14_1, a14_7, a14_8, a14_9, a14_10, a14_11, a14_12, a14_13),
        (a15_1, a15_6, a15_7, a15_8, a15_11, a15_12, a15_13, a15_14),
        (a16_1, a16_6, a16_7, a16_8, a16_9, a16_13, a16_14, a16_15),
    ) = _A
    e5_1, e5_6, e5_7, e5_8, e5_9, e5_10, e5_11, e5_12 = _E5
    e3_1, e3_6, e3_7, e3_8, e3_9, e3_10, e3_11, e3_12 = _E3
    (
        (d3_1, d3_6, d3_7, d3_8, d3_9, d3_10, d3_11, d3_12, d3_13, d3_14, d3_15, d3_16),
        (d4_1, d4_6, d4_7, d4_8, d4_9, d4_10, d4_11, d4_12, d4_13, d4_14, d4_15, d4_16),
        (d5_1, d5_6, d5_7, d5_8, d5_9, d5_10, d5_11, d5_12, d5_13, d5_14, d5_15, d5_16),
        (d6_1, d6_6, d6_7, d6_8, d6_9, d6_10, d6_11, d6_12, d6_13, d6_14, d6_15, d6_16),
    ) = _D
    rel_tol, abs_tol = cfg.rel_tol, cfg.abs_tol
    t_end, sample_dt = cfg.t_end, cfg.sample_dt
    theta_lo, theta_hi = POLE_GUARD, math.pi - POLE_GUARD

    # Stage n (1..16) evaluates the chart's rhs f at pn, qn, un, vn,
    # giving the accelerations dun, dvn; its derivative k_n is (un, vn,
    # dun, dvn).  Stage 1 is the current state; its accelerations are f's
    # at a leg's start, then the previous step's stage 13 ones (FSAL).
    n_calls = 0
    t = 0.0
    n_grid = int(math.floor(t_end / sample_dt + 1e-9))
    rows: list[Row] = [(0.0, p1, q1, u1, v1)]
    next_idx = 1
    t_stop = math.inf  # where a pole approach stops the track
    n_accepted = n_rejected = n_halved = n_cap = 0
    # completion window wider than the underflow floor, so a shrunken
    # final step cannot misreport an essentially finished run
    t_final = t_end - 1e-12 * max(1.0, t_end)
    cap_lo, cap_hi = CAP_IN, math.pi - CAP_IN
    cap_out2 = CAP_OUT * CAP_OUT

    # One pass per leg: a DOP853 run in one chart from its own rhs call
    # and starting step, with facold reset.  In a cap leg (p, q, u, v) are
    # (x, y, x', y') and phi1 is the continuous phi at the step's start.
    while True:
        cap = not cap_lo <= q1 <= cap_hi
        if cap:
            south = q1 > cap_hi
            phi1 = p1
            branch = [phi1]
            f = _polar_rhs(rhs, south, branch)
            p1, q1, u1, v1 = _to_cap(south, p1, q1, u1, v1)
            n_cap += 1
        else:
            f = rhs
        du1, dv1 = f(p1, q1, u1, v1)
        h, probes = _initial_step(f, (p1, q1, u1, v1), (u1, v1, du1, dv1), cfg)
        n_calls += 1 + probes
        facold = 1e-4
        rejected = False
        switch = False

        while t < t_final:
            h = min(h, t_end - t)
            if h < 1e-14 * max(1.0, abs(t)):
                raise NavigationError(f"step underflow at t={t}")

            # Each sum runs left to right over the nonzero weights of its
            # tableau row: the float operations of the list-form loop in
            # tests/dop853_reference.py, whose trajectories the tests require
            # to match bit for bit.  n_calls counts each call before it is
            # made.  A pole hit in any stage, the three dense-output ones
            # included, halves the step, and so does a spherical step whose
            # end lies in the band or past a pole (a NaN end fails the error
            # norm instead); the halving floor stops the track.
            try:
                p2 = p1 + h * (a2_1 * u1)
                q2 = q1 + h * (a2_1 * v1)
                u2 = u1 + h * (a2_1 * du1)
                v2 = v1 + h * (a2_1 * dv1)
                n_calls += 1
                du2, dv2 = f(p2, q2, u2, v2)

                p3 = p1 + h * (a3_1 * u1 + a3_2 * u2)
                q3 = q1 + h * (a3_1 * v1 + a3_2 * v2)
                u3 = u1 + h * (a3_1 * du1 + a3_2 * du2)
                v3 = v1 + h * (a3_1 * dv1 + a3_2 * dv2)
                n_calls += 1
                du3, dv3 = f(p3, q3, u3, v3)

                p4 = p1 + h * (a4_1 * u1 + a4_3 * u3)
                q4 = q1 + h * (a4_1 * v1 + a4_3 * v3)
                u4 = u1 + h * (a4_1 * du1 + a4_3 * du3)
                v4 = v1 + h * (a4_1 * dv1 + a4_3 * dv3)
                n_calls += 1
                du4, dv4 = f(p4, q4, u4, v4)

                p5 = p1 + h * (a5_1 * u1 + a5_3 * u3 + a5_4 * u4)
                q5 = q1 + h * (a5_1 * v1 + a5_3 * v3 + a5_4 * v4)
                u5 = u1 + h * (a5_1 * du1 + a5_3 * du3 + a5_4 * du4)
                v5 = v1 + h * (a5_1 * dv1 + a5_3 * dv3 + a5_4 * dv4)
                n_calls += 1
                du5, dv5 = f(p5, q5, u5, v5)

                p6 = p1 + h * (a6_1 * u1 + a6_4 * u4 + a6_5 * u5)
                q6 = q1 + h * (a6_1 * v1 + a6_4 * v4 + a6_5 * v5)
                u6 = u1 + h * (a6_1 * du1 + a6_4 * du4 + a6_5 * du5)
                v6 = v1 + h * (a6_1 * dv1 + a6_4 * dv4 + a6_5 * dv5)
                n_calls += 1
                du6, dv6 = f(p6, q6, u6, v6)

                p7 = p1 + h * (a7_1 * u1 + a7_4 * u4 + a7_5 * u5 + a7_6 * u6)
                q7 = q1 + h * (a7_1 * v1 + a7_4 * v4 + a7_5 * v5 + a7_6 * v6)
                u7 = u1 + h * (a7_1 * du1 + a7_4 * du4 + a7_5 * du5 + a7_6 * du6)
                v7 = v1 + h * (a7_1 * dv1 + a7_4 * dv4 + a7_5 * dv5 + a7_6 * dv6)
                n_calls += 1
                du7, dv7 = f(p7, q7, u7, v7)

                p8 = p1 + h * (a8_1 * u1 + a8_4 * u4 + a8_5 * u5 + a8_6 * u6 + a8_7 * u7)
                q8 = q1 + h * (a8_1 * v1 + a8_4 * v4 + a8_5 * v5 + a8_6 * v6 + a8_7 * v7)
                u8 = u1 + h * (a8_1 * du1 + a8_4 * du4 + a8_5 * du5 + a8_6 * du6 + a8_7 * du7)
                v8 = v1 + h * (a8_1 * dv1 + a8_4 * dv4 + a8_5 * dv5 + a8_6 * dv6 + a8_7 * dv7)
                n_calls += 1
                du8, dv8 = f(p8, q8, u8, v8)

                p9 = p1 + h * (a9_1 * u1 + a9_4 * u4 + a9_5 * u5 + a9_6 * u6 + a9_7 * u7
                               + a9_8 * u8)
                q9 = q1 + h * (a9_1 * v1 + a9_4 * v4 + a9_5 * v5 + a9_6 * v6 + a9_7 * v7
                               + a9_8 * v8)
                u9 = u1 + h * (a9_1 * du1 + a9_4 * du4 + a9_5 * du5 + a9_6 * du6 + a9_7 * du7
                               + a9_8 * du8)
                v9 = v1 + h * (a9_1 * dv1 + a9_4 * dv4 + a9_5 * dv5 + a9_6 * dv6 + a9_7 * dv7
                               + a9_8 * dv8)
                n_calls += 1
                du9, dv9 = f(p9, q9, u9, v9)

                p10 = p1 + h * (a10_1 * u1 + a10_4 * u4 + a10_5 * u5 + a10_6 * u6 + a10_7 * u7
                                + a10_8 * u8 + a10_9 * u9)
                q10 = q1 + h * (a10_1 * v1 + a10_4 * v4 + a10_5 * v5 + a10_6 * v6 + a10_7 * v7
                                + a10_8 * v8 + a10_9 * v9)
                u10 = u1 + h * (a10_1 * du1 + a10_4 * du4 + a10_5 * du5 + a10_6 * du6
                                + a10_7 * du7 + a10_8 * du8 + a10_9 * du9)
                v10 = v1 + h * (a10_1 * dv1 + a10_4 * dv4 + a10_5 * dv5 + a10_6 * dv6
                                + a10_7 * dv7 + a10_8 * dv8 + a10_9 * dv9)
                n_calls += 1
                du10, dv10 = f(p10, q10, u10, v10)

                p11 = p1 + h * (a11_1 * u1 + a11_4 * u4 + a11_5 * u5 + a11_6 * u6 + a11_7 * u7
                                + a11_8 * u8 + a11_9 * u9 + a11_10 * u10)
                q11 = q1 + h * (a11_1 * v1 + a11_4 * v4 + a11_5 * v5 + a11_6 * v6 + a11_7 * v7
                                + a11_8 * v8 + a11_9 * v9 + a11_10 * v10)
                u11 = u1 + h * (a11_1 * du1 + a11_4 * du4 + a11_5 * du5 + a11_6 * du6
                                + a11_7 * du7 + a11_8 * du8 + a11_9 * du9 + a11_10 * du10)
                v11 = v1 + h * (a11_1 * dv1 + a11_4 * dv4 + a11_5 * dv5 + a11_6 * dv6
                                + a11_7 * dv7 + a11_8 * dv8 + a11_9 * dv9 + a11_10 * dv10)
                n_calls += 1
                du11, dv11 = f(p11, q11, u11, v11)

                p12 = p1 + h * (a12_1 * u1 + a12_4 * u4 + a12_5 * u5 + a12_6 * u6 + a12_7 * u7
                                + a12_8 * u8 + a12_9 * u9 + a12_10 * u10 + a12_11 * u11)
                q12 = q1 + h * (a12_1 * v1 + a12_4 * v4 + a12_5 * v5 + a12_6 * v6 + a12_7 * v7
                                + a12_8 * v8 + a12_9 * v9 + a12_10 * v10 + a12_11 * v11)
                u12 = u1 + h * (a12_1 * du1 + a12_4 * du4 + a12_5 * du5 + a12_6 * du6
                                + a12_7 * du7 + a12_8 * du8 + a12_9 * du9 + a12_10 * du10
                                + a12_11 * du11)
                v12 = v1 + h * (a12_1 * dv1 + a12_4 * dv4 + a12_5 * dv5 + a12_6 * dv6
                                + a12_7 * dv7 + a12_8 * dv8 + a12_9 * dv9 + a12_10 * dv10
                                + a12_11 * dv11)
                n_calls += 1
                du12, dv12 = f(p12, q12, u12, v12)

                p13 = p1 + h * (b1 * u1 + b6 * u6 + b7 * u7 + b8 * u8 + b9 * u9 + b10 * u10
                                + b11 * u11 + b12 * u12)
                q13 = q1 + h * (b1 * v1 + b6 * v6 + b7 * v7 + b8 * v8 + b9 * v9 + b10 * v10
                                + b11 * v11 + b12 * v12)
                u13 = u1 + h * (b1 * du1 + b6 * du6 + b7 * du7 + b8 * du8 + b9 * du9
                                + b10 * du10 + b11 * du11 + b12 * du12)
                v13 = v1 + h * (b1 * dv1 + b6 * dv6 + b7 * dv7 + b8 * dv8 + b9 * dv9
                                + b10 * dv10 + b11 * dv11 + b12 * dv12)
                n_calls += 1
                du13, dv13 = f(p13, q13, u13, v13)
                if not cap and (q13 <= theta_lo or q13 >= theta_hi):
                    raise PoleSingularity

                # Hairer's error norm h err5 / sqrt(4 (err5 + 0.01 err3)) over
                # the components scaled by their tolerances.  Squares are
                # products, not ** 2, so an overflow gives inf instead of
                # raising; an infinite or NaN sum refuses the step, since an
                # infinite err3 alone would make the norm 0.
                x, y = abs(p1), abs(p13)
                sp = abs_tol + rel_tol * (y if y > x else x)
                x, y = abs(q1), abs(q13)
                sq = abs_tol + rel_tol * (y if y > x else x)
                x, y = abs(u1), abs(u13)
                su = abs_tol + rel_tol * (y if y > x else x)
                x, y = abs(v1), abs(v13)
                sv = abs_tol + rel_tol * (y if y > x else x)
                ep5 = (e5_1 * u1 + e5_6 * u6 + e5_7 * u7 + e5_8 * u8 + e5_9 * u9 + e5_10 * u10
                       + e5_11 * u11 + e5_12 * u12) / sp
                eq5 = (e5_1 * v1 + e5_6 * v6 + e5_7 * v7 + e5_8 * v8 + e5_9 * v9 + e5_10 * v10
                       + e5_11 * v11 + e5_12 * v12) / sq
                eu5 = (e5_1 * du1 + e5_6 * du6 + e5_7 * du7 + e5_8 * du8 + e5_9 * du9
                       + e5_10 * du10 + e5_11 * du11 + e5_12 * du12) / su
                ev5 = (e5_1 * dv1 + e5_6 * dv6 + e5_7 * dv7 + e5_8 * dv8 + e5_9 * dv9
                       + e5_10 * dv10 + e5_11 * dv11 + e5_12 * dv12) / sv
                ep3 = (e3_1 * u1 + e3_6 * u6 + e3_7 * u7 + e3_8 * u8 + e3_9 * u9 + e3_10 * u10
                       + e3_11 * u11 + e3_12 * u12) / sp
                eq3 = (e3_1 * v1 + e3_6 * v6 + e3_7 * v7 + e3_8 * v8 + e3_9 * v9 + e3_10 * v10
                       + e3_11 * v11 + e3_12 * v12) / sq
                eu3 = (e3_1 * du1 + e3_6 * du6 + e3_7 * du7 + e3_8 * du8 + e3_9 * du9
                       + e3_10 * du10 + e3_11 * du11 + e3_12 * du12) / su
                ev3 = (e3_1 * dv1 + e3_6 * dv6 + e3_7 * dv7 + e3_8 * dv8 + e3_9 * dv9
                       + e3_10 * dv10 + e3_11 * dv11 + e3_12 * dv12) / sv
                err5 = ep5 * ep5 + eq5 * eq5 + eu5 * eu5 + ev5 * ev5
                err3 = ep3 * ep3 + eq3 * eq3 + eu3 * eu3 + ev3 * ev3
                deno = err5 + 0.01 * err3
                if not math.isfinite(deno):
                    h *= 0.1
                    n_rejected += 1
                    continue
                err = h * err5 / (2.0 * math.sqrt(deno)) if deno else 0.0
                fac11 = err ** _EXPO1
                if err > 1.0:
                    h /= min(_FAC_MAX, fac11 / _SAFETY)
                    rejected = True
                    n_rejected += 1
                    continue

                # the dense output's three extra stages and the coefficients
                # of the continuous extension, only for a step that holds a
                # sample or, in a cap, passes near the pole
                ts = next_idx * sample_dt
                holds_sample = (next_idx <= n_grid
                                and ts <= t + h + 1e-14 * (ts if ts > 1.0 else 1.0))
                near = _chord_near_pole(p1, q1, p13, q13) if cap else None
                if holds_sample or near is not None:
                    p14 = p1 + h * (a14_1 * u1 + a14_7 * u7 + a14_8 * u8 + a14_9 * u9
                                    + a14_10 * u10 + a14_11 * u11 + a14_12 * u12 + a14_13 * u13)
                    q14 = q1 + h * (a14_1 * v1 + a14_7 * v7 + a14_8 * v8 + a14_9 * v9
                                    + a14_10 * v10 + a14_11 * v11 + a14_12 * v12 + a14_13 * v13)
                    u14 = u1 + h * (a14_1 * du1 + a14_7 * du7 + a14_8 * du8 + a14_9 * du9
                                    + a14_10 * du10 + a14_11 * du11 + a14_12 * du12
                                    + a14_13 * du13)
                    v14 = v1 + h * (a14_1 * dv1 + a14_7 * dv7 + a14_8 * dv8 + a14_9 * dv9
                                    + a14_10 * dv10 + a14_11 * dv11 + a14_12 * dv12
                                    + a14_13 * dv13)
                    n_calls += 1
                    du14, dv14 = f(p14, q14, u14, v14)

                    p15 = p1 + h * (a15_1 * u1 + a15_6 * u6 + a15_7 * u7 + a15_8 * u8
                                    + a15_11 * u11 + a15_12 * u12 + a15_13 * u13 + a15_14 * u14)
                    q15 = q1 + h * (a15_1 * v1 + a15_6 * v6 + a15_7 * v7 + a15_8 * v8
                                    + a15_11 * v11 + a15_12 * v12 + a15_13 * v13 + a15_14 * v14)
                    u15 = u1 + h * (a15_1 * du1 + a15_6 * du6 + a15_7 * du7 + a15_8 * du8
                                    + a15_11 * du11 + a15_12 * du12 + a15_13 * du13
                                    + a15_14 * du14)
                    v15 = v1 + h * (a15_1 * dv1 + a15_6 * dv6 + a15_7 * dv7 + a15_8 * dv8
                                    + a15_11 * dv11 + a15_12 * dv12 + a15_13 * dv13
                                    + a15_14 * dv14)
                    n_calls += 1
                    du15, dv15 = f(p15, q15, u15, v15)

                    p16 = p1 + h * (a16_1 * u1 + a16_6 * u6 + a16_7 * u7 + a16_8 * u8 + a16_9 * u9
                                    + a16_13 * u13 + a16_14 * u14 + a16_15 * u15)
                    q16 = q1 + h * (a16_1 * v1 + a16_6 * v6 + a16_7 * v7 + a16_8 * v8 + a16_9 * v9
                                    + a16_13 * v13 + a16_14 * v14 + a16_15 * v15)
                    u16 = u1 + h * (a16_1 * du1 + a16_6 * du6 + a16_7 * du7 + a16_8 * du8
                                    + a16_9 * du9 + a16_13 * du13 + a16_14 * du14 + a16_15 * du15)
                    v16 = v1 + h * (a16_1 * dv1 + a16_6 * dv6 + a16_7 * dv7 + a16_8 * dv8
                                    + a16_9 * dv9 + a16_13 * dv13 + a16_14 * dv14 + a16_15 * dv15)
                    n_calls += 1
                    du16, dv16 = f(p16, q16, u16, v16)

                    # Hairer's continuous extension y1 + tau (f0 + tau1 (f1 +
                    # tau (f2 + tau1 (f3 + tau (f4 + tau1 (f5 + tau f6)))))),
                    # tau1 = 1 - tau; float * and + cannot raise here
                    f0p, f0q, f0u, f0v = p13 - p1, q13 - q1, u13 - u1, v13 - v1
                    f1p, f1q = h * u1 - f0p, h * v1 - f0q
                    f1u, f1v = h * du1 - f0u, h * dv1 - f0v
                    f2p, f2q = f0p - h * u13 - f1p, f0q - h * v13 - f1q
                    f2u, f2v = f0u - h * du13 - f1u, f0v - h * dv13 - f1v
                    f3p = h * (d3_1 * u1 + d3_6 * u6 + d3_7 * u7 + d3_8 * u8 + d3_9 * u9
                               + d3_10 * u10 + d3_11 * u11 + d3_12 * u12 + d3_13 * u13
                               + d3_14 * u14 + d3_15 * u15 + d3_16 * u16)
                    f3q = h * (d3_1 * v1 + d3_6 * v6 + d3_7 * v7 + d3_8 * v8 + d3_9 * v9
                               + d3_10 * v10 + d3_11 * v11 + d3_12 * v12 + d3_13 * v13
                               + d3_14 * v14 + d3_15 * v15 + d3_16 * v16)
                    f3u = h * (d3_1 * du1 + d3_6 * du6 + d3_7 * du7 + d3_8 * du8 + d3_9 * du9
                               + d3_10 * du10 + d3_11 * du11 + d3_12 * du12 + d3_13 * du13
                               + d3_14 * du14 + d3_15 * du15 + d3_16 * du16)
                    f3v = h * (d3_1 * dv1 + d3_6 * dv6 + d3_7 * dv7 + d3_8 * dv8 + d3_9 * dv9
                               + d3_10 * dv10 + d3_11 * dv11 + d3_12 * dv12 + d3_13 * dv13
                               + d3_14 * dv14 + d3_15 * dv15 + d3_16 * dv16)
                    f4p = h * (d4_1 * u1 + d4_6 * u6 + d4_7 * u7 + d4_8 * u8 + d4_9 * u9
                               + d4_10 * u10 + d4_11 * u11 + d4_12 * u12 + d4_13 * u13
                               + d4_14 * u14 + d4_15 * u15 + d4_16 * u16)
                    f4q = h * (d4_1 * v1 + d4_6 * v6 + d4_7 * v7 + d4_8 * v8 + d4_9 * v9
                               + d4_10 * v10 + d4_11 * v11 + d4_12 * v12 + d4_13 * v13
                               + d4_14 * v14 + d4_15 * v15 + d4_16 * v16)
                    f4u = h * (d4_1 * du1 + d4_6 * du6 + d4_7 * du7 + d4_8 * du8 + d4_9 * du9
                               + d4_10 * du10 + d4_11 * du11 + d4_12 * du12 + d4_13 * du13
                               + d4_14 * du14 + d4_15 * du15 + d4_16 * du16)
                    f4v = h * (d4_1 * dv1 + d4_6 * dv6 + d4_7 * dv7 + d4_8 * dv8 + d4_9 * dv9
                               + d4_10 * dv10 + d4_11 * dv11 + d4_12 * dv12 + d4_13 * dv13
                               + d4_14 * dv14 + d4_15 * dv15 + d4_16 * dv16)
                    f5p = h * (d5_1 * u1 + d5_6 * u6 + d5_7 * u7 + d5_8 * u8 + d5_9 * u9
                               + d5_10 * u10 + d5_11 * u11 + d5_12 * u12 + d5_13 * u13
                               + d5_14 * u14 + d5_15 * u15 + d5_16 * u16)
                    f5q = h * (d5_1 * v1 + d5_6 * v6 + d5_7 * v7 + d5_8 * v8 + d5_9 * v9
                               + d5_10 * v10 + d5_11 * v11 + d5_12 * v12 + d5_13 * v13
                               + d5_14 * v14 + d5_15 * v15 + d5_16 * v16)
                    f5u = h * (d5_1 * du1 + d5_6 * du6 + d5_7 * du7 + d5_8 * du8 + d5_9 * du9
                               + d5_10 * du10 + d5_11 * du11 + d5_12 * du12 + d5_13 * du13
                               + d5_14 * du14 + d5_15 * du15 + d5_16 * du16)
                    f5v = h * (d5_1 * dv1 + d5_6 * dv6 + d5_7 * dv7 + d5_8 * dv8 + d5_9 * dv9
                               + d5_10 * dv10 + d5_11 * dv11 + d5_12 * dv12 + d5_13 * dv13
                               + d5_14 * dv14 + d5_15 * dv15 + d5_16 * dv16)
                    f6p = h * (d6_1 * u1 + d6_6 * u6 + d6_7 * u7 + d6_8 * u8 + d6_9 * u9
                               + d6_10 * u10 + d6_11 * u11 + d6_12 * u12 + d6_13 * u13
                               + d6_14 * u14 + d6_15 * u15 + d6_16 * u16)
                    f6q = h * (d6_1 * v1 + d6_6 * v6 + d6_7 * v7 + d6_8 * v8 + d6_9 * v9
                               + d6_10 * v10 + d6_11 * v11 + d6_12 * v12 + d6_13 * v13
                               + d6_14 * v14 + d6_15 * v15 + d6_16 * v16)
                    f6u = h * (d6_1 * du1 + d6_6 * du6 + d6_7 * du7 + d6_8 * du8 + d6_9 * du9
                               + d6_10 * du10 + d6_11 * du11 + d6_12 * du12 + d6_13 * du13
                               + d6_14 * du14 + d6_15 * du15 + d6_16 * du16)
                    f6v = h * (d6_1 * dv1 + d6_6 * dv6 + d6_7 * dv7 + d6_8 * dv8 + d6_9 * dv9
                               + d6_10 * dv10 + d6_11 * dv11 + d6_12 * dv12 + d6_13 * dv13
                               + d6_14 * dv14 + d6_15 * dv15 + d6_16 * dv16)
            except PoleSingularity:
                h *= 0.5
                n_halved += 1
                if h < 1e-12 * max(1.0, abs(t)):
                    t_stop = t
                    break
                continue

            # Accepted.  The guard test of a cap step: where the chord
            # passes near the pole, the dense path's closest approach, and
            # the time it enters the band.  That point also splits the pass
            # for the unwrapping of phi, which sweeps up to pi across it.
            if cap:
                last = phi1
                tau_c = 2.0  # no pivot
                if near is not None:
                    tau_c, phi_c, tau_in = _guard_test(h, (
                        (p1, f0p, f1p, f2p, f3p, f4p, f5p, f6p),
                        (q1, f0q, f1q, f2q, f3q, f4q, f5q, f6q),
                        (u1, f0u, f1u, f2u, f3u, f4u, f5u, f6u),
                        (v1, f0v, f1v, f2v, f3v, f4v, f5v, f6v),
                    ), near)
                    if tau_in is not None:
                        t_stop = t + tau_in * h
            # Grid samples in (t, t+h] before any band entry; a cap sample
            # goes to the spherical chart, its phi unwrapped at the pivot.
            while holds_sample and ts < t_stop:
                tau = (ts - t) / h
                if tau < 0.0:
                    tau = 0.0
                elif tau > 1.0:
                    tau = 1.0
                tau1 = 1.0 - tau
                p = p1 + tau * (f0p + tau1 * (f1p + tau * (f2p + tau1 * (
                    f3p + tau * (f4p + tau1 * (f5p + tau * f6p))))))
                q = q1 + tau * (f0q + tau1 * (f1q + tau * (f2q + tau1 * (
                    f3q + tau * (f4q + tau1 * (f5q + tau * f6q))))))
                u = u1 + tau * (f0u + tau1 * (f1u + tau * (f2u + tau1 * (
                    f3u + tau * (f4u + tau1 * (f5u + tau * f6u))))))
                v = v1 + tau * (f0v + tau1 * (f1v + tau * (f2v + tau1 * (
                    f3v + tau * (f4v + tau1 * (f5v + tau * f6v))))))
                if cap:
                    if tau > tau_c:
                        last = _unwrap(phi_c, last)
                        tau_c = 2.0
                    p, q, u, v = _from_cap(south, p, q, u, v, last)
                    last = p
                rows.append((ts, p, q, u, v))
                next_idx += 1
                ts = next_idx * sample_dt
                holds_sample = (next_idx <= n_grid
                                and ts <= t + h + 1e-14 * (ts if ts > 1.0 else 1.0))
            if t_stop < math.inf:
                break
            if cap:
                if tau_c <= 1.0:
                    last = _unwrap(phi_c, last)
                phi1 = branch[0] = _unwrap(math.atan2(q13, p13), last)
                switch = p13 * p13 + q13 * q13 > cap_out2
            else:
                switch = not cap_lo <= q13 <= cap_hi

            t += h
            n_accepted += 1
            p1, q1, u1, v1, du1, dv1 = p13, q13, u13, v13, du13, dv13
            h_new = h / max(_FAC_MIN, min(_FAC_MAX, fac11 / facold ** _BETA / _SAFETY))
            facold = max(err, 1e-4)
            h = min(h_new, h) if rejected else h_new
            rejected = False
            if switch:
                break

        if cap:
            p1, q1, u1, v1 = _from_cap(south, p1, q1, u1, v1, phi1)
        # a stop leaves switch False, so it ends the track here
        if not (switch and t < t_final):
            break

    if t_stop == math.inf and rows[-1][0] < t_end - 1e-9 * max(1.0, t_end):
        # grid did not land on t_end; append the final state explicitly
        rows.append((t_end, p1, q1, u1, v1))
    return Trajectory(rows, kind, t_stop if t_stop < math.inf else None,
                      StepStats(n_accepted, n_rejected, n_halved, n_calls, n_cap))


class FamilyMember(NamedTuple):
    """One heading of a fan: its trajectory, or the error that stopped it."""

    heading: float
    trajectory: Trajectory | None
    error: NavigationError | None = None


def track(
    sph: Spheroid, wind: WindField, kind: MetricKind, start: SurfacePoint,
    heading: float, cfg: IntegratorConfig,
) -> Trajectory:
    """One track of the flow spray.resolve_flow(kind, wind), labelled with its kind,
    seeded by spray.initial_state and integrated under make_rhs.

    Raises:
        NavigationError: seeding or the engine raised one, a step
            underflow included.
        ValueError: unknown metric kind.
        TypeError: a None wind of alpha or randers, as resolve_flow.
    """
    kind, wind = resolve_flow(kind, wind)
    state0 = initial_state(sph, wind, kind, start, heading)
    return integrate(make_rhs(kind, sph, wind), state0, cfg, kind=kind)


def iter_family(
    sph: Spheroid, wind: WindField, start: SurfacePoint, headings: list[float],
    kind: MetricKind, cfg: IntegratorConfig,
) -> Iterator[FamilyMember]:
    """One member per heading, run by track when it is asked for and not kept after.

    A NavigationError becomes the member's error; any other ends the fan.
    """
    for heading in headings:
        try:
            yield FamilyMember(heading, track(sph, wind, kind, start, heading, cfg))
        except NavigationError as error:
            yield FamilyMember(heading, None, error)


def integrate_family(
    sph: Spheroid, wind: WindField, start: SurfacePoint, headings: list[float],
    kind: MetricKind, cfg: IntegratorConfig,
) -> list[FamilyMember]:
    """The members of iter_family, each integrated before this returns.

    Raises:
        ValueError: empty heading list, or an unknown metric kind.
    """
    if not headings:
        raise ValueError("heading fan must not be empty")
    return list(iter_family(sph, wind, start, headings, kind, cfg))


def classify_path(traj: Trajectory) -> Literal["transpolar", "circumpolar"]:
    """Label a trajectory transpolar (stopped at the pole guard) or circumpolar."""
    return "circumpolar" if traj.t_stop is None else "transpolar"
