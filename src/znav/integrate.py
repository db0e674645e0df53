"""Adaptive geodesic integration with dense output and pole monitoring.

Embedded Dormand-Prince 5(4) pair with PI step-size control.  Accepted
steps are resampled onto a uniform output grid by cubic Hermite
interpolation (positions and velocities at both step ends).  The chart
breaks down at the poles, so integration halts with a pole_proximity
record instead of switching charts; velocity norms are monitored, never
re-normalized, making conservation drift the primary accuracy
diagnostic.
"""
import math
from dataclasses import dataclass, field

from znav.control import initial_state
from znav.errors import PoleSingularity
from znav.spheroid import NavState, Spheroid, SurfacePoint, TangentVector
from znav.spray import MetricKind, RhsFn, make_rhs
from znav.wind import WindField

# Dormand-Prince 5(4) tableau (FSAL: stage 7 is the next step's stage 1).
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# Difference between 5th-order weights and the embedded 4th-order ones.
_E = (
    71 / 57600,
    0.0,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances, horizon and output grid for geodesic integration.

    The max_step default keeps accepted steps at the sampling interval
    so the cubic-Hermite resampling error stays below the conservation
    budgets; raise it for quick, lower-fidelity runs.
    """

    t_end: float
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_step: float = 0.01
    sample_dt: float = 0.01
    pole_eps: float = 1e-6

    def __post_init__(self):
        if not 0 < self.t_end < math.inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if not self.max_step > 0:  # inf is allowed: no step cap
            raise ValueError(f"max_step must be positive, got {self.max_step}")
        if not 0 < self.sample_dt <= self.t_end:
            raise ValueError(
                f"sample_dt must be in (0, t_end], got {self.sample_dt}"
            )
        if not 0 < self.pole_eps < 0.1:
            raise ValueError(f"pole_eps must be in (0, 0.1), got {self.pole_eps}")


@dataclass
class Trajectory:
    """Uniformly sampled geodesic with a termination record.

    samples holds (t, NavState) pairs with strictly increasing t; the
    first sample is the initial state at t = 0.  phi values accumulate
    (no wrapping) so winding counts are recoverable.
    """

    samples: list[tuple[float, NavState]]
    termination: str  # "completed" | "pole_proximity" | "step_failure"
    kind: str = ""
    events: list[str] = field(default_factory=list)

    def times(self) -> list[float]:
        return [t for t, _ in self.samples]

    def channel(self, name: str) -> list[float]:
        """One raw coordinate channel: phi, theta, phi_dot or theta_dot."""
        pick = {
            "phi": lambda s: s.point.phi,
            "theta": lambda s: s.point.theta,
            "phi_dot": lambda s: s.vel.u,
            "theta_dot": lambda s: s.vel.v,
        }[name]
        return [pick(s) for _, s in self.samples]

    def final_state(self) -> NavState:
        return self.samples[-1][1]


def _initial_step(f0, y0, cfg: IntegratorConfig) -> float:
    sc = [cfg.abs_tol + cfg.rel_tol * abs(y0[i]) for i in range(4)]
    d0 = math.sqrt(sum((y0[i] / sc[i]) ** 2 for i in range(4)) / 4)
    d1 = math.sqrt(sum((f0[i] / sc[i]) ** 2 for i in range(4)) / 4)
    if not (math.isfinite(d0) and math.isfinite(d1)) or d0 < 1e-5 or d1 < 1e-5:
        h = 1e-6
    else:
        h = 1e-2 * d0 / d1
    return min(h, cfg.t_end, cfg.max_step)


def integrate(
    rhs: RhsFn, s0: NavState, cfg: IntegratorConfig, kind: str = ""
) -> Trajectory:
    """Integrate accelerations rhs from s0 over [0, t_end].

    rhs maps (phi, theta, phi_dot, theta_dot) to the two accelerations.
    The trajectory is sampled at multiples of cfg.sample_dt; an early
    pole approach or step underflow truncates the sample list and is
    recorded in the termination tag.

    Raises:
        ValueError: a component of s0 is not finite.
        PoleSingularity: the initial state itself violates the guard band.
    """
    p1, q1, u1, v1 = s0.point.phi, s0.point.theta, s0.vel.u, s0.vel.v
    if not all(map(math.isfinite, (p1, q1, u1, v1))):
        raise ValueError(f"initial state must be finite, got {s0}")
    if not (cfg.pole_eps < q1 < math.pi - cfg.pole_eps):
        raise PoleSingularity(
            f"initial colatitude {q1} inside the polar guard band"
        )

    (
        _,
        (a21,),
        (a31, a32),
        (a41, a42, a43),
        (a51, a52, a53, a54),
        (a61, a62, a63, a64, a65),
        (a71, _, a73, a74, a75, a76),
    ) = _A
    e1, _, e3, e4, e5, e6, e7 = _E
    rel_tol, abs_tol, max_step = cfg.rel_tol, cfg.abs_tol, cfg.max_step
    t_end, sample_dt = cfg.t_end, cfg.sample_dt
    theta_lo, theta_hi = cfg.pole_eps, math.pi - cfg.pole_eps

    # Stage n (1..7) evaluates rhs at phi = pn, theta = qn, phi_dot = un,
    # theta_dot = vn, giving the accelerations dun, dvn; its derivative
    # k_n is (un, vn, dun, dvn).  Stage 1 is the current state, and its
    # accelerations are the previous step's stage 7 ones (FSAL).
    du1, dv1 = rhs(p1, q1, u1, v1)
    t = 0.0
    h = _initial_step((u1, v1, du1, dv1), (p1, q1, u1, v1), cfg)

    n_grid = int(math.floor(t_end / sample_dt + 1e-9))
    samples: list[tuple[float, NavState]] = [(0.0, s0)]
    next_idx = 1
    events: list[str] = []
    err_prev = 1e-4
    # completion window wider than the underflow floor, so a shrunken
    # final step cannot misreport an essentially finished run
    t_final = t_end - 1e-12 * max(1.0, t_end)

    while t < t_final:
        h = min(h, max_step, t_end - t)
        if h < 1e-14 * max(1.0, abs(t)):
            events.append(f"step underflow at t={t}")
            return Trajectory(samples, "step_failure", kind, events)

        # Each sum runs left to right over the tableau row, the zero
        # weights _A[6][1] and _E[1] left out: the float operations of
        # the list-form loop in tests/dp5_reference.py, whose trajectories
        # the tests require to match bit for bit.
        try:
            p2 = p1 + h * (a21 * u1)
            q2 = q1 + h * (a21 * v1)
            u2 = u1 + h * (a21 * du1)
            v2 = v1 + h * (a21 * dv1)
            du2, dv2 = rhs(p2, q2, u2, v2)

            p3 = p1 + h * (a31 * u1 + a32 * u2)
            q3 = q1 + h * (a31 * v1 + a32 * v2)
            u3 = u1 + h * (a31 * du1 + a32 * du2)
            v3 = v1 + h * (a31 * dv1 + a32 * dv2)
            du3, dv3 = rhs(p3, q3, u3, v3)

            p4 = p1 + h * (a41 * u1 + a42 * u2 + a43 * u3)
            q4 = q1 + h * (a41 * v1 + a42 * v2 + a43 * v3)
            u4 = u1 + h * (a41 * du1 + a42 * du2 + a43 * du3)
            v4 = v1 + h * (a41 * dv1 + a42 * dv2 + a43 * dv3)
            du4, dv4 = rhs(p4, q4, u4, v4)

            p5 = p1 + h * (a51 * u1 + a52 * u2 + a53 * u3 + a54 * u4)
            q5 = q1 + h * (a51 * v1 + a52 * v2 + a53 * v3 + a54 * v4)
            u5 = u1 + h * (a51 * du1 + a52 * du2 + a53 * du3 + a54 * du4)
            v5 = v1 + h * (a51 * dv1 + a52 * dv2 + a53 * dv3 + a54 * dv4)
            du5, dv5 = rhs(p5, q5, u5, v5)

            p6 = p1 + h * (a61 * u1 + a62 * u2 + a63 * u3 + a64 * u4 + a65 * u5)
            q6 = q1 + h * (a61 * v1 + a62 * v2 + a63 * v3 + a64 * v4 + a65 * v5)
            u6 = u1 + h * (a61 * du1 + a62 * du2 + a63 * du3 + a64 * du4 + a65 * du5)
            v6 = v1 + h * (a61 * dv1 + a62 * dv2 + a63 * dv3 + a64 * dv4 + a65 * dv5)
            du6, dv6 = rhs(p6, q6, u6, v6)

            # stage 7 input is the 5th-order solution
            p7 = p1 + h * (a71 * u1 + a73 * u3 + a74 * u4 + a75 * u5 + a76 * u6)
            q7 = q1 + h * (a71 * v1 + a73 * v3 + a74 * v4 + a75 * v5 + a76 * v6)
            u7 = u1 + h * (a71 * du1 + a73 * du3 + a74 * du4 + a75 * du5 + a76 * du6)
            v7 = v1 + h * (a71 * dv1 + a73 * dv3 + a74 * dv4 + a75 * dv5 + a76 * dv6)
            du7, dv7 = rhs(p7, q7, u7, v7)
        except PoleSingularity:
            h *= 0.5
            if h < 1e-12 * max(1.0, abs(t)):
                events.append(f"pole approach at t={t}")
                return Trajectory(samples, "pole_proximity", kind, events)
            continue

        ep = h * (e1 * u1 + e3 * u3 + e4 * u4 + e5 * u5 + e6 * u6 + e7 * u7)
        eq = h * (e1 * v1 + e3 * v3 + e4 * v4 + e5 * v5 + e6 * v6 + e7 * v7)
        eu = h * (e1 * du1 + e3 * du3 + e4 * du4 + e5 * du5 + e6 * du6 + e7 * du7)
        ev = h * (e1 * dv1 + e3 * dv3 + e4 * dv4 + e5 * dv5 + e6 * dv6 + e7 * dv7)
        err = math.sqrt(
            (
                (ep / (abs_tol + rel_tol * max(abs(p1), abs(p7)))) ** 2
                + (eq / (abs_tol + rel_tol * max(abs(q1), abs(q7)))) ** 2
                + (eu / (abs_tol + rel_tol * max(abs(u1), abs(u7)))) ** 2
                + (ev / (abs_tol + rel_tol * max(abs(v1), abs(v7)))) ** 2
            )
            / 4
        )

        if not math.isfinite(err):
            h *= 0.1
            continue
        if err > 1.0:
            h *= max(_MIN_FACTOR, _SAFETY * err ** -0.2)
            continue

        # Accepted: emit grid samples inside (t, t+h] by cubic Hermite
        # interpolation between stage 1 and stage 7.
        while next_idx <= n_grid:
            ts = next_idx * sample_dt
            if ts > t + h + 1e-14 * max(1.0, ts):
                break
            tau = min(max((ts - t) / h, 0.0), 1.0)
            tau2 = tau * tau
            tau3 = tau2 * tau
            c1 = 2 * tau3 - 3 * tau2 + 1
            d1 = (tau3 - 2 * tau2 + tau) * h
            c7 = -2 * tau3 + 3 * tau2
            d7 = (tau3 - tau2) * h
            q = c1 * q1 + d1 * v1 + c7 * q7 + d7 * v7
            if not (theta_lo < q < theta_hi):
                events.append(f"pole approach at t={ts}")
                return Trajectory(samples, "pole_proximity", kind, events)
            samples.append((ts, NavState(
                SurfacePoint(c1 * p1 + d1 * u1 + c7 * p7 + d7 * u7, q),
                TangentVector(
                    c1 * u1 + d1 * du1 + c7 * u7 + d7 * du7,
                    c1 * v1 + d1 * dv1 + c7 * v7 + d7 * dv7,
                ),
            )))
            next_idx += 1
        if not (theta_lo < q7 < theta_hi):
            events.append(f"pole approach at t={t + h}")
            return Trajectory(samples, "pole_proximity", kind, events)

        t += h
        p1, q1, u1, v1, du1, dv1 = p7, q7, u7, v7, du7, dv7
        err = max(err, 1e-16)  # exactly-linear solutions give a zero estimate
        fac = _SAFETY * err ** -0.14 * err_prev ** 0.08
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, fac))
        err_prev = max(err, 1e-4)

    if samples[-1][0] < t_end - 1e-9 * max(1.0, t_end):
        # grid did not land on t_end; append the final state explicitly
        samples.append((t_end, NavState(SurfacePoint(p1, q1), TangentVector(u1, v1))))
    return Trajectory(samples, "completed", kind, events)


@dataclass
class FamilyMember:
    """One heading of a fan: its trajectory, or the error that stopped it."""

    heading: float
    trajectory: Trajectory | None
    error: Exception | None = None


def integrate_family(
    sph: Spheroid,
    wind: WindField | None,
    start: SurfacePoint,
    headings: list[float],
    kind: MetricKind,
    cfg: IntegratorConfig,
) -> list[FamilyMember]:
    """Integrate one geodesic per initial heading from a common start.

    Members are seeded by control.initial_state and integrated one after
    another in heading order.  Failures are carried per member.

    Raises:
        ValueError: empty heading list.
    """
    if not headings:
        raise ValueError("heading fan must not be empty")

    rhs = make_rhs(kind, sph, wind)
    members = []
    for heading in headings:
        try:
            s0 = initial_state(sph, wind, kind, start, heading)
            members.append(FamilyMember(heading, integrate(rhs, s0, cfg, kind=kind)))
        except Exception as exc:  # carried per member, no global abort
            members.append(FamilyMember(heading, None, exc))
    return members


def classify_path(traj: Trajectory) -> str:
    """Label a trajectory transpolar (reached the pole guard) or circumpolar.

    Raises:
        ValueError: trajectory ended in step_failure.
    """
    if traj.termination == "pole_proximity":
        return "transpolar"
    if traj.termination == "completed":
        return "circumpolar"
    raise ValueError(f"cannot classify a {traj.termination} trajectory")
