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


def _hermite(y0, f0, y1, f1, h: float, tau: float) -> list[float]:
    """Cubic Hermite value at fraction tau of a step of size h."""
    t2 = tau * tau
    t3 = t2 * tau
    a = 2 * t3 - 3 * t2 + 1
    b = t3 - 2 * t2 + tau
    c = -2 * t3 + 3 * t2
    d = t3 - t2
    return [
        a * y0[i] + b * h * f0[i] + c * y1[i] + d * h * f1[i] for i in range(4)
    ]


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
        PoleSingularity: the initial state itself violates the guard band.
    """
    if not (cfg.pole_eps < s0.point.theta < math.pi - cfg.pole_eps):
        raise PoleSingularity(
            f"initial colatitude {s0.point.theta} inside the polar guard band"
        )

    def f(y):
        acc = rhs(y[0], y[1], y[2], y[3])
        return [y[2], y[3], acc[0], acc[1]]

    y = [s0.point.phi, s0.point.theta, s0.vel.u, s0.vel.v]
    k1 = f(y)
    t = 0.0
    h = _initial_step(k1, y, cfg)

    n_grid = int(math.floor(cfg.t_end / cfg.sample_dt + 1e-9))
    samples: list[tuple[float, NavState]] = [(0.0, s0)]
    next_idx = 1
    events: list[str] = []
    err_prev = 1e-4
    # completion window wider than the underflow floor, so a shrunken
    # final step cannot misreport an essentially finished run
    t_final = cfg.t_end - 1e-12 * max(1.0, cfg.t_end)

    def state_of(yv) -> NavState:
        return NavState(SurfacePoint(yv[0], yv[1]), TangentVector(yv[2], yv[3]))

    while t < t_final:
        h = min(h, cfg.max_step, cfg.t_end - t)
        if h < 1e-14 * max(1.0, abs(t)):
            events.append(f"step underflow at t={t}")
            return Trajectory(samples, "step_failure", kind, events)

        pole_hit = False
        try:
            k = [k1]
            for i in range(1, 7):
                yi = [
                    y[j] + h * sum(_A[i][m] * k[m][j] for m in range(i))
                    for j in range(4)
                ]
                k.append(f(yi))
            y_new = yi  # stage 7 input is the 5th-order solution
            k_new = k[6]
        except PoleSingularity:
            pole_hit = True

        if pole_hit:
            h *= 0.5
            if h < 1e-12 * max(1.0, abs(t)):
                events.append(f"pole approach at t={t}")
                return Trajectory(samples, "pole_proximity", kind, events)
            continue

        err = 0.0
        for j in range(4):
            e = h * sum(_E[m] * k[m][j] for m in range(7))
            sc = cfg.abs_tol + cfg.rel_tol * max(abs(y[j]), abs(y_new[j]))
            err += (e / sc) ** 2
        err = math.sqrt(err / 4)

        if not math.isfinite(err):
            h *= 0.1
            continue
        if err > 1.0:
            h *= max(_MIN_FACTOR, _SAFETY * err ** -0.2)
            continue

        # Accepted: emit grid samples inside (t, t+h] by Hermite interpolation.
        stop = None
        while next_idx <= n_grid:
            ts = next_idx * cfg.sample_dt
            if ts > t + h + 1e-14 * max(1.0, ts):
                break
            tau = min(max((ts - t) / h, 0.0), 1.0)
            yi = _hermite(y, k1, y_new, k_new, h, tau)
            if not (cfg.pole_eps < yi[1] < math.pi - cfg.pole_eps):
                stop = ts
                break
            samples.append((ts, state_of(yi)))
            next_idx += 1
        if stop is not None:
            events.append(f"pole approach at t={stop}")
            return Trajectory(samples, "pole_proximity", kind, events)
        if not (cfg.pole_eps < y_new[1] < math.pi - cfg.pole_eps):
            events.append(f"pole approach at t={t + h}")
            return Trajectory(samples, "pole_proximity", kind, events)

        t += h
        y = y_new
        k1 = k_new
        err = max(err, 1e-16)  # exactly-linear solutions give a zero estimate
        fac = _SAFETY * err ** -0.14 * err_prev ** 0.08
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, fac))
        err_prev = max(err, 1e-4)

    if samples[-1][0] < cfg.t_end - 1e-9 * max(1.0, cfg.t_end):
        # grid did not land on t_end; append the final state explicitly
        samples.append((cfg.t_end, state_of(y)))
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
