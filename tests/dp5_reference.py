"""Reference Dormand-Prince stepping: the list-comprehension form.

Each stage is built as a list with sum() over the tableau, and the
accelerations come through a wrapper returning [u, v, acc_u, acc_v].
znav.integrate.integrate unrolls this loop into scalar arithmetic that
performs the same float operations in the same order, so the two must
produce identical samples, events and terminations.  Test-only.
"""
import math

from znav.errors import PoleSingularity
from znav.integrate import IntegratorConfig, Trajectory
from znav.spheroid import NavState, SurfacePoint, TangentVector
from znav.spray import RhsFn

_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
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


def _hermite(y0, f0, y1, f1, h: float, tau: float) -> list[float]:
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


def integrate_reference(
    rhs: RhsFn, s0: NavState, cfg: IntegratorConfig, kind: str = ""
) -> Trajectory:
    """Same contract as znav.integrate.integrate for a finite s0."""
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
            y_new = yi
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
        err = max(err, 1e-16)
        fac = _SAFETY * err ** -0.14 * err_prev ** 0.08
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, fac))
        err_prev = max(err, 1e-4)

    if samples[-1][0] < cfg.t_end - 1e-9 * max(1.0, cfg.t_end):
        samples.append((cfg.t_end, state_of(y)))
    return Trajectory(samples, "completed", kind, events)
