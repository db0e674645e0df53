"""Reference DOP853 stepping: the list-comprehension form.

Each stage is built as a list of left-to-right sums over the nonzero
weights of its tableau row, and the accelerations come through a
wrapper returning [u, v, acc_u, acc_v].  The tableau is scipy's
(scipy.integrate._ivp.dop853_coefficients), so a mistyped literal in
znav.integrate changes that module's trajectories and not these.
znav.integrate.integrate unrolls this loop into scalar arithmetic that
performs the same float operations in the same order, so the two must
produce identical sample rows, pole-stop times and step counts, and
raise the same step-underflow error after the same rhs calls.
The starting step and the step-size controller are written out here
once more, with their own constants.  The legs in the polar caps run
the same way, through the cap helpers of znav.integrate: the chart
conversions, the wrapped rhs, the chord gate, the closest-approach
guard test and the unwrapping of phi.  Test-only.
"""
import math

from scipy.integrate._ivp import dop853_coefficients as _dop853

from znav.errors import NavigationError, PoleSingularity
from znav.integrate import (
    CAP_IN, CAP_OUT, IntegratorConfig, StepStats, Trajectory, _chord_near_pole, _from_cap,
    _guard_test, _polar_rhs, _to_cap, _unwrap,
)
from znav.spheroid import POLE_GUARD, NavState, require_off_pole
from znav.spray import RhsFn


def _nonzero(row, n: int) -> list[tuple[int, float]]:
    """(stage index, weight) for the nonzero weights among the first n."""
    return [(m, float(row[m])) for m in range(n) if row[m] != 0]


# 0-based stages: k[0] is the current derivative, k[12] that of the
# 8th-order solution (the next step's k[0]), k[13..15] the dense-output ones.
_STAGES = [_nonzero(_dop853.A[s], s) for s in range(1, 13)]
_EXTRA = [_nonzero(_dop853.A[s], s) for s in range(13, 16)]
_E5 = _nonzero(_dop853.E5, 12)
_E3 = _nonzero(_dop853.E3, 12)
_D = [_nonzero(row, 16) for row in _dop853.D]

_SAFETY = 0.9
_FAC_MIN = 1 / 6
_FAC_MAX = 3.0
_BETA = 0.04
_EXPO1 = 0.125 - 0.2 * _BETA


def _dot(weights, k, j: int) -> float:
    """sum of w * k[m][j] over weights, left to right (never sum(), whose
    float rounding depends on the Python version)."""
    (m, w), *rest = weights
    acc = w * k[m][j]
    for m, w in rest:
        acc += w * k[m][j]
    return acc


def _dense_rows(y0, y1, k, h: float) -> list[list[float]]:
    """Per component the continuous-extension rows [y0, f0, ..., f6]."""
    rows = []
    for j in range(4):
        f0 = y1[j] - y0[j]
        f1 = h * k[0][j] - f0
        f2 = f0 - h * k[12][j] - f1
        rows.append([y0[j], f0, f1, f2, *(h * _dot(d, k, j) for d in _D)])
    return rows


def _dense(rows, tau: float) -> list[float]:
    tau1 = 1.0 - tau
    return [
        y + tau * (f0 + tau1 * (f1 + tau * (f2 + tau1 * (
            f3 + tau * (f4 + tau1 * (f5 + tau * f6))))))
        for y, f0, f1, f2, f3, f4, f5, f6 in rows
    ]


def _rms(x, sc) -> float:
    a, b, c, d = (x[i] / sc[i] for i in range(4))
    return math.sqrt((a * a + b * b + c * c + d * d) / 4)


def _initial_step(f, y0, f0, cfg: IntegratorConfig) -> float:
    sc = [cfg.abs_tol + cfg.rel_tol * abs(y0[i]) for i in range(4)]
    d0 = _rms(y0, sc)
    d1 = _rms(f0, sc)
    if not (math.isfinite(d0) and math.isfinite(d1)) or d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 1e-2 * d0 / d1
    h0 = min(h0, cfg.t_end)
    if not math.isfinite(d1):
        return h0
    try:
        f1 = f([y0[i] + h0 * f0[i] for i in range(4)])
    except PoleSingularity:
        return h0
    d2 = _rms([f1[i] - f0[i] for i in range(4)], sc) / h0
    if not math.isfinite(d2):
        return h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.125
    return min(100 * h0, h1, cfg.t_end)


def integrate_reference(
    rhs: RhsFn, s0: NavState, cfg: IntegratorConfig, kind: str = ""
) -> Trajectory:
    """Same contract as znav.integrate.integrate for a finite s0."""
    require_off_pole(s0.point.theta)
    calls = 0

    def chart_f(g):
        def f(y):
            nonlocal calls
            calls += 1
            acc = g(y[0], y[1], y[2], y[3])
            return [y[2], y[3], acc[0], acc[1]]
        return f

    y = [s0.point.phi, s0.point.theta, s0.vel.u, s0.vel.v]
    t = 0.0
    n_grid = int(math.floor(cfg.t_end / cfg.sample_dt + 1e-9))
    rows = [(0.0, *y)]
    next_idx = 1
    accepted = rejections = halvings = cap_legs = 0

    def stats() -> StepStats:
        return StepStats(accepted, rejections, halvings, calls, cap_legs)

    t_final = cfg.t_end - 1e-12 * max(1.0, cfg.t_end)
    switch = True
    while switch:
        # one leg per pass, in the spherical chart or a cap's, from its
        # own k1; only the state crosses a chart switch
        cap = not CAP_IN <= y[1] <= math.pi - CAP_IN
        if cap:
            south = y[1] > math.pi - CAP_IN
            phi = y[0]
            branch = [phi]
            f = chart_f(_polar_rhs(rhs, south, branch))
            y = list(_to_cap(south, *y))
            cap_legs += 1
        else:
            f = chart_f(rhs)
        k1 = f(y)
        h = _initial_step(f, y, k1, cfg)
        rejected = False
        facold = 1e-4
        switch = False

        while t < t_final:
            h = min(h, cfg.t_end - t)
            if h < 1e-14 * max(1.0, abs(t)):
                raise NavigationError(f"step underflow at t={t}")

            pole_hit = False
            near = None
            try:
                k = [k1]
                for weights in _STAGES:
                    y_new = [y[j] + h * _dot(weights, k, j) for j in range(4)]
                    k.append(f(y_new))
                # a spherical step that ends in the band is retried like a stage in it
                if not cap and (y_new[1] <= POLE_GUARD or y_new[1] >= math.pi - POLE_GUARD):
                    raise PoleSingularity

                sc = [cfg.abs_tol + cfg.rel_tol * max(abs(y[j]), abs(y_new[j]))
                      for j in range(4)]
                err5 = err3 = 0.0
                for j in range(4):
                    e5 = _dot(_E5, k, j) / sc[j]
                    e3 = _dot(_E3, k, j) / sc[j]
                    err5 += e5 * e5
                    err3 += e3 * e3
                deno = err5 + 0.01 * err3
                if not math.isfinite(deno):
                    h *= 0.1
                    rejections += 1
                    continue
                err = h * err5 / (2.0 * math.sqrt(deno)) if deno else 0.0
                fac11 = err ** _EXPO1
                if err > 1.0:
                    h /= min(_FAC_MAX, fac11 / _SAFETY)
                    rejected = True
                    rejections += 1
                    continue

                ts = next_idx * cfg.sample_dt
                holds_sample = next_idx <= n_grid and ts <= t + h + 1e-14 * max(1.0, ts)
                if cap:
                    near = _chord_near_pole(y[0], y[1], y_new[0], y_new[1])
                if holds_sample or near is not None:
                    for weights in _EXTRA:
                        k.append(f([y[j] + h * _dot(weights, k, j) for j in range(4)]))
            except PoleSingularity:
                pole_hit = True

            if pole_hit:
                h *= 0.5
                halvings += 1
                if h < 1e-12 * max(1.0, abs(t)):
                    return Trajectory(rows, kind, t, stats())
                continue

            dense = _dense_rows(y, y_new, k, h) if holds_sample or near is not None else None
            if cap:
                t_stop = math.inf
                pivot = None
                if near is not None:
                    tau_c, phi_c, tau_in = _guard_test(h, dense, near)
                    if tau_in is not None:
                        t_stop = t + tau_in * h
                    pivot = (tau_c, phi_c)
                while next_idx <= n_grid:
                    ts = next_idx * cfg.sample_dt
                    if ts > t + h + 1e-14 * max(1.0, ts) or ts >= t_stop:
                        break
                    tau = min(max((ts - t) / h, 0.0), 1.0)
                    if pivot is not None and tau > pivot[0]:
                        phi = _unwrap(pivot[1], phi)
                        pivot = None
                    phi, *rest = _from_cap(south, *_dense(dense, tau), phi)
                    rows.append((ts, phi, *rest))
                    next_idx += 1
                if t_stop < math.inf:
                    return Trajectory(rows, kind, t_stop, stats())
                if pivot is not None and pivot[0] <= 1.0:
                    phi = _unwrap(pivot[1], phi)
                phi = branch[0] = _unwrap(math.atan2(y_new[1], y_new[0]), phi)
                switch = y_new[0] * y_new[0] + y_new[1] * y_new[1] > CAP_OUT * CAP_OUT
            else:
                while next_idx <= n_grid:
                    ts = next_idx * cfg.sample_dt
                    if ts > t + h + 1e-14 * max(1.0, ts):
                        break
                    tau = min(max((ts - t) / h, 0.0), 1.0)
                    rows.append((ts, *_dense(dense, tau)))
                    next_idx += 1
                switch = not CAP_IN <= y_new[1] <= math.pi - CAP_IN

            t += h
            accepted += 1
            y = y_new
            k1 = k[12]
            h_new = h / max(_FAC_MIN, min(_FAC_MAX, fac11 / facold ** _BETA / _SAFETY))
            facold = max(err, 1e-4)
            h = min(h_new, h) if rejected else h_new
            rejected = False
            if switch:
                break

        if cap:
            y = list(_from_cap(south, *y, phi))
        switch = switch and t < t_final

    if rows[-1][0] < cfg.t_end - 1e-9 * max(1.0, cfg.t_end):
        rows.append((cfg.t_end, *y))
    return Trajectory(rows, kind, None, stats())
