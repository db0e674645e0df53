"""Adaptive integration: accuracy, conservation, families, classification."""
import math

import pytest

from znav import (
    F_value,
    IntegratorConfig,
    NavState,
    PoleSingularity,
    RandersData,
    Spheroid,
    SurfacePoint,
    TangentVector,
    Trajectory,
    alpha_term,
    clairaut_invariant,
    classify_path,
    custom_wind,
    h_norm,
    initial_state,
    initial_state_alpha,
    initial_state_randers,
    initial_state_riemannian,
    integrate,
    integrate_family,
    make_rhs,
    rotation_wind,
)
from tests.conftest import ROTATION_RATE
from tests.dp5_reference import integrate_reference


def counting(rhs, calls: list[int]):
    """rhs that adds one to calls[0] per evaluation."""

    def counted(phi, theta, u, v):
        calls[0] += 1
        return rhs(phi, theta, u, v)

    return counted


def run(sph, wind, kind, heading, cfg) -> Trajectory:
    start = SurfacePoint(0.0, math.pi / 2)
    if kind == "h" or wind is None:
        s0 = initial_state_riemannian(sph, start, heading)
    elif kind == "alpha":
        s0 = initial_state_alpha(sph, wind, start, heading)
    else:
        s0 = initial_state_randers(sph, wind, start, heading)
    return integrate(make_rhs(kind, sph, wind), s0, cfg, kind=kind)


class TestIntegrate:
    def test_great_circle_returns_to_start(self, sphere):
        traj = run(sphere, None, "h", 0.0, IntegratorConfig(t_end=2 * math.pi))
        t_last, final = traj.samples[-1]
        assert t_last == 2 * math.pi
        assert abs(final.point.phi - 2 * math.pi) < 1e-7
        assert abs(final.point.theta - math.pi / 2) < 1e-9
        assert traj.termination == "completed"

    def test_sample_grid_row_count(self, oblate, rot_wind):
        traj = run(oblate, rot_wind, "randers", math.pi / 3,
                   IntegratorConfig(t_end=7.0, sample_dt=0.01))
        assert len(traj.samples) == 701
        ts = traj.times()
        assert ts[0] == 0.0
        assert all(t2 > t1 for t1, t2 in zip(ts, ts[1:]))

    def test_first_sample_is_initial_state(self, oblate, rot_wind):
        s0 = initial_state_randers(
            oblate, rot_wind, SurfacePoint(0.0, math.pi / 2), math.pi / 3
        )
        traj = integrate(make_rhs("randers", oblate, rot_wind), s0,
                         IntegratorConfig(t_end=1.0))
        assert traj.samples[0] == (0.0, s0)

    def test_h_norm_preserved_at_defaults(self, oblate):
        traj = run(oblate, None, "h", math.pi / 3, IntegratorConfig(t_end=3.0))
        drift = max(abs(h_norm(oblate, s.point, s.vel) - 1.0) for _, s in traj.samples)
        assert drift < 1e-8

    def test_clairaut_constant_at_defaults(self, oblate):
        traj = run(oblate, None, "h", math.pi / 3, IntegratorConfig(t_end=3.0))
        first = clairaut_invariant(oblate, traj.samples[0][1])
        drift = max(abs(clairaut_invariant(oblate, s) - first) for _, s in traj.samples)
        assert drift < 1e-8

    def test_conservation_harness_all_metrics(self, oblate, rot_wind):
        cfg = IntegratorConfig(t_end=10.0)
        rd = RandersData(oblate, rot_wind)
        th = run(oblate, None, "h", math.pi / 3, cfg)
        ta = run(oblate, rot_wind, "alpha", math.pi / 3, cfg)
        tf = run(oblate, rot_wind, "randers", math.pi / 3, cfg)
        assert max(abs(h_norm(oblate, s.point, s.vel) - 1) for _, s in th.samples) < 1e-6
        assert max(abs(alpha_term(rd, s.point, s.vel) - 1) for _, s in ta.samples) < 1e-6
        assert max(abs(F_value(rd, s.point, s.vel) - 1) for _, s in tf.samples) < 1e-6

    def test_wind_carries_the_unperturbed_path(self, oblate, rot_wind):
        """Strongest end-to-end oracle: for the rotation wind the
        time-optimal path is the unperturbed one dragged by the flow,
        so phi_F(t) = phi_h(t) - c t and theta is untouched."""
        cfg = IntegratorConfig(t_end=7.0)
        th = run(oblate, None, "h", math.pi / 3, cfg)
        tf = run(oblate, rot_wind, "randers", math.pi / 3, cfg)
        worst_phi = worst_theta = 0.0
        for (t1, s1), (t2, s2) in zip(th.samples, tf.samples):
            worst_phi = max(
                worst_phi, abs(s2.point.phi - (s1.point.phi - ROTATION_RATE * t1))
            )
            worst_theta = max(worst_theta, abs(s2.point.theta - s1.point.theta))
        assert worst_phi < 1e-6
        assert worst_theta < 1e-6

    def test_determinism(self, oblate, rot_wind):
        cfg = IntegratorConfig(t_end=2.0)
        t1 = run(oblate, rot_wind, "randers", math.pi / 3, cfg)
        t2 = run(oblate, rot_wind, "randers", math.pi / 3, cfg)
        assert t1.samples == t2.samples

    def test_convergence_under_tightening(self, oblate, rot_wind):
        ref = run(oblate, rot_wind, "randers", math.pi / 3,
                  IntegratorConfig(t_end=3.0, rel_tol=1e-13, abs_tol=1e-14,
                                   max_step=0.005))
        final_ref = ref.final_state()
        errs = []
        for rel in (1e-6, 5e-7, 2.5e-7, 1.25e-7):
            traj = run(oblate, rot_wind, "randers", math.pi / 3,
                       IntegratorConfig(t_end=3.0, rel_tol=rel, abs_tol=1e-14,
                                        max_step=1.0))
            final = traj.final_state()
            errs.append(
                abs(final.point.phi - final_ref.point.phi)
                + abs(final.point.theta - final_ref.point.theta)
            )
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))

    def test_sphere_equatorial_reduction(self, sphere):
        traj = run(sphere, None, "h", 0.0, IntegratorConfig(t_end=2 * math.pi))
        assert all(s.point.theta == math.pi / 2 for _, s in traj.samples)
        assert traj.final_state().point.phi == pytest.approx(2 * math.pi, abs=1e-7)

    def test_initial_state_in_guard_band_rejected(self, oblate):
        s0 = initial_state_riemannian(oblate, SurfacePoint(0.0, 1.0), 0.0)
        bad = type(s0)(SurfacePoint(0.0, 1e-9), s0.vel)
        with pytest.raises(PoleSingularity):
            integrate(make_rhs("h", oblate, None), bad, IntegratorConfig(t_end=1.0))

    def test_step_failure_on_non_finite_rhs(self, oblate):
        def broken(phi, theta, u, v):
            return (math.nan, math.nan)

        s0 = initial_state_riemannian(oblate, SurfacePoint(0.0, math.pi / 2), 0.0)
        traj = integrate(broken, s0, IntegratorConfig(t_end=1.0))
        assert traj.termination == "step_failure"
        assert traj.samples[0][0] == 0.0

    @pytest.mark.parametrize(
        "s0",
        [
            # a NaN heading gives a NaN velocity
            initial_state_randers(Spheroid(0.75), rotation_wind(0.5),
                                  SurfacePoint(0.0, math.pi / 2), math.nan),
            NavState(SurfacePoint(0.0, math.nan), TangentVector(1.0, 0.0)),
            NavState(SurfacePoint(math.inf, 1.0), TangentVector(1.0, 0.0)),
            NavState(SurfacePoint(0.0, 1.0), TangentVector(1.0, -math.inf)),
        ],
        ids=["nan-heading", "nan-theta", "inf-phi", "inf-v"],
    )
    def test_non_finite_initial_state_rejected(self, oblate, s0):
        # before stepping, so a NaN is never reported as a pole approach
        with pytest.raises(ValueError, match="finite"):
            integrate(make_rhs("randers", oblate, rotation_wind(0.5)), s0,
                      IntegratorConfig(t_end=1.0), kind="randers")

    @pytest.mark.parametrize("max_step, calls", [(0.01, 4273), (math.inf, 2233)])
    def test_benchmark_path_rhs_calls(self, oblate, rot_wind, max_step, calls):
        # machine-independent cost guard on the benchmark randers path
        s0 = initial_state_randers(
            oblate, rot_wind, SurfacePoint(0.0, math.pi / 2), math.pi / 3
        )
        got = [0]
        traj = integrate(counting(make_rhs("randers", oblate, rot_wind), got), s0,
                         IntegratorConfig(t_end=7.0, max_step=max_step))
        assert traj.termination == "completed"
        assert got[0] == calls

    def test_custom_wind_numeric_route_conserves_travel_time(self, oblate):
        # a genuinely two-component mild wind exercises the navigation
        # spray end to end; unit travel-time value must persist
        breeze = custom_wind(
            lambda phi, theta: (0.25 * math.cos(theta), 0.15 * math.sin(theta))
        )
        rd = RandersData(oblate, breeze)
        s0 = initial_state_randers(
            oblate, breeze, SurfacePoint(0.0, math.pi / 2), math.pi / 3
        )
        traj = integrate(make_rhs("randers", oblate, breeze), s0,
                         IntegratorConfig(t_end=1.0), kind="randers")
        assert traj.termination == "completed"
        drift = max(abs(F_value(rd, s.point, s.vel) - 1.0) for _, s in traj.samples)
        assert drift < 1e-6

    @pytest.mark.parametrize("theta0, heading", [(0.458, 1.604), (2.742, 4.734)])
    def test_custom_wind_near_pole_conserves_travel_time(self, oblate, theta0, heading):
        # these tracks pass within 2e-4 and 5e-3 rad of a pole, where a
        # finite-difference stencil in theta of the Lagrangian would span
        # the pole itself
        breeze = custom_wind(
            lambda phi, theta: (-0.5 + 0.1 * math.cos(phi),
                                0.15 * math.sin(phi) * math.sin(theta))
        )
        rd = RandersData(oblate, breeze)
        s0 = initial_state_randers(oblate, breeze, SurfacePoint(0.0, theta0), heading)
        traj = integrate(make_rhs("randers", oblate, breeze), s0,
                         IntegratorConfig(t_end=1.0), kind="randers")
        assert traj.termination == "completed"
        drift = max(abs(F_value(rd, s.point, s.vel) - 1.0) for _, s in traj.samples)
        assert drift <= 1e-6


BENCH_CUSTOM_WIND = custom_wind(
    lambda phi, theta: (-0.5 + 0.1 * math.cos(phi), 0.15 * math.sin(phi) * math.sin(theta))
)


class TestReferenceStepping:
    """The unrolled stage loop against the list-comprehension reference."""

    @pytest.mark.parametrize("max_step", [0.01, math.inf])
    @pytest.mark.parametrize("wind_name", ["rotation", "custom", "none"])
    @pytest.mark.parametrize("kind", ["h", "alpha", "randers"])
    def test_identical_trajectories(self, oblate, rot_wind, kind, wind_name, max_step):
        wind = {"rotation": rot_wind, "custom": BENCH_CUSTOM_WIND, "none": None}[wind_name]
        rhs = make_rhs(kind, oblate, wind)
        cfg = IntegratorConfig(t_end=2.0, max_step=max_step)
        terminations = set()
        for heading in (math.pi / 3, math.pi / 2, 4.0):
            s0 = initial_state(oblate, wind, kind, SurfacePoint(0.0, math.pi / 2), heading)
            got_calls, want_calls = [0], [0]
            got = integrate(counting(rhs, got_calls), s0, cfg, kind=kind)
            want = integrate_reference(counting(rhs, want_calls), s0, cfg, kind=kind)
            assert got.samples == want.samples
            assert got.termination == want.termination
            assert got.events == want.events
            assert got_calls == want_calls
            terminations.add(got.termination)
        assert "completed" in terminations
        # due north reaches the pole guard on every flow but the
        # travel-time one under the custom wind, which turns back short of it
        if (kind, wind_name) != ("randers", "custom"):
            assert "pole_proximity" in terminations

    def test_identical_step_failure(self, oblate):
        def broken(phi, theta, u, v):
            return (math.nan, math.nan)

        s0 = initial_state_riemannian(oblate, SurfacePoint(0.0, math.pi / 2), 0.0)
        cfg = IntegratorConfig(t_end=1.0)
        got = integrate(broken, s0, cfg)
        want = integrate_reference(broken, s0, cfg)
        assert (got.samples, got.termination, got.events) == (
            want.samples, want.termination, want.events
        )


class TestPoleHandling:
    def test_due_north_hits_guard(self, oblate):
        traj = run(oblate, None, "h", math.pi / 2, IntegratorConfig(t_end=3.0))
        assert traj.termination == "pole_proximity"
        assert classify_path(traj) == "transpolar"
        eps = IntegratorConfig(t_end=3.0).pole_eps
        assert all(eps < s.point.theta < math.pi - eps for _, s in traj.samples)

    def test_circumpolar_benchmark_individual(self, oblate, rot_wind):
        traj = run(oblate, rot_wind, "randers", math.pi / 3,
                   IntegratorConfig(t_end=25.0))
        assert traj.termination == "completed"
        assert classify_path(traj) == "circumpolar"
        assert all(0.0 < s.point.theta < math.pi for _, s in traj.samples)

    def test_equatorial_path_is_circumpolar(self, oblate):
        traj = run(oblate, None, "h", 0.0, IntegratorConfig(t_end=3.0))
        assert classify_path(traj) == "circumpolar"

    def test_step_failure_not_classifiable(self, oblate):
        traj = Trajectory(samples=[], termination="step_failure")
        with pytest.raises(ValueError):
            classify_path(traj)


class TestIntegrateFamily:
    def test_fan_order_and_count(self, oblate, rot_wind):
        headings = [k * math.pi / 8 for k in range(16)]
        members = integrate_family(
            oblate, rot_wind, SurfacePoint(0.0, math.pi / 2), headings,
            "randers", IntegratorConfig(t_end=1.0),
        )
        assert [m.heading for m in members] == headings
        assert all(m.trajectory is not None for m in members)

    def test_long_fan_classification_mix(self, oblate, rot_wind):
        headings = [k * math.pi / 4 for k in range(8)]
        members = integrate_family(
            oblate, rot_wind, SurfacePoint(0.0, math.pi / 2), headings,
            "randers", IntegratorConfig(t_end=50.0),
        )
        labels = [classify_path(m.trajectory) for m in members]
        assert "transpolar" in labels
        assert "circumpolar" in labels

    def test_member_errors_carried(self, oblate):
        # wind is too strong at the start point: every member fails to
        # seed, and the failures ride along instead of aborting the fan
        gale = custom_wind(lambda phi, theta: (1.5, 0.0))
        members = integrate_family(
            oblate, gale, SurfacePoint(0.0, math.pi / 2), [0.0, 1.0],
            "randers", IntegratorConfig(t_end=1.0),
        )
        assert all(m.trajectory is None for m in members)
        assert all(m.error is not None for m in members)

    def test_empty_fan_rejected(self, oblate, rot_wind):
        with pytest.raises(ValueError):
            integrate_family(oblate, rot_wind, SurfacePoint(0.0, math.pi / 2),
                             [], "randers", IntegratorConfig(t_end=1.0))


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t_end": 0.0},
            {"t_end": 1.0, "rel_tol": 0.0},
            {"t_end": 1.0, "abs_tol": -1.0},
            {"t_end": 1.0, "sample_dt": 2.0},
            {"t_end": 1.0, "max_step": 0.0},
            {"t_end": 1.0, "pole_eps": 0.5},
            {"t_end": math.inf},
            {"t_end": 1.0, "rel_tol": math.nan},
            {"t_end": 1.0, "abs_tol": math.nan},
            {"t_end": 1.0, "max_step": math.nan},
        ],
    )
    def test_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorConfig(**kwargs)
