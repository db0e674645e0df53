"""Adaptive integration: accuracy, conservation, families, classification."""
import importlib
import math

import pytest
from hypothesis import example, given, settings, strategies
from scipy.integrate import quad

from znav import (
    F_value,
    IntegratorConfig,
    POLE_GUARD,
    NavState,
    NavigationError,
    NonFiniteState,
    STILL_AIR,
    PoleSingularity,
    RandersData,
    Spheroid,
    StepStats,
    SurfacePoint,
    TangentVector,
    Trajectory,
    alpha_term,
    clairaut_invariant,
    classify_path,
    custom_wind,
    h_norm,
    initial_state,
    initial_state_randers,
    initial_state_riemannian,
    integrate,
    integrate_family,
    make_rhs,
    metric_components,
    rotation_wind,
    track,
)
from znav.integrate import CAP_OUT, MAX_GRID, _from_cap, _guard_test, _initial_step, _to_cap
from tests.conftest import (
    HEADINGS, RATES, ROTATION_RATE, SHAPES, axisymmetric_winds, nan_after,
)
from tests.dop853_reference import integrate_reference
from tests.oracles import (
    alpha_azimuthal_momentum, azimuthal_costate, position_reference, wind_norm,
)

integrate_module = importlib.import_module("znav.integrate")


def counting(rhs, calls: list[int]):
    """rhs that adds one to calls[0] per evaluation."""

    def counted(phi, theta, u, v):
        calls[0] += 1
        return rhs(phi, theta, u, v)

    return counted


def underflow_alike(rhs, s0, cfg) -> str:
    """The step-underflow message that integrate and integrate_reference both
    raise, each after the same number of rhs calls."""
    outcomes = []
    for engine in (integrate, integrate_reference):
        calls = [0]
        with pytest.raises(NavigationError) as info:
            engine(counting(rhs, calls), s0, cfg)
        assert type(info.value) is NavigationError
        outcomes.append((str(info.value), calls[0]))
    assert outcomes[0] == outcomes[1]
    return outcomes[0][0]


def run(sph, wind, kind, heading, cfg) -> Trajectory:
    s0 = initial_state(sph, wind, kind, SurfacePoint(0.0, math.pi / 2), heading)
    return integrate(make_rhs(kind, sph, wind), s0, cfg, kind=kind)


def coast(sample_dt: float, integrator=integrate, theta0: float = 1.5, v: float = -3.0,
          t_end: float = 3.0) -> Trajectory:
    """Zero acceleration from theta0 at theta' = v, to t_end.

    theta moves linearly; from theta = 1.5 at theta' = -3 it enters the
    guard band at t = 0.4999997.  The rhs never raises in the band, as
    znav's own rhs does: the step-end retry alone keeps a spherical step
    out of it, and the cap's guard test reports the entry.
    """
    s0 = NavState(SurfacePoint(0.0, theta0), TangentVector(0.0, v))
    cfg = IntegratorConfig(t_end=t_end, sample_dt=sample_dt)
    return integrator(lambda phi, theta, u, v: (0.0, 0.0), s0, cfg)


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
        ts = [row[0] for row in traj.rows]
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

    @settings(max_examples=100, deadline=None)
    @given(a=SHAPES, c=RATES, heading=HEADINGS)
    @example(a=0.75, c=ROTATION_RATE, heading=math.pi / 3)
    # passes 3e-5 rad from the pole: its phi residual reads 1.8e-7 in the
    # chart and 2.1e-10 as a distance
    @example(a=1.7687203756358754, c=-0.5463750705996161, heading=1.5708208581932022)
    def test_wind_carries_the_unperturbed_path(self, a, c, heading):
        """Strongest end-to-end oracle: for the rotation wind the
        time-optimal path is the unperturbed one dragged by the flow,
        so phi_F(t) = phi_h(t) - c t and theta is untouched, on the rows
        both tracks have."""
        sph, cfg = Spheroid(a), IntegratorConfig(t_end=7.0)
        th = run(sph, None, "h", heading, cfg)
        tf = run(sph, rotation_wind(c), "randers", heading, cfg)
        worst_phi = worst_theta = 0.0
        for (t, phi_h, theta_h, _, _), (_, phi_f, theta_f, _, _) in zip(th.rows, tf.rows):
            # a phi residual times the parallel's radius sin(theta) is a
            # distance, which does not blow up near a pole as phi does
            worst_phi = max(worst_phi, abs(phi_f - (phi_h - c * t)) * math.sin(theta_h))
            worst_theta = max(worst_theta, abs(theta_f - theta_h))
        # theta: 5x the largest residual of ~3000 scanned draws, 1.9e-8 on
        # a track that passes within ~1e-6 rad of a pole.  phi, as a
        # distance: 25x the largest of ~3000 draws (half of them within
        # 1e-1 to 1e-10 of due north or south), 4.1e-9
        assert worst_phi < 1e-7
        assert worst_theta < 1e-7

    def test_determinism(self, oblate, rot_wind):
        cfg = IntegratorConfig(t_end=2.0)
        t1 = run(oblate, rot_wind, "randers", math.pi / 3, cfg)
        t2 = run(oblate, rot_wind, "randers", math.pi / 3, cfg)
        assert t1.samples == t2.samples

    def test_convergence_under_tightening(self, oblate, rot_wind):
        ref = run(oblate, rot_wind, "randers", math.pi / 3,
                  IntegratorConfig(t_end=3.0, rel_tol=1e-13, abs_tol=1e-14))
        final_ref = ref.final_state()
        errs = []
        # decades: halving the tolerance moves an 8th-order step by only
        # 2 ** (1/8), and the end-point error of a few dozen steps need not
        # fall with it
        for rel in (1e-6, 1e-7, 1e-8, 1e-9):
            traj = run(oblate, rot_wind, "randers", math.pi / 3,
                       IntegratorConfig(t_end=3.0, rel_tol=rel, abs_tol=1e-14))
            final = traj.final_state()
            errs.append(
                abs(final.point.phi - final_ref.point.phi)
                + abs(final.point.theta - final_ref.point.theta)
            )
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))

    def test_sphere_equatorial_reduction(self, sphere):
        # the float cos(pi/2) = 6.1e-17 is not zero, so the theta
        # acceleration is not either and theta moves a few ulp
        traj = run(sphere, None, "h", 0.0, IntegratorConfig(t_end=2 * math.pi))
        ulp = math.ulp(math.pi / 2)
        assert all(abs(s.point.theta - math.pi / 2) <= 16 * ulp for _, s in traj.samples)
        assert traj.final_state().point.phi == pytest.approx(2 * math.pi, abs=1e-7)

    def test_initial_state_in_guard_band_rejected(self, oblate):
        s0 = initial_state_riemannian(oblate, SurfacePoint(0.0, 1.0), 0.0)
        bad = type(s0)(SurfacePoint(0.0, 1e-9), s0.vel)
        with pytest.raises(PoleSingularity):
            integrate(make_rhs("h", oblate, None), bad, IntegratorConfig(t_end=1.0))

    def test_step_failure_on_non_finite_rhs(self, oblate):
        # an infinite phi acceleration makes every error norm NaN, so every
        # step is refused until h underflows
        def broken(phi, theta, u, v):
            return (math.inf, 0.0)

        s0 = initial_state_riemannian(oblate, SurfacePoint(0.0, math.pi / 2), 0.0)
        cfg = IntegratorConfig(t_end=1.0)
        assert underflow_alike(broken, s0, cfg) == "step underflow at t=0.0"

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

    # "inf": the step is uncapped, its length set by the tolerances alone
    @pytest.mark.parametrize("calls", [pytest.param(1616, id="inf-1616")])
    def test_benchmark_path_rhs_calls(self, oblate, rot_wind, calls):
        # machine-independent cost guard on the benchmark randers path;
        # kind is only a label, so leaving it out costs the same calls
        s0 = initial_state_randers(
            oblate, rot_wind, SurfacePoint(0.0, math.pi / 2), math.pi / 3
        )
        got = [0]
        traj = integrate(counting(make_rhs("randers", oblate, rot_wind), got), s0,
                         IntegratorConfig(t_end=7.0))
        assert traj.termination == "completed"
        assert got[0] == calls
        assert traj.stats.rhs_calls == calls

    def test_benchmark_path_default_config(self, oblate, rot_wind):
        # machine-independent cost guard on the benchmark randers path;
        # the continuous extension keeps F = 1 at the samples between
        # step ends
        s0 = initial_state_randers(
            oblate, rot_wind, SurfacePoint(0.0, math.pi / 2), math.pi / 3
        )
        got = [0]
        traj = integrate(counting(make_rhs("randers", oblate, rot_wind), got), s0,
                         IntegratorConfig(t_end=7.0), kind="randers")
        assert traj.termination == "completed"
        assert got[0] == 1616
        # and on its step sequence: the stabilised controller rejects few.
        # The path comes no nearer than 0.524 rad to a pole, so it runs
        # in one spherical leg
        assert traj.stats == StepStats(accepted=95, rejected=16, pole_halvings=0,
                                       rhs_calls=1616, cap_legs=0)
        rd = RandersData(oblate, rot_wind)
        drift = max(abs(F_value(rd, s.point, s.vel) - 1.0) for _, s in traj.samples)
        assert drift <= 2e-9

    @pytest.mark.parametrize(
        "start, heading",
        [((0.0, math.pi / 2), math.pi / 3), ((1.0, 1.2), 1.0)],
        ids=["benchmark-start", "off-origin"],
    )
    def test_starting_step_matches_scipy(self, oblate, rot_wind, start, heading):
        # Hairer's two-phase starting step, as scipy's DOP853 picks it; at
        # the benchmark start phi = 0, so the first phase alone is short
        integrate_mod = pytest.importorskip("scipy.integrate")
        rhs = make_rhs("randers", oblate, rot_wind)
        s0 = initial_state_randers(oblate, rot_wind, SurfacePoint(*start), heading)
        y0 = (s0.point.phi, s0.point.theta, s0.vel.u, s0.vel.v)
        cfg = IntegratorConfig(t_end=7.0)
        got, probes = _initial_step(rhs, y0, (y0[2], y0[3], *rhs(*y0)), cfg)
        assert probes == 1
        solver = integrate_mod.DOP853(lambda t, y: [y[2], y[3], *rhs(*y)], 0.0, y0,
                                      t_bound=cfg.t_end, rtol=cfg.rel_tol,
                                      atol=cfg.abs_tol)
        # equal in both cases; an ulp of slack for numpy's norm, which may
        # sum the four squares in another order than left to right
        assert abs(got - solver.h_abs) <= math.ulp(solver.h_abs)

    def test_dense_output_matches_scipy(self, oblate, rot_wind):
        # one DOP853 step of h = 0.004 (the starting step here would be
        # 0.025 but for t_end): the samples inside it come from the same
        # 7th-order interpolant as scipy's DOP853 dense output
        integrate_mod = pytest.importorskip("scipy.integrate")
        rhs = make_rhs("randers", oblate, rot_wind)
        s0 = initial_state_randers(oblate, rot_wind, SurfacePoint(1.0, 1.2), 1.0)
        h = 0.004
        cfg = IntegratorConfig(t_end=h, sample_dt=h / 4)
        calls = [0]
        traj = integrate(counting(rhs, calls), s0, cfg, kind="randers")
        # one accepted step, no rejection: the start, the starting-step
        # probe, 12 stages and the 3 dense-output stages
        assert calls[0] == traj.stats.rhs_calls == 17

        def f(t, y):
            return [y[2], y[3], *rhs(*y)]

        y0 = [s0.point.phi, s0.point.theta, s0.vel.u, s0.vel.v]
        solver = integrate_mod.DOP853(f, 0.0, y0, t_bound=h, first_step=h,
                                      rtol=cfg.rel_tol, atol=cfg.abs_tol)
        solver.step()
        assert (solver.status, solver.t) == ("finished", h)
        dense = solver.dense_output()
        assert [t for t, _ in traj.samples] == pytest.approx([0.0, h / 4, h / 2, 3 * h / 4, h])
        for ts, s in traj.samples[1:]:
            got = (s.point.phi, s.point.theta, s.vel.u, s.vel.v)
            want = dense(ts)
            assert all(math.isclose(g, float(w), rel_tol=1e-14) for g, w in zip(got, want))

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


class TestPositionError:
    """Position error against a tight scipy reference, which F drift cannot see."""

    # The default config's worst |dphi|, |dtheta| over the samples of the
    # benchmark randers paths, a = 0.75, c = 5/7, start (0, pi/2): the
    # Dormand-Prince 5(4) stepper's measured errors, rounded up to two digits.
    @pytest.mark.parametrize(
        "t_end, heading, bound",
        [
            (7.0, 0.3, 5.1e-10),
            (7.0, math.pi / 3, 4.7e-10),
            (7.0, 1.3, 3.8e-9),
            (7.0, 2.5, 1.1e-9),
            (50.0, 0.3, 1.1e-8),
            (50.0, math.pi / 3, 2.3e-8),
            (50.0, 1.3, 2.1e-7),
            (50.0, 2.5, 6.2e-8),
        ],
    )
    def test_benchmark_paths(self, oblate, rot_wind, t_end, heading, bound):
        pytest.importorskip("scipy.integrate")
        rhs = make_rhs("randers", oblate, rot_wind)
        s0 = initial_state_randers(
            oblate, rot_wind, SurfacePoint(0.0, math.pi / 2), heading
        )
        traj = integrate(rhs, s0, IntegratorConfig(t_end=t_end), kind="randers")
        assert traj.termination == "completed"
        ref = position_reference(rhs, s0, [row[0] for row in traj.rows])
        worst = max(
            max(abs(phi - ref_phi), abs(theta - ref_theta))
            for (_, phi, theta, _, _), (ref_phi, ref_theta) in zip(traj.rows, ref)
        )
        assert worst <= bound


@strategies.composite
def position_draws(draw):
    """(spheroid, wind, kind, start colatitude, heading) for the position oracle.

    The wind is a rotation or a smooth custom wind with a phi-dependent
    W1 and a W2 that vanishes at the poles, rescaled to a lattice peak
    |W|_h in (0, 0.8].  A third of the headings lie within 0.1 rad of due
    north or south, so that many tracks pass near a pole.
    """
    sph = Spheroid(draw(strategies.floats(0.3, 2.0)))
    kind = draw(strategies.sampled_from(["h", "alpha", "randers"]))
    if draw(strategies.booleans()):
        wind = rotation_wind(draw(RATES))
    else:
        c0, c1, d1 = (draw(strategies.floats(-1.0, 1.0)) for _ in range(3))
        q1, q2 = (draw(strategies.floats(0.0, 2.0 * math.pi)) for _ in range(2))
        peak = draw(strategies.floats(0.0, 0.8, exclude_min=True))

        def shape(phi, theta):
            return c0 + c1 * math.cos(phi + q1), d1 * math.sin(phi + q2) * math.sin(theta)

        top = max(
            wind_norm(sph, custom_wind(shape), SurfacePoint(
                2.0 * math.pi * i / 48, POLE_GUARD + (math.pi - 2.0 * POLE_GUARD) * j / 63))
            for i in range(48) for j in range(64)
        )
        k = peak / top if top > 0.0 else 0.0
        wind = custom_wind(lambda phi, theta: tuple(k * w for w in shape(phi, theta)))
    theta0 = draw(strategies.floats(0.05, math.pi - 0.05))
    if draw(strategies.integers(0, 2)) == 0:
        heading = (draw(strategies.sampled_from([math.pi / 2, 3 * math.pi / 2]))
                   + draw(strategies.floats(-0.1, 0.1)))
    else:
        heading = draw(HEADINGS)
    return sph, wind, kind, theta0, heading


class TestPositionDistance:
    """Position error of every flow as a distance, against a tight scipy track."""

    # The largest h-distance sqrt(h11 dphi^2 + h22 dtheta^2) over the rows
    # read 7.8e-9 in a scan of 1400 such draws (a fifth of the near-polar
    # headings within 1e-12 to 1e-2 rad of due north or south), on a
    # track that passes 3e-3 rad from a pole; the median read 1.3e-10.
    # The bound is 5x that largest reading.
    BOUND = 4e-8

    @settings(max_examples=40, deadline=None)
    @given(draw=position_draws())
    def test_distance_to_reference(self, draw):
        pytest.importorskip("scipy.integrate")
        sph, wind, kind, theta0, heading = draw
        s0 = initial_state(sph, wind, kind, SurfacePoint(0.0, theta0), heading)
        rhs = make_rhs(kind, sph, wind)
        traj = integrate(rhs, s0, IntegratorConfig(t_end=7.0), kind=kind)
        assert traj.termination in ("completed", "pole_proximity")
        # a track stopped at the pole guard is compared on the rows it has
        ref = position_reference(rhs, s0, [row[0] for row in traj.rows])
        worst = 0.0
        for (_, phi, theta, _, _), (ref_phi, ref_theta) in zip(traj.rows, ref):
            h11, h22 = metric_components(sph, theta)
            dphi, dtheta = phi - ref_phi, theta - ref_theta
            worst = max(worst, math.sqrt(h11 * dphi * dphi + h22 * dtheta * dtheta))
        assert worst <= self.BOUND


BENCH_CUSTOM_WIND = custom_wind(
    lambda phi, theta: (-0.5 + 0.1 * math.cos(phi), 0.15 * math.sin(phi) * math.sin(theta))
)


class TestReferenceStepping:
    """The unrolled stage loop against the list-comprehension reference."""

    @pytest.fixture
    def initial_steps(self, monkeypatch):
        """(step, probe calls) of each _initial_step call, in call order."""
        steps = []

        def spy(f, y0, f0, cfg):
            steps.append(_initial_step(f, y0, f0, cfg))
            return steps[-1]

        monkeypatch.setattr(integrate_module, "_initial_step", spy)
        return steps

    # on the completed tracks the median steps (0.017-0.065 at 1e-12,
    # 0.038-0.14 at 1e-9) span one sample or more; the due-north tracks
    # end in steps far shorter than the 0.01 sample spacing, most of which
    # hold no sample and skip the three dense-output stages
    @pytest.mark.parametrize("rel_tol", [1e-12, 1e-9])
    @pytest.mark.parametrize("wind_name", ["rotation", "custom", "none"])
    @pytest.mark.parametrize("kind", ["h", "alpha", "randers"])
    def test_identical_trajectories(self, oblate, rot_wind, kind, wind_name, rel_tol):
        wind = {"rotation": rot_wind, "custom": BENCH_CUSTOM_WIND, "none": STILL_AIR}[wind_name]
        rhs = make_rhs(kind, oblate, wind)
        cfg = IntegratorConfig(t_end=2.0, rel_tol=rel_tol)
        terminations = set()
        for heading in (math.pi / 3, math.pi / 2, 4.0):
            s0 = initial_state(oblate, wind, kind, SurfacePoint(0.0, math.pi / 2), heading)
            got_calls, want_calls = [0], [0]
            got = integrate(counting(rhs, got_calls), s0, cfg, kind=kind)
            want = integrate_reference(counting(rhs, want_calls), s0, cfg, kind=kind)
            assert got.samples == want.samples
            assert got.t_stop == want.t_stop
            assert got.stats == want.stats
            assert got_calls == want_calls
            terminations.add(got.termination)
        assert "completed" in terminations
        # due north reaches the pole guard on every flow but the
        # travel-time one under the custom wind, which turns back short of it
        if (kind, wind_name) != ("randers", "custom"):
            assert "pole_proximity" in terminations

    @pytest.mark.parametrize("sample_dt", [0.01, 1.0])
    @pytest.mark.parametrize(
        "theta0, heading",
        [(1.0, math.pi / 2 + math.asin(1e-5 / math.sin(1.0))), (math.pi - 0.2, 1.0)],
        ids=["close-pass", "south-cap-start"],
    )
    def test_identical_cap_legs(self, oblate, rot_wind, theta0, heading, sample_dt):
        # a pass 1e-5 rad from the north pole, whose near-pole steps take
        # the closest-approach test with or without a sample in them, and
        # a track that starts in the south cap
        rhs = make_rhs("randers", oblate, rot_wind)
        s0 = initial_state(oblate, rot_wind, "randers", SurfacePoint(0.0, theta0), heading)
        cfg = IntegratorConfig(t_end=4.0, sample_dt=sample_dt)
        got_calls, want_calls = [0], [0]
        got = integrate(counting(rhs, got_calls), s0, cfg)
        want = integrate_reference(counting(rhs, want_calls), s0, cfg)
        assert got.stats.cap_legs >= 1
        assert (got.samples, got.t_stop, got.stats) == (want.samples, want.t_stop, want.stats)
        assert got_calls == want_calls == [got.stats.rhs_calls]

    def test_identical_at_tiny_abs_tol(self, oblate):
        # the start has phi = 0, so the initial-step scale of phi is
        # abs_tol itself and the squared ratios reach ~1e400
        rhs = make_rhs("h", oblate, None)
        s0 = initial_state_riemannian(oblate, SurfacePoint(0.0, math.pi / 2), 0.3)
        cfg = IntegratorConfig(t_end=1.0, abs_tol=1e-200)
        got = integrate(rhs, s0, cfg)
        want = integrate_reference(rhs, s0, cfg)
        assert got.termination == "completed"
        assert (got.samples, got.t_stop, got.stats) == (want.samples, want.t_stop, want.stats)

    def test_identical_probe_in_guard_band(self, oblate, initial_steps):
        # 1e-5 rad from the pole and heading into it: the first phase's
        # step, 1.009e-5, takes the starting-step probe 9e-8 past the pole,
        # inside the band, and the step is kept after that one probe call
        rhs = make_rhs("h", oblate, None)
        s0 = NavState(SurfacePoint(0.0, 1e-5), TangentVector(0.0, -1.0))
        cfg = IntegratorConfig(t_end=1.0)
        got = integrate(rhs, s0, cfg)
        want = integrate_reference(rhs, s0, cfg)
        assert initial_steps == [(1.0090405622296332e-05, 1)]
        assert got.t_stop == 9.000000000124035e-06
        assert (got.samples, got.t_stop, got.stats) == (want.samples, want.t_stop, want.stats)

    def test_identical_overflowing_probe(self, initial_steps):
        # the starting-step probe, the rhs's second call, reads 1e308: the
        # size d2 of the second derivative overflows, and the first phase's
        # step is kept after that one probe call
        def overflowing():
            calls = [0]

            def rhs(phi, theta, u, v):
                calls[0] += 1
                return (1e308, 1e308) if calls[0] == 2 else (0.0, 0.0)

            return rhs

        s0 = NavState(SurfacePoint(0.5, 1.0), TangentVector(0.3, 0.1))
        cfg = IntegratorConfig(t_end=1.0)
        got = integrate(overflowing(), s0, cfg)
        want = integrate_reference(overflowing(), s0, cfg)
        assert initial_steps == [(0.03281129051296398, 1)]
        assert got.termination == "completed"
        assert (got.samples, got.t_stop, got.stats) == (want.samples, want.t_stop, want.stats)

    def test_identical_step_failure(self, oblate):
        def broken(phi, theta, u, v):
            return (math.nan, math.nan)

        s0 = initial_state_riemannian(oblate, SurfacePoint(0.0, math.pi / 2), 0.0)
        cfg = IntegratorConfig(t_end=1.0)
        assert underflow_alike(broken, s0, cfg) == "step underflow at t=0.0"

    def test_identical_overflowing_error_norm(self, oblate):
        # at tolerances of 1e-300 a squared error ratio overflows; the
        # step is refused like a non-finite norm until h underflows
        rhs = make_rhs("h", oblate, None)
        s0 = initial_state_riemannian(oblate, SurfacePoint(0.0, math.pi / 2), 0.3)
        cfg = IntegratorConfig(t_end=1.0, rel_tol=1e-300, abs_tol=1e-300)
        assert underflow_alike(rhs, s0, cfg) == "step underflow at t=0.0"

    def test_identical_overflowing_3rd_order_estimate(self):
        # a stage-6 spike at rel_tol 4e-149 leaves err5 at 4.9e307 but
        # makes err3 overflow; h err5 / sqrt(4 (err5 + 0.01 err3)) would
        # read 0 and accept the step, so a non-finite sum refuses it.  The
        # track starts at rest, so its starting step is 1e-6, and once the
        # spiked step is refused it stays at rest
        def spiking():
            calls = [0]

            def rhs(phi, theta, u, v):
                calls[0] += 1
                # call 1 is the start, call 2 the starting-step probe
                return (1e10 if calls[0] == 7 else 0.0, 0.0)

            return rhs

        s0 = NavState(SurfacePoint(0.5, 1.0), TangentVector(0.0, 0.0))
        cfg = IntegratorConfig(t_end=0.05, rel_tol=4e-149, abs_tol=1e-300)
        got = integrate(spiking(), s0, cfg)
        want = integrate_reference(spiking(), s0, cfg)
        assert got.stats.rejected == 1
        assert all(row[1:] == (0.5, 1.0, 0.0, 0.0) for row in got.rows)
        assert (got.samples, got.t_stop, got.stats) == (want.samples, want.t_stop, want.stats)

    @pytest.mark.parametrize("sample_dt", [0.01, 1.0])
    def test_identical_coasting_into_the_band(self, sample_dt):
        # a spherical step ending in the band is retried and the cap's
        # guard test stops the track, with (0.01) and without (1) a grid
        # time in the crossing step
        got, want = coast(sample_dt), coast(sample_dt, integrate_reference)
        assert got.termination == want.termination == "pole_proximity"
        assert (got.samples, got.t_stop, got.stats) == (want.samples, want.t_stop, want.stats)


def momentum_drift(sph, wind, kind, theta0, heading) -> float:
    """Largest change of the flow's azimuthal momentum along a default-config track, t=5."""
    momentum = alpha_azimuthal_momentum if kind == "alpha" else azimuthal_costate
    s0 = initial_state(sph, wind, kind, SurfacePoint(0.0, theta0), heading)
    traj = integrate(make_rhs(kind, sph, wind), s0, IntegratorConfig(t_end=5.0), kind=kind)
    p0 = momentum(sph, wind, s0)
    return max(abs(momentum(sph, wind, s) - p0) for _, s in traj.samples)


class TestNoetherMomentum:
    """Azimuthal momenta conserved under winds that do not depend on phi.

    The rotation wind has a zero Jacobian; these winds exercise the
    theta-derivatives of the finite-difference wind jet along whole tracks.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        flow=axisymmetric_winds(),
        theta0=strategies.floats(0.3, math.pi - 0.3),
        heading=HEADINGS,
    )
    def test_conserved_under_axisymmetric_winds(self, flow, theta0, heading):
        sph, wind = flow
        for kind in ("randers", "alpha"):
            assert momentum_drift(sph, wind, kind, theta0, heading) <= 1e-8

    @pytest.mark.parametrize("kind", ["randers", "alpha"])
    def test_broken_by_phi_dependent_wind(self, oblate, kind):
        assert momentum_drift(oblate, BENCH_CUSTOM_WIND, kind, 1.2, math.pi / 3) > 0.1


class TestPoleHandling:
    def test_due_north_hits_guard(self, oblate):
        traj = run(oblate, None, "h", math.pi / 2, IntegratorConfig(t_end=3.0))
        assert traj.termination == "pole_proximity"
        assert classify_path(traj) == "transpolar"
        # the polar cap's closest-approach test finds where the dense path
        # enters the guard band; the spherical chart found the same time
        # by halving the steps that landed in it, 43 times
        assert abs(traj.t_stop - 1.3814672600567466) <= 1e-9
        assert traj.stats.cap_legs == 1 and traj.stats.pole_halvings == 0
        assert len(traj.rows) == 139 and traj.rows[-1][0] < traj.t_stop
        assert all(POLE_GUARD < s.point.theta < math.pi - POLE_GUARD
                   for _, s in traj.samples)

    @pytest.mark.parametrize("heading", [math.pi / 2, 3 * math.pi / 2], ids=["north", "south"])
    @pytest.mark.parametrize("a", [0.3, 0.75, 1.0, 1.7, 2.5])
    def test_meridian_stops_at_band_entry(self, a, heading):
        # due north or south from the equator the h track runs down a
        # meridian at unit speed, so it enters the band after the
        # meridian's arc length from the equator to POLE_GUARD off the pole
        traj = run(Spheroid(a), None, "h", heading, IntegratorConfig(t_end=4.0))
        arc, _ = quad(lambda q: math.sqrt(math.cos(q) ** 2 + a * a * math.sin(q) ** 2),
                      POLE_GUARD, math.pi / 2, epsabs=0.0, epsrel=1e-13)
        assert traj.termination == "pole_proximity"
        assert abs(traj.t_stop - arc) <= 1e-10

    @pytest.mark.parametrize("sample_dt, n_rows", [(0.01, 50), (1.0, 1)])
    @pytest.mark.parametrize("theta0, v, t_stop", [
        (1.5, -3.0, "0.4999996666666671"),
        (math.pi - 1.5, 3.0, "0.49999966666666706"),  # pi - 1.5 is rounded
    ], ids=["north", "south"])
    def test_coast_stops_at_the_crossing(self, theta0, v, t_stop, sample_dt, n_rows):
        # the spherical step that would end in the band is halved until it
        # ends in the cap, whose guard test reports the crossing at
        # 1.5 - 3 t = POLE_GUARD; the grid time 0.5 lies past it.  Without
        # the step-end retry, the track runs into the band or past the pole
        traj = coast(sample_dt, theta0=theta0, v=v)
        assert traj.termination == "pole_proximity"
        assert repr(traj.t_stop) == t_stop
        assert traj.stats.cap_legs == 1 and traj.stats.pole_halvings >= 1
        assert len(traj.rows) == n_rows
        assert all(POLE_GUARD < row[2] < math.pi - POLE_GUARD for row in traj.rows)

    @settings(max_examples=200, deadline=None)
    @given(theta0=strategies.floats(0.6, math.pi - 0.6), speed=strategies.floats(0.3, 6.0),
           south=strategies.booleans(), sample_dt=strategies.sampled_from([0.01, 0.37, 1.0, 2.0]))
    def test_coast_stops_within_1e9_of_the_crossing(self, theta0, speed, south, sample_dt):
        # theta0 - speed t reaches POLE_GUARD, or theta0 + speed t reaches
        # pi - POLE_GUARD, by t = 8.5; each grid finds the same crossing
        traj = coast(sample_dt, theta0=theta0, v=speed if south else -speed, t_end=10.0)
        gap = math.pi - POLE_GUARD - theta0 if south else theta0 - POLE_GUARD
        assert traj.termination == "pole_proximity"
        assert abs(traj.t_stop - gap / speed) <= 1e-9
        assert all(POLE_GUARD < row[2] < math.pi - POLE_GUARD for row in traj.rows)

    def test_halving_floor_stops_at_the_step_start(self):
        # a coast along the equator under an rhs that raises PoleSingularity
        # past phi = 0.3, as znav's own does in the guard band: each step
        # reaching past it is halved, and the track creeps up to it until a
        # step is halved below 1e-12, which stops it at that step's start
        def wall(phi, theta, u, v):
            if phi > 0.3:
                raise PoleSingularity
            return (0.0, 0.0)

        s0 = NavState(SurfacePoint(0.0, math.pi / 2), TangentVector(1.0, 0.0))
        cfg = IntegratorConfig(t_end=1.0)
        got, want = integrate(wall, s0, cfg), integrate_reference(wall, s0, cfg)
        assert (got.rows, got.t_stop, got.stats) == (want.rows, want.t_stop, want.stats)
        assert classify_path(got) == "transpolar"
        assert 0.3 - 1e-11 < got.t_stop < 0.3
        assert len(got.rows) == 30 and got.stats.pole_halvings > 0

    def test_circumpolar_benchmark_individual(self, oblate, rot_wind):
        traj = run(oblate, rot_wind, "randers", math.pi / 3,
                   IntegratorConfig(t_end=25.0))
        assert traj.termination == "completed"
        assert classify_path(traj) == "circumpolar"
        assert all(0.0 < s.point.theta < math.pi for _, s in traj.samples)

    def test_equatorial_path_is_circumpolar(self, oblate):
        traj = run(oblate, None, "h", 0.0, IntegratorConfig(t_end=3.0))
        assert classify_path(traj) == "circumpolar"

    def test_nan_mid_run_is_not_a_pole_approach(self, oblate):
        # the NaN acceleration makes a later stage colatitude NaN, which
        # fails the guard-band test without being near a pole
        rhs = nan_after(make_rhs("h", oblate, None), 0.5)
        s0 = initial_state(oblate, None, "h", SurfacePoint(0.0, math.pi / 2), 0.3)
        with pytest.raises(NonFiniteState):
            integrate(rhs, s0, IntegratorConfig(t_end=2.0))


def no_caps(monkeypatch):
    """Run integrate in the spherical chart alone: no step ends in a cap."""
    monkeypatch.setattr(integrate_module, "CAP_IN", 0.0)


class TestPolarCaps:
    """Legs in the pole-centred charts of the polar caps."""

    @settings(max_examples=30, deadline=None)
    @given(a=strategies.floats(0.3, 2.0), c=RATES,
           kind=strategies.sampled_from(["h", "alpha", "randers"]),
           theta0=strategies.floats(0.6, math.pi - 0.6), heading=HEADINGS)
    @example(a=0.75, c=ROTATION_RATE, kind="randers", theta0=math.pi / 2, heading=math.pi / 3)
    def test_tracks_outside_the_caps_unchanged(self, a, c, kind, theta0, heading):
        # a track with no cap leg runs the spherical loop alone: rows,
        # stop and step counts are those of a run without caps
        sph, wind = Spheroid(a), rotation_wind(c)
        s0 = initial_state(sph, wind, kind, SurfacePoint(0.0, theta0), heading)
        rhs, cfg = make_rhs(kind, sph, wind), IntegratorConfig(t_end=3.0)
        got = integrate(rhs, s0, cfg, kind=kind)
        if got.stats.cap_legs:
            assert min(min(row[2], math.pi - row[2]) for row in got.rows) < CAP_OUT
            return
        with pytest.MonkeyPatch.context() as mp:
            no_caps(mp)
            want = integrate(rhs, s0, cfg, kind=kind)
        assert (got.rows, got.t_stop, got.stats) == (want.rows, want.t_stop, want.stats)

    @settings(max_examples=30, deadline=None)
    @given(a=strategies.floats(0.3, 2.0), c=RATES,
           kind=strategies.sampled_from(["h", "alpha", "randers"]),
           theta0=strategies.floats(0.6, math.pi - 0.6), heading=HEADINGS,
           tol=strategies.just(None))
    @example(a=0.75, c=ROTATION_RATE, kind="randers", theta0=math.pi / 2, heading=0.3,
             tol=1e-300)
    def test_returned_track_is_classified_by_its_stop(self, a, c, kind, theta0, heading, tol):
        # a track either runs to t_end or stops at the pole guard at t_stop,
        # and only the latter is transpolar; a run that cannot step raises
        sph, wind = Spheroid(a), rotation_wind(c)
        s0 = initial_state(sph, wind, kind, SurfacePoint(0.0, theta0), heading)
        cfg = (IntegratorConfig(t_end=3.0) if tol is None
               else IntegratorConfig(t_end=1.0, rel_tol=tol, abs_tol=tol))
        try:
            traj = integrate(make_rhs(kind, sph, wind), s0, cfg, kind=kind)
        except NavigationError as error:
            assert tol is not None and str(error) == "step underflow at t=0.0"
            return
        assert tol is None
        assert (classify_path(traj) == "transpolar") == (traj.t_stop is not None)
        if traj.t_stop is None:
            assert traj.rows[-1][0] == pytest.approx(cfg.t_end, abs=1e-9)
        else:
            assert traj.rows[-1][0] <= traj.t_stop < cfg.t_end

    @pytest.mark.parametrize("sample_dt", [0.01, 1.0, 2.0])
    def test_close_pass_keeps_phi_continuous(self, oblate, rot_wind, sample_dt):
        # 1e-5 rad from the pole phi sweeps pi in ~2e-5 time units, and the
        # wind turns it further: between two rows or step ends on either
        # side of the pass it moves by more than pi, so a principal-value
        # difference would slip by a whole turn.  The closest-approach
        # pivot splits the pass.  At sample_dt 1 a row follows the pass
        # in its step; at 2 none does, and the step's end follows it
        theta0 = 1.0
        heading = math.pi / 2 + math.asin(1e-5 / math.sin(theta0))
        s0 = initial_state(oblate, rot_wind, "randers", SurfacePoint(0.0, theta0), heading)
        rhs = make_rhs("randers", oblate, rot_wind)
        traj = integrate(rhs, s0, IntegratorConfig(t_end=2.0, sample_dt=sample_dt))
        assert traj.termination == "completed" and traj.stats.cap_legs == 1
        ref = position_reference(rhs, s0, [row[0] for row in traj.rows])
        assert all(abs(row[1] - ref_phi) < 1.0 for row, (ref_phi, _) in zip(traj.rows, ref))
        assert abs(traj.rows[-1][1] - ref[-1][0]) < 1e-8
        # half a turn westward past the pole, and the wind's drag c t
        assert traj.rows[-1][1] == pytest.approx(-math.pi - 2.0 * ROTATION_RATE, abs=1e-3)

    def test_rhs_sees_continuous_phi(self, oblate):
        # in a cap the rhs gets phi on the branch of the track's own phi:
        # a wind written for phi from 10 on sees phi from 10 on, not
        # atan2's value, also after the pass 9e-3 rad from the pole has
        # turned phi by more than pi
        seen = []

        def components(phi, theta):
            seen.append(phi)
            return (0.3, 0.0)

        wind = custom_wind(components)
        s0 = initial_state(oblate, wind, "randers", SurfacePoint(10.0, 1.0), math.pi / 2 - 0.01)
        traj = integrate(make_rhs("randers", oblate, wind), s0, IntegratorConfig(t_end=2.0))
        assert traj.stats.cap_legs == 1 and traj.rows[-1][1] > 10.0 + math.pi
        assert 9.9 < min(seen) and max(seen) < traj.rows[-1][1] + 0.1

    def test_rhs_calls_counted_across_legs(self, oblate, rot_wind):
        # heading 1.3 from the equator passes ~0.2 rad from the north pole:
        # a spherical, a cap and a spherical leg, each with its own probe
        s0 = initial_state_randers(oblate, rot_wind, SurfacePoint(0.0, math.pi / 2), 1.3)
        got = [0]
        traj = integrate(counting(make_rhs("randers", oblate, rot_wind), got), s0,
                         IntegratorConfig(t_end=7.0))
        assert traj.termination == "completed"
        assert traj.stats.cap_legs >= 1
        assert traj.stats.rhs_calls == got[0]

    def test_each_leg_starts_from_its_own_rhs_call(self, oblate, rot_wind, monkeypatch):
        # only the state crosses a chart switch: every leg's stage-1
        # accelerations are its own chart's rhs at its start, one call per
        # leg, never the previous chart's transformed
        starts = []

        def spy(f, y0, f0, cfg):
            starts.append(tuple(f0) == (y0[2], y0[3], *f(*y0)))
            return _initial_step(f, y0, f0, cfg)

        monkeypatch.setattr(integrate_module, "_initial_step", spy)
        s0 = initial_state_randers(oblate, rot_wind, SurfacePoint(0.0, math.pi / 2), 1.3)
        traj = integrate(make_rhs("randers", oblate, rot_wind), s0, IntegratorConfig(t_end=50.0))
        assert len(starts) == 2 * traj.stats.cap_legs + 1 and all(starts)
        assert tuple(traj.stats) == (499, 51, 0, 8168, 18)

    def test_nan_in_cap_is_not_a_pole_approach(self, oblate):
        # the acceleration turns NaN 0.3 rad from the pole, inside the cap
        # that the track enters at 0.5 rad
        rhs = make_rhs("h", oblate, None)

        def broken(phi, theta, u, v):
            return (math.nan, math.nan) if theta < 0.3 else rhs(phi, theta, u, v)

        s0 = initial_state(oblate, None, "h", SurfacePoint(0.0, 1.0), math.pi / 2)
        assert integrate(rhs, s0, IntegratorConfig(t_end=2.0)).stats.cap_legs == 1
        with pytest.raises(NonFiniteState):
            integrate(broken, s0, IntegratorConfig(t_end=2.0))

    @pytest.mark.parametrize("theta0", [0.3, 3.0], ids=["north", "south"])
    def test_resting_state_in_a_cap(self, theta0):
        # at rest every cap step's chord has zero length, so no chord
        # passes near the pole: the state stays put, with no division by
        # the chord's squared length
        def rest(phi, theta, u, v):
            return 0.0, 0.0

        s0 = NavState(SurfacePoint(0.5, theta0), TangentVector(0.0, 0.0))
        cfg = IntegratorConfig(t_end=1.0, sample_dt=0.25)
        traj = integrate(rest, s0, cfg)
        assert traj.rows == [(k * 0.25, 0.5, theta0, 0.0, 0.0) for k in range(5)]
        assert traj.t_stop is None and traj.stats == StepStats(9, 0, 0, 116, 1)
        want = integrate_reference(rest, s0, cfg)
        assert (traj.rows, traj.t_stop, traj.stats) == (want.rows, want.t_stop, want.stats)

    def test_guard_test_rejects_nan(self):
        # a NaN distance fails rho > POLE_GUARD like a pole approach would
        nan_path = tuple((math.nan,) * 8 for _ in range(4))
        with pytest.raises(NonFiniteState):
            _guard_test(0.1, nan_path, 0.5)

    @pytest.mark.parametrize("south", [False, True])
    def test_chart_round_trip(self, south):
        # the state through the cap chart and back
        state = (2.5, math.pi - 0.3 if south else 0.3, 0.7, -0.4)
        back = _from_cap(south, *_to_cap(south, *state), state[0] + 0.1)
        assert back == pytest.approx(state, rel=1e-13, abs=1e-15)


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

    def test_non_finite_member_carried(self, oblate, monkeypatch):
        # the package's integrate function shadows its module of that name.
        # The NaN fires once phi passes -0.5, which the westward member
        # does and the due-north one, with phi 0 before the pole and pi
        # beyond it, never does
        module = importlib.import_module("znav.integrate")

        def nan_west(*args):
            rhs = make_rhs(*args)
            return lambda phi, theta, u, v: (
                (math.nan, 0.0) if phi < -0.5 else rhs(phi, theta, u, v))

        monkeypatch.setattr(module, "make_rhs", nan_west)
        members = integrate_family(
            oblate, None, SurfacePoint(0.0, math.pi / 2), [math.pi - 0.3, math.pi / 2],
            "h", IntegratorConfig(t_end=2.0),
        )
        assert isinstance(members[0].error, NonFiniteState)
        # due north reaches the guard band
        assert members[1].trajectory.termination == "pole_proximity"

    @pytest.mark.parametrize("where", ["make_rhs", "rhs"])
    def test_other_errors_end_the_fan(self, oblate, rot_wind, where, monkeypatch):
        # only a NavigationError is carried per member: a TypeError raised
        # by make_rhs, or by the rhs it made, ends the fan
        def fail(*args):
            raise TypeError(f"{where} failed")

        monkeypatch.setattr(integrate_module, "make_rhs",
                            fail if where == "make_rhs" else lambda *args: fail)
        with pytest.raises(TypeError, match=f"{where} failed"):
            integrate_family(oblate, rot_wind, SurfacePoint(0.0, math.pi / 2), [0.0, 1.0],
                             "randers", IntegratorConfig(t_end=1.0))

    def test_empty_fan_rejected(self, oblate, rot_wind):
        with pytest.raises(ValueError):
            integrate_family(oblate, rot_wind, SurfacePoint(0.0, math.pi / 2),
                             [], "randers", IntegratorConfig(t_end=1.0))

    @pytest.mark.parametrize("kind", ["h", "alpha", "randers"])
    def test_still_air_spellings_run_the_h_flow(self, oblate, kind):
        # kind h reads no wind, and every kind runs the h flow in
        # STILL_AIR, sample for sample
        cfg = IntegratorConfig(t_end=2.0)
        want = run(oblate, None, "h", 0.7, cfg).samples
        assert run(oblate, STILL_AIR, kind, 0.7, cfg).samples == want
        fans = [
            [m.trajectory.samples for m in integrate_family(
                oblate, wind, SurfacePoint(0.0, 1.2), [0.3, 2.0], k, cfg)]
            for k, wind in (("h", None), (kind, STILL_AIR))
        ]
        assert fans[0] == fans[1]

    @pytest.mark.parametrize("kind, wind", [
        ("randers", STILL_AIR), ("alpha", STILL_AIR), ("h", rotation_wind(0.5)),
    ], ids=["randers-still-air", "alpha-still-air", "h-rotation"])
    def test_track_labelled_with_the_flow_it_ran(self, oblate, kind, wind):
        # a track's kind is its flow's: randers in still air, or h under
        # a wind, runs the h flow and says so
        cfg = IntegratorConfig(t_end=1.0)
        traj = track(oblate, wind, kind, SurfacePoint(0.0, 1.2), 0.3, cfg)
        assert traj.kind == "h"
        assert traj.rows == track(oblate, STILL_AIR, "h", SurfacePoint(0.0, 1.2), 0.3, cfg).rows
        for m in integrate_family(oblate, wind, SurfacePoint(0.0, 1.2), [0.3], kind, cfg):
            assert m.trajectory.kind == "h"


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t_end": 0.0},
            {"t_end": 1.0, "rel_tol": 0.0},
            {"t_end": 1.0, "rel_tol": 1.0, "abs_tol": 1.0},
            {"t_end": 1.0, "abs_tol": -1.0},
            {"t_end": 1.0, "sample_dt": 2.0},
            {"t_end": math.inf},
            {"t_end": 1.0, "rel_tol": math.nan},
            {"t_end": 1.0, "abs_tol": math.nan},
            {"t_end": 1e308, "sample_dt": 1e308},
            {"t_end": 2.0 * MAX_GRID, "sample_dt": 2.0 * MAX_GRID},
            {"t_end": 1e308},
            {"t_end": 1e10, "sample_dt": 1e-300},
            {"t_end": 1e20},
            {"t_end": MAX_GRID + 1.0, "sample_dt": 1.0},
        ],
    )
    def test_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorConfig(**kwargs)

    def test_no_step_cap(self):
        # the tolerances alone set the step
        assert IntegratorConfig._fields == ("t_end", "rel_tol", "abs_tol", "sample_dt")

    def test_largest_grid_accepted(self):
        # constructed only: integrating it would fill ~200 MB of rows
        assert IntegratorConfig(t_end=float(MAX_GRID), sample_dt=1.0).t_end == MAX_GRID
