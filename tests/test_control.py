"""Heading builders, course/drift/speed formulas and the control channel."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings

from znav import (
    ControlRecord,
    IntegratorConfig,
    NavState,
    NotMild,
    RandersData,
    STILL_AIR,
    Spheroid,
    SurfacePoint,
    TangentVector,
    Trajectory,
    ZeroRelativeVelocity,
    ZeroVelocity,
    control_channel,
    course_of,
    custom_wind,
    drift_of,
    heading_of,
    initial_speed_vs_heading,
    initial_state,
    initial_state_alpha,
    initial_state_randers,
    initial_state_riemannian,
    integrate,
    make_rhs,
    metric_components,
    rotation_wind,
    speed_of,
    wrap_signed,
)
from znav.control import drift_cos_mildness, drift_cos_velocity
from tests.conftest import (
    COLATITUDES,
    HEADINGS,
    RATES,
    ROTATION_RATE,
    SHAPES,
    random_mild_states,
    random_points,
)
from tests.oracles import initial_speed_closed, rotation_drift, wind_norm

SQRT3 = math.sqrt(3.0)

# A mild wind that depends on phi: |W|_h <= 0.75 on every spheroid with a <= 3.
BREEZE = custom_wind(
    lambda phi, theta: (-0.5 + 0.1 * math.cos(phi), 0.15 * math.sin(phi) * math.sin(theta))
)


def composed_channel(sph, wind, traj) -> list[ControlRecord | None]:
    """The control channel composed from the per-state formulas, sample by sample."""
    records = []
    for t, state in traj.samples:
        try:
            heading = heading_of(sph, wind, state)
            course = course_of(sph, state)
        except (ZeroRelativeVelocity, ZeroVelocity):
            records.append(None)
            continue
        records.append(ControlRecord(
            t, heading, course, wrap_signed(heading - course), speed_of(sph, state)
        ))
    return records


@pytest.fixture
def bench_state(oblate, rot_wind, equator_start) -> NavState:
    """Departure state of the oblate benchmark: heading 60 deg upwind."""
    return initial_state_randers(oblate, rot_wind, equator_start, math.pi / 3)


@pytest.fixture
def bench_reversed(oblate, rot_wind, equator_start) -> NavState:
    """Same start with the azimuthal component reversed (heading 120 deg)."""
    return initial_state_randers(oblate, rot_wind, equator_start, 2 * math.pi / 3)


class TestInitialStates:
    def test_benchmark_velocity(self, bench_state):
        assert bench_state.vel.u == pytest.approx(-3.0 / 14.0, abs=1e-15)
        assert bench_state.vel.v == pytest.approx(-2.0 / SQRT3, abs=1e-15)

    def test_reversed_velocity(self, bench_reversed):
        assert bench_reversed.vel.u == pytest.approx(-17.0 / 14.0, abs=1e-15)
        assert bench_reversed.vel.v == pytest.approx(-2.0 / SQRT3, abs=1e-15)

    def test_still_air_eastbound(self, oblate, equator_start):
        s = initial_state_randers(oblate, rotation_wind(0.0), equator_start, 0.0)
        assert s.vel.u == pytest.approx(1.0, abs=1e-15)
        assert s.vel.v == pytest.approx(0.0, abs=1e-16)

    def test_riemannian_benchmark(self, oblate, equator_start):
        s = initial_state_riemannian(oblate, equator_start, math.pi / 3)
        assert s.vel.u == pytest.approx(0.5, abs=1e-15)
        assert s.vel.v == pytest.approx(-2.0 / SQRT3, abs=1e-15)
        # equator unit condition
        assert s.vel.u**2 + 0.75**2 * s.vel.v**2 == pytest.approx(1.0, abs=1e-15)

    def test_riemannian_due_north(self, oblate, equator_start):
        s = initial_state_riemannian(oblate, equator_start, math.pi / 2)
        assert s.vel.u == pytest.approx(0.0, abs=1e-16)
        assert s.vel.v == pytest.approx(-4.0 / 3.0, rel=1e-15)

    def test_dispatch_by_kind(self, oblate, rot_wind, equator_start):
        hd = math.pi / 3
        want = {
            "h": initial_state_riemannian(oblate, equator_start, hd),
            "alpha": initial_state_alpha(oblate, rot_wind, equator_start, hd),
            "randers": initial_state_randers(oblate, rot_wind, equator_start, hd),
        }
        for kind, state in want.items():
            assert initial_state(oblate, rot_wind, kind, equator_start, hd) == state
        # without wind every kind starts on the unit h-circle
        assert initial_state(oblate, STILL_AIR, "randers", equator_start, hd) == want["h"]
        with pytest.raises(ValueError):
            initial_state(oblate, rot_wind, "finsler", equator_start, hd)
        with pytest.raises(ValueError):
            initial_state(oblate, None, "finsler", equator_start, hd)

    @settings(max_examples=300, deadline=None)
    @given(a=SHAPES, phi=HEADINGS, theta=COLATITUDES, heading=HEADINGS)
    def test_still_air_seed_is_unit_h_vector(self, a, phi, theta, heading):
        # the h flow seeds through initial_state_randers: W + unit h-vector
        # with W = (-0.0, 0.0), and -0.0 + u == u
        sph, p = Spheroid(a), SurfacePoint(phi, theta)
        seed = initial_state(sph, None, "h", p, heading)
        assert seed == initial_state_riemannian(sph, p, heading)


class TestHeading:
    def test_benchmark_recovers_heading(self, oblate, rot_wind, bench_state):
        assert heading_of(oblate, rot_wind, bench_state) == pytest.approx(
            math.pi / 3, abs=1e-14
        )

    def test_still_air_eastbound(self, oblate, equator_start):
        s = NavState(equator_start, TangentVector(1.0, 0.0))
        assert heading_of(oblate, STILL_AIR, s) == pytest.approx(0.0, abs=1e-15)

    def test_round_trip_both_builders(self, oblate, rot_wind):
        rng = np.random.default_rng(31)
        points = random_points(rng, 10)
        for heading in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False):
            for p in points:
                sr = initial_state_randers(oblate, rot_wind, p, float(heading))
                assert heading_of(oblate, rot_wind, sr) == pytest.approx(
                    float(heading), abs=1e-12
                )
                sh = initial_state_riemannian(oblate, p, float(heading))
                assert heading_of(oblate, STILL_AIR, sh) == pytest.approx(
                    float(heading), abs=1e-12
                )

    def test_tangent_relation_where_defined(self, oblate, rot_wind):
        # tan(heading) = (W2 - v) sqrt(h22) / ((u - W1) sin(theta))
        rng = np.random.default_rng(32)
        for st in random_mild_states(oblate, rot_wind, rng, 30):
            heading = heading_of(oblate, rot_wind, st)
            if abs(math.cos(heading)) < 1e-3:
                continue
            w1, w2 = rot_wind.at(st.point)
            h22 = math.cos(st.point.theta) ** 2 + 0.75**2 * math.sin(st.point.theta) ** 2
            tan = ((w2 - st.vel.v) * math.sqrt(h22)) / (
                (st.vel.u - w1) * math.sin(st.point.theta)
            )
            assert math.tan(heading) == pytest.approx(tan, rel=1e-9, abs=1e-9)

    def test_zero_relative_velocity_rejected(self, oblate, rot_wind, equator_start):
        drifting = NavState(equator_start, TangentVector(-ROTATION_RATE, 0.0))
        with pytest.raises(ZeroRelativeVelocity):
            heading_of(oblate, rot_wind, drifting)


class TestCourse:
    def test_benchmark_course(self, oblate, bench_state):
        assert math.degrees(course_of(oblate, bench_state)) == pytest.approx(
            103.9, abs=0.05
        )

    def test_reversed_course(self, oblate, bench_reversed):
        assert math.degrees(course_of(oblate, bench_reversed)) == pytest.approx(
            144.5, abs=0.05
        )

    def test_still_air_course_equals_heading(self, oblate):
        rng = np.random.default_rng(33)
        for st in random_mild_states(oblate, rotation_wind(0.0), rng, 30):
            assert course_of(oblate, st) == pytest.approx(
                heading_of(oblate, STILL_AIR, st), abs=1e-12
            )

    def test_zero_velocity_rejected(self, oblate, equator_start):
        with pytest.raises(ZeroVelocity):
            course_of(oblate, NavState(equator_start, TangentVector(0.0, 0.0)))


class TestDrift:
    def test_benchmark_drift(self, oblate, rot_wind, bench_state):
        drift = drift_of(oblate, rot_wind, bench_state)
        assert math.degrees(drift) == pytest.approx(-43.9, abs=0.05)
        # cosine from the dot-product formula: 9 / (2 sqrt(39))
        assert drift_cos_velocity(oblate, rot_wind, bench_state) == pytest.approx(
            9.0 / (2.0 * math.sqrt(39.0)), rel=1e-14
        )

    def test_reversed_drift(self, oblate, rot_wind, bench_reversed):
        drift = drift_of(oblate, rot_wind, bench_reversed)
        assert math.degrees(drift) == pytest.approx(-24.5, abs=0.05)

    def test_still_air_no_drift(self, oblate):
        rng = np.random.default_rng(34)
        for st in random_mild_states(oblate, rotation_wind(0.0), rng, 20):
            assert drift_of(oblate, STILL_AIR, st) == pytest.approx(0.0, abs=1e-12)

    def test_cos_formulas_agree(self, oblate, rot_wind):
        rng = np.random.default_rng(35)
        for st in random_mild_states(oblate, rot_wind, rng, 300):
            c1 = drift_cos_velocity(oblate, rot_wind, st)
            c2 = drift_cos_mildness(oblate, rot_wind, st)
            assert abs(c1 - c2) < 1e-10
            drift = drift_of(oblate, rot_wind, st)
            assert math.cos(drift) == pytest.approx(c1, abs=1e-10)

    @settings(max_examples=300, deadline=None)
    @given(a=SHAPES, c=RATES, theta=COLATITUDES, heading=HEADINGS)
    def test_mild_wind_bound(self, a, c, theta, heading):
        sph, wind = Spheroid(a), rotation_wind(c)
        st = initial_state_randers(sph, wind, SurfacePoint(0.3, theta), heading)
        assert abs(drift_of(sph, wind, st)) < math.pi / 2

    @settings(max_examples=300, deadline=None)
    @given(a=SHAPES, c=RATES, theta=COLATITUDES, heading=HEADINGS)
    def test_rotation_sign_rule(self, a, c, theta, heading):
        sph, wind = Spheroid(a), rotation_wind(c)
        st = initial_state_randers(sph, wind, SurfacePoint(0.3, theta), heading)
        assume(abs(c * st.vel.v) >= 1e-9)
        generic = drift_of(sph, wind, st)
        assert math.copysign(1.0, generic) == math.copysign(1.0, c * st.vel.v)
        assert rotation_drift(sph, c, st) == pytest.approx(generic, abs=1e-10)

    def test_law_of_cosines(self, oblate, rot_wind):
        # |W|^2 = |u|^2 + |v|^2 - 2 |u||v| cos|drift| with unit own speed
        rng = np.random.default_rng(38)
        for st in random_mild_states(oblate, rot_wind, rng, 200):
            w = wind_norm(oblate, rot_wind, st.point)
            v = speed_of(oblate, st)
            drift = drift_of(oblate, rot_wind, st)
            assert w * w == pytest.approx(
                1.0 + v * v - 2.0 * v * math.cos(abs(drift)), abs=1e-10
            )


class TestSpeed:
    def test_benchmark_speed(self, oblate, bench_state):
        assert speed_of(oblate, bench_state) == pytest.approx(
            math.sqrt(39.0) / 7.0, abs=1e-14
        )

    def test_reversed_speed(self, oblate, bench_reversed):
        assert speed_of(oblate, bench_reversed) == pytest.approx(
            math.sqrt(109.0) / 7.0, abs=1e-14
        )

    def test_still_air_unit(self, oblate):
        rng = np.random.default_rng(39)
        for st in random_mild_states(oblate, rotation_wind(0.0), rng, 20):
            assert speed_of(oblate, st) == pytest.approx(1.0, rel=1e-14)


class TestInitialSpeedVsHeading:
    def test_matches_state_construction(self, oblate, rot_wind):
        rng = np.random.default_rng(40)
        for p in random_points(rng, 10):
            for heading in np.linspace(0.0, 2 * math.pi, 16, endpoint=False):
                closed = initial_speed_closed(oblate, rot_wind, p, float(heading))
                direct = initial_speed_vs_heading(oblate, rot_wind, p, float(heading))
                assert closed == pytest.approx(direct, abs=1e-12)

    def test_equator_extremes(self, oblate, rot_wind, equator_start):
        upwind = initial_speed_vs_heading(oblate, rot_wind, equator_start, 0.0)
        downwind = initial_speed_vs_heading(oblate, rot_wind, equator_start, math.pi)
        assert upwind == pytest.approx(2.0 / 7.0, abs=1e-10)
        assert downwind == pytest.approx(12.0 / 7.0, abs=1e-10)

    def test_benchmark_heading_speed(self, oblate, rot_wind, equator_start):
        got = initial_speed_vs_heading(oblate, rot_wind, equator_start, math.pi / 3)
        assert got == pytest.approx(math.sqrt(39.0) / 7.0, abs=1e-12)

    def test_still_air_flat(self, oblate, equator_start):
        w0 = rotation_wind(0.0)
        for heading in np.linspace(0.0, 2 * math.pi, 12):
            got = initial_speed_vs_heading(oblate, w0, equator_start, float(heading))
            assert got == pytest.approx(1.0, abs=1e-14)

    def test_strong_wind_rejected(self, oblate, equator_start):
        gale = custom_wind(lambda phi, theta: (1.5, 0.0))
        with pytest.raises(NotMild):
            initial_speed_vs_heading(oblate, gale, equator_start, 0.0)

    def test_nan_wind_rejected(self, oblate, equator_start):
        # a NaN mildness factor must not pass as mild
        blank = custom_wind(lambda phi, theta: (math.nan, 0.0))
        with pytest.raises(NotMild):
            RandersData(oblate, blank).mildness_factor(equator_start)
        with pytest.raises(NotMild):
            initial_speed_vs_heading(oblate, blank, equator_start, 0.0)

    @settings(max_examples=300, deadline=None)
    @given(a=SHAPES, c=RATES, theta=COLATITUDES, heading=HEADINGS)
    def test_range_is_twice_wind_norm(self, a, c, theta, heading):
        # |v(heading)|^2 = 1 + w^2 + 2 w cos(heading + delta) with
        # w = |W|_h and delta from the wind components, so the exact
        # extremes sit at heading = -delta and pi - delta, and every
        # heading lies between them
        sph, wind, p = Spheroid(a), rotation_wind(c), SurfacePoint(0.3, theta)
        w1, w2 = wind.at(p)
        h11, h22 = metric_components(sph, theta)
        delta = math.atan2(-w2 * math.sqrt(h22), w1 * math.sqrt(h11))
        fastest = initial_speed_vs_heading(sph, wind, p, delta)
        slowest = initial_speed_vs_heading(sph, wind, p, delta + math.pi)
        assert fastest - slowest == pytest.approx(2.0 * wind_norm(sph, wind, p), abs=1e-10)
        assert slowest - 1e-12 <= initial_speed_vs_heading(sph, wind, p, heading)
        assert initial_speed_vs_heading(sph, wind, p, heading) <= fastest + 1e-12


class TestControlChannel:
    @pytest.fixture
    def bench_channel(self, oblate, rot_wind, bench_state):
        traj = integrate(
            make_rhs("randers", oblate, rot_wind), bench_state,
            IntegratorConfig(t_end=7.0), kind="randers",
        )
        return traj, control_channel(oblate, rot_wind, traj.rows)

    def test_drift_range_on_benchmark(self, bench_channel):
        _, channel = bench_channel
        drifts = [math.degrees(rec.drift) for rec in channel]
        assert max(abs(d) for d in drifts) <= 43.9 + 0.5
        assert abs(drifts[0]) == pytest.approx(43.9, abs=0.05)

    def test_angular_speed_translation(self, oblate, rot_wind, bench_channel):
        traj_f, _ = bench_channel
        s0 = initial_state_riemannian(oblate, SurfacePoint(0.0, math.pi / 2), math.pi / 3)
        traj_h = integrate(make_rhs("h", oblate, None), s0,
                           IntegratorConfig(t_end=7.0), kind="h")
        for (t1, sf), (t2, sh) in zip(traj_f.samples, traj_h.samples):
            assert sf.vel.u - sh.vel.u == pytest.approx(-ROTATION_RATE, abs=1e-6)

    def test_still_air_channel(self, oblate):
        s0 = initial_state_riemannian(oblate, SurfacePoint(0.0, math.pi / 2), math.pi / 3)
        traj = integrate(make_rhs("h", oblate, None), s0,
                         IntegratorConfig(t_end=3.0), kind="h")
        channel = control_channel(oblate, STILL_AIR, traj.rows)
        assert len(channel) == len(traj.samples)
        for rec in channel:
            assert rec.drift == pytest.approx(0.0, abs=1e-12)
            assert rec.heading == pytest.approx(rec.course, abs=1e-12)

    def test_gap_handling(self, oblate, rot_wind, bench_channel):
        traj, channel = bench_channel
        # the benchmark path keeps both angles defined at every sample
        assert len(channel) == len(traj.samples)
        assert [rec.t for rec in channel] == [row[0] for row in traj.rows]

    @settings(max_examples=25, deadline=None)
    @given(a=SHAPES, c=RATES, heading=HEADINGS)
    def test_one_pass_equals_composition(self, a, c, heading):
        # the pass over the rows and the per-state formulas over the
        # samples built from them give equal records, float for float
        sph = Spheroid(a)
        start = SurfacePoint(0.3, 1.2)
        for wind in (rotation_wind(c), BREEZE):
            s0 = initial_state_randers(sph, wind, start, heading)
            traj = integrate(make_rhs("randers", sph, wind), s0,
                             IntegratorConfig(t_end=2.0), kind="randers")
            assert traj.samples[0][1] == s0
            assert len(traj.rows) == len(traj.samples)
            channel = control_channel(sph, wind, traj.rows)
            assert channel == composed_channel(sph, wind, traj)
            # one pass over the rows: an iterator of them gives the same records
            assert control_channel(sph, wind, iter(traj.rows)) == channel

    def test_gap_rows_are_none_like_composition(self, oblate, rot_wind):
        c = ROTATION_RATE
        rows = [
            (0.0, 0.0, 1.2, 0.3, -0.4),
            (0.01, 0.1, 1.2, -c, 0.0),  # moves with the wind: no relative velocity
            (0.02, 0.2, 1.3, 0.0, 0.0),  # holds still against it: no ground velocity
            (0.03, 0.3, 1.3, 0.5, 0.2),
        ]
        traj = Trajectory(rows=rows)
        for wind in (rot_wind, STILL_AIR):
            channel = control_channel(oblate, wind, rows)
            assert channel == composed_channel(oblate, wind, traj)
        # one entry per row, None where an angle is undefined
        times = [None if rec is None else rec.t
                 for rec in control_channel(oblate, rot_wind, rows)]
        assert times == [0.0, None, None, 0.03]
        # in still air the resting row lacks both angles, the heading first
        times = [None if rec is None else rec.t
                 for rec in control_channel(oblate, STILL_AIR, rows)]
        assert times == [0.0, 0.01, None, 0.03]


def test_control_record_has_no_dict():
    # one record per sample: a named tuple without a __dict__ is 80 bytes
    rec = ControlRecord(0.0, 1.0, 2.0, 0.5, 1.5)
    assert not hasattr(rec, "__dict__")
    assert ControlRecord._fields == ("t", "heading", "course", "drift", "speed")
    assert ControlRecord.__slots__ == ()
    with pytest.raises(AttributeError):
        rec.speed = 2.0


class TestWrap:
    def test_wrap_signed_edges(self):
        assert wrap_signed(math.pi) == math.pi
        assert wrap_signed(-math.pi) == math.pi
        assert wrap_signed(3 * math.pi) == pytest.approx(math.pi)
        assert wrap_signed(0.5) == 0.5
        assert wrap_signed(-2.5) == -2.5
