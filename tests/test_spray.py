"""Spray coefficients: runtime routes vs closed forms and the numeric quotient oracle."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from znav import (
    DegenerateHessian,
    NavState,
    NotMild,
    PoleSingularity,
    Spheroid,
    SprayCoefficients,
    SurfacePoint,
    TangentVector,
    alpha_lagrangian,
    custom_wind,
    h_norm,
    make_rhs,
    randers_lagrangian,
    riemannian_rhs,
    rotation_wind,
    spray_alpha_closed,
    spray_numeric,
    spray_rotation_closed,
    wind_norm,
)
from tests.conftest import ROTATION_RATE, random_mild_states


def state(phi, theta, u, v) -> NavState:
    return NavState(SurfacePoint(phi, theta), TangentVector(u, v))


def spray_scale(sph, st: NavState) -> float:
    """Scale floor for relative spray comparison.

    G and H vanish identically on equatorial states, so errors are
    measured against max(|G|, |H|, |y|_h^2): the squared speed is the
    natural 2-homogeneous magnitude of a spray coefficient.
    """
    return h_norm(sph, st.point, st.vel) ** 2


def assert_sprays_close(sph, got, want, st, tol):
    scale = max(abs(want.G), abs(want.H), spray_scale(sph, st))
    assert abs(got.G - want.G) <= tol * scale
    assert abs(got.H - want.H) <= tol * scale


class TestRotationClosedForm:
    def test_no_wind_reduces_to_christoffel_spray(self, oblate):
        rng = np.random.default_rng(21)
        for st in random_mild_states(oblate, rotation_wind(0.0), rng, 25):
            sc = spray_rotation_closed(oblate, 0.0, st)
            acc = riemannian_rhs(oblate, st)
            assert -2.0 * sc.G == pytest.approx(acc[0], rel=1e-12, abs=1e-12)
            assert -2.0 * sc.H == pytest.approx(acc[1], rel=1e-12, abs=1e-12)

    def test_equator_invariant_under_rotation(self, oblate):
        sc = spray_rotation_closed(oblate, ROTATION_RATE, state(0.0, math.pi / 2, -3.0 / 14.0, 0.0))
        assert sc.G == pytest.approx(0.0, abs=1e-15)
        assert sc.H == pytest.approx(0.0, abs=1e-15)

    def test_agrees_with_numeric_quotient(self, oblate, rot_wind):
        L = randers_lagrangian(oblate, rot_wind)
        st = state(0.3, 1.2, 0.4, -0.5)
        closed = spray_rotation_closed(oblate, ROTATION_RATE, st)
        numeric = spray_numeric(L, st)
        assert_sprays_close(oblate, numeric, closed, st, 1e-6)

    def test_agrees_with_numeric_on_random_states(self, oblate, rot_wind):
        L = randers_lagrangian(oblate, rot_wind)
        rng = np.random.default_rng(22)
        for st in random_mild_states(oblate, rot_wind, rng, 100):
            closed = spray_rotation_closed(oblate, ROTATION_RATE, st)
            numeric = spray_numeric(L, st)
            assert_sprays_close(oblate, numeric, closed, st, 1e-6)

    def test_two_homogeneity(self, oblate):
        rng = np.random.default_rng(23)
        for st in random_mild_states(oblate, rotation_wind(ROTATION_RATE), rng, 10):
            base = spray_rotation_closed(oblate, ROTATION_RATE, st)
            for k in (0.5, 2.0, 3.0):
                scaled_state = NavState(
                    st.point, TangentVector(k * st.vel.u, k * st.vel.v)
                )
                got = spray_rotation_closed(oblate, ROTATION_RATE, scaled_state)
                assert got.G == pytest.approx(k * k * base.G, rel=1e-12, abs=1e-13)
                assert got.H == pytest.approx(k * k * base.H, rel=1e-12, abs=1e-13)

    def test_zero_velocity(self, oblate):
        sc = spray_rotation_closed(oblate, ROTATION_RATE, state(0.0, 1.0, 0.0, 0.0))
        assert (sc.G, sc.H) == (0.0, 0.0)

    def test_pole_guard(self, oblate):
        with pytest.raises(PoleSingularity):
            spray_rotation_closed(oblate, ROTATION_RATE, state(0.0, 1e-9, 1.0, 0.0))

    def test_benchmark_specialized_equations(self, oblate):
        """Frozen a=3/4, c=5/7 double-angle accelerations.

        Independent specialization of the closed spray (the azimuthal
        root abbreviation equals 112 times the generic one), typed from
        its own derivation and compared at sampled states.
        """

        def specialized_acc(theta, u, v):
            s2 = math.sin(theta) ** 2
            c2t = math.cos(2 * theta)
            c4t = math.cos(4 * theta)
            csc2 = 1.0 / s2
            cot = math.cos(theta) / math.sin(theta)
            root = math.sqrt(
                v * v * (4544.0 * c2t + 350.0 * c4t + 7650.0) + 12544.0 * u * u * s2
            )
            phi_dd = -(5.0 * root + 784.0 * u) * v * cot * csc2 / (
                8.0 * (49.0 * csc2 - 25.0)
            )
            num = (
                (root + 80.0 * u * s2) ** 3
                * (
                    392.0 * u * (5.0 * root + (492.0 - 100.0 * c2t) * u)
                    + v * v * (53950.0 * c2t + 4375.0 * c4t + 87303.0)
                )
                * math.sin(2 * theta)
            )
            den = (
                2.0
                * (7.0 * c2t + 25.0)
                * (25.0 * c2t + 73.0) ** 2
                * (
                    v * v * (2272.0 * c2t + 175.0 * c4t + 3825.0)
                    * (root + 240.0 * u * s2)
                    + 64.0 * u * u * s2
                    * ((173.0 - 75.0 * c2t) * root
                       - 80.0 * s2 * (25.0 * c2t - 319.0) * u)
                )
            )
            return phi_dd, num / den

        rng = np.random.default_rng(24)
        for st in random_mild_states(oblate, rotation_wind(ROTATION_RATE), rng, 40):
            sc = spray_rotation_closed(oblate, ROTATION_RATE, st)
            expected = specialized_acc(st.point.theta, st.vel.u, st.vel.v)
            scale = max(abs(expected[0]), abs(expected[1]), spray_scale(oblate, st))
            assert abs(-2.0 * sc.G - expected[0]) <= 1e-10 * scale
            assert abs(-2.0 * sc.H - expected[1]) <= 1e-10 * scale


class TestAlphaClosedForm:
    def test_no_wind_reduces_to_christoffel_spray(self, oblate):
        rng = np.random.default_rng(25)
        for st in random_mild_states(oblate, rotation_wind(0.0), rng, 25):
            sc = spray_alpha_closed(oblate, 0.0, st)
            acc = riemannian_rhs(oblate, st)
            assert -2.0 * sc.G == pytest.approx(acc[0], rel=1e-12, abs=1e-12)
            assert -2.0 * sc.H == pytest.approx(acc[1], rel=1e-12, abs=1e-12)

    def test_agrees_with_numeric_quotient(self, oblate, rot_wind):
        L = alpha_lagrangian(oblate, rot_wind)
        rng = np.random.default_rng(26)
        for st in random_mild_states(oblate, rot_wind, rng, 100):
            closed = spray_alpha_closed(oblate, ROTATION_RATE, st)
            numeric = spray_numeric(L, st)
            assert_sprays_close(oblate, numeric, closed, st, 1e-6)

    def test_benchmark_specialized_equations(self, oblate):
        """Frozen a=3/4, c=5/7 accelerations of the Riemannian alpha-part."""

        def specialized_acc(theta, u, v):
            csc2 = 1.0 / math.sin(theta) ** 2
            cot = math.cos(theta) / math.sin(theta)
            c2t = math.cos(2 * theta)
            phi_dd = -2.0 * u * v * cot * (49.0 * csc2 + 25.0) / (49.0 * csc2 - 25.0)
            theta_dd = (
                -2.0
                * math.sin(2 * theta)
                * (
                    25.0 * c2t * (784.0 * u * u + 57.0 * v * v)
                    - 96432.0 * u * u
                    + 4161.0 * v * v
                )
                / ((7.0 * c2t + 25.0) * (25.0 * c2t + 73.0) ** 2)
            )
            return phi_dd, theta_dd

        rng = np.random.default_rng(27)
        for st in random_mild_states(oblate, rotation_wind(ROTATION_RATE), rng, 40):
            sc = spray_alpha_closed(oblate, ROTATION_RATE, st)
            expected = specialized_acc(st.point.theta, st.vel.u, st.vel.v)
            scale = max(abs(expected[0]), abs(expected[1]), spray_scale(oblate, st))
            assert abs(-2.0 * sc.G - expected[0]) <= 1e-10 * scale
            assert abs(-2.0 * sc.H - expected[1]) <= 1e-10 * scale


class TestNumericSpray:
    def test_round_sphere_still_air(self, sphere):
        # the quotient route must reproduce the Christoffel spray of the
        # unperturbed metric
        L = randers_lagrangian(sphere, rotation_wind(0.0))
        rng = np.random.default_rng(28)
        for st in random_mild_states(sphere, rotation_wind(0.0), rng, 20):
            sc = spray_numeric(L, st)
            acc = riemannian_rhs(sphere, st)
            scale = max(abs(acc[0]), abs(acc[1]), spray_scale(sphere, st))
            assert abs(-2.0 * sc.G - acc[0]) <= 1e-6 * scale
            assert abs(-2.0 * sc.H - acc[1]) <= 1e-6 * scale

    def test_scaling(self, oblate, rot_wind):
        L = randers_lagrangian(oblate, rot_wind)
        st = state(0.9, 1.1, 0.5, -0.8)
        base = spray_numeric(L, st)
        doubled = spray_numeric(
            L, NavState(st.point, TangentVector(2 * st.vel.u, 2 * st.vel.v))
        )
        assert doubled.G == pytest.approx(4.0 * base.G, rel=1e-6)
        assert doubled.H == pytest.approx(4.0 * base.H, rel=1e-6)

    def test_degenerate_hessian(self):
        # a Lagrangian flat in v has a singular velocity Hessian
        def flat(phi, theta, u, v):
            return 0.5 * u * u

        with pytest.raises(DegenerateHessian):
            spray_numeric(flat, state(0.0, 1.0, 1.0, 0.5))


class TestGeodesicRhsDispatch:
    def test_h_kind_at_equator(self, oblate, rot_wind):
        acc = make_rhs("h", oblate, rot_wind)(0.0, math.pi / 2, 1.0, 0.0)
        assert acc == pytest.approx((0.0, 0.0), abs=1e-15)

    def test_alpha_kind_no_wind_equals_h(self, oblate):
        got = make_rhs("alpha", oblate, rotation_wind(0.0))(0.4, 1.3, 0.6, -0.2)
        want = riemannian_rhs(oblate, state(0.4, 1.3, 0.6, -0.2))
        assert got == pytest.approx(want, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        a=strategies.floats(0.2, 3.0),
        c=strategies.floats(-0.9, 0.9),
        theta=strategies.floats(0.01, math.pi - 0.01),
        speed=strategies.just(0.0) | strategies.floats(1e-3, 1e3),
        direction=strategies.floats(0.0, 2.0 * math.pi),
    )
    def test_h_and_alpha_rhs_match_reference_sprays(self, a, c, theta, speed, direction):
        # h runs as the navigation spray of still air whatever the wind,
        # alpha as the Christoffel spray of a_ij; both land on the
        # reference formulas
        sph = Spheroid(a)
        wind = rotation_wind(c)
        st = state(0.3, theta, speed * math.cos(direction), speed * math.sin(direction))
        h_acc = riemannian_rhs(sph, st)
        for kind, want in (
            ("h", SprayCoefficients(-0.5 * h_acc[0], -0.5 * h_acc[1])),
            ("alpha", spray_alpha_closed(sph, c, st)),
        ):
            acc = make_rhs(kind, sph, wind)(0.3, theta, st.vel.u, st.vel.v)
            got = SprayCoefficients(-0.5 * acc[0], -0.5 * acc[1])
            assert_sprays_close(sph, got, want, st, 1e-12)

    # |c| stays at or below 0.9 because the closed form itself loses digits
    # as the wind nears the unit speed (about 1e-10 at |c| = 0.99 against
    # 50-digit arithmetic, where the wind-drag route stays near 1e-14), and
    # the speed stays above 1e-3 because its degree-8 numerator and
    # denominator underflow for tiny velocities.
    @settings(max_examples=200, deadline=None)
    @given(
        a=strategies.floats(0.2, 3.0),
        c=strategies.floats(-0.9, 0.9),
        theta=strategies.floats(0.01, math.pi - 0.01),
        speed=strategies.just(0.0) | strategies.floats(1e-3, 1e3),
        direction=strategies.floats(0.0, 2.0 * math.pi),
    )
    def test_randers_rotation_rhs_matches_closed_spray(self, a, c, theta, speed, direction):
        # the wind-drag route holds for every velocity, not only on the
        # unit shell, and gives zero acceleration at zero velocity
        sph = Spheroid(a)
        st = state(0.3, theta, speed * math.cos(direction), speed * math.sin(direction))
        acc = make_rhs("randers", sph, rotation_wind(c))(0.3, theta, st.vel.u, st.vel.v)
        got = SprayCoefficients(-0.5 * acc[0], -0.5 * acc[1])
        want = spray_rotation_closed(sph, c, st)
        assert_sprays_close(sph, got, want, st, 1e-12)

    def test_custom_wind_routes_through_navigation_spray(self, oblate):
        # one randers route for every wind kind, h on the same route, and
        # one alpha route for every wind kind
        gentle = custom_wind(lambda phi, theta: (0.2 * math.sin(theta), 0.1))
        rhs = make_rhs("randers", oblate, gentle)
        assert rhs.__code__ is make_rhs("randers", oblate, rotation_wind(0.5)).__code__
        assert rhs.__code__ is make_rhs("h", oblate, None).__code__
        alpha = make_rhs("alpha", oblate, gentle)
        assert alpha.__code__ is make_rhs("alpha", oblate, rotation_wind(0.5)).__code__
        acc = rhs(0.4, 1.3, 0.6, -0.2)
        assert all(math.isfinite(x) for x in acc)

    @settings(max_examples=60, deadline=None)
    @given(
        a=strategies.floats(0.5, 2.0),
        coef=strategies.lists(strategies.floats(-1.0, 1.0), min_size=4, max_size=4),
        freq=strategies.lists(strategies.integers(1, 3), min_size=4, max_size=4),
        phase=strategies.lists(strategies.floats(0.0, 2.0 * math.pi), min_size=4, max_size=4),
        peak=strategies.floats(0.0, 0.8, exclude_max=True),
        seed=strategies.integers(0, 2**32 - 1),
    )
    def test_custom_wind_rhs_matches_numeric_spray(self, a, coef, freq, phase, peak, seed):
        # smooth trigonometric winds rescaled to a sampled max |W|_h of
        # `peak`; both flows must land on the finite-difference oracle.
        # The oracle runs at half its default step: at the default its own
        # truncation error reaches 2e-6 for the steepest winds here
        # (frequency 3, peak near 0.8), at 1e-3 it stayed below 1.3e-7 over
        # 9000 sampled sprays, and smaller steps meet its roundoff floor.
        sph = Spheroid(a)
        c0, c1, d0, d1 = coef
        m1, k1, m2, k2 = freq
        p1, q1, p2, q2 = phase

        def shape(phi, theta):
            return (c0 + c1 * math.cos(m1 * phi + p1) * math.sin(k1 * theta + q1),
                    d0 + d1 * math.sin(m2 * phi + p2) * math.cos(k2 * theta + q2))

        raw = custom_wind(shape)
        top = max(
            wind_norm(sph, raw, SurfacePoint(2.0 * math.pi * i / 24,
                                             0.01 + (math.pi - 0.02) * j / 24))
            for i in range(25) for j in range(25)
        )
        k = peak / top if top > 0.0 else 0.0
        wind = custom_wind(lambda phi, theta: tuple(k * w for w in shape(phi, theta)))
        rng = np.random.default_rng(seed)
        for st in random_mild_states(sph, wind, rng, 3):
            for kind, lagrangian in (("randers", randers_lagrangian),
                                     ("alpha", alpha_lagrangian)):
                acc = make_rhs(kind, sph, wind)(
                    st.point.phi, st.point.theta, st.vel.u, st.vel.v
                )
                got = SprayCoefficients(-0.5 * acc[0], -0.5 * acc[1])
                want = spray_numeric(lagrangian(sph, wind), st, rel_step=1e-3)
                assert_sprays_close(sph, got, want, st, 1e-6)

    def test_custom_route_against_rotation_oracle(self, oblate):
        # the same rotation components tagged as a custom field go
        # through the navigation spray with a zero wind Jacobian and
        # land on the closed form
        disguised = custom_wind(lambda phi, theta: (-ROTATION_RATE, 0.0))
        rng = np.random.default_rng(29)
        rhs = make_rhs("randers", oblate, disguised)
        for st in random_mild_states(oblate, disguised, rng, 30):
            got = rhs(st.point.phi, st.point.theta, st.vel.u, st.vel.v)
            sc = spray_rotation_closed(oblate, ROTATION_RATE, st)
            want = (-2.0 * sc.G, -2.0 * sc.H)
            scale = max(abs(want[0]), abs(want[1]), spray_scale(oblate, st))
            assert abs(got[0] - want[0]) <= 1e-12 * scale
            assert abs(got[1] - want[1]) <= 1e-12 * scale

    @pytest.mark.parametrize("kind", ["randers", "alpha"])
    def test_strong_wind_rejected(self, oblate, kind):
        gale = custom_wind(lambda phi, theta: (1.5, 0.0))
        with pytest.raises(NotMild):
            make_rhs(kind, oblate, gale)(0.0, math.pi / 2, 1.0, 0.0)

    @pytest.mark.parametrize("kind", ["randers", "alpha"])
    def test_nan_wind_rejected(self, oblate, kind):
        # a NaN mildness factor must not pass as mild
        blank = custom_wind(lambda phi, theta: (math.nan, 0.0))
        with pytest.raises(NotMild):
            make_rhs(kind, oblate, blank)(0.0, math.pi / 2, 1.0, 0.0)

    def test_unknown_kind(self, oblate, rot_wind):
        with pytest.raises(ValueError):
            make_rhs("finsler", oblate, rot_wind)
        with pytest.raises(ValueError):
            make_rhs("finsler", oblate, None)
