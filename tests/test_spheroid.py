"""Metric, Christoffel symbols, embedding and the unperturbed geodesic flow."""
import math

import numpy as np
import pytest

from znav import (
    NavState,
    PoleSingularity,
    Spheroid,
    SurfacePoint,
    TangentVector,
    clairaut_invariant,
    h_norm,
    metric_components,
    unit_heading_vector,
)
from znav.spheroid import embed_rows
from tests.conftest import random_points
from tests.oracles import christoffels, embed, riemannian_rhs


def state(phi, theta, u, v) -> NavState:
    return NavState(SurfacePoint(phi, theta), TangentVector(u, v))


class TestMetricComponents:
    def test_oblate_equator(self, oblate):
        h11, h22 = metric_components(oblate, math.pi / 2)
        assert h11 == pytest.approx(1.0, abs=1e-15)
        assert h22 == pytest.approx(9.0 / 16.0, abs=1e-15)

    def test_pole_degeneracy(self, oblate):
        h11, h22 = metric_components(oblate, 0.0)
        assert h11 == 0.0
        assert h22 == 1.0

    def test_sphere(self, sphere):
        h11, h22 = metric_components(sphere, math.pi / 3)
        assert h11 == pytest.approx(0.75, abs=1e-15)
        assert h22 == pytest.approx(1.0, abs=1e-15)


class TestHNorm:
    def test_unit_benchmark_vector(self, oblate, equator_start):
        vec = TangentVector(0.5, -2.0 / math.sqrt(3.0))
        assert h_norm(oblate, equator_start, vec) == pytest.approx(1.0, abs=1e-15)

    def test_zero_vector(self, oblate):
        assert h_norm(oblate, SurfacePoint(1.0, 1.0), TangentVector(0.0, 0.0)) == 0.0

    def test_downwind_resulting_velocity(self, oblate, equator_start):
        vec = TangentVector(-17.0 / 14.0, -2.0 / math.sqrt(3.0))
        expected = math.sqrt(109.0) / 7.0
        assert h_norm(oblate, equator_start, vec) == pytest.approx(expected, rel=1e-14)


class TestChristoffels:
    def test_equator_all_vanish(self, oblate):
        assert christoffels(oblate, math.pi / 2) == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)

    def test_sphere_midlatitude(self, sphere):
        g112, g211, g222 = christoffels(sphere, math.pi / 4)
        assert g112 == pytest.approx(1.0, rel=1e-14)
        assert g211 == pytest.approx(-0.5, rel=1e-14)
        assert g222 == pytest.approx(0.0, abs=1e-15)

    def test_pole_guard(self, oblate):
        with pytest.raises(PoleSingularity):
            christoffels(oblate, 1e-8)
        with pytest.raises(PoleSingularity):
            christoffels(oblate, math.pi - 1e-8)

    def test_against_finite_difference_oracle(self, oblate):
        """Levi-Civita formula from numerically differentiated metric components.

        For the diagonal theta-only metric the nonzero symbols are
        G1_12 = h11'/(2 h11), G2_11 = -h11'/(2 h22), G2_22 = h22'/(2 h22).
        """
        d = 1e-6
        for theta in np.linspace(0.1, math.pi - 0.1, 41):
            hp = metric_components(oblate, theta + d)
            hm = metric_components(oblate, theta - d)
            h11, h22 = metric_components(oblate, theta)
            dh11 = (hp[0] - hm[0]) / (2 * d)
            dh22 = (hp[1] - hm[1]) / (2 * d)
            expected = (dh11 / (2 * h11), -dh11 / (2 * h22), dh22 / (2 * h22))
            got = christoffels(oblate, theta)
            assert got == pytest.approx(expected, rel=1e-6, abs=1e-6)


class TestRiemannianRhs:
    def test_equator_is_geodesic(self, oblate):
        acc = riemannian_rhs(oblate, state(0.0, math.pi / 2, 1.0, 0.0))
        assert acc == pytest.approx((0.0, 0.0), abs=1e-15)

    def test_equatorial_benchmark_state(self, oblate):
        # sin*cos vanishes at the equator, so both accelerations are zero
        # for any velocity there; the flow bends only once theta moves.
        acc = riemannian_rhs(oblate, state(0.0, math.pi / 2, 0.5, -2.0 / math.sqrt(3.0)))
        assert acc == pytest.approx((0.0, 0.0), abs=1e-15)

    def test_matches_sphere_oracle(self, sphere):
        """Independent round-sphere formulas: u'' = -2 u v cot, v'' = sin cos u^2."""
        rng = np.random.default_rng(42)
        for p in random_points(rng, 20):
            u, v = rng.uniform(-2, 2, 2)
            got = riemannian_rhs(sphere, state(p.phi, p.theta, u, v))
            cot = math.cos(p.theta) / math.sin(p.theta)
            expected = (
                -2.0 * u * v * cot,
                math.sin(p.theta) * math.cos(p.theta) * u * u,
            )
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_time_reversal_invariance(self, oblate):
        # quadratic in velocity: negating (u, v) keeps the accelerations
        s1 = state(0.3, 1.1, 0.7, -0.4)
        s2 = state(0.3, 1.1, -0.7, 0.4)
        assert riemannian_rhs(oblate, s1) == pytest.approx(riemannian_rhs(oblate, s2), rel=1e-15)


class TestEmbed:
    def test_equator_prime_meridian(self, oblate):
        assert embed(oblate, SurfacePoint(0.0, math.pi / 2)) == pytest.approx(
            (1.0, 0.0, 0.0), abs=1e-15
        )

    def test_north_pole(self, oblate):
        x, y, z = embed(oblate, SurfacePoint(2.3, 0.0))
        assert (x, y) == pytest.approx((0.0, 0.0), abs=1e-15)
        assert z == 0.75

    def test_quarter_turn(self, oblate):
        assert embed(oblate, SurfacePoint(math.pi / 2, math.pi / 2)) == pytest.approx(
            (0.0, 1.0, 0.0), abs=1e-15
        )

    @pytest.mark.parametrize("a", [0.5, 0.75, 1.0, 1.7])
    def test_on_ellipsoid_everywhere(self, a):
        sph = Spheroid(a)
        rng = np.random.default_rng(7)
        for p in random_points(rng, 50):
            x, y, z = embed(sph, p)
            assert abs(x * x + y * y + z * z / (a * a) - 1.0) < 1e-12

    @pytest.mark.parametrize("a", [0.5, 0.75, 1.7])
    def test_rows_embedded_as_points(self, a):
        # embed_rows maps each (t, phi, theta, ...) row to (t, *embed(point))
        sph = Spheroid(a)
        rng = np.random.default_rng(11)
        points = random_points(rng, 50)
        rows = [(0.1 * k, p.phi, p.theta, 0.5, -0.5) for k, p in enumerate(points)]
        assert list(embed_rows(sph, rows)) == [
            (0.1 * k, *embed(sph, p)) for k, p in enumerate(points)
        ]


class TestClairautInvariant:
    def test_equator_eastbound(self, oblate):
        assert clairaut_invariant(oblate, state(0.0, math.pi / 2, 1.0, 0.0)) == 1.0

    def test_benchmark_state(self, oblate):
        s = state(0.0, math.pi / 2, 0.5, -2.0 / math.sqrt(3.0))
        assert clairaut_invariant(oblate, s) == 0.5


class TestUnitHeadingVector:
    def test_benchmark_heading(self, oblate, equator_start):
        vec = unit_heading_vector(oblate, equator_start, math.pi / 3)
        assert vec.u == pytest.approx(0.5, abs=1e-15)
        assert vec.v == pytest.approx(-2.0 / math.sqrt(3.0), rel=1e-15)

    def test_equator_condition(self, oblate, equator_start):
        # at the equator the unit condition reads u^2 + a^2 v^2 = 1
        for heading in np.linspace(0.0, 2.0 * math.pi, 17):
            vec = unit_heading_vector(oblate, equator_start, float(heading))
            assert vec.u**2 + 0.75**2 * vec.v**2 == pytest.approx(1.0, abs=1e-14)

    def test_due_north_branch(self, oblate, equator_start):
        vec = unit_heading_vector(oblate, equator_start, math.pi / 2)
        assert vec.u == pytest.approx(0.0, abs=1e-15)
        assert vec.v == pytest.approx(-1.0 / 0.75, rel=1e-15)

    def test_unit_everywhere(self, oblate):
        rng = np.random.default_rng(3)
        for p in random_points(rng, 30):
            vec = unit_heading_vector(oblate, p, float(rng.uniform(0, 2 * math.pi)))
            assert h_norm(oblate, p, vec) == pytest.approx(1.0, rel=1e-14)


def test_spheroid_validation():
    with pytest.raises(ValueError):
        Spheroid(0.0)
    with pytest.raises(ValueError):
        Spheroid(-1.0)
    for bad in (math.nan, math.inf, 1e160, 1e-170):  # a * a overflows, underflows
        with pytest.raises(ValueError):
            Spheroid(bad)
