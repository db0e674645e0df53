"""Travel-time metric F = alpha + beta, its Lagrangian and indicatrices."""
import math

import numpy as np
import pytest
from hypothesis import given, settings

from znav import (
    F_value,
    NotMild,
    RandersData,
    Spheroid,
    SurfacePoint,
    TangentVector,
    alpha_term,
    custom_wind,
    h_norm,
    indicatrix,
    lagrangian,
    metric_components,
    rotation_wind,
    unit_heading_vector,
)
from tests.conftest import (
    COLATITUDES,
    HEADINGS,
    RATES,
    ROTATION_RATE,
    SHAPES,
    random_points,
    random_vectors,
)
from tests.oracles import F_rotation_closed, beta_term, wind_norm


@pytest.fixture
def rd(oblate, rot_wind) -> RandersData:
    return RandersData(oblate, rot_wind)


@pytest.fixture
def rd_still(oblate) -> RandersData:
    return RandersData(oblate, rotation_wind(0.0))


class TestAlphaTerm:
    def test_still_air_reduces_to_h_norm(self, oblate, rd_still):
        rng = np.random.default_rng(11)
        for p, y in zip(random_points(rng, 20), random_vectors(rng, 20)):
            assert alpha_term(rd_still, p, y) == pytest.approx(
                h_norm(oblate, p, y), rel=1e-14, abs=1e-15
            )

    def test_azimuthal_vector_at_equator(self, rd, equator_start):
        c = ROTATION_RATE
        for u in (1.0, -0.7, 2.5):
            got = alpha_term(rd, equator_start, TangentVector(u, 0.0))
            assert got == pytest.approx(abs(u) / (1.0 - c * c), rel=1e-14)

    def test_absolute_homogeneity(self, rd):
        rng = np.random.default_rng(12)
        for p, y in zip(random_points(rng, 15), random_vectors(rng, 15)):
            base = alpha_term(rd, p, y)
            for k in (-2.0, -0.5, 0.5, 3.0):
                scaled = alpha_term(rd, p, TangentVector(k * y.u, k * y.v))
                assert scaled == pytest.approx(abs(k) * base, rel=1e-12, abs=1e-14)

    def test_rounded_negative_radicand_clamped(self):
        # |W|_h^2 = 1 - 1.1e-16 at this point, still mild, and y across
        # the wind: the radicand lam |y|^2 + <W, y>^2 rounds to -1.1e-17,
        # which alpha reads as 0, not as a domain error
        rd = RandersData(Spheroid(0.75), custom_wind(lambda phi, theta: (1.4426428602054533, 0.0)))
        lam, alpha, beta = rd.terms(0.0, 0.7658809781559258, 0.0, 0.34751002768217165)
        assert 0.0 < lam < 2e-16
        assert alpha == 0.0 and beta == 0.0


class TestBetaTerm:
    def test_still_air_vanishes(self, rd_still):
        rng = np.random.default_rng(13)
        for p, y in zip(random_points(rng, 10), random_vectors(rng, 10)):
            assert beta_term(rd_still, p, y) == 0.0

    def test_azimuthal_vector_at_equator(self, rd, equator_start):
        c = ROTATION_RATE
        got = beta_term(rd, equator_start, TangentVector(1.0, 0.0))
        assert got == pytest.approx(c / (1.0 - c * c), rel=1e-14)

    def test_meridional_vector_has_no_one_form(self, rd):
        for theta in (0.5, 1.5, 2.5):
            got = beta_term(rd, SurfacePoint(0.0, theta), TangentVector(0.0, 1.3))
            assert got == 0.0

    def test_linearity(self, rd):
        rng = np.random.default_rng(14)
        for p, y in zip(random_points(rng, 15), random_vectors(rng, 15)):
            base = beta_term(rd, p, y)
            for k in (-2.0, 0.5, 3.0):
                scaled = beta_term(rd, p, TangentVector(k * y.u, k * y.v))
                assert scaled == pytest.approx(k * base, rel=1e-12, abs=1e-14)


class TestFValue:
    def test_upwind_equator_time(self, rd, equator_start):
        # traversing eastward against the 5/7 rotation costs 7/2 per unit arc
        got = F_value(rd, equator_start, TangentVector(1.0, 0.0))
        assert got == pytest.approx(3.5, rel=1e-14)

    def test_still_air_unit_vector(self, oblate, rd_still):
        rng = np.random.default_rng(15)
        for p in random_points(rng, 10):
            y = unit_heading_vector(oblate, p, float(rng.uniform(0, 2 * math.pi)))
            assert F_value(rd_still, p, y) == pytest.approx(1.0, rel=1e-14)

    def test_wind_plus_unit_vector_is_unit_time(self, oblate, rd, equator_start):
        unit = unit_heading_vector(oblate, equator_start, math.pi / 3)
        y = TangentVector(unit.u - ROTATION_RATE, unit.v)
        assert y.u == pytest.approx(-3.0 / 14.0, abs=1e-15)
        assert F_value(rd, equator_start, y) == pytest.approx(1.0, abs=1e-14)

    def test_rotation_closed_form_agrees(self, oblate, rd):
        rng = np.random.default_rng(16)
        for p, y in zip(random_points(rng, 50), random_vectors(rng, 50)):
            general = F_value(rd, p, y)
            closed = F_rotation_closed(oblate, ROTATION_RATE, p.theta, y)
            assert closed == pytest.approx(general, rel=1e-12, abs=1e-12)

    def test_positive_homogeneity(self, rd):
        rng = np.random.default_rng(17)
        for p, y in zip(random_points(rng, 15), random_vectors(rng, 15)):
            base = F_value(rd, p, y)
            for k in (0.25, 2.0, 5.0):
                scaled = F_value(rd, p, TangentVector(k * y.u, k * y.v))
                assert scaled == pytest.approx(k * base, rel=1e-12)

    def test_positivity_under_mild_wind(self, rd):
        rng = np.random.default_rng(18)
        for p, y in zip(random_points(rng, 100), random_vectors(rng, 100)):
            if y.u == 0.0 and y.v == 0.0:
                continue
            assert F_value(rd, p, y) > 0.0

    def test_nonreversible(self, rd):
        # travel time differs with and against the wind
        p = SurfacePoint(0.4, 1.3)
        y = TangentVector(1.0, 0.3)
        back = TangentVector(-1.0, -0.3)
        assert abs(F_value(rd, p, y) - F_value(rd, p, back)) > 0.1

    def test_not_mild_raises(self, oblate):
        strong = RandersData(oblate, custom_wind(lambda phi, theta: (2.0, 0.0)))
        with pytest.raises(NotMild):
            F_value(strong, SurfacePoint(0.0, math.pi / 2), TangentVector(1.0, 0.0))

    @pytest.mark.parametrize("value", [F_value, alpha_term, beta_term])
    def test_one_wind_and_metric_evaluation(self, oblate, monkeypatch, value):
        # lam, alpha and beta share one evaluation of the wind and of h
        calls = {"wind": 0, "metric": 0}

        def breeze(phi, theta):
            calls["wind"] += 1
            return -0.3, 0.1

        def metric(sph, theta):
            calls["metric"] += 1
            return metric_components(sph, theta)

        monkeypatch.setattr("znav.randers.metric_components", metric)
        rd = RandersData(oblate, custom_wind(breeze))
        value(rd, SurfacePoint(0.4, 1.3), TangentVector(1.0, 0.3))
        assert calls == {"wind": 1, "metric": 1}
        rd.mildness_factor(SurfacePoint(0.4, 1.3))
        assert calls == {"wind": 2, "metric": 2}


class TestLagrangian:
    def test_unit_time_vector_gives_half(self, rd, equator_start, oblate):
        unit = unit_heading_vector(oblate, equator_start, math.pi / 3)
        y = TangentVector(unit.u - ROTATION_RATE, unit.v)
        assert lagrangian(rd, equator_start, y) == pytest.approx(0.5, abs=1e-14)

    def test_still_air_is_kinetic_energy(self, oblate, rd_still):
        rng = np.random.default_rng(19)
        for p, y in zip(random_points(rng, 15), random_vectors(rng, 15)):
            expected = 0.5 * h_norm(oblate, p, y) ** 2
            assert lagrangian(rd_still, p, y) == pytest.approx(expected, rel=1e-13, abs=1e-15)

    def test_benchmark_closed_form(self, rd):
        """Specialized a=3/4, c=5/7 energy in double-angle form (derived
        independently by squaring the specialized metric)."""

        def closed(theta, u, v):
            c2t = math.cos(2 * theta)
            c4t = math.cos(4 * theta)
            root = math.sqrt(
                -4 * c2t * (98 * u * u - 71 * v * v)
                + 392 * u * u
                + 175.0 / 8.0 * v * v * c4t
                + 3825.0 / 8.0 * v * v
            )
            return (
                49.0
                * (root + 20.0 * u * math.sin(theta) ** 2) ** 2
                / (8.0 * (25.0 * c2t + 73.0) ** 2)
            )

        rng = np.random.default_rng(20)
        for p, y in zip(random_points(rng, 40), random_vectors(rng, 40)):
            got = lagrangian(rd, p, y)
            assert got == pytest.approx(closed(p.theta, y.u, y.v), rel=1e-10, abs=1e-12)


class TestIndicatrix:
    def test_still_air_unit_circle(self, rd_still, equator_start):
        vecs = indicatrix(rd_still, equator_start, 90)
        assert len(vecs) == 90
        for y in vecs:
            assert F_value(rd_still, equator_start, y) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(a=SHAPES, c=RATES, theta=COLATITUDES, heading=HEADINGS)
    def test_translated_circle_is_unit_time(self, a, c, theta, heading):
        # 360 indicatrix samples plus W + the unit h-vector at the drawn heading
        rd = RandersData(Spheroid(a), rotation_wind(c))
        p = SurfacePoint(0.3, theta)
        w1, w2 = rd.wind.at(p)
        unit = unit_heading_vector(rd.sph, p, heading)
        vecs = [*indicatrix(rd, p, 360), TangentVector(w1 + unit.u, w2 + unit.v)]
        worst = max(abs(F_value(rd, p, y) - 1.0) for y in vecs)
        assert worst < 1e-9

    def test_offset_equals_wind_norm(self, oblate, rot_wind, rd):
        # the curve centroid is the wind vector itself
        p = SurfacePoint(0.0, math.pi / 6)
        vecs = indicatrix(rd, p, 720)
        cu = sum(y.u for y in vecs) / len(vecs)
        cv = sum(y.v for y in vecs) / len(vecs)
        offset = h_norm(oblate, p, TangentVector(cu, cv))
        assert offset == pytest.approx(wind_norm(oblate, rot_wind, p), abs=1e-12)
        assert offset == pytest.approx(ROTATION_RATE * 0.5, abs=1e-12)

    def test_too_few_samples(self, rd, equator_start):
        with pytest.raises(ValueError):
            indicatrix(rd, equator_start, 2)
