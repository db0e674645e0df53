"""Travel-time metric F = alpha + beta, its Lagrangian and indicatrices."""
import decimal
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies

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
    initial_state_randers,
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


@strategies.composite
def near_unit_winds(draw):
    """(a, theta, W1, W2, u, v): a constant wind of |W|_h^2 = 1 - 10^-k at
    colatitude theta, k in [0, 15.5], and y of any heading with |y|_h in
    [1e-3, 1e3]."""
    a = draw(strategies.floats(0.3, 2.0))
    theta = draw(COLATITUDES)
    h11, h22 = metric_components(Spheroid(a), theta)
    w_norm = math.sqrt(1.0 - 10.0 ** -draw(strategies.floats(0.0, 15.5)))
    psi, heading = draw(HEADINGS), draw(HEADINGS)
    y_norm = 10.0 ** draw(strategies.floats(-3.0, 3.0))
    return (a, theta, w_norm * math.cos(psi) / math.sqrt(h11),
            w_norm * math.sin(psi) / math.sqrt(h22),
            y_norm * math.cos(heading) / math.sqrt(h11),
            y_norm * math.sin(heading) / math.sqrt(h22))


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

    def test_radicand_summed_near_unit_wind_norm(self):
        # |W|_h^2 = 1 - 1.1e-16 at this point, still mild, and y across
        # the wind, so <W, y>_h = 0 and alpha is |y|_h / sqrt(lam); a
        # radicand written as a difference cancels to -1.1e-17 here
        sph = Spheroid(0.75)
        rd = RandersData(sph, custom_wind(lambda phi, theta: (1.4426428602054533, 0.0)))
        point, y = SurfacePoint(0.0, 0.7658809781559258), TangentVector(0.0, 0.34751002768217165)
        lam, alpha, beta = rd.terms(point.phi, point.theta, y.u, y.v)
        assert 0.0 < lam < 2e-16
        assert alpha == pytest.approx(h_norm(sph, point, y) / math.sqrt(lam), rel=1e-15)
        assert beta == 0.0

    @settings(max_examples=300, deadline=None)
    @given(case=near_unit_winds())
    @example(case=(0.75, 0.7658809781559258, 1.4426428602054533, 0.0,
                   0.0, 0.34751002768217165))
    def test_alpha_within_rounding_near_unit_wind_norm(self, case):
        # alpha against lam |y|_h^2 + <W, y>_h^2 summed exactly from the
        # same floats: within 4 eps of alpha plus the rounding that <W, y>_h
        # itself carries, |y|_h |W|_h / lam
        a, theta, w1, w2, u, v = case
        sph = Spheroid(a)
        try:
            lam, alpha, _ = RandersData(sph, custom_wind(lambda phi, th: (w1, w2))).terms(
                0.0, theta, u, v)
        except NotMild:  # |W|_h rounded up to 1
            reject()
        h11, h22 = metric_components(sph, theta)
        b = Fraction(u) * Fraction(w1) * Fraction(h11) + Fraction(v) * Fraction(w2) * Fraction(h22)
        yy = Fraction(u) ** 2 * Fraction(h11) + Fraction(v) ** 2 * Fraction(h22)
        radicand = b * b + Fraction(lam) * yy
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            root = (decimal.Decimal(radicand.numerator) / radicand.denominator).sqrt()
            oracle = float(root / decimal.Decimal(lam))
        y_norm = math.sqrt(u * u * h11 + v * v * h22)
        w_norm = math.sqrt(w1 * w1 * h11 + w2 * w2 * h22)
        assert abs(alpha - oracle) <= 4 * math.ulp(1.0) * (oracle + y_norm * w_norm / lam)


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
        # 360 indicatrix samples plus the time-optimal start at the drawn heading
        rd = RandersData(Spheroid(a), rotation_wind(c))
        p = SurfacePoint(0.3, theta)
        vecs = indicatrix(rd, p, 360)
        start = initial_state_randers(rd.sph, rd.wind, p, heading).vel
        worst = max(abs(F_value(rd, p, y) - 1.0) for y in [*vecs, start])
        assert worst < 1e-9
        # each sample is the start at its heading, float for float
        for k in (0, 1, 90, 359):
            heading_k = 2.0 * math.pi * k / 360
            assert vecs[k] == initial_state_randers(rd.sph, rd.wind, p, heading_k).vel

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
