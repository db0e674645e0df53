"""Wind fields, their norms and the mildness sweep."""
import math

import numpy as np
import pytest

from znav import (
    POLE_GUARD,
    STILL_AIR,
    NotMild,
    SurfacePoint,
    custom_wind,
    rotation_wind,
    validate_mild,
)
from tests.conftest import ROTATION_RATE, random_points
from tests.oracles import wind_norm


class TestRotationWind:
    def test_components_everywhere(self, oblate):
        w = rotation_wind(ROTATION_RATE)
        for p in random_points(np.random.default_rng(0), 10):
            assert w.at(p) == (-ROTATION_RATE, 0.0)

    def test_zero_rate(self):
        w = rotation_wind(0.0)
        assert w.at(SurfacePoint(1.0, 1.0)) == (0.0, 0.0)

    @pytest.mark.parametrize("c", [ROTATION_RATE, -0.3, 0.0])
    def test_jet_is_exact(self, c):
        # constant components: an exactly zero Jacobian, not a difference
        w = rotation_wind(c)
        for p in random_points(np.random.default_rng(1), 10):
            assert w.jet(p.phi, p.theta) == (-c, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert STILL_AIR.jet(0.3, 1.2) == (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("c", [1.0, -1.0, 1.5, math.nan, math.inf, -math.inf])
    def test_unit_rate_rejected(self, c):
        with pytest.raises(NotMild):
            rotation_wind(c)


class TestCustomWind:
    def test_jet_by_central_differences(self):
        w = custom_wind(lambda phi, theta: (math.sin(phi) * math.cos(theta), phi * theta))
        for p in random_points(np.random.default_rng(2), 10):
            w1, w2, j11, j12, j21, j22 = w.jet(p.phi, p.theta)
            assert (w1, w2) == w.at(p)
            assert j11 == pytest.approx(math.cos(p.phi) * math.cos(p.theta), abs=1e-9)
            assert j12 == pytest.approx(-math.sin(p.phi) * math.sin(p.theta), abs=1e-9)
            assert j21 == pytest.approx(p.theta, abs=1e-9)
            assert j22 == pytest.approx(p.phi, abs=1e-9)


class TestWindNorm:
    def test_equator_peak(self, oblate, rot_wind, equator_start):
        assert wind_norm(oblate, rot_wind, equator_start) == pytest.approx(
            ROTATION_RATE, abs=1e-15
        )

    def test_vanishes_toward_pole(self, oblate, rot_wind):
        assert wind_norm(oblate, rot_wind, SurfacePoint(0.0, 1e-9)) < 1e-8

    def test_rotation_closed_form(self, oblate, rot_wind):
        # |W|_h = |c| sin(theta) for the rotation field
        for theta in np.linspace(0.01, math.pi - 0.01, 25):
            got = wind_norm(oblate, rot_wind, SurfacePoint(0.3, float(theta)))
            assert got == pytest.approx(ROTATION_RATE * math.sin(theta), rel=1e-14)

    def test_meridional_component_only(self, oblate):
        w = custom_wind(lambda phi, theta: (0.0, 0.25))
        for theta in (0.4, 1.2, 2.4):
            h22 = math.cos(theta) ** 2 + 0.75**2 * math.sin(theta) ** 2
            got = wind_norm(oblate, w, SurfacePoint(0.0, theta))
            assert got == pytest.approx(0.25 * math.sqrt(h22), rel=1e-14)


class TestValidateMild:
    def test_benchmark_rotation_passes(self, oblate, rot_wind):
        report = validate_mild(oblate, rot_wind, grid_n=65)
        assert report.max_norm == pytest.approx(ROTATION_RATE, abs=1e-6)

    def test_zero_wind(self, oblate):
        report = validate_mild(oblate, rotation_wind(0.0), grid_n=16)
        assert report.max_norm == 0.0

    def test_strong_azimuthal_wind_fails_near_equator(self, oblate):
        w = custom_wind(lambda phi, theta: (2.0, 0.0))
        with pytest.raises(NotMild) as err:
            validate_mild(oblate, w, grid_n=65)
        # |W|_h = 2 sin(theta) >= 1 once theta >= pi/6
        assert err.value.point is not None
        assert err.value.norm is not None and err.value.norm >= 1.0

    def test_coarser_grid_is_subset(self, oblate):
        # the refined lattice contains the coarse points, so the coarse
        # maximum cannot exceed the fine one
        w = custom_wind(
            lambda phi, theta: (0.4 * math.sin(phi), 0.3 * math.cos(theta))
        )
        coarse = validate_mild(oblate, w, grid_n=65)
        fine = validate_mild(oblate, w, grid_n=129)
        assert coarse.max_norm <= fine.max_norm + 1e-15

    def test_report_matches_pointwise_norms(self, oblate):
        w = custom_wind(
            lambda phi, theta: (0.4 * math.sin(phi), 0.3 * math.cos(theta))
        )
        report = validate_mild(oblate, w, grid_n=17)
        lattice = [
            SurfacePoint(2.0 * math.pi * i / 16,
                         POLE_GUARD + (math.pi - 2.0 * POLE_GUARD) * j / 16)
            for i in range(17) for j in range(17)
        ]
        # max keeps the first of equal norms, as the sweep does
        worst = max(lattice, key=lambda p: wind_norm(oblate, w, p))
        assert report.max_norm == wind_norm(oblate, w, worst)
        assert report.worst_point == worst

    def test_non_finite_wind_rejected(self, oblate):
        w = custom_wind(lambda phi, theta: (math.nan, 0.0))
        with pytest.raises(NotMild):
            validate_mild(oblate, w, grid_n=5)

    def test_grid_too_small(self, oblate, rot_wind):
        with pytest.raises(ValueError):
            validate_mild(oblate, rot_wind, grid_n=1)
