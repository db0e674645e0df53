"""Shared fixtures: the oblate benchmark setup and random mild states."""
import math

import numpy as np
import pytest
from hypothesis import strategies

from znav import (
    NavState,
    Spheroid,
    SurfacePoint,
    TangentVector,
    initial_state_randers,
    rotation_wind,
)

ROTATION_RATE = 5.0 / 7.0

# Draws for the property tests of the paper's identities: shape, rotation
# rate of a mild wind, off-pole colatitude and heading.
SHAPES = strategies.floats(0.2, 3.0)
RATES = strategies.floats(-0.95, 0.95)
COLATITUDES = strategies.floats(0.01, math.pi - 0.01)
HEADINGS = strategies.floats(0.0, 2.0 * math.pi)


@pytest.fixture
def oblate() -> Spheroid:
    """The benchmark oblate spheroid (1, 1, 3/4)."""
    return Spheroid(0.75)


@pytest.fixture
def sphere() -> Spheroid:
    return Spheroid(1.0)


@pytest.fixture
def rot_wind():
    """Equator-peaked rotation wind with rate 5/7."""
    return rotation_wind(ROTATION_RATE)


@pytest.fixture
def equator_start() -> SurfacePoint:
    return SurfacePoint(0.0, math.pi / 2)


def random_points(rng: np.random.Generator, n: int) -> list[SurfacePoint]:
    """Chart points away from the poles."""
    phis = rng.uniform(0.0, 2.0 * math.pi, n)
    thetas = rng.uniform(0.15, math.pi - 0.15, n)
    return [SurfacePoint(float(p), float(t)) for p, t in zip(phis, thetas)]


def random_mild_states(sph, wind, rng: np.random.Generator, n: int) -> list[NavState]:
    """States with unit relative speed: random point, random heading."""
    headings = rng.uniform(0.0, 2.0 * math.pi, n)
    return [
        initial_state_randers(sph, wind, p, float(hd))
        for p, hd in zip(random_points(rng, n), headings)
    ]


def nan_after(rhs, phi_max: float):
    """rhs whose phi acceleration turns NaN once phi exceeds phi_max."""

    def broken(phi, theta, u, v):
        return (math.nan, 0.0) if phi > phi_max else rhs(phi, theta, u, v)

    return broken


def random_vectors(rng: np.random.Generator, n: int) -> list[TangentVector]:
    comps = rng.uniform(-2.0, 2.0, (n, 2))
    return [TangentVector(float(u), float(v)) for u, v in comps]
