"""Shared fixtures: the oblate benchmark setup and random mild states."""
import math

import numpy as np
import pytest
from hypothesis import strategies

from znav import (
    POLE_GUARD,
    NavState,
    Spheroid,
    SurfacePoint,
    TangentVector,
    custom_wind,
    initial_state_randers,
    rotation_wind,
)
from tests.oracles import wind_norm

ROTATION_RATE = 5.0 / 7.0

# Draws for the property tests of the paper's identities: shape, rotation
# rate of a mild wind, off-pole colatitude and heading.
SHAPES = strategies.floats(0.2, 3.0)
RATES = strategies.floats(-0.95, 0.95)
COLATITUDES = strategies.floats(0.01, math.pi - 0.01)
HEADINGS = strategies.floats(0.0, 2.0 * math.pi)


@strategies.composite
def axisymmetric_winds(draw):
    """(spheroid, wind) with theta-dependent W1, W2 and no phi dependence.

    W1 = c0 + c1 cos(k1 theta + q1) and W2 = d0 + d1 sin(k2 theta + q2),
    rescaled to a sampled peak |W|_h drawn from (0, 0.8].
    """
    sph = Spheroid(draw(SHAPES))
    c0, c1, d0, d1 = (draw(strategies.floats(-1.0, 1.0)) for _ in range(4))
    k1, k2 = (draw(strategies.integers(1, 3)) for _ in range(2))
    q1, q2 = (draw(strategies.floats(0.0, 2.0 * math.pi)) for _ in range(2))
    peak = draw(strategies.floats(0.0, 0.8, exclude_min=True))

    def shape(phi, theta):
        return c0 + c1 * math.cos(k1 * theta + q1), d0 + d1 * math.sin(k2 * theta + q2)

    top = max(
        wind_norm(sph, custom_wind(shape),
                  SurfacePoint(0.0, POLE_GUARD + (math.pi - 2.0 * POLE_GUARD) * j / 511))
        for j in range(512)
    )
    k = peak / top if top > 0.0 else 0.0
    return sph, custom_wind(lambda phi, theta: tuple(k * w for w in shape(phi, theta)))


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


def read_csv(path: str) -> dict[str, list[float]]:
    """Parse a file written by write_csv back into per-column float lists.

    Gap cells come back as NaN.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        cols: dict[str, list[float]] = {name: [] for name in header}
        for line in fh:
            for name, cell in zip(header, line.rstrip("\n").split(",")):
                cols[name].append(float(cell) if cell else math.nan)
    return cols
