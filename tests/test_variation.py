"""The variational oracle: every track makes its flow's length stationary.

A time-optimal track is a geodesic of F, so bumping it with both ends
fixed changes its travel time only at second order; the alpha and h
tracks are geodesics of alpha and h.  Unlike the F drift, which stays at
round-off for any rhs that keeps |n|_h = 1, and the scipy oracles, which
integrate the same rhs, this checks the steering law itself, under
custom winds too.

The bound comes from a scan of 1300 random draws of this test's
distribution (eps = 1e-4, 2001 rows): clean tracks read |first
variation| <= 3.4e-7 and at least one positive second variation >= 1.3
per track.  A dropped costate term of the navigation spray, a wrong
wind-Jacobian stencil or factor, or a dropped alpha-metric derivative
term or cross term of its solve reads 1.1e-4 to 0.13 on custom winds.
"""
import math

from hypothesis import assume, example, given, settings, strategies

from znav import (
    IntegratorConfig,
    Spheroid,
    SurfacePoint,
    custom_wind,
    initial_state,
    integrate,
    make_rhs,
    rotation_wind,
)
from tests.oracles import travel_time_variations

EPS = 1e-4
ROWS = 2000  # sample intervals per track, even for Simpson
FIRST_BOUND = 2e-6


def breeze(scale: float, phase: float):
    """A mild wind that depends on phi and theta, |W|_h <= 0.64 for a <= 1.4."""
    return custom_wind(lambda phi, theta: (
        0.3 * scale * math.sin(theta) * math.cos(phi + phase),
        0.2 * scale * math.cos(2.0 * theta) * math.sin(phi + phase),
    ))


WINDS = strategies.one_of(
    strategies.tuples(strategies.just("rotation"), strategies.floats(-0.8, 0.8)),
    strategies.tuples(strategies.just("breeze"), strategies.floats(0.3, 1.5),
                      strategies.floats(0.0, 2.0 * math.pi)),
)


@settings(max_examples=30, deadline=None)
@given(
    a=strategies.floats(0.6, 1.4),
    kind=strategies.sampled_from(["h", "alpha", "randers"]),
    wind=WINDS,
    phi0=strategies.floats(0.0, 2.0 * math.pi),
    theta0=strategies.floats(1.1, math.pi - 1.1),
    heading=strategies.floats(0.0, 2.0 * math.pi),
    span=strategies.floats(0.5, 1.0),
    k=strategies.integers(1, 3),
)
@example(a=0.75, kind="randers", wind=("breeze", 1.0, 0.0), phi0=0.0, theta0=math.pi / 2,
         heading=math.pi / 3, span=1.0, k=1)
@example(a=0.75, kind="randers", wind=("breeze", 1.0, 0.0), phi0=0.0, theta0=math.pi / 2,
         heading=2.0, span=1.0, k=1)
@example(a=0.75, kind="alpha", wind=("breeze", 1.5, 0.0), phi0=0.0, theta0=1.2,
         heading=0.3, span=1.0, k=1)
@example(a=0.75, kind="alpha", wind=("breeze", 1.5, math.pi / 4), phi0=0.0,
         theta0=math.pi / 2, heading=4.0, span=1.0, k=1)
def test_tracks_make_their_length_stationary(a, kind, wind, phi0, theta0, heading, span, k):
    sph = Spheroid(a)
    field = rotation_wind(wind[1]) if wind[0] == "rotation" else breeze(*wind[1:])
    s0 = initial_state(sph, field, kind, SurfacePoint(phi0, theta0), heading)
    traj = integrate(make_rhs(kind, sph, field), s0,
                     IntegratorConfig(t_end=span, sample_dt=span / ROWS), kind=kind)
    # short arcs out of the polar caps, where phi sweeps too fast for the grid
    assume(traj.termination == "completed" and traj.stats.cap_legs == 0)
    assert len(traj.rows) == ROWS + 1
    variations = [travel_time_variations(sph, field, kind, traj.rows, coord, k, EPS)
                  for coord in (1, 2)]
    for first, second in variations:
        assert abs(first) <= FIRST_BOUND
        # a bump along the track only reparametrizes it: second variation ~0
        assert second >= -1e-5
    assert max(second for _, second in variations) >= 0.5
