"""Geometry of the spheroid with semiaxes (1, 1, a).

The surface is charted by spherical coordinates (phi, theta): azimuth
phi and colatitude theta, with embedding

    x = sin(theta) cos(phi),  y = sin(theta) sin(phi),  z = a cos(theta).

The induced metric is diagonal,

    h11 = sin^2(theta),  h22 = cos^2(theta) + a^2 sin^2(theta),

and everything downstream (wind norms, Randers metrics, geodesic
equations) is built on these two components.  The chart degenerates at
the poles; operations that divide by sin(theta) enforce a guard band of
POLE_GUARD radians around theta in {0, pi}.
"""
import math
from typing import Iterable, Iterator, NamedTuple, Sequence

from znav.errors import NonFiniteState, PoleSingularity

# Chart guard band around the poles (radians).
POLE_GUARD = 1e-6


# The fields of Spheroid, which checks them as it is constructed.
class _SpheroidFields(NamedTuple):
    a: float


class Spheroid(_SpheroidFields):
    """Ellipsoid of revolution with semiaxes (1, 1, a).

    Oblate for 0 < a < 1, prolate for a > 1, round sphere for a = 1.
    The equatorial radius is fixed to 1; physical rescaling is the
    caller's concern.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: check it too
        return cls(*super()._make(iterable))

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # h22 holds a * a: its overflow (a = 1e160) or underflow would
        # otherwise surface later as a non-mild wind
        if not (self.a > 0 and 0 < self.a * self.a < math.inf):
            raise ValueError(
                f"shape parameter a must be positive with a positive finite square,"
                f" got {self.a}"
            )
        return self


class SurfacePoint(NamedTuple):
    """Chart point: azimuth phi (radians), colatitude theta (radians).

    phi is kept unwrapped internally so winding counts survive long
    integrations; wrapping to [0, 2*pi) happens only at export.
    """

    phi: float
    theta: float


class TangentVector(NamedTuple):
    """Coordinate-basis tangent vector: u = d(phi)/dt, v = d(theta)/dt."""

    u: float
    v: float


class NavState(NamedTuple):
    """Position plus angular velocity; the geodesic ODE state."""

    point: SurfacePoint
    vel: TangentVector


def require_off_pole(theta: float) -> None:
    """Raise PoleSingularity unless theta lies in (POLE_GUARD, pi - POLE_GUARD).

    A NaN or infinite theta raises NonFiniteState instead, so it is never
    reported as a pole approach; the test runs only once the guard fails.
    """
    if not (POLE_GUARD < theta < math.pi - POLE_GUARD):
        if not math.isfinite(theta):
            raise NonFiniteState(f"colatitude {theta} is not finite")
        raise PoleSingularity(
            f"colatitude {theta} within {POLE_GUARD} of a pole; chart undefined"
        )


def metric_components(sph: Spheroid, theta: float) -> tuple[float, float]:
    """Diagonal components (h11, h22) of the induced metric at colatitude theta."""
    s = math.sin(theta)
    c = math.cos(theta)
    return s * s, c * c + sph.a * sph.a * s * s


def h_norm(sph: Spheroid, point: SurfacePoint, vec: TangentVector) -> float:
    """Length of a tangent vector in the induced metric."""
    h11, h22 = metric_components(sph, point.theta)
    return math.sqrt(vec.u * vec.u * h11 + vec.v * vec.v * h22)


# One sample of a track: (t, phi, theta, phi_dot, theta_dot).
Row = tuple[float, float, float, float, float]


def embed_rows(
    sph: Spheroid, rows: Iterable[Sequence[float]]
) -> Iterator[tuple[float, float, float, float]]:
    """(t, x, y, z) of each row (t, phi, theta, ...): a track's Rows embedded.

    Lazy: each row is embedded as it is read, so no list of the
    embedded rows is made.  The one place the embedding formula is
    written.
    """
    a = sph.a
    sin, cos = math.sin, math.cos
    for r in rows:
        phi, theta = r[1], r[2]
        s = sin(theta)
        yield r[0], s * cos(phi), s * sin(phi), a * cos(theta)


def clairaut_invariant(sph: Spheroid, state: NavState) -> float:
    """Azimuthal momentum sin^2(theta) * phi_dot, conserved along h-geodesics."""
    s = math.sin(state.point.theta)
    return s * s * state.vel.u


def unit_heading_vector(sph: Spheroid, point: SurfacePoint, heading: float) -> TangentVector:
    """Unit-length tangent vector at the given heading.

    The heading is measured counterclockwise from the local parallel;
    positive theta-rates point south, hence the minus sign on the
    second component:

        u = cos(heading) / sin(theta),  v = -sin(heading) / sqrt(h22)

    Raises:
        PoleSingularity: point inside the polar guard band.
    """
    require_off_pole(point.theta)
    h11, h22 = metric_components(sph, point.theta)
    return TangentVector(
        math.cos(heading) / math.sin(point.theta),
        -math.sin(heading) / math.sqrt(h22),
    )
