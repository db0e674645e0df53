"""Exception hierarchy for the navigation engine."""


class NavigationError(Exception):
    """Base class for all engine errors."""


class PoleSingularity(NavigationError):
    """Chart-based operation requested inside the polar guard band."""


class NonFiniteState(NavigationError):
    """A state component turned NaN or infinite during a computation."""


class NotMild(NavigationError):
    """Wind norm reaches or exceeds the unit own-speed somewhere.

    Carries the offending point and norm when known.
    """

    def __init__(self, message: str, point=None, norm: float | None = None):
        super().__init__(message)
        self.point = point
        self.norm = norm


class DegenerateHessian(NavigationError):
    """Velocity Hessian of the Lagrangian is numerically singular."""


class ZeroRelativeVelocity(NavigationError):
    """Heading undefined: velocity relative to the medium vanishes."""


class ZeroVelocity(NavigationError):
    """Course undefined: resulting velocity vanishes."""


class EmptyData(NavigationError):
    """Plot data insufficient for the requested figure kind."""
