"""Time-optimal navigation on spheroids under mild stationary winds.

Computes geodesics of the induced metric h, of the Riemannian part
alpha of the travel-time metric, and of the full Randers metric F
(whose geodesics are the time-optimal paths), together with the control
channel along them: heading, course over ground, drift and resulting
speed.

All evaluation is pure (no shared mutable state), so everything here is
safe to call concurrently; integrate_family runs fan members one after
another in heading order.  Two sprays serve the three flows: Zermelo's
navigation equation gives the travel-time geodesics for every mild
wind and the h geodesics as its still-air case, and the Christoffel
spray of alpha gives the alpha geodesics for every mild wind.
"""
from znav.control import (
    ControlRecord,
    control_channel,
    course_of,
    drift_of,
    heading_of,
    speed_of,
    wrap_2pi,
    wrap_signed,
)
from znav.errors import (
    DegenerateHessian,
    EmptyData,
    NavigationError,
    NonFiniteState,
    NotMild,
    PoleSingularity,
    ZeroRelativeVelocity,
    ZeroVelocity,
)
from znav.export import (
    CSV_COLUMNS,
    PlotSpec,
    SeriesStyle,
    render_svg,
    unwrap_angles,
    write_csv,
    write_svg,
    write_table,
)
from znav.integrate import (
    FamilyMember,
    IntegratorConfig,
    StepStats,
    Trajectory,
    classify_path,
    integrate,
    integrate_family,
    iter_family,
    track,
)
from znav.randers import (
    F_value,
    RandersData,
    alpha_term,
    lagrangian,
)
from znav.spheroid import (
    POLE_GUARD,
    NavState,
    Spheroid,
    SurfacePoint,
    TangentVector,
    clairaut_invariant,
    h_norm,
    metric_components,
    unit_heading_vector,
)
from znav.spray import (
    SprayCoefficients,
    alpha_lagrangian,
    indicatrix,
    initial_speed_vs_heading,
    initial_state,
    initial_state_alpha,
    initial_state_randers,
    initial_state_riemannian,
    make_rhs,
    randers_lagrangian,
    resolve_flow,
    spray_alpha_closed,
    spray_numeric,
    spray_rotation_closed,
)
from znav.wind import (
    STILL_AIR,
    MildnessReport,
    WindField,
    custom_wind,
    rotation_wind,
    validate_mild,
)

__version__ = "0.1.0"
