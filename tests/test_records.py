"""znav's records: immutable named tuples, cheap to define at import."""
import math
import os
import subprocess
import sys

import pytest

import znav
from znav import (
    ControlRecord,
    FamilyMember,
    IntegratorConfig,
    MildnessReport,
    NavState,
    PlotSpec,
    RandersData,
    SeriesStyle,
    Spheroid,
    SprayCoefficients,
    StepStats,
    SurfacePoint,
    TangentVector,
    WindField,
)
from znav.cli import build_parser


def _components(phi, theta):
    return -0.5, 0.0


def _jet(phi, theta):
    return -0.5, 0.0, 0.0, 0.0, 0.0, 0.0


WIND = WindField(components=_components, jet=_jet)

# Every record type but Trajectory, a plain class whose samples are a
# cached_property: (type, its fields by keyword in order, its repr).
RECORDS = [
    (Spheroid, {"a": 0.75}, "Spheroid(a=0.75)"),
    (SurfacePoint, {"phi": 0.0, "theta": 1.0}, "SurfacePoint(phi=0.0, theta=1.0)"),
    (TangentVector, {"u": 0.5, "v": -0.25}, "TangentVector(u=0.5, v=-0.25)"),
    (NavState, {"point": SurfacePoint(0.0, 1.0), "vel": TangentVector(0.5, -0.25)},
     "NavState(point=SurfacePoint(phi=0.0, theta=1.0), vel=TangentVector(u=0.5, v=-0.25))"),
    (WindField, {"components": _components, "jet": _jet},
     f"WindField(components={_components!r}, jet={_jet!r})"),
    (MildnessReport, {"max_norm": 0.5, "worst_point": SurfacePoint(0.0, 1.0), "grid_n": 8},
     "MildnessReport(max_norm=0.5, worst_point=SurfacePoint(phi=0.0, theta=1.0), grid_n=8)"),
    (RandersData, {"sph": Spheroid(0.75), "wind": WIND},
     f"RandersData(sph=Spheroid(a=0.75), wind={WIND!r})"),
    (SprayCoefficients, {"G": 0.125, "H": -2.0}, "SprayCoefficients(G=0.125, H=-2.0)"),
    (ControlRecord, {"t": 0.0, "heading": 1.0, "course": 2.0, "drift": 0.5, "speed": 1.5},
     "ControlRecord(t=0.0, heading=1.0, course=2.0, drift=0.5, speed=1.5)"),
    (SeriesStyle, {"label": "h", "color": "#0000ff", "dash": "4 2"},
     "SeriesStyle(label='h', color='#0000ff', dash='4 2')"),
    (PlotSpec, {"kind": "path3d_projection", "segments": (1.0, 2.0), "view_axis": "x"},
     "PlotSpec(kind='path3d_projection', segments=(1.0, 2.0), view_axis='x')"),
    (IntegratorConfig, {"t_end": 3.0, "rel_tol": 1e-10, "abs_tol": 1e-13, "sample_dt": 0.01},
     "IntegratorConfig(t_end=3.0, rel_tol=1e-10, abs_tol=1e-13, sample_dt=0.01)"),
    (StepStats, {"accepted": 5, "rejected": 1, "pole_halvings": 0, "rhs_calls": 75,
                 "cap_legs": 0},
     "StepStats(accepted=5, rejected=1, pole_halvings=0, rhs_calls=75, cap_legs=0)"),
    (FamilyMember, {"heading": math.pi, "trajectory": None, "error": None},
     "FamilyMember(heading=3.141592653589793, trajectory=None, error=None)"),
]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_is_an_immutable_named_tuple(cls, fields, text):
    rec = cls(**fields)
    assert repr(rec) == text
    assert rec._fields == tuple(fields)
    again = cls(*fields.values())
    assert rec == again and hash(rec) == hash(again)
    # no __dict__: a checked record's subclass keeps __slots__ = ()
    assert not hasattr(rec, "__dict__")
    name = rec._fields[0]
    with pytest.raises(AttributeError):
        setattr(rec, name, getattr(rec, name))
    with pytest.raises(AttributeError):
        rec.extra = 1


@pytest.mark.parametrize("rec, bad", [
    (Spheroid(0.75), {"a": -1.0}),
    (PlotSpec("polar"), {"view_axis": "w"}),
    (IntegratorConfig(t_end=3.0), {"sample_dt": 4.0}),
], ids=["Spheroid", "PlotSpec", "IntegratorConfig"])
def test_replace_checks_as_construction_does(rec, bad):
    name = next(iter(bad))
    assert rec._replace(**{name: getattr(rec, name)}) == rec
    assert type(rec._replace()) is type(rec)
    with pytest.raises(ValueError):
        rec._replace(**bad)


@pytest.mark.parametrize("command", ["geodesic", "family", "compare", "report"])
def test_cli_step_defaults_are_the_config_defaults(command):
    # a NamedTuple's class attribute is a field accessor, not the default
    args = build_parser().parse_args([command])
    cfg = IntegratorConfig(t_end=1.0)
    assert (args.rel_tol, args.abs_tol, args.sample_dt) == (
        cfg.rel_tol, cfg.abs_tol, cfg.sample_dt)


def test_cli_import_loads_no_dataclasses():
    # dataclasses and the inspect it imports were most of a cold start
    script = ("import sys, znav.cli;"
              " print(sorted({'numpy', 'dataclasses', 'inspect'} & set(sys.modules)))")
    src = os.path.dirname(os.path.dirname(znav.__file__))
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
