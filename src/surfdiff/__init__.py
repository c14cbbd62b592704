"""Surface diffusion of closed planar curves: flow, calibrations, checkers."""

from .calibration import AnalyticCircles, Calibration, CircleSpec, CutoffProfile
from .energy import EnergyReport, bulk_error, gronwall_verdict, relative_energy
from .extension import BField, build_B
from .flow import FlowConfig, FlowState, Trajectory, make_reference, run_flow, step
from .geometry import (
    CurveGeometry,
    PolyCurve,
    build_geometry,
    read_curve_file,
    write_curve_file,
)
from .poisson import solve_zero_average, velocity_potential

__version__ = "0.1.0"

__all__ = [
    "AnalyticCircles",
    "BField",
    "Calibration",
    "CircleSpec",
    "CurveGeometry",
    "CutoffProfile",
    "EnergyReport",
    "FlowConfig",
    "FlowState",
    "PolyCurve",
    "Trajectory",
    "build_B",
    "build_geometry",
    "bulk_error",
    "gronwall_verdict",
    "make_reference",
    "read_curve_file",
    "relative_energy",
    "run_flow",
    "solve_zero_average",
    "step",
    "velocity_potential",
    "write_curve_file",
]
