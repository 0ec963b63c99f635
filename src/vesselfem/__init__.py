"""Coupled 3D/1D solute transport: P1 finite elements in a box, interior
penalty DG along an embedded vessel, implicit Euler in time, exchange through
the lateral average over the vessel wall."""

from .dg1d import DgParams, DgSpace, Partition1D
from .errors import (
    CoefficientError,
    ConfigError,
    DomainError,
    GeometryError,
    ReleasedError,
    SolverError,
    VerificationError,
)
from .fem3d import ScalarField3
from .geometry import (
    ConstantPermeability,
    ConstantRadius,
    PiecewisePermeability,
    TanhRadius,
    VesselGeometry,
)
from .mesh3d import FemSpace, TetMesh, build_box_mesh
from .stepper import CoupledState, CoupledSystem, RunReport, TransportProblem

__all__ = [
    "CoefficientError",
    "ConfigError",
    "ConstantPermeability",
    "ConstantRadius",
    "CoupledState",
    "CoupledSystem",
    "DgParams",
    "DgSpace",
    "DomainError",
    "FemSpace",
    "GeometryError",
    "Partition1D",
    "PiecewisePermeability",
    "ReleasedError",
    "RunReport",
    "ScalarField3",
    "SolverError",
    "TanhRadius",
    "TetMesh",
    "TransportProblem",
    "VerificationError",
    "VesselGeometry",
    "build_box_mesh",
]
