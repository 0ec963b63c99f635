"""Vessel centerline geometry.

A vessel is a straight segment with an arclength-dependent radius and wall
permeability.  The cross-section at arclength ``s`` is the disk of radius
``R(s)`` in the plane spanned by the frame vectors ``(e1, e2)``; coupling
integrals are evaluated on its boundary circle through a uniform angular
quadrature.  The profiles are sampled once, for their rules and the tube's extent.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GeometryError

_TOL = 1e-12
_VALIDATION_SAMPLES = 10_000


@dataclass(frozen=True)
class ConstantRadius:
    """Cylinder with fixed radius."""

    value: float

    def __call__(self, s, length):
        return np.broadcast_to(np.float64(self.value), np.shape(s)).copy() if np.ndim(s) else float(self.value)


@dataclass(frozen=True)
class TanhRadius:
    """Smoothly widening radius r_min -> r_max with a tanh ramp of steepness beta."""

    r_min: float
    r_max: float
    beta: float

    def __call__(self, s, length):
        s = np.asarray(s, dtype=float)
        r = self.r_min + 0.5 * (self.r_max - self.r_min) * (
            1.0 + np.tanh(self.beta * (s / length - 0.5))
        )
        return r if r.ndim else float(r)


@dataclass(frozen=True)
class ConstantPermeability:
    value: float

    def __call__(self, s):
        return np.broadcast_to(np.float64(self.value), np.shape(s)).copy() if np.ndim(s) else float(self.value)


@dataclass(frozen=True)
class PiecewisePermeability:
    """Piecewise-constant wall permeability.

    ``breakpoints`` are the interior jump locations (increasing and finite); ``values``
    has one more entry than ``breakpoints``.  The value on ``[b_i, b_{i+1})``
    is ``values[i + 1]``; segments may be exactly zero (impermeable wall).
    """

    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        if len(self.values) != len(self.breakpoints) + 1:
            raise GeometryError("need one more permeability value than breakpoints")
        # finite first: np.diff warns on an infinite breakpoint; NaN fails both
        if not (np.isfinite(self.breakpoints).all() and (np.diff(self.breakpoints) > 0.0).all()):
            raise GeometryError("permeability breakpoints must be increasing and finite")
        # checked here, not only on the profile samples, which a short stretch falls between
        if not all(0.0 <= v < np.inf for v in self.values):  # NaN fails too
            raise GeometryError("permeability values must be nonnegative and finite")

    def __call__(self, s):
        idx = np.searchsorted(np.asarray(self.breakpoints), s, side="right")
        out = np.asarray(self.values, dtype=float)[idx]
        return out if np.ndim(s) else float(out)


class VesselGeometry:
    """Straight centerline from p0 to p1 with radius and permeability profiles.

    The orthonormal frame (e1, e2, tangent) is built once by Gram-Schmidt,
    seeding with the coordinate axis least aligned with the tangent.  The
    section area ``pi R(s)^2`` must be nondecreasing in s; this is required
    by the upwind advection form and is validated on a dense sample grid at
    construction time, which also gives the tube's extent along each axis.
    """

    def __init__(self, p0, p1, radius, permeability):
        p0 = np.asarray(p0, dtype=float)
        p1 = np.asarray(p1, dtype=float)
        if p0.shape != (3,) or p1.shape != (3,):
            raise GeometryError("endpoints must be 3D points")
        with np.errstate(over="ignore"):
            d = p1 - p0
            length, m = float(np.linalg.norm(d)), np.abs(d).max()
            if length == np.inf and m < np.inf:  # its squares overflow beyond about 1e154
                length = float(m * np.linalg.norm(d / m))
        if not 0.0 < length < np.inf:  # coincident, or so far apart the length overflows
            raise GeometryError(f"centerline length {length} is not positive and finite")
        tangent = d / length

        # frame seed: coordinate axis with smallest |component along tangent|
        axis = np.zeros(3)
        axis[int(np.argmin(np.abs(tangent)))] = 1.0
        e1 = axis - np.dot(axis, tangent) * tangent
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(tangent, e1)

        self.p0 = p0
        self.p1 = p1
        self.length = length
        self.tangent = tangent
        self.e1 = e1
        self.e2 = e2
        self.radius = radius
        self.permeability = permeability
        for v in (self.p0, self.p1, self.tangent, self.e1, self.e2):
            v.setflags(write=False)

        self._validate_profiles()

    def _validate_profiles(self):
        """Refuse the profiles on the sample grid; keep section_lower and the tube's extent."""
        s = np.linspace(0.0, self.length, _VALIDATION_SAMPLES)
        r = np.asarray(self.radius(s, self.length), dtype=float)
        with np.errstate(over="ignore"):  # a radius above ~1e154 overflows its area
            area = np.pi * r * r
        if not np.all((0.0 < r) & (area < np.inf)):  # NaN fails too; a finite area bounds r and 2 pi r
            raise GeometryError("radius profile is not strictly positive and finite, "
                                "with a finite section area")
        if np.any(np.diff(area) < -_TOL):
            raise GeometryError("section area must be nondecreasing along the vessel")
        self.section_lower = float(min(area.min(), (2.0 * np.pi * r).min()))
        gam = np.asarray(self.permeability(s), dtype=float)
        if not np.all((0.0 <= gam) & (gam < np.inf)):  # NaN fails too
            raise GeometryError("permeability must be nonnegative and finite")
        reach = np.outer(r, np.sqrt(self.e1**2 + self.e2**2))  # the circle at s spans r |(e1_k, e2_k)| on axis k
        centers = self.point_at(s)
        self.tube_lo, self.tube_hi = (centers - reach).min(axis=0), (centers + reach).max(axis=0)

    def _check_arclength(self, s):
        s = np.asarray(s, dtype=float)
        if np.any(s < -_TOL) or np.any(s > self.length + _TOL):
            raise DomainError(f"arclength outside [0, {self.length}]")

    def point_at(self, s):
        """Centerline point at arclength s (scalar or array)."""
        self._check_arclength(s)
        s = np.asarray(s, dtype=float)
        pts = self.p0 + np.multiply.outer(s, self.tangent)
        return pts

    def radius_at(self, s):
        self._check_arclength(s)
        return self.radius(s, self.length)

    def section_area(self, s):
        """Cross-section area pi R(s)^2."""
        r = self.radius_at(s)
        return np.pi * r * r

    def section_circumference(self, s):
        """Cross-section boundary length 2 pi R(s)."""
        return 2.0 * np.pi * self.radius_at(s)

    def gamma_at(self, s):
        self._check_arclength(s)
        return self.permeability(s)

    def circle_points(self, s, n):
        """The n points of the uniform rule on the section circle at arclength s.

        The points lie at equal angles on the circle of radius R(s) around
        the centerline, so every point has the weight |circumference| / n:
        the periodic trapezoid rule, spectrally accurate for smooth
        integrands.  For an array s the points have shape ``s.shape + (n, 3)``.
        """
        center = self.point_at(s)[..., None, :]
        r = np.asarray(self.radius(s, self.length), dtype=float)[..., None, None]
        theta = 2.0 * np.pi * np.arange(n) / n
        return (
            center
            + r * np.outer(np.cos(theta), self.e1)
            + r * np.outer(np.sin(theta), self.e2)
        )

    def check_inside_box(self, lo, hi):
        """Require the vessel tube to stay inside the closed box [lo, hi].

        Compares the tube's extent, sampled densely along s at construction;
        the tube may touch the box faces (the vertical-line setup ends exactly
        on two faces) but must not cross them by more than _TOL.
        """
        if not (np.all(self.tube_lo >= np.subtract(lo, _TOL))
                and np.all(self.tube_hi <= np.add(hi, _TOL))):  # NaN fails too
            raise GeometryError("vessel tube leaves the computational box")
