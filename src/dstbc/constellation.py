"""Finite signal sets for per-group encoding.

PAM and rotated QAM, both from one builder of rotated Gray-labelled PAM
grids; full-diversity rotations and difference sets. All alphabets have a
mean energy of 1/2 per real dimension, so that a pair of real symbols
forming one complex symbol carries unit mean energy. modulation_set maps
the names pamM and qamM to the standard alphabets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .design import require

__all__ = [
    "SignalSet",
    "RotationMatrix",
    "make_pam",
    "make_rotated_qam",
    "rotation_2d",
    "identity_rotation",
    "verify_rotation",
    "difference_set",
    "modulation_set",
]

# Mean energy target per real dimension (a complex super-symbol x_p + i*x_q
# then has unit mean energy).
ENERGY_PER_REAL_DIM = 0.5

# the most points a named alphabet may have; check's difference set holds
# MAX_POINTS**2 vectors
MAX_POINTS = 4096

_ORTHO_TOL = 1e-10
_ZERO_COORD_TOL = 1e-9
_ENERGY_TOL = 1e-12


@dataclass(frozen=True)
class RotationMatrix:
    """Real orthogonal matrix used to rotate an integer-grid alphabet."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.entries, dtype=float)
        if q.shape != (self.dim, self.dim):
            raise ValueError(f"rotation must be {self.dim}x{self.dim}, got {q.shape}")
        if np.abs(q.T @ q - np.eye(self.dim)).max() > _ORTHO_TOL:
            raise ValueError("rotation matrix is not orthogonal")
        q.setflags(write=False)
        object.__setattr__(self, "entries", q)


def identity_rotation(dim: int) -> RotationMatrix:
    return RotationMatrix(dim, np.eye(dim))


def rotation_2d() -> RotationMatrix:
    """Planar rotation by atan(2)/2, which gives full diversity on integer
    grids (no coordinate of any nonzero rotated difference vanishes)."""
    theta = 0.5 * np.arctan(2.0)
    c, s = np.cos(theta), np.sin(theta)
    return RotationMatrix(2, np.array([[c, -s], [s, c]]))


@dataclass(frozen=True)
class SignalSet:
    """Finite set of real vectors with a bit labeling.

    points has shape (2**bits_per_point, dim). labels[i] is the integer
    whose bits label point i; the labels form a permutation of
    0..2**bits_per_point - 1; a simulation draws labels, not points.

    rotation / component_levels record how the set was generated (rotated
    per-dimension component grid); they are None for hand-built sets and
    are what makes the analytic full-diversity certificate applicable.
    """

    dim: int
    points: np.ndarray
    bits_per_point: int
    labels: np.ndarray
    rotation: RotationMatrix | None = field(default=None, compare=False)
    component_levels: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, self.dim)
        m = pts.shape[0]
        if m != 2**self.bits_per_point:
            raise ValueError("point count must equal 2**bits_per_point")
        if len({tuple(p) for p in pts}) != m:
            raise ValueError("points must be distinct")
        labels = np.asarray(self.labels, dtype=np.int64)
        if sorted(labels.tolist()) != list(range(m)):
            raise ValueError("labels must be a permutation of 0..M-1")
        pts.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.points.shape[0]


def _pam_levels(m: int) -> np.ndarray:
    """Equispaced odd-integer grid -M+1 .. M-1 scaled to mean energy 1/2."""
    levels = np.arange(-(m - 1), m, 2, dtype=float)
    scale = np.sqrt(2.0 * np.mean(levels**2))
    return levels / scale


def _gray_grid(side: int, q: RotationMatrix) -> SignalSet:
    """The product of q.dim side-PAM components, rotated by q. The last
    component varies fastest; each is Gray-labelled, and the first
    component's bits are the highest."""
    levels = _pam_levels(side)
    comp_bits = side.bit_length() - 1
    idx = np.indices((side,) * q.dim).reshape(q.dim, -1).T
    labels = ((idx ^ (idx >> 1)) << comp_bits * np.arange(q.dim)[::-1]).sum(axis=1)
    s = SignalSet(q.dim, levels[idx] @ q.entries.T, q.dim * comp_bits, labels,
                  rotation=q, component_levels=levels.copy())
    assert abs(np.mean(np.sum(s.points**2, axis=1)) - q.dim * ENERGY_PER_REAL_DIM) < _ENERGY_TOL
    return s


def make_pam(m: int) -> SignalSet:
    """Gray-labeled M-PAM with mean energy 1/2 per point.

    Levels are the odd integers +/-1, +/-3, ... scaled by 1/sqrt(2(M^2-1)/3).
    """
    if m < 2 or m & (m - 1):
        raise ValueError(f"PAM order must be a power of two >= 2, got {m}")
    return _gray_grid(m, identity_rotation(1))


def make_rotated_qam(m: int, q: RotationMatrix) -> SignalSet:
    """M-QAM as a rotated pair of sqrt(M)-PAM components, unit mean energy.

    Gray labels are assigned per component before rotation: the high bits
    label the first coordinate, the low bits the second.
    """
    if m < 4 or m & (m - 1):
        raise ValueError(f"QAM order must be a power of two >= 4, got {m}")
    side = int(round(np.sqrt(m)))
    if side * side != m or side & (side - 1):
        raise ValueError(f"QAM order must be the square of a power of two, got {m}")
    if q.dim != 2:
        raise ValueError(f"rotation must be 2-dimensional, got dim {q.dim}")
    return _gray_grid(side, q)


def verify_rotation(q: RotationMatrix, component_set: np.ndarray) -> bool:
    """True iff every coordinate of every nonzero rotated difference is nonzero.

    component_set holds the per-dimension levels; the rotated lattice points
    are Q v for v in component_set^dim, so it suffices to check Q d over all
    componentwise difference vectors d.
    """
    levels = np.asarray(component_set, dtype=float).ravel()
    if levels.size == 0:
        raise ValueError("component set must be nonempty")
    # return_index keeps np.unique from importing numpy.ma
    diffs = np.unique(np.round(levels[:, None] - levels[None, :], 12).ravel(),
                      return_index=True)[0]
    grids = np.meshgrid(*[diffs] * q.dim, indexing="ij")
    d = np.stack([g.ravel() for g in grids], axis=1)
    d = d[np.any(d != 0, axis=1)]
    if d.size == 0:
        return True
    rotated = d @ q.entries.T
    return bool(np.min(np.abs(rotated)) > _ZERO_COORD_TOL)


def difference_set(s: SignalSet) -> np.ndarray:
    """All pairwise point differences, deduplicated; includes the zero vector."""
    pts = s.points
    d = pts[:, None, :] - pts[None, :, :]
    d = d.reshape(-1, s.dim)
    return np.unique(np.round(d, 12), axis=0, return_index=True)[0]


def modulation_set(name: str) -> SignalSet:
    """pamM for one-symbol groups, qamM (rotated) for two-symbol groups: the
    standard alphabets, named as --modulation and ExperimentConfig take them."""
    kind, order = name[:3].lower(), name[3:]
    require(kind in ("pam", "qam") and order.isascii() and order.isdecimal(), "modulation",
            "be pamM or qamM with M a number", name)
    # a numeral longer than MAX_POINTS's is above it, and int() refuses one of 4,300 digits
    digits, most = order.lstrip("0") or "0", f"have at most {MAX_POINTS} points"
    require(len(digits) <= len(str(MAX_POINTS)), "modulation", most, name)
    m = int(digits)
    require(m >= 2 and m & (m - 1) == 0 and (kind == "pam" or math.isqrt(m) ** 2 == m),
            "modulation", "be pamM with M in 2, 4, 8, ... or qamM with M in 4, 16, 64, ...", name)
    require(m <= MAX_POINTS, "modulation", most, name)
    return make_pam(m) if kind == "pam" else make_rotated_qam(m, rotation_2d())
