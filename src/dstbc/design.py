"""Real-linear designs over complex matrices.

A design in K real symbols x_1..x_K is the matrix-valued map
X(x) = sum_i x_i A_i, held as its K complex weight matrices A_i of a common
shape T x N. Complex orthogonal designs (CODs) are designs whose weight
matrices satisfy A_i^H A_j + A_j^H A_i = 2 delta_ij I, which makes
X(x)^H X(x) = (sum x_i^2) I for every real x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinearDesign",
    "CodProfile",
    "evaluate",
    "independent_weights",
    "cod_trivial",
    "cod_alamouti",
    "verify_cod",
    "reindex",
    "design_to_dict",
    "design_from_dict",
]

_COD_TOL = 1e-12


@dataclass(frozen=True)
class LinearDesign:
    """K weight matrices of shape (T, N), stored as one (K, T, N) array.

    A complete code design has weights that are linearly independent over R
    (see independent_weights); intermediates such as reindexed CODs may
    carry zero weights for symbols they do not touch.
    """

    T: int
    N: int
    K: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=complex)
        if w.shape != (self.K, self.T, self.N):
            raise ValueError(
                f"weights must have shape ({self.K}, {self.T}, {self.N}), got {w.shape}"
            )
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_weights(cls, weights) -> "LinearDesign":
        w = np.asarray(weights, dtype=complex)
        return cls(w.shape[1], w.shape[2], w.shape[0], w)


def independent_weights(d: LinearDesign) -> bool:
    """True iff the realified weight stacking has full rank K."""
    w = d.weights
    stacked = np.concatenate(
        [w.real.reshape(d.K, -1), w.imag.reshape(d.K, -1)], axis=1
    )
    return int(np.linalg.matrix_rank(stacked)) == d.K


@dataclass(frozen=True)
class CodProfile:
    """A design verified to satisfy the COD identity at construction."""

    Tp: int
    Np: int
    Kp: int
    design: LinearDesign

    def __post_init__(self):
        d = self.design
        if (d.T, d.N, d.K) != (self.Tp, self.Np, self.Kp):
            raise ValueError("profile dimensions disagree with the design")
        if not verify_cod(self):
            raise ValueError("weight matrices do not satisfy the COD identity")


def evaluate(d: LinearDesign, x: np.ndarray) -> np.ndarray:
    """X(x) = sum_i x_i A_i."""
    x = np.asarray(x, dtype=float)
    if x.shape != (d.K,):
        raise ValueError(f"expected {d.K} real symbols, got shape {x.shape}")
    return np.tensordot(x, d.weights, axes=1)


def verify_cod(c: CodProfile | LinearDesign) -> bool:
    """Check A_i^H A_j + A_j^H A_i = 2 delta_ij I for all pairs."""
    d = c.design if isinstance(c, CodProfile) else c
    w = d.weights
    eye = np.eye(d.N)
    for i in range(d.K):
        for j in range(i, d.K):
            s = w[i].conj().T @ w[j] + w[j].conj().T @ w[i]
            target = 2.0 * eye if i == j else 0.0
            if np.abs(s - target).max() > _COD_TOL:
                return False
    return True


def cod_trivial() -> CodProfile:
    """The 1x1 COD carrying one complex symbol s1 + i*s2."""
    w = np.array([[[1.0 + 0j]], [[1j]]])
    return CodProfile(1, 1, 2, LinearDesign.from_weights(w))


def cod_alamouti() -> CodProfile:
    """The 2x2 Alamouti COD [[w1, w2], [-w2*, w1*]] in 4 real symbols."""
    w = np.array(
        [
            [[1, 0], [0, 1]],
            [[1j, 0], [0, -1j]],
            [[0, 1], [-1, 0]],
            [[0, 1j], [1j, 0]],
        ],
        dtype=complex,
    )
    return CodProfile(2, 2, 4, LinearDesign.from_weights(w))


def reindex(c: CodProfile, symbol_indices, k_total: int) -> LinearDesign:
    """Embed the COD into a design over k_total symbols.

    symbol_indices[i] (0-based) is the global symbol that weight A'_i of the
    COD attaches to; all other global symbols get a zero weight.
    """
    idx = list(symbol_indices)
    if len(idx) != c.Kp:
        raise ValueError(f"expected {c.Kp} indices, got {len(idx)}")
    if len(set(idx)) != len(idx):
        raise ValueError("symbol indices must be distinct")
    if any(i < 0 or i >= k_total for i in idx):
        raise ValueError("symbol index out of range")
    w = np.zeros((k_total, c.Tp, c.Np), dtype=complex)
    for i, gi in enumerate(idx):
        w[gi] = c.design.weights[i]
    return LinearDesign(c.Tp, c.Np, k_total, w)


def design_to_dict(d: LinearDesign) -> dict:
    """JSON document: {T, N, K, weights}, each entry a [re, im] pair."""
    return {
        "T": d.T,
        "N": d.N,
        "K": d.K,
        "weights": [
            [[[float(v.real), float(v.imag)] for v in row] for row in mat]
            for mat in d.weights
        ],
    }


def design_from_dict(doc: dict, require_independent: bool = True) -> LinearDesign:
    w = np.array(
        [[[complex(re, im) for re, im in row] for row in mat] for mat in doc["weights"]]
    )
    d = LinearDesign(int(doc["T"]), int(doc["N"]), int(doc["K"]), w)
    if require_independent and not independent_weights(d):
        raise ValueError("design weights are linearly dependent over R")
    return d
