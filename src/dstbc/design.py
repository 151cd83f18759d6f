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
    "design_to_dict",
    "design_from_dict",
    "require",
]

_COD_TOL = 1e-12


def require(ok, name: str, what: str, value) -> None:
    """The one check on input from outside the program (configs, code files,
    CLI flags, the environment): unless ok, raise a ValueError reading
    "<name> must <what>, got <value!r>", the value's repr cut to 200 chars."""
    if not ok:
        text = repr(value)
        if len(text) > 200:
            text = text[:197] + "..."
        raise ValueError(f"{name} must {what}, got {text}")


@dataclass(frozen=True)
class LinearDesign:
    """K weight matrices of shape (T, N), stored as one (K, T, N) array.

    A complete code design has weights that are linearly independent over R
    (see independent_weights). The class does not check it, so a design may
    carry zero weights for symbols it does not touch.
    """

    T: int
    N: int
    K: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=complex)
        require(w.shape == (self.K, self.T, self.N), "weights",
                f"have shape {(self.K, self.T, self.N)}", w.shape)
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

    design: LinearDesign

    def __post_init__(self):
        if not verify_cod(self):
            raise ValueError("weight matrices do not satisfy the COD identity")


def evaluate(d: LinearDesign, x: np.ndarray) -> np.ndarray:
    """X(x) = sum_i x_i A_i."""
    x = np.asarray(x, dtype=float)
    if x.shape != (d.K,):
        raise ValueError(f"expected {d.K} real symbols, got shape {x.shape}")
    return np.tensordot(x, d.weights, axes=1)


def verify_cod(c: CodProfile | LinearDesign) -> bool:
    """Check A_i^H A_j + A_j^H A_i = 2 delta_ij I for all pairs i, j, each
    entry within _COD_TOL; every product A_i^H A_j comes from one einsum."""
    d = c.design if isinstance(c, CodProfile) else c
    prods = np.einsum("itn,jtm->ijnm", d.weights.conj(), d.weights)
    target = 2.0 * np.eye(d.K)[:, :, None, None] * np.eye(d.N)
    return bool(np.abs(prods + prods.transpose(1, 0, 2, 3) - target).max(initial=0.0)
                <= _COD_TOL)


def cod_trivial() -> CodProfile:
    """The 1x1 COD carrying one complex symbol s1 + i*s2."""
    w = np.array([[[1.0 + 0j]], [[1j]]])
    return CodProfile(LinearDesign.from_weights(w))


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
    return CodProfile(LinearDesign.from_weights(w))


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


def design_from_dict(doc: dict) -> LinearDesign:
    """Inverse of design_to_dict; a malformed document raises a ValueError
    that names the field."""
    require(isinstance(doc, dict), "a design document", "be a JSON object", type(doc).__name__)
    for field in ("T", "N", "K", "weights"):
        require(field in doc, f"design field {field!r}", "be present", list(doc))
    for field in ("T", "N", "K"):
        require(type(doc[field]) is int and doc[field] >= 1, f"design field {field!r}",
                "be a positive integer", doc[field])
    t, n, k = doc["T"], doc["N"], doc["K"]
    try:
        w = np.array(doc["weights"])
    except ValueError:  # ragged nesting
        w = np.empty(0)
    require(w.dtype.kind in "iuf" and w.shape == (k, t, n, 2) and np.isfinite(w).all(),
            "design field 'weights'",
            f"hold K x T x N = {k} x {t} x {n} [re, im] pairs of finite numbers", doc["weights"])
    d = LinearDesign(t, n, k, np.ascontiguousarray(w, float).view(complex)[..., 0])
    require(independent_weights(d), "design field 'weights'",
            "be linearly independent over R", doc["weights"])
    return d
