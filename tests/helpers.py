"""Checks and file helpers that only the tests use."""

import json

import numpy as np

from dstbc.construct import ConjugateLinearForm
from dstbc.design import LinearDesign, design_from_dict, design_to_dict, evaluate


def relay_form_consistent(
    design: LinearDesign,
    form: ConjugateLinearForm,
    trials: int = 20,
    rng: np.random.Generator | None = None,
    tol: float = 1e-10,
) -> bool:
    """Check the reconstruction identity on random symbol vectors."""
    rng = rng or np.random.default_rng(0)
    for _ in range(trials):
        x = rng.standard_normal(design.K)
        xmat = evaluate(design, x)
        z = form.V @ x
        for j in range(design.N):
            if np.abs(form.codeword_column(j, z) - xmat[:, j]).max() > tol:
                return False
    return True


def complement_transform_selftest(
    dim: int, trials: int = 100, rng: np.random.Generator | None = None,
    tol: float = 1e-8,
) -> bool:
    """Orthogonal complements pull back through a symmetric map as claimed.

    For full-rank symmetric A and a random subspace V', the projector onto
    (A V')^perp must equal the projector onto the column space of
    A^{-1} (basis of V'^perp).
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    rng = rng or np.random.default_rng(0)
    for _ in range(trials):
        m = rng.standard_normal((dim, dim))
        a = 0.5 * (m + m.T)
        if np.linalg.cond(a) > 1e6:
            continue
        r = max(1, dim // 2)
        basis = rng.standard_normal((dim, r))
        q1 = np.linalg.qr(a @ basis)[0]
        p1 = np.eye(dim) - q1 @ q1.T
        u = np.linalg.svd(basis, full_matrices=True)[0]
        comp = u[:, r:]
        q2 = np.linalg.qr(np.linalg.solve(a, comp))[0]
        p2 = q2 @ q2.T
        if np.abs(p1 - p2).max() > tol:
            return False
    return True


def save_design(d: LinearDesign, path) -> None:
    with open(path, "w") as f:
        json.dump(design_to_dict(d), f)


def load_design(path) -> LinearDesign:
    with open(path) as f:
        return design_from_dict(json.load(f))
