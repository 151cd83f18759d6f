"""Full-diversity rank criteria and analytic certificates.

A code achieves full diversity under PIC decoding when, for every group k,
every nonzero group difference a_k, and every real interference combination
u over the other groups, the matrix X(a_k on group k, u elsewhere) keeps
full column rank; PIC-SIC only quantifies u over the groups after k, and ZF
asks full rank of X(u) for every nonzero u.

Randomized checks sample u (plus the all-zero combination and, for ZF, the
signed unit vectors) and test the smallest relative singular value, which
is necessary-only evidence of the "for every u" statement. For codes built
from a COD grid with verified full-diversity rotations the criterion holds
by construction, and cod_certificate re-checks those hypotheses to certify
the PIC-SIC criterion deterministically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .constellation import difference_set, verify_rotation
from .construct import DstbcCode, drop_relays
from .design import verify_cod

__all__ = [
    "Witness",
    "CriterionReport",
    "check_pic",
    "check_pic_sic",
    "check_zf",
    "cod_certificate",
    "relay_failure_sweep",
]

# pass iff smallest singular value > REL_SV_THRESHOLD * largest
REL_SV_THRESHOLD = 1e-8
# Gram-eigenvalue fast path resolves ratios down to ~1e-6 reliably; anything
# smaller is recomputed with an exact SVD
_FAST_PATH_RATIO = 1e-6
_DIFF_CAP = 256
_U_CHUNK = 128


@dataclass(frozen=True)
class Witness:
    """Failing combination: group k (None for ZF), group difference a_k
    (None for ZF), interference coefficients u."""

    k: int | None
    a_k: np.ndarray | None
    u: np.ndarray

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "a_k": None if self.a_k is None else [float(v) for v in self.a_k],
            "u": [float(v) for v in self.u],
        }


@dataclass(frozen=True)
class CriterionReport:
    criterion: str
    passed: bool
    samples_tested: int
    min_singular_value: float
    witness: Witness | None = None
    analytic_certificate: bool | None = None
    coverage: float = field(default=1.0, compare=False)

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "passed": self.passed,
            "samples_tested": self.samples_tested,
            "min_singular_value": self.min_singular_value,
            "witness": None if self.witness is None else self.witness.to_dict(),
            "analytic_certificate": self.analytic_certificate,
            "coverage": self.coverage,
        }


def _relative_sv(mats: np.ndarray) -> np.ndarray:
    """Smallest/largest singular value ratio for a stack of (T, N) matrices."""
    gram = np.einsum("bti,btj->bij", mats.conj(), mats)
    evals = np.linalg.eigvalsh(gram)
    lam_min = np.clip(evals[:, 0].real, 0.0, None)
    lam_max = np.clip(evals[:, -1].real, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sqrt(np.where(lam_max > 0, lam_min / lam_max, 0.0))
    redo = np.nonzero(ratio < _FAST_PATH_RATIO)[0]
    for i in redo:
        rows, cols = mats[i].shape
        if rows < cols:  # full column rank is impossible
            ratio[i] = 0.0
            continue
        s = np.linalg.svd(mats[i], compute_uv=False)
        ratio[i] = 0.0 if s[0] == 0 else s[-1] / s[0]
    return ratio


def _group_differences(code: DstbcCode, k: int, rng: np.random.Generator):
    """Nonzero group differences, exhaustively up to the cap."""
    if code.group_sets is None:
        raise ValueError("criteria checks need signal sets attached")
    diffs = difference_set(code.group_sets[k])
    diffs = diffs[np.any(diffs != 0, axis=1)]
    if diffs.shape[0] > _DIFF_CAP:
        pick = rng.choice(diffs.shape[0], size=_DIFF_CAP, replace=False)
        return diffs[np.sort(pick)], diffs.shape[0]
    return diffs, diffs.shape[0]


def _scan_groups(code, criterion, interference_of, trials, rng):
    """Shared kernel of the PIC and PIC-SIC checks.

    For every group and every difference, tests u = 0 plus `trials` Gaussian
    draws over the interference index set, failing fast on the first
    rank-deficient combination.
    """
    w = code.design.weights
    tested = 0
    min_ratio = np.inf
    covered, total_diffs = 0, 0
    for k, grp in enumerate(code.grouping.groups):
        diffs, n_all = _group_differences(code, k, rng)
        covered += diffs.shape[0]
        total_diffs += n_all
        fixed = np.einsum("dg,gtn->dtn", diffs, w[list(grp)])
        interf_idx = list(interference_of(k))
        if interf_idx:
            u_draws = np.concatenate(
                [np.zeros((1, len(interf_idx))),
                 rng.standard_normal((trials, len(interf_idx)))]
            )
        else:
            u_draws = np.zeros((1, 0))
        w_int = w[interf_idx]
        for lo in range(0, u_draws.shape[0], _U_CHUNK):
            u_chunk = u_draws[lo:lo + _U_CHUNK]
            if interf_idx:
                interf = np.einsum("uc,ctn->utn", u_chunk, w_int)
            else:
                interf = np.zeros((1, code.T2, code.N), dtype=complex)
            mats = (fixed[:, None] + interf[None, :]).reshape(-1, code.T2, code.N)
            ratios = _relative_sv(mats)
            tested += mats.shape[0]
            min_ratio = min(min_ratio, float(ratios.min()))
            bad = np.nonzero(ratios <= REL_SV_THRESHOLD)[0]
            if bad.size:
                d_i, u_i = divmod(int(bad[0]), u_chunk.shape[0])
                return CriterionReport(
                    criterion, False, tested, min_ratio,
                    Witness(k, diffs[d_i], u_chunk[u_i]),
                    coverage=covered / max(total_diffs, 1),
                )
    return CriterionReport(
        criterion, True, tested, min_ratio, None,
        coverage=covered / max(total_diffs, 1),
    )


def check_pic(code: DstbcCode, trials: int = 1000,
              rng: np.random.Generator | None = None) -> CriterionReport:
    """Randomized PIC rank criterion; interference spans all other groups.

    The analytic certificate is attached for grid-built codes with at most
    two layers, where the construction guarantees the PIC criterion.
    """
    rng = rng or np.random.default_rng(0)
    report = _scan_groups(code, "PIC", code.grouping.complement, trials, rng)
    cert = None
    if code.params is not None and code.params.n <= 2:
        cert = cod_certificate(code)
    return replace(report, analytic_certificate=cert)


def check_pic_sic(code: DstbcCode, trials: int = 1000,
                  rng: np.random.Generator | None = None) -> CriterionReport:
    """Randomized PIC-SIC rank criterion; interference spans later groups only."""
    rng = rng or np.random.default_rng(0)
    report = _scan_groups(code, "PIC-SIC", code.grouping.tail, trials, rng)
    cert = cod_certificate(code) if code.params is not None else None
    return replace(report, analytic_certificate=cert)


def check_zf(code: DstbcCode, trials: int = 1000,
             rng: np.random.Generator | None = None) -> CriterionReport:
    """Randomized ZF rank criterion over whole-design combinations.

    Tests all signed unit vectors (catching symbols whose lone weight is
    rank deficient) plus `trials` Gaussian draws.
    """
    rng = rng or np.random.default_rng(0)
    w = code.design.weights
    k = code.K
    units = np.concatenate([np.eye(k), -np.eye(k)])
    u_draws = np.concatenate([units, rng.standard_normal((trials, k))])
    tested = 0
    min_ratio = np.inf
    witness = None
    for lo in range(0, u_draws.shape[0], _U_CHUNK):
        u_chunk = u_draws[lo:lo + _U_CHUNK]
        mats = np.einsum("uk,ktn->utn", u_chunk, w)
        ratios = _relative_sv(mats)
        tested += mats.shape[0]
        min_ratio = min(min_ratio, float(ratios.min()))
        bad = np.nonzero(ratios <= REL_SV_THRESHOLD)[0]
        if bad.size:
            witness = Witness(None, None, u_chunk[int(bad[0])])
            break
    cert = None
    if code.params is not None and code.params.lam == 1:
        cert = cod_certificate(code)
    return CriterionReport("ZF", witness is None, tested, min_ratio, witness, cert)


def cod_certificate(code: DstbcCode) -> bool:
    """Deterministic PIC-SIC full-diversity certificate for grid-built codes.

    Verifies the hypotheses under which the construction is provably full
    diversity: the block COD identity, a full-diversity rotation behind
    every group alphabet, the diagonal-layer block placement, and the
    group-to-layer symbol mapping. Returns False (refusal, not failure)
    whenever any hypothesis cannot be established.
    """
    p = code.params
    if p is None or code.group_sets is None:
        return False
    if not verify_cod(p.cod):
        return False
    for s in code.group_sets:
        if s.rotation is None or s.component_levels is None:
            return False
        if s.dim != p.lam:
            return False
        if not verify_rotation(s.rotation, s.component_levels):
            return False
    w = code.design.weights
    mag = np.abs(w).sum(axis=0)  # (T2, N)
    n_rows = p.n + p.L - 1
    for rb in range(n_rows):
        for cb in range(p.L):
            block = mag[rb * p.Tp:(rb + 1) * p.Tp, cb * p.Np:(cb + 1) * p.Np]
            if block.max() > 0 and not 0 <= rb - cb <= p.n - 1:
                return False
    # symbols of group k live only in layer k // K' blocks
    for k, grp in enumerate(code.grouping.groups):
        m = k // p.Kp
        for i in grp:
            rows, cols = np.nonzero(np.abs(w[i]) > 0)
            if rows.size == 0:
                return False
            if np.any(rows // p.Tp - cols // p.Np != m):
                return False
    return True


def relay_failure_sweep(
    code: DstbcCode,
    max_drop: int,
    trials: int = 200,
    rng: np.random.Generator | None = None,
) -> list:
    """PIC-SIC criterion on every relay-drop variant up to max_drop failures.

    At most 64 drop subsets are checked per size a; the surviving design has
    N - a columns, so the rank target shrinks accordingly.
    """
    if max_drop >= code.N:
        raise ValueError("cannot drop all relays")
    rng = rng or np.random.default_rng(0)
    reports = []
    for a in range(max_drop + 1):
        subsets = list(itertools.combinations(range(code.N), a))
        if len(subsets) > 64:
            pick = rng.choice(len(subsets), size=64, replace=False)
            subsets = [subsets[i] for i in np.sort(pick)]
        for sub in subsets:
            sub_code = drop_relays(code, sub) if sub else code
            reports.append((sub, check_pic_sic(sub_code, trials, rng)))
    return reports
