"""Full-diversity rank criteria and analytic certificates.

A code achieves full diversity under PIC decoding when, for every group k,
every nonzero group difference a_k, and every real interference combination
u over the other groups, the matrix X(a_k on group k, u elsewhere) keeps
full column rank; PIC-SIC only quantifies u over the groups after k, and ZF
asks full rank of X(u) for every nonzero u.

Randomized checks sample u (plus the all-zero combination and, for ZF, the
signed unit vectors) and test the smallest relative singular value, which
is necessary-only evidence of the "for every u" statement. The rank kernel
takes the matrices in chunks: one batched matmul forms a chunk's Gram
matrices, their eigenvalues give every ratio of 1e-6 or more, and the
matrices below that are recomputed by an exact SVD (counted in the report),
so no verdict at the 1e-8 threshold rests on the Gram. Each alphabet's
nonzero difference set is built once per check call. For codes built
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
from .design import require, verify_cod

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
    (None for ZF), interference coefficients u. The checks give a witness
    copies of a_k and u, never views that would keep their draws alive."""

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
    # matrices whose ratio the exact SVD recomputed
    exact_svd_fallbacks: int = field(default=0, compare=False)

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "passed": self.passed,
            "samples_tested": self.samples_tested,
            "min_singular_value": self.min_singular_value,
            "witness": None if self.witness is None else self.witness.to_dict(),
            "analytic_certificate": self.analytic_certificate,
            "coverage": self.coverage,
            "exact_svd_fallbacks": self.exact_svd_fallbacks,
        }


def _relative_sv(mats: np.ndarray, fallbacks: list | None = None) -> np.ndarray:
    """Smallest/largest singular value ratio for a stack of (T, N) matrices.

    The Gram matrices of the whole stack come from one batched product, and
    their extreme eigenvalues (eigvalsh) give each ratio. A ratio below
    _FAST_PATH_RATIO is recomputed by an exact SVD of its matrix, and the
    number of matrices so recomputed is appended to fallbacks if given."""
    gram = np.swapaxes(mats.conj(), 1, 2) @ mats
    evals = np.linalg.eigvalsh(gram)
    lam_min = np.clip(evals[:, 0].real, 0.0, None)
    lam_max = np.clip(evals[:, -1].real, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sqrt(np.where(lam_max > 0, lam_min / lam_max, 0.0))
    redo = np.nonzero(ratio < _FAST_PATH_RATIO)[0]
    rows, cols = mats.shape[1:]
    if rows < cols:  # full column rank is impossible
        ratio[redo] = 0.0
    elif redo.size:
        s = np.linalg.svd(mats[redo], compute_uv=False)
        ratio[redo] = s[:, -1] / np.where(s[:, 0] > 0, s[:, 0], 1.0)  # s = 0 gives 0
        if fallbacks is not None:
            fallbacks.append(redo.size)
    return ratio


def _group_differences(gset, cache: dict, rng: np.random.Generator):
    """Nonzero differences of the alphabet gset, exhaustively up to the cap.
    cache maps id(gset) to the full set, so a check builds it once per
    alphabet; the subset drawn above the cap is drawn anew for every group."""
    if id(gset) not in cache:
        diffs = difference_set(gset)
        cache[id(gset)] = diffs[np.any(diffs != 0, axis=1)]
    diffs = cache[id(gset)]
    if diffs.shape[0] > _DIFF_CAP:
        pick = rng.choice(diffs.shape[0], size=_DIFF_CAP, replace=False)
        return diffs[np.sort(pick)], diffs.shape[0]
    return diffs, diffs.shape[0]


def _scan(chunks):
    """Rank-test chunks of (T2, N) matrices in order, stopping at the first
    deficient matrix. chunks yields (mats, witness_of), where witness_of(i)
    builds the Witness of matrix i; returns (tested, min_ratio, witness,
    exact SVD fallbacks). The rank kernel of every criterion check."""
    tested, min_ratio, fallbacks = 0, np.inf, []
    for mats, witness_of in chunks:
        ratios = _relative_sv(mats, fallbacks)
        tested += mats.shape[0]
        min_ratio = min(min_ratio, float(ratios.min()))
        bad = np.nonzero(ratios <= REL_SV_THRESHOLD)[0]
        if bad.size:
            return tested, min_ratio, witness_of(int(bad[0])), sum(fallbacks)
    return tested, min_ratio, None, sum(fallbacks)


def _checked_rng(trials: int, rng: np.random.Generator | None) -> np.random.Generator:
    """rng, or a seed-0 generator if it is None, once trials is refused if negative."""
    require(trials >= 0, "trials", "be >= 0", trials)
    return rng or np.random.default_rng(0)


def _scan_groups(code, criterion, interference_of, trials, rng):
    """Shared kernel of the PIC and PIC-SIC checks.

    For every group and every difference, tests u = 0 plus `trials` Gaussian
    draws over the interference index set, failing fast on the first
    rank-deficient combination.
    """
    w = code.design.weights.reshape(code.K, -1)  # (K, T2 N): products are matmuls
    sets, alphabet_diffs = code.signal_sets(), {}
    covered = total_diffs = 0

    def chunks():
        nonlocal covered, total_diffs
        for k, grp in enumerate(code.grouping.groups):
            diffs, n_all = _group_differences(sets[k], alphabet_diffs, rng)
            covered += diffs.shape[0]
            total_diffs += n_all
            fixed = diffs @ w[list(grp)]
            interf_idx = list(interference_of(k))
            u_draws = np.zeros((1, len(interf_idx)))
            if interf_idx:
                u_draws = np.concatenate([u_draws, rng.standard_normal((trials, len(interf_idx)))])
            for lo in range(0, u_draws.shape[0], _U_CHUNK):
                u_chunk = u_draws[lo:lo + _U_CHUNK]
                interf = u_chunk @ w[interf_idx]
                mats = (fixed[:, None] + interf[None, :]).reshape(-1, code.T2, code.N)
                yield mats, lambda i: Witness(k, diffs[i // len(u_chunk)].copy(),
                                              u_chunk[i % len(u_chunk)].copy())

    tested, min_ratio, witness, fallbacks = _scan(chunks())
    return CriterionReport(criterion, witness is None, tested, min_ratio, witness,
                           coverage=covered / max(total_diffs, 1), exact_svd_fallbacks=fallbacks)


def check_pic(code: DstbcCode, trials: int = 1000,
              rng: np.random.Generator | None = None) -> CriterionReport:
    """Randomized PIC rank criterion; interference spans all other groups.

    The analytic certificate is attached for grid-built codes with at most
    two layers, where the construction guarantees the PIC criterion.
    """
    rng = _checked_rng(trials, rng)
    report = _scan_groups(code, "PIC", code.grouping.complement, trials, rng)
    two_layers = code.params is not None and code.params.n <= 2
    return replace(report, analytic_certificate=cod_certificate(code) if two_layers else None)


def check_pic_sic(code: DstbcCode, trials: int = 1000,
                  rng: np.random.Generator | None = None) -> CriterionReport:
    """Randomized PIC-SIC rank criterion; interference spans later groups only."""
    rng = _checked_rng(trials, rng)
    report = _scan_groups(code, "PIC-SIC", code.grouping.tail, trials, rng)
    cert = cod_certificate(code) if code.params is not None else None
    return replace(report, analytic_certificate=cert)


def check_zf(code: DstbcCode, trials: int = 1000,
             rng: np.random.Generator | None = None) -> CriterionReport:
    """Randomized ZF rank criterion over whole-design combinations.

    Tests all signed unit vectors (catching symbols whose lone weight is
    rank deficient) plus `trials` Gaussian draws.
    """
    rng = _checked_rng(trials, rng)
    w = code.design.weights.reshape(code.K, -1)
    units = np.concatenate([np.eye(code.K), -np.eye(code.K)])
    u_draws = np.concatenate([units, rng.standard_normal((trials, code.K))])

    def chunks():
        for lo in range(0, u_draws.shape[0], _U_CHUNK):
            u_chunk = u_draws[lo:lo + _U_CHUNK]
            mats = (u_chunk @ w).reshape(-1, code.T2, code.N)
            yield mats, lambda i: Witness(None, None, u_chunk[i].copy())

    tested, min_ratio, witness, fallbacks = _scan(chunks())
    cert = cod_certificate(code) if code.params is not None and code.params.lam == 1 else None
    return CriterionReport("ZF", witness is None, tested, min_ratio, witness, cert,
                           exact_svd_fallbacks=fallbacks)


def cod_certificate(code: DstbcCode) -> bool:
    """Deterministic PIC-SIC full-diversity certificate for grid-built codes.

    Verifies the hypotheses under which the construction is provably full
    diversity: the block COD identity, a full-diversity rotation behind
    every group alphabet, the diagonal-layer block placement, and the
    group-to-layer symbol mapping, the last two on whole arrays of every
    block and every symbol. Returns False (refusal, not failure) whenever
    any hypothesis cannot be established.
    """
    p = code.params
    if p is None or code.group_sets is None or not verify_cod(p.cod):
        return False
    for s in {id(s): s for s in code.group_sets}.values():  # each distinct set once
        if (s.rotation is None or s.component_levels is None or s.dim != p.lam
                or not verify_rotation(s.rotation, s.component_levels)):
            return False
    nonzero = np.abs(code.design.weights) > 0  # (K, T2, N)
    # the layer of each entry of the design: its block row less its block column
    offset = np.arange(code.T2)[:, None] // p.Tp - np.arange(code.N) // p.Np
    # symbols of group k live only in layer k // K' blocks
    groups = code.grouping.groups
    layer = np.empty(code.K, dtype=int)
    layer[np.concatenate(groups)] = np.repeat(np.arange(len(groups)) // p.Kp,
                                              [len(g) for g in groups])
    return bool(nonzero.any(axis=(1, 2)).all()
                and not (nonzero.any(axis=0) & ((offset < 0) | (offset >= p.n))).any()
                and not (nonzero & (offset != layer[:, None, None])).any())


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
    require(max_drop < code.N, "max_drop", f"be below N = {code.N}", max_drop)
    rng = _checked_rng(trials, rng)
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
