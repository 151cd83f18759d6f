"""Group decoders for the whitened real model y = G x + n.

PIC decodes each group after projecting out the span of every other
group's columns; PIC-SIC walks the groups in order, projecting out only
later groups and subtracting each decision before moving on. ZF / ZF-SIC
are the same decoders under the all-singleton refinement of the grouping,
available when the group alphabets factor per coordinate. ML is exhaustive
search over the full product alphabet.

Decoding is batch-first: GroupDecoder decides a chunk of trials along a
leading axis, and the single-problem functions below are batches of one
over the same arithmetic. All decoders break metric ties toward the lowest
candidate index, so equal inputs always produce equal outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellation import SignalSet
from .construct import GroupingScheme

__all__ = [
    "DECODERS",
    "DecodeProblem",
    "DecodeResult",
    "GroupDecoder",
    "group_symbols",
    "projector_complement",
    "pic_decode",
    "pic_sic_decode",
    "zf_decode",
    "zf_sic_decode",
    "ml_decode",
    "ML_CANDIDATE_CAP",
]

DECODERS = ("ml", "pic", "pic-sic", "zf", "zf-sic")
_RANK_TOL = 1e-10
ML_CANDIDATE_CAP = 2**20


@dataclass(frozen=True)
class DecodeProblem:
    G: np.ndarray
    y: np.ndarray
    grouping: GroupingScheme
    group_sets: tuple

    def __post_init__(self):
        g = np.asarray(self.G, dtype=float)
        y = np.asarray(self.y, dtype=float).reshape(-1)
        if g.shape[1] != self.grouping.K:
            raise ValueError("G must have one column per symbol")
        if g.shape[0] != y.shape[0]:
            raise ValueError("y length must match the rows of G")
        object.__setattr__(self, "G", g)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "group_sets", self.grouping.check_sets(self.group_sets))


@dataclass(frozen=True)
class DecodeResult:
    x_hat: np.ndarray
    per_group_residuals: tuple
    group_indices: tuple

    def residual(self) -> float:
        return float(sum(self.per_group_residuals))


def group_symbols(groups, sets, idx: np.ndarray) -> np.ndarray:
    """Symbol vectors (b, K) from per-group point indices idx (b, g)."""
    x = np.empty((idx.shape[0], sum(len(g) for g in groups)))
    for k, (grp, s) in enumerate(zip(groups, sets)):
        x[:, list(grp)] = s.points[idx[:, k]]
    return x


def _range_basis(m: np.ndarray, tol: float = _RANK_TOL) -> np.ndarray:
    """Orthonormal column-space bases of a stack of matrices (b, d, c).

    Numerical rank counts singular values above tol times the largest;
    basis vectors beyond it are zeroed, so an all-zero matrix has none.
    """
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    keep = s > tol * np.maximum(s[:, 0:1], 1e-300)
    return u if keep.all() else u * keep[:, None, :]


def _project_out(cols, y, gk):
    """Remove the column space of cols (b, d, c) from y (b, d) and gk (b, d, m)."""
    if cols.shape[2] == 0:
        return y, gk
    q = _range_basis(cols)
    py = y - np.einsum("bdr,br->bd", q, np.einsum("bdr,bd->br", q, y))
    pg = gk - q @ np.einsum("bdr,bdc->brc", q, gk)
    return py, pg


def projector_complement(m: np.ndarray, tol: float = _RANK_TOL) -> np.ndarray:
    """Orthogonal projector onto the complement of the column space of m.

    Numerical rank counts singular values above tol times the largest; an
    empty m projects onto everything (identity).
    """
    m = np.asarray(m, dtype=float)
    if m.ndim == 1:
        m = m[:, None]
    eye = np.eye(m.shape[0])
    if m.shape[1] == 0:
        return eye
    q = _range_basis(m[None], tol)[0]
    return eye - q @ q.T


def _separable_axes(s: SignalSet):
    """Per-coordinate levels and the table from mixed-radix level index to
    point index, if the set is the full product of its levels; else None."""
    rounded = np.round(s.points, 12)
    axes = [np.unique(rounded[:, d]) for d in range(s.dim)]
    sizes = [a.size for a in axes]
    if math.prod(sizes) != s.size:
        return None
    levels = [np.searchsorted(a, rounded[:, d]) for d, a in enumerate(axes)]
    code = np.ravel_multi_index(levels, sizes)
    if np.unique(code).size != s.size:
        return None
    table = np.empty(s.size, dtype=np.int64)
    table[code] = np.arange(s.size)
    return axes, table


def _singleton_refinement(grouping: GroupingScheme, sets):
    """The ZF view of a grouping: one group per symbol, per-coordinate sets.

    Also returns the label map (strides (K, g), offsets (g,), table) that
    takes per-symbol level indices lv back to each original group's point
    index: table[lv @ strides + offsets].
    """
    coord_sets = [None] * grouping.K
    strides = np.zeros((grouping.K, grouping.g), dtype=np.int64)
    offsets, tables = [], []
    for k, (grp, s) in enumerate(zip(grouping.groups, sets)):
        offsets.append(sum(t.size for t in tables))
        if s.dim == 1:
            coord_sets[grp[0]] = s
            strides[grp[0], k] = 1
            tables.append(np.arange(s.size, dtype=np.int64))
            continue
        split = _separable_axes(s)
        if split is None:
            raise ValueError(
                f"group {k} is not coordinate-separable; ZF decoding needs "
                "per-symbol alphabets (a rotated group alphabet couples its symbols)"
            )
        axes, table = split
        stride = s.size
        for i, levels in zip(grp, axes):
            m = levels.size
            bits = int(np.log2(m))
            if 2**bits != m:
                raise ValueError("coordinate alphabet size is not a power of two")
            coord_sets[i] = SignalSet(1, levels.reshape(-1, 1), bits, np.arange(m))
            stride //= m
            strides[i, k] = stride
        tables.append(table)
    singles = GroupingScheme(tuple((i,) for i in range(grouping.K)))
    label_map = (strides, np.array(offsets, dtype=np.int64), np.concatenate(tables))
    return singles, tuple(coord_sets), label_map


def _ml_candidates(grouping: GroupingScheme, sets, cap: int):
    """Every point of the product alphabet, last group varying fastest (so
    candidate 0 is all-lowest-index), with its per-group point indices."""
    sizes = [s.size for s in sets]
    total = math.prod(sizes)
    if total > cap:
        raise ValueError(f"product alphabet has {total} points, above the cap {cap}")
    idx = np.stack(np.unravel_index(np.arange(total), sizes), axis=1)
    return group_symbols(grouping.groups, sets, idx), idx


class GroupDecoder:
    """One decoder's tables for one grouping, applied to chunks of trials.

    decide(G (b, d, K), y (b, d)) returns each trial's point index and
    metric per decode group. ZF flavours decode the singleton refinement;
    group_indices maps their decisions back to the grouping's groups.
    """

    def __init__(self, decoder: str, grouping: GroupingScheme, sets,
                 ml_cap: int = ML_CANDIDATE_CAP):
        if decoder not in DECODERS:
            raise ValueError(f"decoder must be one of {DECODERS}")
        self.decoder = decoder
        self.label_map = None
        if decoder in ("zf", "zf-sic"):
            grouping, sets, self.label_map = _singleton_refinement(grouping, sets)
        self.groups = [list(g) for g in grouping.groups]
        self.sets = tuple(sets)
        if decoder == "ml":
            self.cand_x, self.cand_idx = _ml_candidates(grouping, self.sets, ml_cap)
        else:
            nulled = grouping.complement if decoder in ("pic", "zf") else grouping.tail
            self.interference = [list(nulled(k)) for k in range(grouping.g)]

    def decide(self, g: np.ndarray, y: np.ndarray):
        if self.decoder == "ml":
            return self._ml(g, y)
        b = g.shape[0]
        idx = np.empty((b, len(self.groups)), dtype=np.int64)
        metric = np.empty((b, len(self.groups)))
        sic = self.decoder.endswith("-sic")
        yk = y.copy() if sic else y
        for k, grp in enumerate(self.groups):
            gk = g[:, :, grp]
            py, pg = _project_out(g[:, :, self.interference[k]], yk, gk)
            points = self.sets[k].points
            diff = py[:, :, None] - pg @ points.T
            metrics = np.einsum("bdm,bdm->bm", diff, diff)
            choice = np.argmin(metrics, axis=1)
            idx[:, k] = choice
            metric[:, k] = metrics[np.arange(b), choice]
            if sic:
                yk = yk - np.einsum("bdc,bc->bd", gk, points[choice])
        return idx, metric

    def _ml(self, g, y):
        """Exhaustive search of ||y - G x||^2, ranked by x'G'Gx - 2 x'G'y."""
        c1 = np.einsum("bdk,bd->bk", g, y)
        gram = np.einsum("bdk,bdl->bkl", g, g)
        best = np.empty(g.shape[0], dtype=np.int64)
        for i in range(g.shape[0]):
            quad = np.einsum("mk,mk->m", self.cand_x @ gram[i], self.cand_x)
            best[i] = np.argmin(quad - 2.0 * (self.cand_x @ c1[i]))
        r = y - np.einsum("bdk,bk->bd", g, self.cand_x[best])
        return self.cand_idx[best], np.einsum("bd,bd->b", r, r)[:, None]

    def group_indices(self, dec_idx: np.ndarray) -> np.ndarray:
        """Map decode-group decisions to point indices of the original groups."""
        if self.label_map is None:
            return dec_idx
        strides, offsets, table = self.label_map
        return table[dec_idx @ strides + offsets]


def _decode(p: DecodeProblem, decoder: str, ml_cap: int = ML_CANDIDATE_CAP) -> DecodeResult:
    dec = GroupDecoder(decoder, p.grouping, p.group_sets, ml_cap)
    idx, metric = dec.decide(p.G[None], p.y[None])
    x_hat = group_symbols(dec.groups, dec.sets, idx)[0]
    return DecodeResult(x_hat, tuple(float(v) for v in metric[0]),
                        tuple(int(i) for i in idx[0]))


def pic_decode(p: DecodeProblem) -> DecodeResult:
    """Decode every group independently behind its interference-nulling projector."""
    return _decode(p, "pic")


def pic_sic_decode(p: DecodeProblem) -> DecodeResult:
    """Groups in index order; each decision is subtracted before the next."""
    return _decode(p, "pic-sic")


def zf_decode(p: DecodeProblem) -> DecodeResult:
    return _decode(p, "zf")


def zf_sic_decode(p: DecodeProblem) -> DecodeResult:
    return _decode(p, "zf-sic")


def ml_decode(p: DecodeProblem, cap: int = ML_CANDIDATE_CAP) -> DecodeResult:
    """Exhaustive minimization of ||y - G x||^2 over the product alphabet."""
    return _decode(p, "ml", cap)
