"""Group decoders for the whitened real model y = G x + n.

PIC decodes each group after projecting out the span of every other
group's columns; PIC-SIC walks the groups in order, projecting out only
later groups and subtracting each decision before moving on. ZF / ZF-SIC
are the same decoders under the all-singleton refinement of the grouping,
available when the group alphabets factor per coordinate. ML minimizes
||y - G x||^2 over the full product alphabet.

The decoders read (G, y) only through the Gram matrix [G y]'[G y], formed
once per chunk with its columns in the decoder's order. PIC, PIC-SIC and
the ZF flavours take one Cholesky factor of it, with 1 added to the y'y
entry so that the factor exists when y lies in span(G). Its upper factor is
[[R, z], [0, sqrt(rss + 1)]] with R'R = G'G, z = R^-T G'y and rss the part
of y outside span(G), so ||y - G x||^2 = ||z - R x||^2 + rss:

- PIC-SIC / ZF-SIC take the columns in reverse group order, so the leading
  columns of R belong to the groups decoded after the current one (Wübben
  et al., Electron. Lett. 2001). Each stage is a nearest-point search on its
  own diagonal block of R, and a decision is subtracted from z through R.
- PIC / ZF take x^ = R^-1 z. Group k scores (a - x^_k)' S_k (a - x^_k) + rss,
  where S_k is the inverse of block k of (G'G)^-1 = R^-1 R^-T.

A Gram factor loses about eps * kappa(G)^2 in relative accuracy. A row whose
smallest pivot of R is at most _PIVOT_TOL = 1e-4 times its largest has
kappa(G) >= 1e4, so its factor keeps at most about 8 digits: such rows, and
every row of a chunk on which cholesky raises, are decoded by SVD projection
with a numerical-rank cut instead. rss is common to a trial's candidates, so
no decision depends on it; a metric is accurate to about eps*||y||^2*kappa^2.

ML needs no factor: in group order it scores x'Ax - 2b'x, A = G'G and
b = G'y read from the Gram matrix, which holds for any G. Each half of the
groups has its candidates enumerated once, trials are searched in blocks
that bound the (trials, M1, M2) metric array, and the metric returned is
||y - G x||^2.

Decoding is batch-first: GroupDecoder decides a chunk of trials along a
leading axis, and a single problem is a batch of one. Ties go to the lowest
candidate index among metrics that are equal as computed, so equal inputs
always produce equal outputs. Candidates that tie only in exact arithmetic,
such as two symbols on a duplicated column of G, carry metrics that differ
by rounding, and may be decided differently from an exhaustive search.
"""

from __future__ import annotations

import math

import numpy as np

from .constellation import SignalSet
from .construct import GroupingScheme

__all__ = ["DECODERS", "GroupDecoder", "group_symbols", "ML_CANDIDATE_CAP"]

DECODERS = ("ml", "pic", "pic-sic", "zf", "zf-sic")
_RANK_TOL = 1e-10
_PIVOT_TOL = 1e-4
ML_CANDIDATE_CAP = 2**20
# ML candidate-pair metrics held at once (2 MiB): trials per block times M1 * M2
_ML_BLOCK = 2**18


def group_symbols(groups, sets, idx: np.ndarray) -> np.ndarray:
    """Symbol vectors (b, K) from per-group point indices idx (b, g)."""
    x = np.empty((idx.shape[0], sum(len(g) for g in groups)))
    for k, (grp, s) in enumerate(zip(groups, sets)):
        x[:, list(grp)] = s.points[idx[:, k]]
    return x


def _range_basis(m: np.ndarray) -> np.ndarray:
    """Orthonormal column-space bases of a stack of matrices (b, d, c).

    Numerical rank counts singular values above _RANK_TOL times the largest;
    basis vectors beyond it are zeroed, so an all-zero matrix has none.
    """
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    keep = s > _RANK_TOL * np.maximum(s[:, 0:1], 1e-300)
    return u if keep.all() else u * keep[:, None, :]


def _project_out(cols, y, gk):
    """Remove the column space of cols (b, d, c) from y (b, d) and gk (b, d, m)."""
    if cols.shape[2] == 0:
        return y, gk
    q = _range_basis(cols)
    py = y - np.einsum("bdr,br->bd", q, np.einsum("bdr,bd->br", q, y))
    pg = gk - q @ np.einsum("bdr,bdc->brc", q, gk)
    return py, pg


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


def _ml_half(sets):
    """Every point of the product of sets, last set varying fastest: the
    symbols (M, sum of dims) and per-set point indices (M, len(sets))."""
    sizes = [s.size for s in sets]
    idx = np.indices(sizes, dtype=np.int64).reshape(len(sizes), math.prod(sizes)).T
    x = np.concatenate([s.points[idx[:, i]] for i, s in enumerate(sets)]
                       + [np.empty((idx.shape[0], 0))], axis=1)
    return x, idx


class GroupDecoder:
    """One decoder's tables for one grouping, applied to chunks of trials.

    decide(G (b, d, K), y (b, d)) returns each trial's point index and
    metric per decode group. ZF flavours decode the singleton refinement;
    group_indices maps their decisions back to the grouping's groups.
    """

    def __init__(self, decoder: str, grouping: GroupingScheme, sets):
        if decoder not in DECODERS:
            raise ValueError(f"decoder must be one of {DECODERS}")
        sets = grouping.check_sets(sets)
        self.decoder = decoder
        self.K = grouping.K
        self.label_map = None
        if decoder in ("zf", "zf-sic"):
            grouping, sets, self.label_map = _singleton_refinement(grouping, sets)
        self.groups = [list(g) for g in grouping.groups]
        self.sets = tuple(sets)
        if decoder == "ml":
            total = math.prod(s.size for s in self.sets)
            if total > ML_CANDIDATE_CAP:
                raise ValueError(f"product alphabet has {total} points, "
                                 f"above the cap {ML_CANDIDATE_CAP}")
            half = len(self.groups) // 2
            self.halves = (_ml_half(self.sets[:half]), _ml_half(self.sets[half:]))
            self.order = [c for grp in self.groups for c in grp]
            return
        pic = decoder in ("pic", "zf")
        nulled = grouping.complement if pic else grouping.tail
        self.interference = [list(nulled(k)) for k in range(grouping.g)]
        # Gram columns: PIC keeps G's order, SIC takes the groups in reverse
        self.order = list(range(self.K)) if pic else [c for grp in self.groups[::-1] for c in grp]
        # PIC inverts the S_k blocks of one size in one call
        sizes = sorted({len(grp) for grp in self.groups})
        self.size_classes = [[k for k, grp in enumerate(self.groups) if len(grp) == m]
                             for m in sizes]

    def decide(self, g: np.ndarray, y: np.ndarray):
        if g.ndim != 3 or g.shape[2] != self.K:
            raise ValueError(f"G must be (b, d, K) with K = {self.K} columns, got {g.shape}")
        if y.shape != g.shape[:2]:
            raise ValueError(f"y must be (b, d) matching the rows of G {g.shape}, got {y.shape}")
        gy = np.concatenate([g[:, :, self.order], y[:, :, None]], axis=2)
        gram = np.swapaxes(gy, 1, 2) @ gy
        if self.decoder == "ml":
            return self._ml(g, y, gram)
        gram[:, -1, -1] += 1.0  # keeps the factor positive definite when y is in span(G)
        try:
            c = np.swapaxes(np.linalg.cholesky(gram), 1, 2)  # [[R, z], [0, sqrt(rss + 1)]]
        except np.linalg.LinAlgError:
            return self._projected(g, y)
        r, z = c[:, :-1, :-1], c[:, :-1, -1]
        rss = c[:, -1, -1] ** 2 - 1.0  # the part of y outside span(G)
        diag = np.diagonal(r, axis1=1, axis2=2)
        full = diag.min(axis=1) > _PIVOT_TOL * diag.max(axis=1)
        solve = self._pic if self.decoder in ("pic", "zf") else self._sic
        if full.all():
            return solve(r, z, rss)
        idx = np.empty((g.shape[0], len(self.groups)), dtype=np.int64)
        metric = np.empty(idx.shape)
        idx[full], metric[full] = solve(r[full], z[full], rss[full])
        idx[~full], metric[~full] = self._projected(g[~full], y[~full])
        return idx, metric

    def _pic(self, r, z, rss):
        """Metric (a - x^_k)' S_k (a - x^_k) + ||y - G x^||^2 per group."""
        rinv = np.linalg.inv(r)
        xh = np.einsum("bkl,bl->bk", rinv, z)
        s_blocks = {}
        for ks in self.size_classes:
            u = rinv[:, np.array([self.groups[k] for k in ks]), :]  # (b, n, m, K)
            s = np.linalg.inv(u @ np.swapaxes(u, 2, 3))
            s_blocks.update((k, s[:, i]) for i, k in enumerate(ks))
        idx, metric = [], []
        for k, grp in enumerate(self.groups):
            diff = self.sets[k].points[None] - xh[:, None, grp]
            metrics = np.einsum("bmi,bij,bmj->bm", diff, s_blocks[k], diff)
            idx.append(np.argmin(metrics, axis=1))
            metric.append(metrics.min(axis=1) + rss)
        return np.stack(idx, axis=1), np.stack(metric, axis=1)

    def _sic(self, r, z, rss):
        """Stages on R's diagonal blocks. With the columns in reverse group
        order, group k sits at [after, end): the groups decoded after it
        come before, and z[end:] holds the residuals of the groups before."""
        idx, metric = [], []
        end = self.K
        for k, grp in enumerate(self.groups):
            after = end - len(grp)
            points = self.sets[k].points
            diff = z[:, after:end, None] - r[:, after:end, after:end] @ points.T
            metrics = np.einsum("bjm,bjm->bm", diff, diff)
            choice = np.argmin(metrics, axis=1)
            done = z[:, end:]
            idx.append(choice)
            metric.append(metrics.min(axis=1) + rss + np.einsum("bj,bj->b", done, done))
            z = z - np.einsum("bjc,bc->bj", r[:, :, after:end], points[choice])
            end = after
        return np.stack(idx, axis=1), np.stack(metric, axis=1)

    def _projected(self, g, y):
        """PIC / PIC-SIC by SVD projection: the exact fallback."""
        idx, metric = [], []
        sic = self.decoder.endswith("-sic")
        yk = y.copy() if sic else y
        for k, grp in enumerate(self.groups):
            gk = g[:, :, grp]
            py, pg = _project_out(g[:, :, self.interference[k]], yk, gk)
            points = self.sets[k].points
            diff = py[:, :, None] - pg @ points.T
            metrics = np.einsum("bdm,bdm->bm", diff, diff)
            choice = np.argmin(metrics, axis=1)
            idx.append(choice)
            metric.append(metrics.min(axis=1))
            if sic:
                yk = yk - np.einsum("bdc,bc->bd", gk, points[choice])
        return np.stack(idx, axis=1), np.stack(metric, axis=1)

    def _ml(self, g, y, gram):
        """Split-half search of x'Ax - 2b'x, with A = G'G and b = G'y read
        from the Gram matrix; the flat index i1 * M2 + i2 is the
        product-alphabet index, so argmin keeps the lowest on ties."""
        (x1, idx1), (x2, idx2) = self.halves
        k1 = x1.shape[1]
        block = max(1, _ML_BLOCK // (x1.shape[0] * x2.shape[0]))
        best = np.empty(g.shape[0], dtype=np.int64)
        for lo in range(0, g.shape[0], block):
            a, b = gram[lo:lo + block, :-1, :-1], gram[lo:lo + block, -1:, :-1]
            # x1'A11x1 - 2b1'x1 + 2x1'A12x2 + x2'A22x2 - 2b2'x2 as one product
            p1 = np.sum((x1 @ a[:, :k1, :k1] - 2.0 * b[:, :, :k1]) * x1, axis=2)
            p2 = np.sum((x2 @ a[:, k1:, k1:] - 2.0 * b[:, :, k1:]) * x2, axis=2)
            lhs = np.concatenate([np.broadcast_to(x1, p1.shape + (k1,)), p1[:, :, None],
                                  np.ones(p1.shape + (1,))], axis=2)
            rhs = np.concatenate([2.0 * (x2 @ a[:, k1:, :k1]), np.ones(p2.shape + (1,)),
                                  p2[:, :, None]], axis=2)
            metric = lhs @ np.swapaxes(rhs, 1, 2)
            best[lo:lo + block] = np.argmin(metric.reshape(metric.shape[0], -1), axis=1)
        i1, i2 = np.divmod(best, x2.shape[0])
        idx = np.concatenate([idx1[i1], idx2[i2]], axis=1)
        res = y - np.einsum("bdk,bk->bd", g, group_symbols(self.groups, self.sets, idx))
        return idx, np.einsum("bd,bd->b", res, res)[:, None]

    def group_indices(self, dec_idx: np.ndarray) -> np.ndarray:
        """Map decode-group decisions to point indices of the original groups."""
        if self.label_map is None:
            return dec_idx
        strides, offsets, table = self.label_map
        return table[dec_idx @ strides + offsets]
