"""Group decoders for the whitened real model y = G x + n, n white with unit
variance per real dimension. decide reads it as one array W (b, d, K + 1):
[Re W; Im W] = [G y] for the complex W of RelayChannel.observe, stacking real
parts over imaginary parts, and W = [G y] for a real W.

PIC decodes each group after projecting out the span of every other
group's columns; PIC-SIC walks the groups in order, projecting out only
later groups and subtracting each decision before moving on. ZF / ZF-SIC
are the same decoders under the all-singleton refinement of the grouping,
available when the group alphabets factor per coordinate; a symbol's levels
are its alphabet's own coordinate values. ML minimizes ||y - G x||^2 over
the full product alphabet.

The decoders read (G, y) only through the Gram matrix [G y]'[G y] = Re(W^H W),
formed once per chunk and indexed into the decoder's column order. Every
decoder takes one Cholesky factor of it, with 1 added to the y'y entry so
that the factor exists when y lies in span(G). Its upper factor is
[[R, z], [0, sqrt(rss + 1)]] with R'R = G'G, z = R^-T G'y and rss the part
of y outside span(G), so ||y - G x||^2 = ||z - R x||^2 + rss:

- PIC-SIC / ZF-SIC take the columns in reverse group order, so the leading
  columns of R belong to the groups decoded after the current one (Wübben
  et al., Electron. Lett. 2001). Each stage is a nearest-point search on its
  own diagonal block of R, and a decision is subtracted from z through R.
- PIC / ZF take x^ = R^-1 z, with R^-1 by forward substitution on R'
  (channel.solve_lower). Group k scores (a - x^_k)' S_k (a - x^_k) + rss,
  where S_k is the inverse of block k of (G'G)^-1 = R^-1 R^-T.
- ML takes the PIC-SIC order and factor, and searches the sphere
  ||z - R x||^2 <= r^2 breadth-first (Fincke-Pohst; Viterbo & Boutros,
  IEEE Trans. IT 1999; Agrell, Eriksson, Vardy & Zeger, IEEE Trans. IT
  2002). r^2 is ||z - R x||^2 at a candidate decision, the PIC-SIC one,
  widened by a relative 1e-10 so that rounding cannot prune the candidate,
  which is also kept as a leaf: every trial has one, and the search is
  exact. Level k extends every survivor by each point of group k, adding
  its block row's term, and keeps the extensions inside the sphere. A
  level whose survivors pass _ML_SURVIVORS splits its trial block in two,
  and each half goes on alone. The metric returned is ||y - G x||^2, read
  off W as ||W_y - W_G x||^2.

A Gram factor loses about eps * kappa(G)^2 in relative accuracy. A row whose
smallest pivot of R is at most _PIVOT_TOL = 1e-4 times its largest has
kappa(G) >= 1e4, so its factor keeps at most about 8 digits. Such rows, and
every row of a chunk with no factor (numpy's batched factor fails as a
whole), take the exact fallback on their real model, the only rows that are
realified. PIC and PIC-SIC project by SVD with a numerical-rank cut. ML runs
the same search on the upper factor
[[R, z], [0, +-sqrt(rss)]] of a QR of [G y], zero-padded to K + 1 rows so
that R is square when G is wide; the search never inverts R, so a singular
R is searched exactly. Its candidate is the MMSE-SIC decision (Wübben,
Böhnke, Kühn & Kammeyer, IEEE VTC 2003-Fall): _sic on the Cholesky factor
of G'G + I. The identity is the MMSE term of the whitened noise (unit
variance per real dimension) and makes the matrix positive definite, so the
factor exists in exact arithmetic. In floating point the identity is lost
to rounding once G'G is large enough (at 150 dB on the criterion-9 code),
so a config's SNR points stop at harness.MAX_SNR_DB = 100. The QR factor's
zero pivots would leave SIC stages blind, and a far candidate makes a wide
sphere. rss is common to a trial's candidates, so no decision depends on it.

Decoding is batch-first: GroupDecoder decides a chunk of trials along a
leading axis, and a single problem is a batch of one. Ties go to the lowest
candidate index, for ML the product-alphabet index with the last group
varying fastest, among metrics that are equal as computed, so equal inputs
always produce equal outputs. Candidates that tie only in exact arithmetic,
such as two symbols on a duplicated column of G, carry metrics that differ
by rounding, and may be decided differently from an exhaustive search.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import solve_lower
from .constellation import SignalSet
from .construct import GroupingScheme
from .design import require

__all__ = ["DECODERS", "GroupDecoder", "ML_CANDIDATE_CAP"]

DECODERS = ("ml", "pic", "pic-sic", "zf", "zf-sic")
_RANK_TOL = 1e-10
_PIVOT_TOL = 1e-4
ML_CANDIDATE_CAP = 2**20
# sphere-search survivors of one level above which a trial block is split
_ML_SURVIVORS = 2**15


class _SymbolTable:
    """The map from per-group point indices idx (b, g) to symbol vectors
    (b, K), as one gather from the points of every group, flattened in group
    order: symbol c of group k, at place i of the group, reads entry
    idx[:, k] * len(group) + i of that group's points."""

    def __init__(self, groups, sets):
        k_total = sum(len(grp) for grp in groups)
        self.group, self.dim, self.base = np.zeros((3, k_total), dtype=np.int64)
        offset = 0
        for k, (grp, s) in enumerate(zip(groups, sets)):
            cols = list(grp)
            self.group[cols], self.dim[cols] = k, len(cols)
            self.base[cols] = offset + np.arange(len(cols))
            offset += s.points.size
        self.flat = np.concatenate([s.points.ravel() for s in sets])

    def __call__(self, idx: np.ndarray) -> np.ndarray:
        return self.flat[idx[:, self.group] * self.dim + self.base]


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
    """Per-coordinate levels, the set's own values grouped to 12 decimals, and
    the table from mixed-radix level index to point index, if the set is the
    full product of its levels; else None."""
    rounded = np.round(s.points, 12)
    # per coordinate: each level's first point, and each point's level
    found = [np.unique(rounded[:, d], return_index=True, return_inverse=True)[1:]
             for d in range(s.dim)]
    sizes = [first.size for first, _ in found]
    if math.prod(sizes) != s.size:
        return None
    table = np.full(s.size, -1, dtype=np.int64)
    table[np.ravel_multi_index([level for _, level in found], sizes)] = np.arange(s.size)
    if table.min() < 0:  # two points share their levels, so some product point is missing
        return None
    return [s.points[first, d] for d, (first, _) in enumerate(found)], table


def _singleton_refinement(grouping: GroupingScheme, sets, decoder: str):
    """The ZF view of a grouping: one group per symbol, per-coordinate sets;
    a group that does not factor refuses the decoder, which the refusal quotes.

    Also returns the label map (strides (K, g), offsets (g,), table) that
    takes per-symbol level indices lv back to each original group's point
    index: table[lv @ strides + offsets].
    """
    coord_sets = [None] * grouping.K
    strides = np.zeros((grouping.K, grouping.g), dtype=np.int64)
    offsets, tables = [], []
    for k, (grp, s) in enumerate(zip(grouping.groups, sets)):
        offsets.append(sum(t.size for t in tables))
        split = _separable_axes(s)
        require(split is not None, "decoder",
                f"suit the code (group {k} is not coordinate-separable; ZF decoding needs "
                "per-symbol alphabets (a rotated group alphabet couples its symbols))", decoder)
        axes, table = split
        stride = s.size
        for i, levels in zip(grp, axes):
            m = levels.size
            coord_sets[i] = SignalSet(1, levels.reshape(-1, 1), int(np.log2(m)), np.arange(m))
            stride //= m
            strides[i, k] = stride
        tables.append(table)
    singles = GroupingScheme(tuple((i,) for i in range(grouping.K)))
    label_map = (strides, np.array(offsets, dtype=np.int64), np.concatenate(tables))
    return singles, tuple(coord_sets), label_map


def _factor(gram):
    """Upper Cholesky factors of Gram matrices (b, n, n), and the rows to
    decode from them: those whose pivot ratio exceeds _PIVOT_TOL. numpy's
    batched factor fails as a whole, and then no row has one: the factors
    are zeros, which the ratio rejects."""
    try:
        c = np.swapaxes(np.linalg.cholesky(gram), 1, 2)
    except np.linalg.LinAlgError:
        return np.zeros_like(gram), np.zeros(gram.shape[0], dtype=bool)
    diag = np.diagonal(c[:, :-1, :-1], axis1=1, axis2=2)
    return c, diag.min(axis=1) > _PIVOT_TOL * diag.max(axis=1)


def _realify(w):
    """The real model [G y] of W: [Re W; Im W] if W is complex, else W."""
    return np.concatenate([w.real, w.imag], axis=1) if np.iscomplexobj(w) else w


def _rows(full, fast, exact):
    """The arrays of fast(rows) on the rows where full holds and of
    exact(rows) on the rest, merged by row; neither is called without rows."""
    if full.all():
        return fast(slice(None))
    if not full.any():
        return exact(slice(None))
    out = []
    for f, e in zip(fast(full), exact(~full)):
        out.append(np.empty((full.size,) + f.shape[1:], f.dtype))
        out[-1][full], out[-1][~full] = f, e
    return tuple(out)


class GroupDecoder:
    """One decoder's tables for one grouping, applied to chunks of trials.

    decide(W (b, d, K + 1)) returns each trial's point index and metric per
    decode group. ZF flavours decode the singleton refinement;
    group_indices maps their decisions back to the grouping's groups.
    A decoder the code does not admit (ZF on a rotated group, ML above
    ML_CANDIDATE_CAP) is refused when built, as "decoder must suit the code".
    """

    def __init__(self, decoder: str, grouping: GroupingScheme, sets):
        require(decoder in DECODERS, "decoder", f"be one of {', '.join(DECODERS)}", decoder)
        sets = grouping.check_sets(sets)
        self.decoder = decoder
        self.K = grouping.K
        self.label_map = None
        if decoder in ("zf", "zf-sic"):
            grouping, sets, self.label_map = _singleton_refinement(grouping, sets, decoder)
        self.groups = [list(g) for g in grouping.groups]
        self.sets = tuple(sets)
        pic = decoder in ("pic", "zf")
        nulled = grouping.complement if pic else grouping.tail
        self.interference = [list(nulled(k)) for k in range(grouping.g)]
        # Gram columns: PIC keeps G's order, SIC and ML take the groups in reverse; y last
        cols = list(range(self.K)) if pic else [c for grp in self.groups[::-1] for c in grp]
        self.order = np.array(cols + [self.K])
        # PIC inverts the S_k blocks of one size in one call
        sizes = sorted({len(grp) for grp in self.groups})
        self.size_classes = [[k for k, grp in enumerate(self.groups) if len(grp) == m]
                             for m in sizes]
        if decoder == "ml":
            self.sizes = [s.size for s in self.sets]
            total = math.prod(self.sizes)
            require(total <= ML_CANDIDATE_CAP, "decoder", f"suit the code (product alphabet "
                    f"has {total} points, above the cap {ML_CANDIDATE_CAP})", decoder)
            # product-alphabet index: the last group varies fastest
            self.strides = np.array([math.prod(self.sizes[k + 1:])
                                     for k in range(len(self.sizes))])
            self._symbols = _SymbolTable(self.groups, self.sets)

    def decide(self, w: np.ndarray):
        if w.ndim != 3 or w.shape[2] != self.K + 1:
            raise ValueError(f"W must be (b, d, K + 1) with K = {self.K}: the columns of G, "
                             f"then y; got {w.shape}")
        o = self.order
        wr, wi = w.real, w.imag  # Re(W^H W) by two real products, with no conjugate copy
        gram = (np.swapaxes(wr, 1, 2) @ wr + np.swapaxes(wi, 1, 2) @ wi)[:, o[:, None], o]
        gram[:, -1, -1] += 1.0  # keeps the factor positive definite when y is in span(G)
        c, full = _factor(gram)  # c = [[R, z], [0, sqrt(rss + 1)]]
        r, z = c[:, :-1, :-1], c[:, :-1, -1]
        rss = c[:, -1, -1] ** 2 - 1.0  # the part of y outside span(G)
        if self.decoder == "ml":
            (idx,) = _rows(
                full, lambda t: (self._sphere(r[t], z[t], self._sic(r[t], z[t], 0.0)[0]),),
                lambda t: (self._sphere_by_qr(_realify(w[t])[:, :, o], gram[t]),))
            x = self._symbols(idx)
            res = w[:, :, -1] - np.einsum("bdk,bk->bd", w[:, :, :-1], x)
            return idx, np.einsum("bd,bd->b", res.conj(), res).real[:, None]
        solve = self._pic if self.decoder in ("pic", "zf") else self._sic
        return _rows(full, lambda t: solve(r[t], z[t], rss[t]),
                     lambda t: self._projected(_realify(w[t])))

    def _pic(self, r, z, rss):
        """Metric (a - x^_k)' S_k (a - x^_k) + ||y - G x^||^2 per group."""
        # R^-1 = (R'^-1)', by forward substitution on the lower factor R'
        eye = np.tile(np.eye(self.K), (r.shape[0], 1, 1))  # solved in place
        rinv = np.swapaxes(solve_lower(np.swapaxes(r, 1, 2), eye), 1, 2)
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

    def _projected(self, gy):
        """PIC / PIC-SIC by SVD projection on the real [G y]: the exact fallback."""
        g, y = gy[:, :, :-1], gy[:, :, -1]
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

    def _sphere_by_qr(self, gy, gram):
        """ML on rows with no usable Cholesky factor: the search runs on the
        upper factor of [G y] by QR, from the MMSE-SIC decision."""
        mmse = np.swapaxes(np.linalg.cholesky(gram + np.eye(self.K + 1)), 1, 2)
        cand = self._sic(mmse[:, :-1, :-1], mmse[:, :-1, -1], 0.0)[0]
        pad = max(0, self.K + 1 - gy.shape[1])  # R is square when G is wide
        c = np.linalg.qr(np.pad(gy, ((0, 0), (0, pad), (0, 0))), mode="r")
        return self._sphere(c[:, :-1, :-1], c[:, :-1, -1], cand)

    def _sphere(self, r, z, cand):
        """Exact ML by a breadth-first search up R's block rows, inside the
        sphere through the candidate decision cand (b, g); returns point
        indices (b, g). R is never inverted, so it may be singular. Among
        metrics equal as computed, the lowest product index wins."""
        b = r.shape[0]
        x = self._symbols(cand)[:, self.order[:-1]]
        res = z - np.einsum("bkl,bl->bk", r, x)
        cand_metric = np.einsum("bk,bk->b", res, res)
        radius = cand_metric * (1.0 + 1e-10)  # rounding must not prune the candidate itself
        # group k sits at R's columns [start, end); R[:end, start:end] a for each
        # of its points a, (b, M_k, end), holds on rows [start, end) its block
        # row's term and on the rows above its update of z
        products, end = [], self.K
        for grp, s in zip(self.groups, self.sets):
            start = end - len(grp)
            products.append(s.points @ np.swapaxes(r[:, :end, start:end], 1, 2))
            end = start
        leaves = self._descend(products, radius, 0, np.arange(b),
                               np.zeros(b, dtype=np.int64), np.zeros(b), z)
        # the candidate is a leaf too, so every trial has one
        leaves.append((np.arange(b), cand @ self.strides, cand_metric))
        trial, flat, metric = (np.concatenate(col) for col in zip(*leaves))
        order = np.lexsort((flat, metric, trial))
        best = order[np.searchsorted(trial[order], np.arange(b))]  # each trial's first
        return np.stack(np.unravel_index(flat[best], self.sizes), axis=1)

    def _descend(self, products, radius, level, trial, flat, metric, zr):
        """Take the survivors of the groups before level through the rest.

        Survivor i is a trial, a partial product index, its partial metric
        and zr[i], z less R times the symbols decided so far, on the rows
        above those groups. Group k adds |zr_k - R_kk a|^2 for each point a
        of its own rows. A level whose survivors pass _ML_SURVIVORS splits
        its trial block in two; returns a (trial, flat, metric) per block.
        """
        for k in range(level, len(self.groups)):
            start = zr.shape[1] - len(self.groups[k])
            diff = zr[:, None, start:] - products[k][trial, :, start:]
            cand = metric[:, None] + np.einsum("nmj,nmj->nm", diff, diff)
            parent, point = np.nonzero(cand <= radius[trial, None])
            trial, flat = trial[parent], flat[parent] + point * self.strides[k]
            metric = cand[parent, point]
            if k + 1 == len(self.groups):
                break
            zr = zr[parent, :start] - products[k][trial, point, :start]
            if trial.size > _ML_SURVIVORS and trial[0] != trial[-1]:
                cut = np.searchsorted(trial, (trial[0] + trial[-1] + 1) // 2)
                return [leaf for part in (slice(None, cut), slice(cut, None))
                        for leaf in self._descend(products, radius, k + 1, trial[part],
                                                  flat[part], metric[part], zr[part])]
        return [(trial, flat, metric)]

    def group_indices(self, dec_idx: np.ndarray) -> np.ndarray:
        """Map decode-group decisions to point indices of the original groups."""
        if self.label_map is None:
            return dec_idx
        strides, offsets, table = self.label_map
        return table[dec_idx @ strides + offsets]
