"""Checks and file helpers that only the tests use."""

import json
import math

import numpy as np

from dstbc.constellation import _pam_levels, verify_rotation
from dstbc.construct import ConjugateLinearForm, DstbcCode, rate_cspcu
from dstbc.decode import _project_out, _singleton_refinement
from dstbc.design import (
    CodProfile,
    LinearDesign,
    design_from_dict,
    design_to_dict,
    evaluate,
)


def accumulated_snr_grid(start: float, stop: float, step: float) -> tuple:
    """The flag grid as a loop that adds step while the sum is at most
    stop + 1e-9 dB, each point rounded to 9 decimals: the oracle of the
    CLI's counted grid."""
    grid, s = [], start
    while s <= stop + 1e-9:
        grid.append(round(s, 9))
        s += step
    return tuple(grid)


def codeword_column(form: ConjugateLinearForm, j: int, z: np.ndarray) -> np.ndarray:
    """Column j of the codeword that the super-symbols z give under form."""
    if j in form.S:
        return form.B[j].conj() @ z.conj()
    return form.B[j] @ z


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
            if np.abs(codeword_column(form, j, z) - xmat[:, j]).max() > tol:
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


_POWER_TOL = 1e-9


def satisfies_constraint(power, code: DstbcCode) -> bool:
    """Whether the split meets pi1*T1 + pi2*R*T2 = T1 + T2 within _POWER_TOL."""
    r = float(rate_cspcu(code))
    lhs = power.pi1 * code.T1 + power.pi2 * r * code.T2
    return abs(lhs - (code.T1 + code.T2)) <= _POWER_TOL * (code.T1 + code.T2)


def covariance(channel, gm, power) -> np.ndarray:
    """Complex covariance of vec(U), (b, N_D*T2, N_D*T2), column-major.

    Block (l1, l2) is
    relay_gain * sum_j g[j,l1] conj(g[j,l2]) Bbar_j Bbar_j^H + 1{l1=l2} I:
    the slot blocks that RelayChannel.observe factors, scattered into place.
    gm is refused as observe refuses it.
    """
    channel._check_shapes(gm=gm)
    b, _, nd = gm.shape
    s, nb = channel.s, channel.T2 // channel.s
    blocks = channel._slot_blocks(gm, power).reshape(b, nb, s, nd, s, nd)
    gamma_c = np.zeros((b, nd, nb, s, nd, nb, s), complex)
    r = np.arange(nb)
    gamma_c[:, :, r, :, :, r] = blocks.transpose(1, 0, 3, 2, 5, 4)
    return gamma_c.reshape(b, nd * channel.T2, nd * channel.T2)


def noise_bound(channel, gm, power) -> np.ndarray:
    """Per trial, whether the trace/eigenvalue bound holds; (b,) bool.

    alpha = T2*N_D + beta * relay_gain * sum |g|^2 with beta the largest
    squared Frobenius norm among the relay matrices; both the trace and
    the largest eigenvalue of the realified covariance stay below alpha.
    Its trace is that of Gamma_c, its largest eigenvalue half Gamma_c's.
    """
    gamma_c = covariance(channel, gm, power)
    beta = np.max(np.sum(np.abs(channel.relay_mats) ** 2, axis=(1, 2)))
    g2 = np.sum(np.abs(gm) ** 2, axis=(1, 2))
    limit = (channel.T2 * gm.shape[2] + beta * power.relay_gain * g2) * (1 + 1e-12)
    trace = np.trace(gamma_c, axis1=1, axis2=2).real
    return (trace <= limit) & (0.5 * np.linalg.eigvalsh(gamma_c)[:, -1] <= limit)


def save_design(d: LinearDesign, path) -> None:
    with open(path, "w") as f:
        json.dump(design_to_dict(d), f)


def gray_grid_oracle(m: int, q=None):
    """(points, labels, bits_per_point, component_levels) of make_pam(m), or of
    make_rotated_qam(m, q) when q is given, built from lists as they were
    before one builder made both alphabets."""
    def gray(k):
        return k ^ (k >> 1)

    if q is None:
        levels = _pam_levels(m)
        return levels.reshape(-1, 1), np.array([gray(k) for k in range(m)]), int(np.log2(m)), levels
    side = math.isqrt(m)
    levels = _pam_levels(side)
    comp_bits = int(np.log2(side))
    grid = np.array([[a, b] for a in levels for b in levels])
    labels = [(gray(u) << comp_bits) | gray(v) for u in range(side) for v in range(side)]
    return grid @ q.entries.T, np.array(labels), 2 * comp_bits, levels


def load_design(path) -> LinearDesign:
    with open(path) as f:
        return design_from_dict(json.load(f))


def reindex(c: CodProfile, symbol_indices, k_total: int) -> LinearDesign:
    """Embed the COD into a design over k_total symbols.

    symbol_indices[i] (0-based) is the global symbol that weight A'_i of the
    COD attaches to; all other global symbols get a zero weight.
    """
    d = c.design
    idx = list(symbol_indices)
    if len(idx) != d.K:
        raise ValueError(f"expected {d.K} indices, got {len(idx)}")
    if len(set(idx)) != len(idx):
        raise ValueError("symbol indices must be distinct")
    if any(i < 0 or i >= k_total for i in idx):
        raise ValueError("symbol index out of range")
    w = np.zeros((k_total, d.T, d.N), dtype=complex)
    for i, gi in enumerate(idx):
        w[gi] = d.weights[i]
    return LinearDesign(d.T, d.N, k_total, w)


# The realified route to the whitened model: realify the complex covariance
# and the channel columns first, then whiten with a real eigh of size
# 2*N_D*T2. The real model of RelayChannel.observe must give the same
# [G y]'[G y] and the same decisions, and realified_noise_bound the verdicts
# of noise_bound.

def _whitener(gamma: np.ndarray):
    """Hermitian inverse square roots of a stack of covariances, and their
    eigenvalues (ascending).

    No eigenvalue is clamped: Gamma_c is the identity plus a PSD sum, so its
    eigenvalues are at least 1 (0.5 for the realified covariance)."""
    evals, evecs = np.linalg.eigh(gamma)
    inv_sqrt = 1.0 / np.sqrt(evals)
    return np.einsum("bij,bj,bkj->bik", evecs, inv_sqrt, evecs.conj()), evals


def rvec(a: np.ndarray) -> np.ndarray:
    """Stack vec(Re a) over vec(Im a), column-major, trial by trial:
    (b, T, N) maps to (b, 2*T*N)."""
    flat = np.swapaxes(a, 1, 2).reshape(a.shape[0], -1)
    return np.concatenate([flat.real, flat.imag], axis=-1)


def _realify_cov(gamma_c: np.ndarray) -> np.ndarray:
    re, im = 0.5 * gamma_c.real, 0.5 * gamma_c.imag
    return np.block([[re, -im], [im, re]])


def _real_channel(weights: np.ndarray, h: np.ndarray, rho: float) -> np.ndarray:
    """Columns sqrt(rho) rvec(A_i H) for a stack of H; (b, 2*N_D*T2, K)."""
    b, k = h.shape[0], weights.shape[0]
    ah = np.einsum("ktn,bnl->bktl", weights, h)
    m = np.moveaxis(ah, 3, 2).reshape(b, k, -1)
    gprime = math.sqrt(rho) * np.concatenate([m.real, m.imag], axis=2)
    return gprime.transpose(0, 2, 1)


def real_model(w: np.ndarray):
    """(G, y) of the real model [Re W; Im W] = [G y] of an observe output W."""
    gy = np.concatenate([w.real, w.imag], axis=1)
    return gy[:, :, :-1], gy[:, :, -1]


def joined(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[G y] (b, d, K + 1), the one array that GroupDecoder.decide reads."""
    return np.concatenate([g, y[..., None]], axis=2)


def realified_observe(channel, x, f, gm, v, w, power):
    """The whitened real model (G, y) of RelayChannel.observe, realified first."""
    y = channel.transmit(x, f, gm, v, w, power)
    gprime = _real_channel(channel.weights, channel.effective(f, gm), power.rho)
    whitener, _ = _whitener(_realify_cov(covariance(channel, gm, power)))
    return whitener @ gprime, np.einsum("bij,bj->bi", whitener, rvec(y))


def covariance_oracle(code: DstbcCode, gm, power) -> np.ndarray:
    """RelayChannel.covariance by its block formula, one (l1, l2, j) at a
    time, from the relay matrices of the code's relay form: block (l1, l2) is
    relay_gain * sum_j g[j,l1] conj(g[j,l2]) Bbar_j Bbar_j^H + 1{l1=l2} I."""
    b, n, nd = gm.shape
    t2 = code.T2
    bbh = [m @ m.conj().T for m in map(code.relay_form.relay_matrix, range(n))]
    gamma_c = np.zeros((b, nd * t2, nd * t2), dtype=complex)
    for l1 in range(nd):
        for l2 in range(nd):
            block = gamma_c[:, l1 * t2:(l1 + 1) * t2, l2 * t2:(l2 + 1) * t2]
            for j in range(n):
                coef = power.relay_gain * gm[:, j, l1] * gm[:, j, l2].conj()
                block += coef[:, None, None] * bbh[j]
            if l1 == l2:
                block += np.eye(t2)
    return gamma_c


def realified_noise_bound(channel, gm, power) -> np.ndarray:
    """noise_bound on the realified covariance."""
    gamma = _realify_cov(covariance(channel, gm, power))
    beta = np.max(np.sum(np.abs(channel.relay_mats) ** 2, axis=(1, 2)))
    g2 = np.sum(np.abs(gm) ** 2, axis=(1, 2))
    limit = (channel.T2 * gm.shape[2] + beta * power.relay_gain * g2) * (1 + 1e-12)
    trace = np.trace(gamma, axis1=1, axis2=2)
    return (trace <= limit) & (np.linalg.eigvalsh(gamma)[:, -1] <= limit)


# The decoders as they were before factorization: a rank-cut SVD projection
# per group and an exhaustive ML over the whole product alphabet, one trial
# at a time. GroupDecoder.decide must agree with them.

def oracle_decide(decoder, grouping, sets, g, y):
    """(idx, metric, ties) for G (b, d, K) and y (b, d): per decode group the
    point index and metric that decide returns, and the number of decisions
    whose smallest metric two or more candidates share exactly."""
    sets = grouping.check_sets(sets)
    if decoder in ("zf", "zf-sic"):
        grouping, sets, _ = _singleton_refinement(grouping, sets, decoder)
    groups = [list(grp) for grp in grouping.groups]
    b, ties = g.shape[0], 0
    if decoder == "ml":
        sizes = [s.size for s in sets]
        cand_idx = np.stack(np.unravel_index(np.arange(math.prod(sizes)), sizes), axis=1)
        cand_x = group_symbols_oracle(groups, sets, cand_idx)
        c1 = np.einsum("bdk,bd->bk", g, y)
        gram = np.einsum("bdk,bdl->bkl", g, g)
        best = np.empty(b, dtype=np.int64)
        for i in range(b):
            quad = np.einsum("mk,mk->m", cand_x @ gram[i], cand_x)
            metrics = quad - 2.0 * (cand_x @ c1[i])
            best[i] = np.argmin(metrics)
            ties += int(np.count_nonzero(metrics == metrics[best[i]]) > 1)
        r = y - np.einsum("bdk,bk->bd", g, cand_x[best])
        return cand_idx[best], np.einsum("bd,bd->b", r, r)[:, None], ties
    nulled = grouping.complement if decoder in ("pic", "zf") else grouping.tail
    idx = np.empty((b, len(groups)), dtype=np.int64)
    metric = np.empty((b, len(groups)))
    sic = decoder.endswith("-sic")
    yk = y.copy() if sic else y
    for k, grp in enumerate(groups):
        gk = g[:, :, grp]
        py, pg = _project_out(g[:, :, list(nulled(k))], yk, gk)
        points = sets[k].points
        diff = py[:, :, None] - pg @ points.T
        metrics = np.einsum("bdm,bdm->bm", diff, diff)
        choice = np.argmin(metrics, axis=1)
        idx[:, k] = choice
        metric[:, k] = metrics[np.arange(b), choice]
        ties += int(np.count_nonzero((metrics == metric[:, k:k + 1]).sum(axis=1) > 1))
        if sic:
            yk = yk - np.einsum("bdc,bc->bd", gk, points[choice])
    return idx, metric, ties


def solve_lower_out_of_place(low, c):
    """The out-of-place forward substitution that channel.solve_lower replaced,
    kept as its bit-exact oracle: X with low X = c, nothing written."""
    x = np.empty(c.shape, np.result_type(low, c))
    for i in range(low.shape[1]):
        x[:, i] = (c[:, i] - (low[:, i, None, :i] @ x[:, :i])[:, 0]) / low[:, i, i, None]
    return x


# The per-group loops that the engine's table gathers replaced, kept as their
# bit-exact oracles: labels read from the draw's label words, symbols from
# point indices, bit errors of a chunk, and the relay channel's transmit.

def labels_oracle(label_words, bits_per_group, sets) -> np.ndarray:
    """Point indices (b, g) from the label words (b, words) of a draw: group
    k reads the next bits_per_group[k] bits, which may straddle two words."""
    tx_idx = np.empty((label_words.shape[0], len(sets)), dtype=np.int64)
    pos = 0
    for k, (nb, s) in enumerate(zip(bits_per_group, sets)):
        q, o = divmod(pos, 64)
        field = label_words[:, q] >> o
        if o + nb > 64:
            field |= label_words[:, q + 1] << (64 - o)
        tx_idx[:, k] = s.index_of_label[(field & ((1 << nb) - 1)).astype(np.int64)]
        pos += nb
    return tx_idx


def group_symbols_oracle(groups, sets, idx) -> np.ndarray:
    """Symbol vectors (b, K) from per-group point indices idx (b, g)."""
    x = np.empty((idx.shape[0], sum(len(g) for g in groups)))
    for k, (grp, s) in enumerate(zip(groups, sets)):
        x[:, list(grp)] = s.points[idx[:, k]]
    return x


def bit_errors_oracle(sets, tx_idx, rx_idx) -> np.ndarray:
    """Per trial, the label bits in which the sent and decided points differ."""
    errors = np.zeros(tx_idx.shape[0], dtype=np.int64)
    for k, s in enumerate(sets):
        d = s.labels[tx_idx[:, k]] ^ s.labels[rx_idx[:, k]]
        for bit in range(s.bits_per_point):
            errors += (d >> bit) & 1
    return errors


def transmit_oracle(channel, x, f, gm, v, w, power) -> np.ndarray:
    """RelayChannel.transmit with its first product as an einsum and the
    relays in S conjugated through a fancy-index copy."""
    z = x @ channel.V.T
    r = math.sqrt(power.pi1 * power.P) * f[:, :, None] * z[:, None, :] + v
    r[:, channel.s_mask, :] = r[:, channel.s_mask, :].conj()
    t = math.sqrt(power.relay_gain) * np.einsum("jts,bjs->bjt", channel.relay_mats, r)
    return np.einsum("bjl,bjt->btl", gm, t) + w


def relative_sv_oracle(mats: np.ndarray, fallbacks: list | None = None) -> np.ndarray:
    """diversity._relative_sv with every Gram matrix formed by einsum, as the
    rank kernel did before its batched product."""
    gram = np.einsum("bti,btj->bij", mats.conj(), mats)
    evals = np.linalg.eigvalsh(gram)
    lam_min = np.clip(evals[:, 0].real, 0.0, None)
    lam_max = np.clip(evals[:, -1].real, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sqrt(np.where(lam_max > 0, lam_min / lam_max, 0.0))
    redo = np.nonzero(ratio < 1e-6)[0]
    rows, cols = mats.shape[1:]
    if rows < cols:
        ratio[redo] = 0.0
    elif redo.size:
        s = np.linalg.svd(mats[redo], compute_uv=False)
        ratio[redo] = s[:, -1] / np.where(s[:, 0] > 0, s[:, 0], 1.0)
        if fallbacks is not None:
            fallbacks.append(redo.size)
    return ratio


def verify_cod_oracle(d: LinearDesign) -> bool:
    """design.verify_cod as a loop over the pairs i <= j, as it was before
    its one einsum."""
    w, eye = d.weights, np.eye(d.N)
    for i in range(d.K):
        for j in range(i, d.K):
            s = w[i].conj().T @ w[j] + w[j].conj().T @ w[i]
            if np.abs(s - (2.0 * eye if i == j else 0.0)).max() > 1e-12:
                return False
    return True


def cod_certificate_oracle(code: DstbcCode) -> bool:
    """diversity.cod_certificate with its block placement and symbol layers
    checked by loops over the blocks and the symbols, as it was before its
    array operations."""
    p = code.params
    if p is None or code.group_sets is None or not verify_cod_oracle(p.cod.design):
        return False
    for s in code.group_sets:
        if (s.rotation is None or s.component_levels is None or s.dim != p.lam
                or not verify_rotation(s.rotation, s.component_levels)):
            return False
    w, c = code.design.weights, p.cod.design
    mag = np.abs(w).sum(axis=0)
    for rb in range(p.n + p.L - 1):
        for cb in range(p.L):
            block = mag[rb * c.T:(rb + 1) * c.T, cb * c.N:(cb + 1) * c.N]
            if block.max() > 0 and not 0 <= rb - cb <= p.n - 1:
                return False
    for k, grp in enumerate(code.grouping.groups):
        for i in grp:
            rows, cols = np.nonzero(np.abs(w[i]) > 0)
            if rows.size == 0 or np.any(rows // c.T - cols // c.N != k // c.K):
                return False
    return True
