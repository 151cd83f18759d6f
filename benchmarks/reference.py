"""Independent reference simulator for the amplify-and-forward relay link.

It is written from the model equation

    Y = sqrt(rho) X(x) H + U,   rho = pi1*pi2*P^2 / (pi1*P + 1),

and reads only a code's design weights, its relay form (V, B, S) and its
group alphabets. It shares no code with dstbc's channel, decode or harness
modules:

- the two-phase pipeline (broadcast, relay transform, forward) is run here;
- the colored noise covariance is derived here from the relay matrices;
- whitening uses a Cholesky factor, where the program uses eigh;
- PIC / PIC-SIC / ZF-SIC decode by QR-based least-squares projection (one
  QR with the groups in reverse order gives every nested PIC-SIC
  projection), and ML by exhaustive search over a QR-reduced metric;
- draws come from its own batched generator, not the program's per-trial
  streams, so the comparison survives a change of the program's stream.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 256


def bits_per_codeword(code) -> int:
    return int(sum(round(np.log2(s.points.shape[0])) for s in code.group_sets))


def power_split(code, snr_db: float, pi1: float = 1.0):
    """(relay_gain, source amplitude, rho) under pi1*T1 + pi2*R*T2 = T1 + T2."""
    form = code.relay_form
    k, t1, t2 = code.design.weights.shape[0], form.T1, code.design.weights.shape[1]
    p = 10.0 ** (snr_db / 10.0)
    rate = (k / 2.0) / (t1 + t2)
    pi2 = (t1 + t2 - pi1 * t1) / (rate * t2)
    gain = pi2 * p / (pi1 * p + 1.0)
    rho = pi1 * pi2 * p * p / (pi1 * p + 1.0)
    return gain, np.sqrt(pi1 * p), rho


def _cn(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _project_out(q, v):
    """v minus its projection on the orthonormal columns q (batched)."""
    return v - q @ (np.swapaxes(q, 1, 2) @ v)


class ReferenceLink:
    """One (code, decoder, nd) link; `errors` returns per-trial bit errors."""

    def __init__(self, code, decoder: str, nd: int):
        form = code.relay_form
        if form is None or code.group_sets is None:
            raise ValueError("reference needs a relay form and signal sets")
        if decoder not in ("ml", "pic", "pic-sic", "zf", "zf-sic"):
            raise ValueError(f"unknown decoder {decoder!r}")
        self.code, self.decoder, self.nd = code, decoder, nd
        self.w = np.asarray(code.design.weights)  # (K, T2, N)
        self.k, self.t2, self.n = self.w.shape
        self.t1 = form.T1
        self.v_mat = np.asarray(form.V)  # (T1, K)
        self.conj = np.array([j in form.S for j in range(self.n)])
        # matrix each relay applies to its (possibly conjugated) received vector
        self.b_app = np.stack([
            np.conj(form.B[j]) if self.conj[j] else np.asarray(form.B[j])
            for j in range(self.n)
        ])
        self.bbh = self.b_app @ np.conj(np.swapaxes(self.b_app, 1, 2))
        self.groups = [list(g) for g in code.grouping.groups]
        self.points = [np.asarray(s.points) for s in code.group_sets]
        self.labels = [np.asarray(s.labels) for s in code.group_sets]
        self.popcount = [
            np.array([bin(i).count("1") for i in range(lab.size)]) for lab in self.labels
        ]
        if decoder in ("zf", "zf-sic") and any(len(g) != 1 for g in self.groups):
            raise ValueError("reference ZF decoders need one-symbol groups")
        if decoder == "ml":
            # exhaustive search split into the first and the last half of the
            # groups; candidates of each half are enumerated once
            half = len(self.groups) // 2
            self.halves = []
            for part in (range(half), range(half, len(self.groups))):
                part = list(part)
                sizes = [self.points[gi].shape[0] for gi in part]
                grid = np.indices(sizes).reshape(len(sizes), -1).T
                cols = np.concatenate(
                    [self.points[gi][grid[:, i]] for i, gi in enumerate(part)], axis=1
                )
                self.halves.append((part, grid, cols))
            self.ml_order = [c for gi in range(len(self.groups)) for c in self.groups[gi]]

    # -- channel -----------------------------------------------------------
    def _transmit(self, rng, b, snr_db):
        gain, amp1, rho = power_split(self.code, snr_db)
        n, nd, t1, t2 = self.n, self.nd, self.t1, self.t2
        tx = np.stack(
            [rng.integers(0, p.shape[0], b) for p in self.points], axis=1
        )  # (b, g) point indices, uniform = uniform bits
        x = np.zeros((b, self.k))
        for gi, grp in enumerate(self.groups):
            x[:, grp] = self.points[gi][tx[:, gi]]
        f = _cn(rng, (b, n))
        g = _cn(rng, (b, n, nd))
        v = _cn(rng, (b, n, t1))
        w = _cn(rng, (b, t2, nd))
        # broadcast phase, then relay j forwards B_j r_j (conjugated r_j on S)
        z = x @ self.v_mat.T
        r = amp1 * f[:, :, None] * z[:, None, :] + v
        r = np.where(self.conj[None, :, None], np.conj(r), r)
        t = np.sqrt(gain) * np.einsum("jts,bjs->bjt", self.b_app, r)
        y = np.einsum("bjt,bjl->btl", t, g) + w

        # equivalent model: H = diag(fbar) G, columns sqrt(rho) rvec(A_i H)
        fbar = np.where(self.conj[None, :], np.conj(f), f)
        h = fbar[:, :, None] * g
        ah = np.einsum("itn,bnl->bilt", self.w, h).reshape(b, self.k, nd * t2)
        gp = np.sqrt(rho) * np.concatenate([ah.real, ah.imag], axis=2)
        gp = np.swapaxes(gp, 1, 2)  # (b, d, K)
        yc = np.swapaxes(y, 1, 2).reshape(b, nd * t2)
        yp = np.concatenate([yc.real, yc.imag], axis=1)

        # covariance of vec(U): gain * sum_j (g_j g_j^H) kron (B_j B_j^H) + I
        cov = gain * np.einsum("bjl,bjm,jst->blsmt", g, np.conj(g), self.bbh)
        cov = cov.reshape(b, nd * t2, nd * t2) + np.eye(nd * t2)
        gamma = 0.5 * np.block([[cov.real, -cov.imag], [cov.imag, cov.real]])
        chol = np.linalg.cholesky(gamma)
        gw = np.linalg.solve(chol, gp)
        yw = np.linalg.solve(chol, yp[:, :, None])[:, :, 0]
        return tx, gw, yw

    # -- decoders ----------------------------------------------------------
    def _nearest(self, gi, py, pg):
        cand = pg @ self.points[gi].T  # (b, d, M)
        diff = py[:, :, None] - cand
        return np.argmin(np.einsum("bdm,bdm->bm", diff, diff), axis=1)

    def _decide(self, gw, yw):
        b, ng = gw.shape[0], len(self.groups)
        out = np.empty((b, ng), dtype=np.int64)
        if self.decoder == "ml":
            # ||y - G x||^2 = ||c - R x||^2 + const with G = Q R, columns in
            # group order; R is upper triangular, so with x = (x1, x2) split
            # by halves the metric is ||c1 - R11 x1 - R12 x2||^2 + ||c2 - R22 x2||^2
            (p1, grid1, x1), (p2, grid2, x2) = self.halves
            k1 = x1.shape[1]
            q, r = np.linalg.qr(gw[:, :, self.ml_order])
            c = np.einsum("bdk,bd->bk", q, yw)
            for lo in range(0, b, 32):
                sl = slice(lo, min(lo + 32, b))
                a = np.einsum("mk,bjk->bmj", x1, r[sl, :k1, :k1])
                rest = c[sl, None, :k1] - np.einsum("mk,bjk->bmj", x2, r[sl, :k1, k1:])
                tail = c[sl, None, k1:] - np.einsum("mk,bjk->bmj", x2, r[sl, k1:, k1:])
                metric = (
                    np.einsum("bmj,bmj->bm", a, a)[:, :, None]
                    - 2.0 * a @ np.swapaxes(rest, 1, 2)
                    + (np.einsum("bmj,bmj->bm", rest, rest)
                       + np.einsum("bmj,bmj->bm", tail, tail))[:, None, :]
                )
                best = np.argmin(metric.reshape(metric.shape[0], -1), axis=1)
                i1, i2 = np.divmod(best, x2.shape[0])
                out[sl, p1] = grid1[i1]
                out[sl, p2] = grid2[i2]
            return out
        if self.decoder in ("pic", "zf"):
            for gi, grp in enumerate(self.groups):
                others = [c for c in range(self.k) if c not in grp]
                q, _ = np.linalg.qr(gw[:, :, others])
                py = _project_out(q, yw[:, :, None])[:, :, 0]
                pg = _project_out(q, gw[:, :, grp])
                out[:, gi] = self._nearest(gi, py, pg)
            return out
        # nested: the first m columns of a QR taken in reverse group order
        # span exactly the groups decoded after the current one
        rev = [c for grp in reversed(self.groups) for c in grp]
        q, _ = np.linalg.qr(gw[:, :, rev])
        yk = yw.copy()
        after = self.k
        for gi, grp in enumerate(self.groups):
            after -= len(grp)
            qk = q[:, :, :after]
            gk = gw[:, :, grp]
            py = _project_out(qk, yk[:, :, None])[:, :, 0]
            pg = _project_out(qk, gk)
            out[:, gi] = self._nearest(gi, py, pg)
            yk = yk - np.einsum("bdc,bc->bd", gk, self.points[gi][out[:, gi]])
        return out

    def errors(self, snr_db: float, trials: int, seed: int) -> np.ndarray:
        """Bit errors of each of `trials` independent codewords."""
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EF]))
        out = np.empty(trials, dtype=np.int64)
        for lo in range(0, trials, _CHUNK):
            b = min(_CHUNK, trials - lo)
            tx, gw, yw = self._transmit(rng, b, snr_db)
            rx = self._decide(gw, yw)
            err = np.zeros(b, dtype=np.int64)
            for gi, lab in enumerate(self.labels):
                err += self.popcount[gi][lab[tx[:, gi]] ^ lab[rx[:, gi]]]
            out[lo:lo + b] = err
        return out
