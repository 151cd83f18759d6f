"""Two-phase amplify-and-forward relay channel.

Broadcast phase: the source sends sqrt(pi1*P) z to the N relays, z = V x.
Cooperation phase: relay j scales and forwards B_j r_j (conjugating first
when j is in S), and the destination's N_D antennas observe

    Y = sqrt(rho) X(x) H + U,   rho = pi1*pi2*P^2 / (pi1*P + 1),

with H = diag(fbar) Gmat and U colored by the forwarded relay noise. The
module provides the physical simulation, the exact noise covariance and the
whitened model that the decoders read.

The pipeline is batch-first: RelayChannel runs a chunk of trials along a
leading axis, and a single trial is a batch of one; shapes(nd) gives each
input's per-trial shape. observe writes the A_k H products and W into a
Workspace, which the BER engine keeps per thread from chunk to chunk, so
that a run does not touch fresh pages on every chunk.

Whitening is done in the complex domain, on the covariance Gamma_c of
vec(U) in slot-major vec order, row t*N_D + l for slot t and antenna l. In
that order Gamma_c is block-diagonal with T2/s slot blocks of size s*N_D,
where s, fixed per code, is the smallest divisor of T2 whose aligned s x s
diagonal blocks hold every nonzero entry of the Bbar_j Bbar_j^H. Presets
have diagonal Bbar_j Bbar_j^H and s = 1; s = T2 is the whole matrix. Slot
blocks repeat: the run length m, also fixed per code, is the largest
divisor of T2/s for which every aligned run of m slot blocks of each
Bbar_j Bbar_j^H is equal, so Gamma_c's slot blocks are equal within a run.
The two slots of an Alamouti block row carry one relay set, so the
alamouti presets have m = 2 (m = T2 at N = 2, whose one block column spans
every slot); the scalar and toeplitz presets, and a code with s = T2, have
m = 1. One matmul of the relay gain products with the first block of each
run of the Bbar_j Bbar_j^H builds one block per run (_slot_blocks). Each
is the identity plus a PSD sum, so it has a Cholesky factor L whose pivots
are at least 1, and W_c = blockdiag(L^-1) whitens Gamma_c; it is applied by
forward substitution on the L of each run (solve_lower), in place on the
columns that observe writes, with the run's m slot blocks side by side as
one right-hand side of m(K + 1) columns. W's rows are therefore in run
order: run r, then block row (x, l), then block i of the run, for slot
(r*m + i)*s + x and antenna l. That is the slot-major order whenever m = 1
or s*N_D = 1. observe returns one complex array
W = [sqrt(2 rho) W_c vec(A_1 H) ... sqrt(2 rho) W_c vec(A_K H), sqrt(2) W_c vec(Y)],
rows in run order, whose real model decode states. Any exact whitener, and
any order of its rows, gives the same W^H W, which is all the decoders read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .construct import DstbcCode, rate_cspcu
from .design import require

__all__ = ["PowerConfig", "RelayChannel", "Workspace", "solve_lower"]


def solve_lower(low: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve low X = c in place, for lower-triangular low (b, d, d) and c (b, d, m),
    and return c, which now holds X.

    Forward substitution, one row of every trial at a time: numpy has no
    batched triangular solve, and np.linalg.solve LU-factors low again. Row i
    of c feeds only row i of X, so each row is overwritten once it is solved.
    Real or complex; c must be writable, with the dtype of the result.
    """
    for i in range(low.shape[1]):
        if i:  # row 0 has nothing to subtract, and x - 0 is x
            c[:, i] -= (low[:, i, None, :i] @ c[:, :i])[:, 0]
        c[:, i] /= low[:, i, i, None]
    return c


class Workspace:
    """Named arrays kept from chunk to chunk: work(name, shape, dtype) returns
    the first shape[0] trials of array `name`, made at its first request and
    again when a longer one or another shape is asked for."""

    def __init__(self):
        self.arrays = {}

    def __call__(self, name: str, shape: tuple, dtype) -> np.ndarray:
        a = self.arrays.get(name)
        if a is None or len(a) < shape[0] or a.shape[1:] != shape[1:]:
            a = self.arrays[name] = np.empty(shape, dtype)
        return a[:shape[0]]


@dataclass(frozen=True)
class PowerConfig:
    """Total network power P and the phase split (pi1, pi2)."""

    P: float
    pi1: float
    pi2: float

    @property
    def rho(self) -> float:
        return self.pi1 * self.pi2 * self.P**2 / (self.pi1 * self.P + 1.0)

    @property
    def relay_gain(self) -> float:
        """Per-relay forwarding power scale pi2*P/(pi1*P + 1)."""
        return self.pi2 * self.P / (self.pi1 * self.P + 1.0)

    @classmethod
    def balanced(cls, code: DstbcCode, P: float, pi1: float = 1.0) -> "PowerConfig":
        """Split satisfying pi1*T1 + pi2*R*T2 = T1 + T2; pi1 = 1 gives pi2 = 1/R.

        Both phases need power, so pi1 must lie in (0, (T1 + T2)/T1), and pi2
        as computed must be positive: an ulp below the bound it rounds to 0.
        """
        t1, t2 = code.T1, code.T2
        pi2 = (t1 + t2 - pi1 * t1) / (float(rate_cspcu(code)) * t2)
        require(pi1 > 0 and pi2 > 0, "pi1", f"lie in (0, {(t1 + t2) / t1:g}) for this code", pi1)
        return cls(P, pi1, pi2)


class RelayChannel:
    """The relay pipeline of one code, batched over a leading trial axis.

    The inputs of a chunk of b trials, each (b, *shapes(N_D)[name]):
    symbols x, source-to-relay gains f, relay-to-destination gains gm,
    relay noise v and destination noise w.
    """

    def __init__(self, code: DstbcCode):
        require(code.relay_form is not None, "design_file",
                "hold a code with a relay form (conjugate-linear columns) to simulate", None)
        form = code.relay_form
        self.V = form.V
        self.relay_mats = np.stack([form.relay_matrix(j) for j in range(code.N)])
        self.bbh = np.einsum("jts,jus->jtu", self.relay_mats, self.relay_mats.conj())
        self.s_mask = np.array([j in form.S for j in range(code.N)])
        self.weights = code.design.weights
        self.N, self.K, self.T1, self.T2 = code.N, code.K, code.T1, code.T2
        # the slot block size s: the smallest divisor of T2 whose aligned
        # s x s diagonal blocks hold every nonzero entry of the Bbar_j Bbar_j^H
        slot = np.arange(self.T2)
        nonzero = np.abs(self.bbh).sum(axis=0) != 0
        self.s = next(s for s in range(1, self.T2 + 1) if self.T2 % s == 0
                      and not nonzero[slot[:, None] // s != slot // s].any())
        nb = self.T2 // self.s
        blocks = np.einsum("jaxay->jaxy", self.bbh.reshape(self.N, nb, self.s, nb, self.s))
        # run length m: the largest divisor of T2/s whose aligned runs of m slot blocks are equal
        self.m = max(m for m in range(1, nb + 1) if nb % m == 0
                     and not np.diff(blocks.reshape(self.N, nb // m, m, -1), axis=2).any())
        # one block per run, (N, nb/m*s*s), and the weights as (N, T2*K)
        self._bbh_blocks = blocks[:, ::self.m].reshape(self.N, -1)
        self._weights_t = self.weights.transpose(2, 1, 0).reshape(self.N, -1)

    def transmit(self, x, f, gm, v, w, power: PowerConfig) -> np.ndarray:
        """Destination observations Y, (b, T2, N_D)."""
        self._check_shapes(f=f, gm=gm, x=x, v=v, w=w)
        z = x @ self.V.T
        r = math.sqrt(power.pi1 * power.P) * f[:, :, None] * z[:, None, :] + v
        np.conjugate(r, out=r, where=self.s_mask[:, None])
        t = math.sqrt(power.relay_gain) * (self.relay_mats @ r.transpose(1, 2, 0))  # (N, T2, b)
        return np.einsum("bjl,jtb->btl", gm, t) + w

    def effective(self, f, gm) -> np.ndarray:
        """H = diag(fbar) Gmat, with f conjugated on the relays in S; (b, N, N_D)."""
        fbar = np.where(self.s_mask[None, :], f.conj(), f)
        return fbar[:, :, None] * gm

    def _slot_blocks(self, gm, power: PowerConfig) -> np.ndarray:
        """One diagonal block of Gamma_c per run, (b*T2/(m*s), s*N_D, s*N_D):
        entry ((x, l1), (y, l2)) of the block of run r is relay_gain * sum_j
        g[j,l1] conj(g[j,l2]) Bbar_j Bbar_j^H[r*m*s + x, r*m*s + y] + 1{x=y, l1=l2},
        which is each of the run's m slot blocks. Gamma_c is zero outside them."""
        b, _, nd = gm.shape
        s, nb = self.s, self.T2 // (self.m * self.s)
        g = np.swapaxes(gm, 1, 2)
        coef = power.relay_gain * (g[:, :, None, :] * g.conj()[:, None, :, :])  # (b, l1, l2, j)
        # one (b*N_D^2, N) @ (N, nb*s^2) product, then the blocks to (x, l1, y, l2)
        prod = (coef.reshape(-1, self.N) @ self._bbh_blocks).reshape(b, nd, nd, nb, s, s)
        blocks = prod.transpose(0, 3, 4, 1, 5, 2).reshape(b * nb, s * nd, s * nd)
        blocks[:, np.arange(s * nd), np.arange(s * nd)] += 1.0
        return blocks

    def observe(self, x, f, gm, v, w, power: PowerConfig, work=None) -> np.ndarray:
        """Transmit, then whiten: W (b, T2*N_D, K + 1), complex, rows in run
        order, the columns of G and then y (module docstring).

        The A_k H products and W are written into the Workspace work, by
        default a new one; W is its array "white"."""
        y = self.transmit(x, f, gm, v, w, power)
        b, _, nd = y.shape
        work = Workspace() if work is None else work
        # every A_k H by one (b*N_D, N) @ (N, T2*K) product, scaled into
        # slot-major rows (t, l) beside y: cols is (b, T2, N_D, K + 1)
        ah = work("ah", (b, nd, self.T2 * self.K), complex)
        np.matmul(np.swapaxes(self.effective(f, gm), 1, 2).reshape(-1, self.N),
                  self._weights_t, out=ah.reshape(b * nd, -1))
        white = work("white", (b, self.T2 * nd, self.K + 1), complex)
        cols = white.reshape(b, -1, self.s, nd, self.m, self.K + 1)  # (run, x, l, i) rows
        np.multiply(ah.reshape(b, nd, -1, self.m, self.s, self.K).transpose(0, 2, 4, 1, 3, 5),
                    math.sqrt(2.0 * power.rho), out=cols[..., :-1])
        np.multiply(y.reshape(b, -1, self.m, self.s, nd).transpose(0, 1, 3, 4, 2),
                    math.sqrt(2.0), out=cols[..., -1])
        blocks = self._slot_blocks(gm, power)
        solved = solve_lower(np.linalg.cholesky(blocks), cols.reshape(*blocks.shape[:2], -1))
        return solved.reshape(white.shape)

    def shapes(self, nd: int) -> dict:
        """Per-trial shapes of the inputs x, f, gm, v and w for N_D = nd."""
        return {"x": (self.K,), "f": (self.N,), "gm": (self.N, nd),
                "v": (self.N, self.T1), "w": (self.T2, nd)}

    def _check_shapes(self, **arrays) -> None:
        """Reject arrays whose shapes are not (b, *shapes(N_D)[name]), with
        N_D taken from gm and the trial count b from the first array given."""
        dims = self.shapes(arrays["gm"].shape[-1] if "gm" in arrays else None)
        first = next(iter(arrays))
        for name, a in arrays.items():
            want = dims[name]
            if a.ndim != len(want) + 1 or a.shape[1:] != want:
                what = (f"the code's {self.N} relays on axis 1" if name in ("f", "gm")
                        else f"shape (b, {', '.join(map(str, want))})")
                raise ValueError(f"{name} must have {what}, got shape {a.shape}")
            if a.shape[0] != arrays[first].shape[0]:
                raise ValueError(f"{name} has {a.shape[0]} trials on axis 0, "
                                 f"{first} has {arrays[first].shape[0]}")
