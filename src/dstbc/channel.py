"""Two-phase amplify-and-forward relay channel.

Broadcast phase: the source sends sqrt(pi1*P) z to the N relays, z = V x.
Cooperation phase: relay j scales and forwards B_j r_j (conjugating first
when j is in S), and the destination's N_D antennas observe

    Y = sqrt(rho) X(x) H + U,   rho = pi1*pi2*P^2 / (pi1*P + 1),

with H = diag(fbar) Gmat and U colored by the forwarded relay noise. The
module provides the physical simulation, the exact noise covariance and its
whitening transform, and the real-valued equivalent model y' = G' x + u'.

The pipeline is batch-first: RelayChannel runs a chunk of trials along a
leading axis, and a single trial is a batch of one.

Whitening is done in the complex domain, realification after it; vec is
column-major and [Re; Im] stacks real parts over imaginary parts. The noise
is proper, so the realified covariance is 1/2 realify(Gamma_c), with
realify(M) = [[Re M, -Im M], [Im M, Re M]]. Gamma_c, of size N_D*T2, is the
identity plus a PSD sum, so it has a Cholesky factor Gamma_c = L L^H whose
pivots are at least 1. realify is a *-homomorphism, so sqrt(2) realify(W_c)
with W_c = L^-1 whitens the realified covariance. observe returns the
whitened model y = sqrt(2) [Re; Im](W_c vec(Y)),
G = sqrt(2 rho) [Re; Im](W_c vec(A_i H)). Any exact whitener gives the same
[G y]'[G y], which is all the decoders read. W_c is applied by forward
substitution on L (solve_lower), and Gamma_c is built by one matmul of the
relay gain products with the stacked Bbar_j Bbar_j^H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .construct import DstbcCode, rate_cspcu

__all__ = ["PowerConfig", "RelayChannel", "solve_lower"]


def solve_lower(low: np.ndarray, c: np.ndarray) -> np.ndarray:
    """X with low X = c, for lower-triangular low (b, d, d) and c (b, d, m).

    Forward substitution, one row of every trial at a time: numpy has no
    batched triangular solve, and np.linalg.solve LU-factors low again.
    Real or complex; c may be read-only or broadcast, and no input is written.
    """
    x = np.empty(c.shape, np.result_type(low, c))
    for i in range(low.shape[1]):
        x[:, i] = (c[:, i] - (low[:, i, None, :i] @ x[:, :i])[:, 0]) / low[:, i, i, None]
    return x


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

        Both phases need power, so pi1 must lie in (0, (T1 + T2)/T1).
        """
        r = rate_cspcu(code)
        t1, t2 = code.T1, code.T2
        if not 0 < pi1 < (t1 + t2) / t1:
            raise ValueError(
                f"pi1 must lie in (0, {(t1 + t2) / t1:g}) for this code, got {pi1}"
            )
        return cls(P, pi1, (t1 + t2 - pi1 * t1) / (float(r) * t2))


class RelayChannel:
    """The relay pipeline of one code, batched over a leading trial axis.

    Shapes per chunk of b trials: symbols x (b, K), source-to-relay gains
    f (b, N), relay-to-destination gains gm (b, N, N_D), relay noise
    v (b, N, T1) and destination noise w (b, T2, N_D).
    """

    def __init__(self, code: DstbcCode):
        if code.relay_form is None:
            raise ValueError("code has no relay form; cannot simulate")
        form = code.relay_form
        self.V = form.V
        self.relay_mats = np.stack([form.relay_matrix(j) for j in range(code.N)])
        self.bbh = np.einsum("jts,jus->jtu", self.relay_mats, self.relay_mats.conj())
        self.s_mask = np.array([j in form.S for j in range(code.N)])
        self.weights = code.design.weights
        self.N, self.K, self.T1, self.T2 = code.N, code.K, code.T1, code.T2

    def transmit(self, x, f, gm, v, w, power: PowerConfig) -> np.ndarray:
        """Destination observations Y, (b, T2, N_D)."""
        self._check_shapes(f=f, gm=gm, x=x, v=v, w=w)
        z = x @ self.V.T
        r = math.sqrt(power.pi1 * power.P) * f[:, :, None] * z[:, None, :] + v
        r[:, self.s_mask, :] = r[:, self.s_mask, :].conj()
        t = math.sqrt(power.relay_gain) * np.einsum("jts,bjs->bjt", self.relay_mats, r)
        return np.einsum("bjl,bjt->btl", gm, t) + w

    def effective(self, f, gm) -> np.ndarray:
        """H = diag(fbar) Gmat, with f conjugated on the relays in S; (b, N, N_D)."""
        fbar = np.where(self.s_mask[None, :], f.conj(), f)
        return fbar[:, :, None] * gm

    def covariance(self, gm, power: PowerConfig) -> np.ndarray:
        """Complex covariance of vec(U), (b, N_D*T2, N_D*T2).

        Block (l1, l2) is
        relay_gain * sum_j g[j,l1] conj(g[j,l2]) Bbar_j Bbar_j^H + 1{l1=l2} I.
        """
        self._check_shapes(gm=gm)
        b, _, nd = gm.shape
        dim = nd * self.T2
        g = np.swapaxes(gm, 1, 2)
        coef = power.relay_gain * (g[:, :, None, :] * g.conj()[:, None, :, :])  # (b, l1, l2, j)
        # one (b, N_D^2, N) @ (N, T2^2) product, then the blocks to (l1, x, l2, y)
        prod = coef.reshape(b, nd * nd, self.N) @ self.bbh.reshape(self.N, -1)
        gamma_c = prod.reshape(b, nd, nd, self.T2, self.T2).transpose(0, 1, 3, 2, 4)
        gamma_c = gamma_c.reshape(b, dim, dim)
        gamma_c[:, np.arange(dim), np.arange(dim)] += 1.0
        return gamma_c

    def observe(self, x, f, gm, v, w, power: PowerConfig):
        """Transmit, then whiten: the real model (G (b, d, K), y (b, d))."""
        y = self.transmit(x, f, gm, v, w, power)
        b = y.shape[0]
        # every A_k H by one (K*T2, N) @ (b, N, N_D) product
        ah = self.weights.reshape(-1, self.N) @ self.effective(f, gm)
        ah = math.sqrt(power.rho) * ah.reshape(b, self.K, self.T2, -1).transpose(0, 3, 2, 1)
        cols = np.concatenate([ah.reshape(b, -1, self.K),  # rows vec(A_k H), column-major
                               np.swapaxes(y, 1, 2).reshape(b, -1, 1)], axis=2)
        # the covariance stays bound until return: releasing it mid-chunk
        # left about 20 MiB more resident after multi-worker ML runs
        gamma_c = self.covariance(gm, power)
        white = solve_lower(np.linalg.cholesky(gamma_c), cols)
        white = math.sqrt(2.0) * np.concatenate([white.real, white.imag], axis=1)
        return white[:, :, :-1], white[:, :, -1]

    def _check_shapes(self, **arrays) -> None:
        """Reject arrays that do not fit the code: f (b, N), gm (b, N, N_D),
        x (b, K), v (b, N, T1) and w (b, T2, N_D), with N_D taken from gm
        and the trial count b from the first array given."""
        nd = arrays["gm"].shape[-1] if "gm" in arrays else None
        dims = {"f": (self.N,), "gm": (self.N, nd), "x": (self.K,),
                "v": (self.N, self.T1), "w": (self.T2, nd)}
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
