"""Two-phase amplify-and-forward relay channel.

Broadcast phase: the source sends sqrt(pi1*P) z to the N relays, z = V x.
Cooperation phase: relay j scales and forwards B_j r_j (conjugating first
when j is in S), and the destination's N_D antennas observe

    Y = sqrt(rho) X(x) H + U,   rho = pi1*pi2*P^2 / (pi1*P + 1),

with H = diag(fbar) Gmat and U colored by the forwarded relay noise. The
module provides the physical simulation, the exact noise covariance and its
whitening transform, and the real-valued equivalent model y' = G' x + u'.

The pipeline is batch-first: RelayChannel runs a chunk of trials along a
leading axis, and simulate_transmission, effective_channel,
noise_covariance and equivalent_real_channel are batches of one over the
same arithmetic.

Realification convention: rvec(A) stacks vec(Re A) over vec(Im A) with
column-major vec, matching the block form Gamma = 1/2 [[Re, -Im], [Im, Re]]
of the realified covariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .construct import DstbcCode, rate_cspcu
from .design import LinearDesign

__all__ = [
    "ChannelRealization",
    "PowerConfig",
    "NoiseModel",
    "RelayChannel",
    "draw_realization",
    "draw_cn",
    "rvec",
    "effective_channel",
    "noise_covariance",
    "simulate_transmission",
    "equivalent_real_channel",
    "whiten",
    "noise_bound",
]

_POWER_TOL = 1e-9
_EIG_CLAMP = 1e-12


def draw_cn(rng: np.random.Generator, shape) -> np.ndarray:
    """Circularly symmetric complex Gaussian, unit variance per entry."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)


def rvec(a: np.ndarray) -> np.ndarray:
    """Stack vec(Re a) over vec(Im a), column-major; a stack of matrices
    (b, T, N) maps trial by trial to (b, 2*T*N)."""
    a = np.asarray(a)
    if a.ndim == 3:
        flat = np.swapaxes(a, 1, 2).reshape(a.shape[0], -1)
    else:
        flat = a.reshape(-1, order="F")
    return np.concatenate([flat.real, flat.imag], axis=-1)


@dataclass(frozen=True)
class ChannelRealization:
    """Source-to-relay gains f (N,) and relay-to-destination gains Gmat (N, N_D)."""

    f: np.ndarray
    Gmat: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.f, dtype=complex).reshape(-1)
        g = np.asarray(self.Gmat, dtype=complex)
        if g.ndim != 2 or g.shape[0] != f.shape[0]:
            raise ValueError("Gmat must be (N, N_D) with N matching f")
        f.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "Gmat", g)

    @property
    def N(self) -> int:
        return self.f.shape[0]

    @property
    def n_dest(self) -> int:
        return self.Gmat.shape[1]


def draw_realization(rng: np.random.Generator, n_relays: int, n_dest: int) -> ChannelRealization:
    return ChannelRealization(draw_cn(rng, n_relays), draw_cn(rng, (n_relays, n_dest)))


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
        pi2 = (t1 + t2 - pi1 * t1) / (float(r) * t2)
        cfg = cls(P, pi1, pi2)
        if not cfg.satisfies_constraint(code):
            raise ValueError("power split violates the phase-power constraint")
        return cfg

    def satisfies_constraint(self, code: DstbcCode) -> bool:
        r = float(rate_cspcu(code))
        lhs = self.pi1 * code.T1 + self.pi2 * r * code.T2
        return abs(lhs - (code.T1 + code.T2)) <= _POWER_TOL * (code.T1 + code.T2)


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
        self.T2 = code.T2

    def transmit(self, x, f, gm, v, w, power: PowerConfig) -> np.ndarray:
        """Destination observations Y, (b, T2, N_D)."""
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
        b, _, nd = gm.shape
        dim = nd * self.T2
        coef = power.relay_gain * (gm[:, :, :, None] * gm.conj()[:, :, None, :])
        gamma_c = np.einsum("bjlm,jxy->blxmy", coef, self.bbh).reshape(b, dim, dim)
        gamma_c[:, np.arange(dim), np.arange(dim)] += 1.0
        return gamma_c

    def observe(self, x, f, gm, v, w, power: PowerConfig):
        """Transmit, then whiten: the real model (G (b, d, K), y (b, d))."""
        y = self.transmit(x, f, gm, v, w, power)
        gprime = _real_channel(self.weights, self.effective(f, gm), power.rho)
        # the covariances stay bound until return: releasing them mid-chunk
        # left about 20 MiB more resident after multi-worker ML runs
        gamma_c = self.covariance(gm, power)
        gamma = _realify_cov(gamma_c)
        whitener, _ = _whitener(gamma)
        return whitener @ gprime, np.einsum("bij,bj->bi", whitener, rvec(y))


def _realify_cov(gamma_c: np.ndarray) -> np.ndarray:
    re, im = 0.5 * gamma_c.real, 0.5 * gamma_c.imag
    return np.block([[re, -im], [im, re]])


def _whitener(gamma: np.ndarray, clamp: float = _EIG_CLAMP):
    """Symmetric inverse square roots of a stack of covariances, and their
    eigenvalues (ascending); eigenvalues below clamp are raised to it."""
    evals, evecs = np.linalg.eigh(gamma)
    inv_sqrt = 1.0 / np.sqrt(np.maximum(evals, clamp))
    return np.einsum("bij,bj,bkj->bik", evecs, inv_sqrt, evecs), evals


def _real_channel(weights: np.ndarray, h: np.ndarray, rho: float) -> np.ndarray:
    """Columns sqrt(rho) rvec(A_i H) for a stack of H; (b, 2*N_D*T2, K)."""
    b, k = h.shape[0], weights.shape[0]
    ah = np.einsum("ktn,bnl->bktl", weights, h)
    m = np.moveaxis(ah, 3, 2).reshape(b, k, -1)
    gprime = math.sqrt(rho) * np.concatenate([m.real, m.imag], axis=2)
    return gprime.transpose(0, 2, 1)


def effective_channel(code: DstbcCode, realization: ChannelRealization) -> np.ndarray:
    """H = diag(fbar) Gmat, with f conjugated on the relays in S."""
    if realization.N != code.N:
        raise ValueError(f"realization has {realization.N} relays, code has {code.N}")
    return RelayChannel(code).effective(realization.f[None], realization.Gmat[None])[0]


@dataclass(frozen=True)
class NoiseModel:
    """Colored destination noise: complex covariance, realified covariance,
    and the symmetric whitening matrix (inverse square root)."""

    gamma_c: np.ndarray
    gamma: np.ndarray
    whitener: np.ndarray

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]


def noise_covariance(
    code: DstbcCode, realization: ChannelRealization, power: PowerConfig
) -> NoiseModel:
    """Exact covariance of the realified total noise rvec(U)."""
    gamma_c = RelayChannel(code).covariance(realization.Gmat[None], power)
    gamma = _realify_cov(gamma_c)
    whitener, evals = _whitener(gamma)
    mineig = float(evals[0, 0])
    if mineig < -1e-10:
        raise ArithmeticError(f"noise covariance not PSD (min eigenvalue {mineig:g})")
    return NoiseModel(gamma_c[0], gamma[0], whitener[0])


def simulate_transmission(
    code: DstbcCode,
    x: np.ndarray,
    realization: ChannelRealization,
    power: PowerConfig,
    rng: np.random.Generator,
    relay_noise: bool = True,
    dest_noise: bool = True,
) -> np.ndarray:
    """Run the physical two-phase pipeline, returning the T2 x N_D matrix Y.

    Noise draws always consume the same rng stream; the flags only zero the
    injected noise, so noisy/noiseless runs stay draw-aligned.
    """
    channel = RelayChannel(code)
    v = draw_cn(rng, (code.N, code.T1))
    w = draw_cn(rng, (code.T2, realization.n_dest))
    if not relay_noise:
        v = np.zeros_like(v)
    if not dest_noise:
        w = np.zeros_like(w)
    x = np.asarray(x, dtype=float)
    return channel.transmit(
        x[None], realization.f[None], realization.Gmat[None], v[None], w[None], power
    )[0]


def equivalent_real_channel(design: LinearDesign, h: np.ndarray, rho: float) -> np.ndarray:
    """Real 2*N_D*T2 x K matrix with columns sqrt(rho) rvec(A_i H)."""
    h = np.asarray(h, dtype=complex)
    if h.shape[0] != design.N:
        raise ValueError(f"H must have {design.N} rows, got {h.shape}")
    return _real_channel(design.weights, h[None], rho)[0]


def whiten(noise: NoiseModel, gprime: np.ndarray, yprime: np.ndarray):
    """Apply the inverse square root of the noise covariance to both."""
    return noise.whitener @ gprime, noise.whitener @ yprime


def noise_bound(code: DstbcCode, realization: ChannelRealization, power: PowerConfig) -> dict:
    """Trace/eigenvalue bound on the realified covariance.

    alpha = T2*N_D + beta * relay_gain * sum |g|^2 with beta the largest
    squared Frobenius norm among the relay matrices; both the trace and the
    largest eigenvalue of Gamma stay below alpha.
    """
    model = noise_covariance(code, realization, power)
    form = code.relay_form
    beta = max(float(np.linalg.norm(form.relay_matrix(j)) ** 2) for j in range(code.N))
    alpha = code.T2 * realization.n_dest + beta * power.relay_gain * float(
        np.sum(np.abs(realization.Gmat) ** 2)
    )
    trace = float(np.trace(model.gamma))
    lam_max = float(np.linalg.eigvalsh(model.gamma)[-1])
    return {
        "trace": trace,
        "lam_max": lam_max,
        "alpha": alpha,
        "passed": trace <= alpha * (1 + 1e-12) and lam_max <= alpha * (1 + 1e-12),
    }
