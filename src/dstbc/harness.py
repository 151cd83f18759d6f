"""Monte-Carlo BER engine, diversity-slope estimation, and experiment config.

Each trial is a full transmission cycle: draw information bits, Gray-map
them through the per-group alphabets, run the two-phase relay channel with
a fresh channel realization, whiten with the exact noise covariance, decode,
and count bit errors. Trial i at SNR point s draws everything from its own
generator seeded with a 64-bit mix of (master_seed, s, i), so results are
reproducible and independent of how trials are scheduled.

Trials are processed in fixed-size chunks whose linear algebra is batched;
per-trial results do not depend on the chunking, and chunks are always
consumed in index order, so early stopping at max_bit_errors is
deterministic for any worker count (DSTBC_THREADS).
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .channel import PowerConfig, RelayChannel
from .constellation import SignalSet, make_pam, make_rotated_qam, rotation_2d
from .construct import DstbcCode, code_from_dict, preset
from .decode import DECODERS, GroupDecoder, group_symbols

__all__ = [
    "ExperimentConfig",
    "BerCurve",
    "run_ber",
    "estimate_diversity_slope",
    "resolve_code",
    "modulation_set",
    "snr_db_to_power",
    "mix_seed",
    "worker_count",
]

_CHUNK = 256
_MASK64 = (1 << 64) - 1

_POPCOUNT16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.int64)


def _popcount(a: np.ndarray) -> np.ndarray:
    return _POPCOUNT16[a & 0xFFFF] + _POPCOUNT16[(a >> 16) & 0xFFFF]


def mix_seed(*vals: int) -> int:
    """64-bit splitmix-style hash of the given integers."""
    h = 0x9E3779B97F4A7C15
    for v in vals:
        h = (h ^ (int(v) & _MASK64) ^ 0xD1B54A32D192ED03) & _MASK64
        z = (h + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        h = (z ^ (z >> 31)) & _MASK64
    return h


def snr_db_to_power(snr_db: float) -> float:
    """Plot axis convention: SNR(dB) = 10 log10(P), unit-variance noises."""
    return 10.0 ** (snr_db / 10.0)


def worker_count() -> int:
    env = os.environ.get("DSTBC_THREADS", "").strip()
    if not env:
        return max(1, os.cpu_count() or 1)
    try:
        return max(1, int(env))
    except ValueError:
        raise ValueError(f"DSTBC_THREADS must be an integer, got {env!r}") from None


def modulation_set(name: str) -> SignalSet:
    """pamM for one-symbol groups, qamM (rotated) for two-symbol groups."""
    name = name.lower()
    if name.startswith("pam"):
        return make_pam(int(name[3:]))
    if name.startswith("qam"):
        return make_rotated_qam(int(name[3:]), rotation_2d())
    raise ValueError(f"unknown modulation {name!r} (use pamM or qamM)")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce a BER run; JSON-serializable as-is."""

    decoder: str = "pic-sic"
    preset: str | None = None
    N: int | None = None
    lam: int | None = None
    n: int = 1
    design_file: str | None = None
    modulation: str | None = None
    nd: int = 1
    snr_grid_db: tuple = ()
    max_trials: int = 100_000
    max_bit_errors: int = 200
    master_seed: int = 0
    pi1: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "snr_grid_db", tuple(float(s) for s in self.snr_grid_db))

    def validate(self) -> None:
        if self.decoder not in DECODERS:
            raise ValueError(f"decoder must be one of {DECODERS}")
        if not self.snr_grid_db:
            raise ValueError("SNR grid is empty")
        if not all(math.isfinite(s) for s in self.snr_grid_db):
            raise ValueError("SNR grid values must be finite")
        if list(self.snr_grid_db) != sorted(self.snr_grid_db):
            raise ValueError("SNR grid must be ascending")
        if self.max_trials < 1 or self.max_bit_errors < 1:
            raise ValueError("max_trials and max_bit_errors must be >= 1")
        if self.nd < 1:
            raise ValueError("nd must be >= 1")
        if (self.preset is None) == (self.design_file is None):
            raise ValueError("give exactly one of preset or design_file")

    @classmethod
    def from_json(cls, path, **overrides) -> "ExperimentConfig":
        with open(path) as f:
            doc = json.load(f)
        doc.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**doc)


@dataclass(frozen=True)
class BerCurve:
    points: tuple  # dicts: snr_db, trials, bit_errors, ber
    config: dict
    wall_time_s: float

    def to_csv(self) -> str:
        lines = ["snr_db,trials,bit_errors,ber"]
        for p in self.points:
            lines.append(
                f"{p['snr_db']:g},{p['trials']},{p['bit_errors']},{p['ber']:.6g}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write(self.to_csv())


def resolve_code(spec) -> DstbcCode:
    """The code named by spec, an ExperimentConfig or parsed CLI arguments:
    a preset (with N, lam, n) or a design file, plus an optional modulation."""
    if (spec.preset is None) == (spec.design_file is None):
        raise ValueError("give exactly one of preset or design_file")
    gset = modulation_set(spec.modulation) if spec.modulation else None
    if spec.design_file is not None:
        with open(spec.design_file) as f:
            code = code_from_dict(json.load(f))
        return code if gset is None else code.with_sets(gset)
    if spec.N is None:
        raise ValueError("preset codes need N")
    return preset(spec.preset, spec.N, spec.lam, 1 if spec.n is None else spec.n, gset)


class _Engine:
    """Chunk-batched transmission/decoding pipeline for one (code, decoder)."""

    def __init__(self, code: DstbcCode, decoder: str, nd: int):
        if code.group_sets is None:
            raise ValueError("code has no signal sets; pick a modulation")
        self.decoder = decoder
        self.nd = nd
        self.channel = RelayChannel(code)
        self.dec = GroupDecoder(decoder, code.grouping, code.group_sets)
        self.T1, self.T2, self.N = code.T1, code.T2, code.N
        self.groups = code.grouping.groups
        self.sets = code.group_sets
        self.bits_per_group = [s.bits_per_point for s in self.sets]
        self.bits_per_cw = sum(self.bits_per_group)

    # -- draws ------------------------------------------------------------
    def _draw_chunk(self, seeds):
        b = len(seeds)
        n, nd, t1, t2 = self.N, self.nd, self.T1, self.T2
        tx_idx = np.empty((b, len(self.groups)), dtype=np.int64)
        f = np.empty((b, n), dtype=complex)
        gm = np.empty((b, n, nd), dtype=complex)
        v = np.empty((b, n, t1), dtype=complex)
        w = np.empty((b, t2, nd), dtype=complex)
        root = 1.0 / np.sqrt(2.0)
        for i, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            bits = rng.integers(0, 2, self.bits_per_cw)
            pos = 0
            for k, (nb, s) in enumerate(zip(self.bits_per_group, self.sets)):
                label = 0
                for bit in bits[pos:pos + nb]:
                    label = (label << 1) | int(bit)
                tx_idx[i, k] = s.index_of_label[label]
                pos += nb
            f[i] = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * root
            gm[i] = (rng.standard_normal((n, nd)) + 1j * rng.standard_normal((n, nd))) * root
            v[i] = (rng.standard_normal((n, t1)) + 1j * rng.standard_normal((n, t1))) * root
            w[i] = (rng.standard_normal((t2, nd)) + 1j * rng.standard_normal((t2, nd))) * root
        return tx_idx, f, gm, v, w

    # -- physical channel + whitened model ---------------------------------
    def _observe(self, tx_idx, f, gm, v, w, power: PowerConfig):
        x = group_symbols(self.groups, self.sets, tx_idx)
        return self.channel.observe(x, f, gm, v, w, power)

    def _decide(self, g, yw):
        """Per-trial decoded group indices, in decode-group order."""
        return self.dec.decide(g, yw)[0]

    def _rx_group_indices(self, dec_idx):
        """Map decode-group decisions back to original-group point indices."""
        return self.dec.group_indices(dec_idx)

    def chunk_bit_errors(self, power: PowerConfig, seeds) -> np.ndarray:
        tx_idx, f, gm, v, w = self._draw_chunk(seeds)
        g, yw = self._observe(tx_idx, f, gm, v, w, power)
        rx_idx = self._rx_group_indices(self._decide(g, yw))
        errors = np.zeros(len(seeds), dtype=np.int64)
        for k, s in enumerate(self.sets):
            errors += _popcount(s.labels[tx_idx[:, k]] ^ s.labels[rx_idx[:, k]])
        return errors


def _run_point(engine: _Engine, power: PowerConfig, snr_index: int,
               config: ExperimentConfig, workers: int) -> dict:
    n_chunks = (config.max_trials + _CHUNK - 1) // _CHUNK

    def seeds_for(chunk: int):
        lo = chunk * _CHUNK
        hi = min(lo + _CHUNK, config.max_trials)
        return [mix_seed(config.master_seed, snr_index, i) for i in range(lo, hi)]

    def consume(counts_iter):
        total_err, trials = 0, 0
        for counts in counts_iter:
            cum = total_err + np.cumsum(counts)
            hit = np.nonzero(cum >= config.max_bit_errors)[0]
            if hit.size:
                stop = int(hit[0])
                return int(cum[stop]), trials + stop + 1
            total_err = int(cum[-1])
            trials += counts.size
        return total_err, trials

    if workers <= 1:
        counts_iter = (
            engine.chunk_bit_errors(power, seeds_for(c)) for c in range(n_chunks)
        )
        bit_errors, trials = consume(counts_iter)
    else:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            def ordered():
                pending: deque = deque()
                nxt = 0
                while nxt < n_chunks or pending:
                    while len(pending) < 2 * workers and nxt < n_chunks:
                        pending.append(
                            ex.submit(engine.chunk_bit_errors, power, seeds_for(nxt))
                        )
                        nxt += 1
                    yield pending.popleft().result()

            bit_errors, trials = consume(ordered())
    ber = bit_errors / (trials * engine.bits_per_cw)
    return {"trials": trials, "bit_errors": bit_errors, "ber": ber}


def run_ber(config: ExperimentConfig, code: DstbcCode | None = None) -> BerCurve:
    """Monte-Carlo BER over the SNR grid; see the module docstring for the
    trial protocol and determinism guarantees."""
    config.validate()
    if code is None:
        code = resolve_code(config)
    engine = _Engine(code, config.decoder, config.nd)
    workers = worker_count()
    t0 = time.time()
    points = []
    for s_i, snr_db in enumerate(config.snr_grid_db):
        power = PowerConfig.balanced(code, snr_db_to_power(snr_db), config.pi1)
        pt = _run_point(engine, power, s_i, config, workers)
        pt["snr_db"] = float(snr_db)
        points.append(pt)
    return BerCurve(tuple(points), asdict(config), time.time() - t0)


def estimate_diversity_slope(curve: BerCurve, window_db: float) -> float:
    """Negative least-squares slope of log10(BER) against log10(P) over the
    highest-SNR window; equals the diversity order for a clean power law."""
    pts = [p for p in curve.points if p["ber"] > 0]
    if not pts:
        raise ValueError("no nonzero-BER points")
    top = max(p["snr_db"] for p in pts)
    window = [p for p in pts if p["snr_db"] >= top - window_db]
    if len(window) < 2:
        raise ValueError("need at least two nonzero-BER points in the window")
    xs = np.array([p["snr_db"] / 10.0 for p in window])
    ys = np.log10(np.array([p["ber"] for p in window]))
    slope = np.polyfit(xs, ys, 1)[0]
    return float(-slope)
