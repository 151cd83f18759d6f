"""Monte-Carlo BER engine, diversity-slope estimation, and experiment config.

Each trial is a full transmission cycle: draw information bits, Gray-map
them through the per-group alphabets, run the two-phase relay channel with
a fresh channel realization, whiten with the exact noise covariance, decode,
and count bit errors.

The draws are counter-based SplitMix64. Random word s of trial i at SNR
point p is mix_seed(master_seed, p, i*stride + s), in uint64 arithmetic,
where stride is fixed per engine: the label words, then two words per
complex Gaussian. The hash state after (master_seed, p) is computed once per
point and the last round runs on a whole chunk of counters at once, so the
scalar mix_seed is the bit-exact oracle of the vector draw. Group labels are
consecutive bit fields of the label words, read for every group at once by
one shift-and-mask (a field may straddle two words); each Gaussian is
Box-Muller on two 53-bit uniforms, sqrt(-ln u1) exp(2 pi i u2) with u1 in
(0, 1], which is CN(0, 1). Every draw is a pure function of
(master_seed, p, i), so results are reproducible and independent of how
trials are scheduled. Labels, symbols and bit errors are gathers from
per-group tables built once per engine: a trial's bit errors are the set
bits of the XOR of its sent and decided labels, counted by a table.

Trials are processed in chunks, sized per engine from its words per trial,
whose linear algebra is batched; per-trial results do not depend on the
chunking. Each SNR point runs one loop for any worker count w
(DSTBC_THREADS, at most MAX_WORKERS): it keeps at most 2w chunks pending,
consumes them in index order and stops at the first trial that reaches
max_bit_errors, so early stopping is deterministic. Chunk i runs in the
calling thread when i % w == 0, computed only when the loop reaches it, and
otherwise on a pool of w - 1 threads kept for the run; a pool chunk past
the stop is cancelled if it has not started. At one worker every chunk runs
in the calling thread and no thread is started.

An engine keeps one channel.Workspace per thread, into which each chunk
writes its hash words, A_k H products and W (a short chunk uses leading
rows). A thread runs one chunk at a time, so no two running chunks, and no
two engines, share one.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from .channel import PowerConfig, RelayChannel, Workspace
from .constellation import _modulation_shape, modulation_set
from .construct import DstbcCode, _load_json, resolve_code
from .decode import DECODERS, GroupDecoder, _SymbolTable
from .design import require

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

# the highest SNR point a grid may hold: at 150 dB ML's MMSE factor lost its
# identity term to rounding, and at 1,600 dB the squared power overflowed
MAX_SNR_DB = 100
# the most workers a run may use: each holds a thread and a Workspace
MAX_WORKERS = 64
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SALT, _MUL1, _MUL2 = 0xD1B54A32D192ED03, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _mix_round(h: int, v: int) -> int:
    """One SplitMix64 round absorbing v into state h, on Python ints below 2**64."""
    z = ((h ^ v ^ _SALT) + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
    return z ^ (z >> 31)


def _mix_round_into(h: int, z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """_mix_round(h, v) for every v of the uint64 array z, written over z, with
    t a scratch array of z's shape; uint64 arithmetic wraps, so needs no mask."""
    z ^= np.uint64(h ^ _SALT)
    z += np.uint64(_GOLDEN)
    for shift, mul in ((30, _MUL1), (27, _MUL2)):
        z ^= np.right_shift(z, shift, out=t)
        z *= np.uint64(mul)
    z ^= np.right_shift(z, 31, out=t)
    return z


def mix_seed(*vals: int) -> int:
    """64-bit splitmix-style hash of the given integers."""
    h = _GOLDEN
    for v in vals:
        h = _mix_round(h, int(v) & _MASK64)
    return h


def _is_a(value, kind) -> bool:
    """value is a kind (numbers.Real, numbers.Integral) and not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def snr_db_to_power(snr_db: float) -> float:
    """Plot axis convention: SNR(dB) = 10 log10(P), unit-variance noises."""
    return 10.0 ** (snr_db / 10.0)


def worker_count() -> int:
    """DSTBC_THREADS, or the CPU count when it is unset, at most MAX_WORKERS."""
    env = os.environ.get("DSTBC_THREADS", "").strip()
    if not env:
        return min(MAX_WORKERS, max(1, os.cpu_count() or 1))
    try:
        count = int(env)
    except ValueError:
        count = 0
    require(count >= 1, "DSTBC_THREADS", "be a positive integer", env)
    require(count <= MAX_WORKERS, "DSTBC_THREADS", f"be at most {MAX_WORKERS}", env)
    return count


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce a BER run, checked when built;
    JSON-serializable as-is."""

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
        grid = self.snr_grid_db
        require(isinstance(grid, (list, tuple, np.ndarray))
                and all(_is_a(s, numbers.Real) for s in grid),
                "snr_grid_db", "be a list of numbers", grid)
        grid = tuple(float(s) for s in grid)
        object.__setattr__(self, "snr_grid_db", grid)
        for name in ("decoder", "preset", "design_file", "modulation"):
            value = getattr(self, name)
            require(isinstance(value, str) or value is None and name != "decoder",
                    name, "be a string", value)
        for name in ("N", "lam", "n", "nd", "max_trials", "max_bit_errors", "master_seed"):
            value = getattr(self, name)
            require(_is_a(value, numbers.Integral) or value is None and name in ("N", "lam", "n"),
                    name, "be an integer", value)
        require(_is_a(self.pi1, numbers.Real), "pi1", "be a number", self.pi1)
        require(self.decoder in DECODERS, "decoder", f"be one of {', '.join(DECODERS)}",
                self.decoder)
        require(grid and all(map(math.isfinite, grid)) and list(grid) == sorted(grid),
                "snr_grid_db", "be a non-empty ascending list of finite numbers", grid)
        require(grid[-1] <= MAX_SNR_DB, "snr_grid_db", f"lie at or below {MAX_SNR_DB} dB", grid)
        for name in ("max_trials", "max_bit_errors", "nd"):
            require(getattr(self, name) >= 1, name, "be >= 1", getattr(self, name))
        require(0 <= self.master_seed <= _MASK64, "master_seed", "lie in [0, 2**64)",
                self.master_seed)
        require((self.preset is None) != (self.design_file is None),
                "exactly one of preset and design_file", "be given",
                (self.preset, self.design_file))

    @classmethod
    def from_json(cls, path, **overrides) -> "ExperimentConfig":
        doc = _load_json(path, "config file")
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        require(not unknown, f"config file {path}", "hold only ExperimentConfig fields", unknown)
        return cls(**doc | {k: v for k, v in overrides.items() if v is not None})


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


class _Engine:
    """Chunk-batched transmission/decoding pipeline for one (code, decoder)."""

    def __init__(self, code: DstbcCode, decoder: str, nd: int):
        self.sets = code.signal_sets()
        self.bits_per_group = [s.bits_per_point for s in self.sets]
        self.bits_per_cw = sum(self.bits_per_group)
        # with no bit per codeword there is nothing to draw, and the BER divides by 0
        require(self.bits_per_cw > 0, "modulation", "give some group more than one point",
                [s.size for s in self.sets])
        self.decoder = decoder
        self.channel = RelayChannel(code)
        self.dec = GroupDecoder(decoder, code.grouping, self.sets)
        self.groups = code.grouping.groups
        self.symbols = _SymbolTable(self.groups, self.sets)
        # Gray labels: group k reads bits [pos, pos + nb) of the label words,
        # shifted down from word pos // 64 and, when the field straddles two
        # words, up from the next one; a field inside one word takes that
        # word shifted up by 63, whose one bit the mask (nb < 64) drops
        nb = np.array(self.bits_per_group)
        self._word, shift = np.divmod(np.cumsum(nb) - nb, 64)
        straddle = shift + nb > 64
        self._next = self._word + straddle
        self._shift_down = shift.astype(np.uint64)
        self._shift_up = np.where(straddle, 64 - shift, 63).astype(np.uint64)
        self._mask = np.array([(1 << n) - 1 for n in self.bits_per_group], dtype=np.uint64)
        # per-group tables concatenated in group order; group k's entries
        # start at _offsets[k]
        self._offsets = np.cumsum([0] + [s.size for s in self.sets[:-1]])
        self._index_of_label = np.concatenate([s.index_of_label for s in self.sets])
        self._labels = np.concatenate([s.labels for s in self.sets])
        # the bits set in each label difference, up to the widest group's
        self._popcount = np.array([bin(d).count("1") for d in range(2 ** max(nb))], np.uint8)
        # random words per trial: the label words, then (u1, u2) for each
        # complex Gaussian of f, gm, v and w, in that order
        self.label_words = -(-self.bits_per_cw // 64)
        shapes = self.channel.shapes(nd)
        self.gauss_shapes = [shapes[name] for name in ("f", "gm", "v", "w")]
        self.gauss_splits = np.cumsum([math.prod(s) for s in self.gauss_shapes])
        self.stride = self.label_words + 2 * int(self.gauss_splits[-1])
        self._slots = np.arange(self.stride, dtype=np.uint64)
        # trials per chunk: 512 when their hash words fit in 2**15 (256 KiB),
        # else 256; larger chunks raised peak RSS past its bound on pam2
        self.chunk = 512 if 512 * self.stride <= 2**15 else 256
        self._local = threading.local()  # .work: this thread's Workspace

    # -- draws ------------------------------------------------------------
    def _words(self, key: int, lo: int, hi: int, work=None) -> np.ndarray:
        """Random words (hi - lo, stride): word s of trial i is
        mix_seed(master_seed, snr_index, i*stride + s) mod 2**64."""
        work = Workspace() if work is None else work
        shape = (hi - lo, self.stride)
        words = work("words", shape, np.uint64)
        np.multiply(np.arange(lo, hi, dtype=np.uint64)[:, None], np.uint64(self.stride),
                    out=words)
        words += self._slots
        return _mix_round_into(key, words, work("shifted", shape, np.uint64))

    def _draw_chunk(self, key: int, lo: int, hi: int, work=None):
        """Transmitted point indices (b, groups) and f, gm, v, w of trials
        lo..hi-1, from the hash state key = mix_seed(master_seed, snr_index).
        The hash words are written into the Workspace work if it is given."""
        b = hi - lo
        words = self._words(key, lo, hi, work)
        labels = words[:, :self.label_words]
        # 53-bit uniforms in [0, 1); u1 moves up one step into (0, 1]
        u = (words[:, self.label_words:] >> 11).astype(float) * 2.0**-53
        z = np.sqrt(-np.log(u[:, 0::2] + 2.0**-53)) * np.exp(2j * np.pi * u[:, 1::2])
        f, gm, v, w = (part.reshape(b, *shape) for part, shape in zip(
            np.split(z, self.gauss_splits[:-1], axis=1), self.gauss_shapes))
        field = (labels[:, self._word] >> self._shift_down) | (
            labels[:, self._next] << self._shift_up)
        field &= self._mask
        tx_idx = self._index_of_label[field.astype(np.int64) + self._offsets]
        return tx_idx, f, gm, v, w

    # -- physical channel + whitened model ---------------------------------
    def _observe(self, tx_idx, f, gm, v, w, power: PowerConfig, work=None):
        x = self.symbols(tx_idx)
        return self.channel.observe(x, f, gm, v, w, power, work)

    def _decide(self, white):
        """Per-trial decoded group indices, in decode-group order."""
        return self.dec.decide(white)[0]

    def _rx_group_indices(self, dec_idx):
        """Map decode-group decisions back to original-group point indices."""
        return self.dec.group_indices(dec_idx)

    def chunk_bit_errors(self, power: PowerConfig, key: int, lo: int, hi: int) -> np.ndarray:
        """Bit errors of trials lo..hi-1; key as for _draw_chunk. The chunk
        writes into this engine's Workspace for the calling thread."""
        work = getattr(self._local, "work", None)
        if work is None:
            work = self._local.work = Workspace()
        tx_idx, f, gm, v, w = self._draw_chunk(key, lo, hi, work)
        white = self._observe(tx_idx, f, gm, v, w, power, work)
        rx_idx = self._rx_group_indices(self._decide(white))
        diff = self._labels[tx_idx + self._offsets] ^ self._labels[rx_idx + self._offsets]
        return self._popcount[diff].sum(axis=1, dtype=np.int64)


def _run_point(engine: _Engine, power: PowerConfig, key: int, config: ExperimentConfig,
               pool: ThreadPoolExecutor, workers: int) -> dict:
    """Bit errors and trials of one SNR point, key = mix_seed(master_seed,
    snr_index). Chunks are queued in index order, at most 2 * workers at a
    time, and consumed in index order; chunk i is computed in the calling
    thread when i % workers == 0 and submitted to pool otherwise. The first
    trial that reaches max_bit_errors ends the point."""
    size, cap = engine.chunk, config.max_trials
    pending: deque = deque()  # (chunk_bit_errors arguments, the pool's Future or None)
    lo = bit_errors = trials = 0
    while lo < cap or pending:
        while lo < cap and len(pending) < 2 * workers:
            args = (power, key, lo, min(lo + size, cap))
            pending.append((args, None) if lo // size % workers == 0 else
                           (args, pool.submit(engine.chunk_bit_errors, *args)))
            lo += size
        args, future = pending.popleft()
        cum = bit_errors + np.cumsum(future.result() if future else engine.chunk_bit_errors(*args))
        hit = np.flatnonzero(cum >= config.max_bit_errors)
        if hit.size:
            bit_errors, trials = int(cum[hit[0]]), trials + int(hit[0]) + 1
            break
        bit_errors, trials = int(cum[-1]), trials + cum.size
    # pool chunks past the stop: those not started never run; highest first,
    # so the pool chunks that did start are a prefix of the point's pool chunks
    for _, future in reversed(pending):
        if future:
            future.cancel()
    ber = bit_errors / (trials * engine.bits_per_cw)
    return {"trials": trials, "bit_errors": bit_errors, "ber": ber}


def _check_code(config: ExperimentConfig, code: DstbcCode) -> None:
    """Refuse a code that config's preset fields or modulation do not
    describe; a design_file config is not compared with its file."""
    if config.preset is not None:
        p = code.params
        require(p is not None, "preset", "be unset for a code build did not make", config.preset)
        for name, value, have in (("N", config.N, code.N),
                                  ("lam", p.lam if config.lam is None else config.lam, p.lam),
                                  ("n", 1 if config.n is None else config.n, p.n)):
            require(value == have, name, f"match the code's {have}", value)
    if config.modulation is not None:
        kinds = sorted({(s.size, s.dim) for s in code.signal_sets()})
        require(kinds == [_modulation_shape(config.modulation)], "modulation",
                f"match the code's group alphabets of (points, dim) {kinds}", config.modulation)


def run_ber(config: ExperimentConfig, code: DstbcCode | None = None) -> BerCurve:
    """Monte-Carlo BER over the SNR grid; see the module docstring for the
    trial protocol and determinism guarantees. A given code must be the one
    config describes (_check_code), refused after what its engine refuses."""
    given = code is not None
    code = code if given else resolve_code(config)
    engine = _Engine(code, config.decoder, config.nd)
    if given:
        _check_code(config, code)
    workers = worker_count()
    t0 = time.time()
    points = []
    # one pool for the whole run: its threads, and the Workspaces they write
    # into, serve every SNR point; at one worker it is never used
    with ThreadPoolExecutor(max_workers=max(1, workers - 1)) as pool:
        for s_i, snr_db in enumerate(config.snr_grid_db):
            power = PowerConfig.balanced(code, snr_db_to_power(snr_db), config.pi1)
            key = mix_seed(config.master_seed, s_i)
            pt = _run_point(engine, power, key, config, pool, workers)
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
