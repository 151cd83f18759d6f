"""Per-layer tracing of dstbc from outside the package.

The tracer replaces functions and methods of the loaded dstbc modules with
timing wrappers and puts the originals back on `restore`. Nothing under
src/ changes. Busy time and call counts accumulate under a lock, because
the harness runs chunks on worker threads; each entry is keyed by the
current `mode` (which worker setting a round runs at). A re-entrant call of
the same traced name counts once, at the outermost call.

A target that no longer exists is recorded in `absent` and skipped.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# numpy.linalg entry points that factorize a matrix, or solve through one
FACTORIZATIONS = (
    "svd", "qr", "cholesky", "eigh", "eigvalsh", "eig", "eigvals", "lstsq",
    "solve", "inv", "pinv", "det", "slogdet", "matrix_rank",
)


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.busy = defaultdict(float)
        self.calls = defaultdict(int)
        self.absent: list = []
        self.mode = "setup"
        self._undo: list = []

    # -- accumulation ------------------------------------------------------
    def add(self, key: str, seconds: float = 0.0, n: int = 1) -> None:
        with self._lock:
            self.busy[(self.mode, key)] += seconds
            self.calls[(self.mode, key)] += n

    def seconds(self, key: str, *modes) -> float:
        return sum(v for (m, k), v in self.busy.items() if k == key and (not modes or m in modes))

    def count(self, key: str, *modes) -> int:
        return sum(v for (m, k), v in self.calls.items() if k == key and (not modes or m in modes))

    def active(self, name: str) -> bool:
        """True while the current thread is inside the traced call `name`."""
        return getattr(self._local, name, 0) > 0

    # -- installation ------------------------------------------------------
    def _replace(self, owner, attr, new, everywhere):
        orig = getattr(owner, attr)
        targets = [owner]
        if everywhere:
            targets += [m for n, m in list(sys.modules.items())
                        if n == "dstbc" or n.startswith("dstbc.")]
        for t in targets:
            for k, v in list(vars(t).items()):
                if v is orig:
                    setattr(t, k, new)
                    self._undo.append((t, k, orig))

    def wrap(self, owner, attr: str, name: str, *, everywhere=False, subkey=None,
             on_result=None) -> bool:
        """Time calls of owner.attr as `name`.

        subkey(args) may name a second key to charge the same time to;
        on_result(result) runs after each outermost call. With everywhere,
        every dstbc module that imported the function gets the wrapper too.
        """
        orig = getattr(owner, attr, None) if owner is not None else None
        if orig is None:
            self.absent.append(name)
            return False
        local = self._local

        def traced(*args, **kwargs):
            if getattr(local, name, 0):
                return orig(*args, **kwargs)
            setattr(local, name, 1)
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                setattr(local, name, 0)
                self.add(name, dt)
                extra = subkey(args) if subkey else None
                if extra:
                    self.add(extra, dt)
            if on_result is not None:
                on_result(result)
            return result

        self._replace(owner, attr, traced, everywhere)
        return True

    def count_linalg(self, decide: str, rank_kernel: str) -> None:
        """Count numpy.linalg factorizations made inside `decide`, and SVD'd
        matrices inside `rank_kernel` (the exact fallback of the rank test)."""
        local = self._local

        for fn in FACTORIZATIONS:
            orig = getattr(np.linalg, fn, None)
            if orig is None:
                continue

            def counted(*args, _orig=orig, _fn=fn, **kwargs):
                if getattr(local, "linalg", 0):
                    return _orig(*args, **kwargs)
                local.linalg = 1
                try:
                    return _orig(*args, **kwargs)
                finally:
                    local.linalg = 0
                    if getattr(local, decide, 0):
                        self.add("decode.factorizations")
                    if _fn == "svd" and getattr(local, rank_kernel, 0):
                        mats = int(np.prod(np.shape(args[0])[:-2])) if args else 1
                        self.add("diversity.exact_svd_fallbacks", n=mats)

            setattr(np.linalg, fn, counted)
            self._undo.append((np.linalg, fn, orig))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


def _module(name):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def install(tracer: Tracer) -> Tracer:
    """Wrap the engine stages and public entry points of dstbc."""
    harness = _module("dstbc.harness")
    engine = getattr(harness, "_Engine", None)

    def by_decoder(prefix):
        return lambda args: f"{prefix}.{getattr(args[0], 'decoder', 'unknown')}"

    tracer.wrap(engine, "chunk_bit_errors", "harness.chunk", subkey=by_decoder("harness.chunk"))
    tracer.wrap(engine, "_draw_chunk", "harness.draw")
    tracer.wrap(engine, "_observe", "channel.observe")
    tracer.wrap(engine, "_decide", "decode.decide", subkey=by_decoder("decode.decide"))
    tracer.wrap(engine, "_rx_group_indices", "harness.labelmap")
    tracer.wrap(harness, "run_ber", "harness.run_ber", everywhere=True,
                subkey=lambda args: "cli.run_ber" if tracer.active("cli.main") else None)
    tracer.wrap(_module("dstbc.cli"), "main", "cli.main", everywhere=True)

    diversity = _module("dstbc.diversity")
    tracer.wrap(diversity, "_relative_sv", "diversity.rank_kernel")
    for fn in ("check_pic", "check_pic_sic", "check_zf"):
        tracer.wrap(diversity, fn, "diversity.check", everywhere=True,
                    on_result=lambda r: tracer.add("diversity.rank_tests",
                                                   n=int(r.samples_tested)))
    tracer.wrap(_module("dstbc.construct"), "build", "construct.build",
                everywhere=True)
    tracer.count_linalg("decode.decide", "diversity.rank_kernel")
    return tracer
