"""Benchmark of dstbc: BER simulation and diversity-criteria workloads.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload NAME|all --seed N --seconds S --trace 0|1

The package is imported from ./src; nothing is installed or built. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones of a traced run.
See benchmarks/README.md for the workloads and how operations are counted.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# set-ups before the timed rounds; one more follows every pair of rounds
SETUP_REPEATS = 4
# pinned before numpy loads, so workers x BLAS threads stays within nproc
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas() -> None:
    for var in BLAS_ENV:
        os.environ[var] = "1"


def import_dstbc():
    """Import dstbc from ./src of this checkout, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "dstbc" / "__init__.py").is_file():
        raise SystemExit(f"error: no dstbc sources under {src}")
    sys.path.insert(0, str(src))
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    import dstbc

    if Path(dstbc.__file__).resolve().parent != (src / "dstbc").resolve():
        raise SystemExit(f"error: imported dstbc from {dstbc.__file__}, not {src}")
    return dstbc


def set_workers(threads: str | None) -> None:
    if threads is None:
        os.environ.pop("DSTBC_THREADS", None)
    else:
        os.environ["DSTBC_THREADS"] = threads


def blas_info() -> dict:
    """BLAS library from numpy's build record and its live thread count."""
    import ctypes

    import numpy as np

    info = {"pinned_env": {v: os.environ.get(v) for v in BLAS_ENV}}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        info["library"] = "unknown"
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower()
                           and ln.split()[-1].startswith("/")})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    info["threads"] = int(fn())
                    return info
    except OSError:
        pass
    info["threads"] = "unknown"
    return info


def environment(dstbc, args) -> dict:
    import numpy as np
    from dstbc.harness import worker_count

    set_workers(None)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "workers": worker_count(),
        "blas": blas_info(), "numpy": np.__version__,
        "python": platform.python_version(), "dstbc": dstbc.__version__,
    }


def set_up(wl, times: list) -> None:
    """Import dstbc afresh and build the workload's codes, appending the wall
    time. numpy stays loaded: its import is no part of dstbc's set-up."""
    for mod in [m for m in sys.modules if m == "dstbc" or m.startswith("dstbc.")]:
        del sys.modules[mod]
    t0 = time.perf_counter()
    importlib.import_module("dstbc")
    wl.build()
    times.append(time.perf_counter() - t0)


@dataclass
class Round:
    mode: str  # "1w" (DSTBC_THREADS=1) or "default" (worker count unset)
    wall: float
    trials: int
    outputs: dict
    traced: bool


def timed_rounds(wl, seconds: float, rounds: list, tracer=None, between=None) -> None:
    """Pairs of rounds, one at each worker setting, until `seconds` would pass.
    between(), if given, runs untimed after each pair."""
    start = time.perf_counter()
    pairs = 0
    while True:
        for mode, threads in (("1w", "1"), ("default", None)):
            set_workers(threads)
            if tracer is not None:
                tracer.mode = mode
            t0 = time.perf_counter()
            outputs, trials = wl.run_round()
            rounds.append(Round(mode, time.perf_counter() - t0, trials, outputs,
                                tracer is not None))
        pairs += 1
        if between is not None:
            between()
        elapsed = time.perf_counter() - start
        if elapsed * (pairs + 1) / pairs > seconds:
            break
    set_workers(None)


def rate(rounds, mode, traced=False) -> float:
    sel = [r for r in rounds if r.mode == mode and r.traced == traced]
    wall = sum(r.wall for r in sel)
    return sum(r.trials for r in sel) / wall if wall > 0 else 0.0


def judge(wl, rounds):
    """(correct, attempted, failed, problems) over every round of a run."""
    from workloads import RAISED

    canonical = rounds[0].outputs
    per_round = [wl.round_problems(r.outputs, {} if i == 0 else canonical)
                 for i, r in enumerate(rounds)]
    set_workers(None)
    final = wl.final_problems(canonical)
    final_ops = {op for ops, _, _ in final for op in ops}
    n_ops = len(wl.ops())
    failed = sum(len({op for op, _, _ in probs} | final_ops) for probs in per_round)
    problems = [(op, check, msg) for probs in per_round for op, check, msg in probs]
    problems += [(op, check, msg) for ops, check, msg in final for op in ops]
    correct = all(check == RAISED for _, check, _ in problems)
    return correct, n_ops * len(rounds), failed, problems


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(wl, rounds, setup_s):
    default = [r for r in rounds if r.mode == "default"]
    wall = sum(r.wall for r in default)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "trials_per_s": metric(rate(rounds, "default"), "trials/s"),
        "trials_per_s_1w": metric(rate(rounds, "1w"), "trials/s"),
        "ops_per_s": metric(len(wl.ops()) * len(default) / wall, "ops/s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss_kib / 1024.0, "MiB"),
    }


def per_layer(wl, rounds, tracer, workers):
    """Per-layer metrics from the traced rounds; see README for definitions."""
    import dstbc.harness as harness

    t = tracer
    n_default = sum(1 for r in rounds if r.traced and r.mode == "default")
    n_traced = sum(1 for r in rounds if r.traced)
    chunks_1w = t.count("harness.chunk", "1w")

    def per_chunk_ms(key, chunks=chunks_1w):
        return 1000.0 * t.seconds(key, "1w") / chunks if chunks else 0.0

    out = {
        "harness.chunk_ms": metric(per_chunk_ms("harness.chunk"), "ms"),
        "harness.draw_ms": metric(per_chunk_ms("harness.draw"), "ms"),
        "harness.labelmap_ms": metric(per_chunk_ms("harness.labelmap"), "ms"),
        "channel.observe_ms": metric(per_chunk_ms("channel.observe"), "ms"),
        "decode.decide_ms": metric(per_chunk_ms("decode.decide"), "ms"),
    }
    for d in ("pic", "pic-sic", "ml", "zf-sic"):
        out[f"decode.decide_ms.{d}"] = metric(
            per_chunk_ms(f"decode.decide.{d}", t.count(f"harness.chunk.{d}", "1w")), "ms")
    out["decode.factorizations"] = metric(
        t.count("decode.factorizations", "1w") / chunks_1w if chunks_1w else 0.0, "count")

    computed = t.count("harness.chunk", "default")
    out["harness.chunks"] = metric(computed / n_default if n_default else 0.0, "count")
    ratio, util = 0.0, 0.0
    if computed:
        chunk = getattr(harness, "_CHUNK", 256)
        ratio = wl.chunks_consumed(rounds[0].outputs, chunk) * n_default / computed
        wall = t.seconds("harness.run_ber", "default")
        util = t.seconds("harness.chunk", "default") / (wall * workers) if wall else 0.0
    out["harness.chunks_useful_ratio"] = metric(ratio, "ratio")
    out["harness.pool_utilization"] = metric(util, "ratio")

    checks_s = t.seconds("diversity.check")
    n_checks = t.count("diversity.check")
    tests = t.count("diversity.rank_tests")
    out["diversity.rank_tests"] = metric(tests / n_traced if n_traced else 0.0, "count")
    out["diversity.rank_tests_per_s"] = metric(tests / checks_s if checks_s else 0.0, "1/s")
    out["diversity.check_ms"] = metric(1000.0 * checks_s / n_checks if n_checks else 0.0, "ms")
    out["diversity.exact_svd_fallbacks"] = metric(
        t.count("diversity.exact_svd_fallbacks") / n_traced if n_traced else 0.0, "count")

    builds = t.count("construct.build", "setup")
    out["construct.build_ms"] = metric(
        1000.0 * t.seconds("construct.build", "setup") / builds if builds else 0.0, "ms")
    cli_calls = t.count("cli.main")
    out["cli.overhead_ms"] = metric(
        1000.0 * (t.seconds("cli.main") - t.seconds("cli.run_ber")) / cli_calls
        if cli_calls else 0.0, "ms")

    plain, traced = rate(rounds, "1w"), rate(rounds, "1w", traced=True)
    out["trace.overhead_pct"] = metric(100.0 * (plain - traced) / plain if plain else 0.0, "%")
    return out


def run_workload(name: str, args) -> dict:
    from workloads import make_workload

    wl = make_workload(name, args.seed, args.scale)
    setups: list = []
    for _ in range(SETUP_REPEATS):
        set_up(wl, setups)
    for threads in ("1", None):
        set_workers(threads)
        wl.warm()
    rounds: list = []
    if not args.trace:
        timed_rounds(wl, args.seconds, rounds, between=lambda: set_up(wl, setups))
        metrics = end_to_end(wl, rounds, statistics.median(setups))
    else:
        from dstbc.harness import worker_count
        from tracing import Tracer, install

        set_workers(None)
        workers = worker_count()
        timed_rounds(wl, args.seconds / 2.0, rounds)
        tracer = install(Tracer())
        try:
            for _ in range(3):
                wl.build()
            timed_rounds(wl, args.seconds / 2.0, rounds, tracer)
        finally:
            tracer.restore()
        metrics = per_layer(wl, rounds, tracer, workers)
        if tracer.absent:
            print(f"absent stages (reported as 0): {sorted(set(tracer.absent))}",
                  file=sys.stderr)
    correct, attempted, failed, problems = judge(wl, rounds)
    seen = set()
    for op, check, msg in problems:
        if (op, check, msg) not in seen:
            seen.add((op, check, msg))
            print(f"{name}: {check} {op}: {msg}", file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply trial caps and error targets (plumbing tests)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.scale <= 0:
        ap.error("seed must be >= 0, seconds and scale > 0")

    pin_blas()
    dstbc = import_dstbc()
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        ap.error(f"workload must be 'all' or one of {', '.join(WORKLOADS)}")
    print("env " + json.dumps(environment(dstbc, args), sort_keys=True), flush=True)
    results = {}
    for name in names:
        results[name] = run_workload(name, args)
        if len(names) > 1:
            print(f"result {name} " + json.dumps(results[name]), flush=True)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
