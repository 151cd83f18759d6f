"""Command-line front end.

Subcommands:
  info      print code parameters (N, lam, n, K, T1, T2, g, exact rate, bpcu)
  check     run diversity criteria, emit JSON reports (exit 1 on failure)
  simulate  Monte-Carlo BER sweep, emit CSV
  selftest  built-in consistency checks (COD identities, noise bounds,
            covariance oracle)

Exit codes: 0 success, 1 check/selftest failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .construct import bits_per_channel_use, preset_names, rate_cspcu, resolve_code
from .design import require

USAGE_ERROR = 2
MAX_SNR_POINTS = 10_000  # the most points an --snr-start/stop/step grid may have


def _add_code_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", help="named construction: " + ", ".join(preset_names()))
    p.add_argument("--design-file", help="JSON design/code document")
    p.add_argument("--N", type=int, help="number of relays")
    p.add_argument("--lambda", dest="lam", type=int, help="symbols per decoding group")
    p.add_argument("--n", type=int, help="number of diagonal layers (default 1)")
    p.add_argument("--modulation", help="pamM or qamM group alphabet")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dstbc", description=__doc__.split("\n")[0])
    ap.add_argument("--version", action="version", version=f"dstbc {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="print code parameters and rates")
    _add_code_args(p_info)

    p_check = sub.add_parser("check", help="diversity criteria reports as JSON")
    _add_code_args(p_check)
    p_check.add_argument("--criterion", default="pic-sic",
                         choices=["pic", "pic-sic", "zf", "all"])
    p_check.add_argument("--trials", type=int, default=1000,
                         help="random interference draws per difference")
    p_check.add_argument("--seed", type=int, default=0)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo BER sweep to CSV")
    _add_code_args(p_sim)
    p_sim.add_argument("--nd", type=int, help="destination antennas")
    p_sim.add_argument("--decoder", help="pic, pic-sic, zf, zf-sic or ml (default pic-sic)")
    p_sim.add_argument("--snr-start", type=float)
    p_sim.add_argument("--snr-stop", type=float)
    p_sim.add_argument("--snr-step", type=float)
    # dest: the ExperimentConfig field each flag sets
    p_sim.add_argument("--trials", dest="max_trials", type=int, help="max trials per SNR point")
    p_sim.add_argument("--max-errors", dest="max_bit_errors", type=int,
                       help="early-stop bit error count")
    p_sim.add_argument("--seed", dest="master_seed", type=int)
    p_sim.add_argument("--out", help="CSV output path (default stdout)")
    p_sim.add_argument("--config", help="JSON config file; flags override")

    sub.add_parser("selftest", help="run built-in consistency checks")
    return ap


def _cmd_info(args) -> int:
    code = resolve_code(args)
    print(f"N   = {code.N}  (relays)")
    if code.params is not None:
        print(f"lam = {code.params.lam}  n = {code.params.n}  L = {code.params.L}")
    print(f"K   = {code.K}  (real symbols)")
    print(f"g   = {code.g}  (decoding groups)")
    print(f"T2  = {code.T2}  (cooperation phase length)")
    if code.relay_form is not None:
        print(f"T1  = {code.T1}  (broadcast phase length)")
        print(f"S   = {sorted(code.relay_form.S)}  (conjugating relays, 0-based)")
        print(f"R   = {rate_cspcu(code)}  cspcu")
        if code.group_sets is not None:
            print(f"bpcu = {bits_per_channel_use(code)}")
    else:
        print("relay form: not conjugate linear (channel simulation unavailable)")
    return 0


def _cmd_check(args) -> int:
    from .diversity import check_pic, check_pic_sic, check_zf

    code = resolve_code(args)
    require(args.seed >= 0, "--seed", "be a non-negative integer", args.seed)
    rng = np.random.default_rng(args.seed)
    checks = {"pic": check_pic, "pic-sic": check_pic_sic, "zf": check_zf}
    names = list(checks) if args.criterion == "all" else [args.criterion]
    reports = [checks[name](code, args.trials, rng).to_dict() for name in names]
    doc = reports[0] if len(reports) == 1 else reports
    print(json.dumps(doc, indent=2))
    return 0 if all(r["passed"] for r in reports) else 1


def _snr_grid(start, stop, step) -> tuple:
    """start, start + step, ... up to stop + 1e-9 dB, each rounded to 9 decimals;
    the count is checked against MAX_SNR_POINTS before any point is made."""
    require(start is not None and stop is not None, "--snr-start and --snr-stop",
            "be given together", (start, stop))
    # the bound names the flag given: the step, or the stop when the step is the default
    bound_flag, bound_value = ("--snr-stop", stop) if step is None else ("--snr-step", step)
    step = 1.0 if step is None else step
    for flag, value in (("--snr-start", start), ("--snr-stop", stop)):
        require(math.isfinite(value), flag, "be finite", value)
    require(0 < step < math.inf, "--snr-step", "be positive and finite", step)
    require(stop >= start, "--snr-stop", f"be at least --snr-start {start:g}", stop)
    span = (stop - start + 1e-9) / step  # inf for a step of 5e-324: floor would raise
    require(span < MAX_SNR_POINTS, bound_flag,
            f"give at most {MAX_SNR_POINTS} points from --snr-start to --snr-stop", bound_value)
    return tuple(round(start + i * step, 9) for i in range(math.floor(span) + 1))


def _cmd_simulate(args) -> int:
    from .harness import ExperimentConfig, run_ber

    overrides = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
                 if getattr(args, f.name, None) is not None}
    if args.snr_start is not None or args.snr_stop is not None:
        overrides["snr_grid_db"] = _snr_grid(args.snr_start, args.snr_stop, args.snr_step)
    cfg = (ExperimentConfig(**overrides) if args.config is None
           else ExperimentConfig.from_json(args.config, **overrides))
    code = resolve_code(cfg)
    out, created = None, False
    if args.out:
        # opened before the run, so a path that cannot be written costs no trials;
        # for appending, so a run that fails or is stopped leaves a file that
        # existed as it was, and removes one it created
        try:
            try:
                out, created = open(args.out, "x"), True
            except FileExistsError:
                out = open(args.out, "a")
        except OSError as e:
            require(False, "--out", "be a file that can be written", f"{args.out}: {e.strerror}")
    with out or contextlib.nullcontext(sys.stdout) as f:
        try:
            curve = run_ber(cfg, code)
        except BaseException:
            if created:
                os.remove(args.out)
            raise
        if out:
            f.truncate(0)
        f.write(curve.to_csv())
    if args.out:
        print(f"wrote {args.out} ({len(curve.points)} points, "
              f"{curve.wall_time_s:.1f}s)", file=sys.stderr)
    return 0


def _cmd_selftest(args) -> int:
    from .channel import PowerConfig, RelayChannel
    from .construct import build
    from .design import cod_alamouti, cod_trivial, evaluate, verify_cod

    rng = np.random.default_rng(0)
    results = []

    ok = verify_cod(cod_trivial()) and verify_cod(cod_alamouti())
    x = rng.standard_normal(4)
    xa = evaluate(cod_alamouti().design, x)
    ok &= bool(np.abs(xa.conj().T @ xa - np.sum(x**2) * np.eye(2)).max() < 1e-10)
    results.append(("cod identities", ok))

    def cn(*shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)

    code = build(2, cod_alamouti(), 1, 1)
    power = PowerConfig.balanced(code, 10.0)
    channel = RelayChannel(code)
    n = 20000
    f, gm = np.repeat(cn(1, code.N), n, axis=0), np.repeat(cn(1, code.N, 2), n, axis=0)
    noise = (np.zeros((n, code.K)), f, gm, cn(n, code.N, code.T1), cn(n, code.T2, 2), power)
    draws = channel.transmit(*noise).reshape(n, -1)  # vec(Y), slot-major
    blocks = channel._slot_blocks(gm[:1], power)  # Gamma_c: these blocks, 0 off them
    nb, m = blocks.shape[:2]
    err = (draws.T @ draws.conj() / n).reshape(nb, m, nb, m)
    err[np.arange(nb), :, np.arange(nb)] -= blocks
    rel = np.linalg.norm(err) / np.linalg.norm(blocks)
    pseudo = np.linalg.norm(draws.T @ draws / n) / np.linalg.norm(blocks)  # proper: ~0
    results.append(("noise covariance oracle (20k draws)", bool(max(rel, pseudo) < 0.05)))
    white = channel.observe(*noise)[:, :, -1]  # whitened noise: covariance 2I, proper
    eye = np.eye(white.shape[1])
    cov, pseudo = (white.T @ m / (2 * n) for m in (white.conj(), white))
    rel = max(np.linalg.norm(cov - eye), np.linalg.norm(pseudo)) / np.linalg.norm(eye)
    results.append(("whitened noise covariance is I (20k draws)", bool(rel < 0.05)))

    for name, ok in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    return 0 if all(ok for _, ok in results) else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else USAGE_ERROR
    commands = {"info": _cmd_info, "check": _cmd_check, "simulate": _cmd_simulate,
                "selftest": _cmd_selftest}
    try:
        return commands[args.command](args)
    except (ValueError, TypeError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
