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
import json
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .channel import PowerConfig, draw_realization, noise_bound, noise_covariance, rvec, simulate_transmission
from .construct import bits_per_channel_use, build, preset_names, rate_cspcu
from .decode import DECODERS
from .design import cod_alamouti, cod_trivial, evaluate, verify_cod
from .diversity import check_pic, check_pic_sic, check_zf
from .harness import ExperimentConfig, resolve_code, run_ber

USAGE_ERROR = 2


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
    p_sim.add_argument("--decoder", choices=DECODERS)
    p_sim.add_argument("--snr-start", type=float)
    p_sim.add_argument("--snr-stop", type=float)
    p_sim.add_argument("--snr-step", type=float)
    p_sim.add_argument("--trials", type=int, help="max trials per SNR point")
    p_sim.add_argument("--max-errors", type=int, help="early-stop bit error count")
    p_sim.add_argument("--seed", type=int)
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
    code = resolve_code(args)
    rng = np.random.default_rng(args.seed)
    checks = {"pic": check_pic, "pic-sic": check_pic_sic, "zf": check_zf}
    names = list(checks) if args.criterion == "all" else [args.criterion]
    reports = [checks[name](code, args.trials, rng).to_dict() for name in names]
    doc = reports[0] if len(reports) == 1 else reports
    print(json.dumps(doc, indent=2))
    return 0 if all(r["passed"] for r in reports) else 1


def _cmd_simulate(args) -> int:
    overrides = dict(
        decoder=args.decoder, preset=args.preset, design_file=args.design_file,
        N=args.N, lam=args.lam, n=args.n, modulation=args.modulation, nd=args.nd,
        max_trials=args.trials, max_bit_errors=args.max_errors,
        master_seed=args.seed,
    )
    if args.snr_start is not None or args.snr_stop is not None:
        if args.snr_start is None or args.snr_stop is None:
            raise ValueError("--snr-start and --snr-stop go together")
        step = args.snr_step if args.snr_step else 1.0
        if step <= 0 or args.snr_stop < args.snr_start:
            raise ValueError("SNR grid must be ascending with positive step")
        grid = []
        s = args.snr_start
        while s <= args.snr_stop + 1e-9:
            grid.append(round(s, 9))
            s += step
        overrides["snr_grid_db"] = tuple(grid)
    if args.config is not None:
        cfg = ExperimentConfig.from_json(args.config, **overrides)
    else:
        cfg = replace(ExperimentConfig(), **{k: v for k, v in overrides.items() if v is not None})
    curve = run_ber(cfg)
    if args.out:
        curve.write_csv(args.out)
        print(f"wrote {args.out} ({len(curve.points)} points, "
              f"{curve.wall_time_s:.1f}s)", file=sys.stderr)
    else:
        sys.stdout.write(curve.to_csv())
    return 0


def _cmd_selftest(args) -> int:
    rng = np.random.default_rng(0)
    results = []

    ok = verify_cod(cod_trivial()) and verify_cod(cod_alamouti())
    x = rng.standard_normal(4)
    xa = evaluate(cod_alamouti().design, x)
    ok &= bool(np.abs(xa.conj().T @ xa - np.sum(x**2) * np.eye(2)).max() < 1e-10)
    results.append(("cod identities", ok))

    code = build(2, cod_alamouti(), 1, 1)
    power = PowerConfig.balanced(code, 10.0)
    ok = True
    for _ in range(100):
        real = draw_realization(rng, code.N, 2)
        ok &= noise_bound(code, real, power)["passed"]
    results.append(("noise trace/eigenvalue bound", ok))

    real = draw_realization(rng, code.N, 2)
    model = noise_covariance(code, real, power)
    draws = np.stack([
        rvec(simulate_transmission(code, np.zeros(code.K), real, power, rng))
        for _ in range(20000)
    ])
    emp = draws.T @ draws / draws.shape[0]
    rel = np.linalg.norm(emp - model.gamma) / np.linalg.norm(model.gamma)
    results.append(("noise covariance oracle (20k draws)", bool(rel < 0.05)))

    failed = [name for name, ok in results if not ok]
    for name, ok in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else USAGE_ERROR
    try:
        if args.command == "info":
            return _cmd_info(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "selftest":
            return _cmd_selftest(args)
    except (ValueError, TypeError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
