"""Fingerprint run_ber output: one sha256 per configuration, decoder and seed.

Prints a line per run_ber(...).to_csv() over the three BER benchmark
configurations, the criterion-9 one at 0 and 12 dB, the same code at
N_D = 1 (2*N_D*T2 < K), a square one (2*N_D*T2 = K), a design file whose
B_0 B_0^H is not diagonal (the noise covariance has cross-slot terms), and
the criterion-9 (256-trial chunks) and criterion-8 (512-trial chunks) codes
at trial caps that end in a short chunk, for every decoder and master_seed
0 and 1. A decoder a code refuses prints the hash of its message instead.
Then a line per `dstbc simulate` stdout and exit code, for the
ber-sweep-pam2 flags (SNR 2 to 14 dB in steps of 3) and a fractional-step
grid, at master_seed 0 and 1: these pin the flag-to-config mapping and the
SNR grid builder. That is 94 lines. Two checkouts decode alike when their
outputs are equal:

    DSTBC_THREADS=1 python3 tools/csv_gate.py > a.txt
    DSTBC_THREADS=2 python3 tools/csv_gate.py > b.txt
    diff a.txt b.txt

The dstbc imported is the one under src/ next to this script.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dstbc import cli  # noqa: E402
from dstbc.construct import code_to_dict, from_design  # noqa: E402
from dstbc.decode import DECODERS  # noqa: E402
from dstbc.design import LinearDesign  # noqa: E402
from dstbc.harness import ExperimentConfig, run_ber  # noqa: E402

# name: (code, modulation, nd, SNR grid in dB, trial cap, error target); the
# code is a preset (preset, N, lam, n) or a design, run from a design file
CONFIGS = {
    "ber-sweep-pam2": (("scalar", 2, 1, 2), "pam2", 2, (2, 5, 8, 11, 14), 16384, 400),
    "ber-pam8-zfsic": (("alamouti", 8, 1, 3), "pam8", 1, (10, 15, 20), 1024, 10**9),
    "ber-qam4-crit9": (("alamouti", 4, 2, 2), "qam4", 4, (6,), 512, 10**9),
    # the widest and the narrowest ML sphere of the criterion-9 code
    "crit9-0-12db": (("alamouti", 4, 2, 2), "qam4", 4, (0, 12), 512, 10**9),
    # 2*N_D*T2 = 12 < K = 16: every row takes the exact fallback
    "crit9-nd1": (("alamouti", 4, 2, 2), "qam4", 1, (0, 12), 512, 10**9),
    "square-pam4": (("alamouti", 2, 1, 1), "pam4", 1, (0, 10, 20, 30), 4096, 400),
    "non-diagonal-bbh": ("design", "pam4", 2, (0, 10, 20), 2048, 400),
    # 600 = 2*256 + 88 trials: the last chunk of each point is a short one
    "crit9-tail-chunk": (("alamouti", 4, 2, 2), "qam4", 4, (3, 9), 600, 10**9),
    # 1300 = 2*512 + 276: the low point stops inside a 512-trial chunk and
    # the high one ends in a short chunk
    "pam2-tail-chunk": (("scalar", 2, 1, 2), "pam2", 2, (2, 14), 1300, 400),
}

# name: simulate flags, less --seed; the first are those of the benchmark's
# ber-sweep-pam2, the second a grid whose accumulated steps overshoot 2.9 dB
_PAM2 = ("--preset", "scalar", "--N", "2", "--lambda", "1", "--n", "2", "--modulation", "pam2",
         "--nd", "2", "--decoder", "pic-sic")
CLI_RUNS = {
    "cli-ber-sweep-pam2": (*_PAM2, "--snr-start", "2", "--snr-stop", "14", "--snr-step", "3",
                           "--trials", "16384", "--max-errors", "400"),
    "cli-fractional-step": (*_PAM2, "--snr-start", "0.5", "--snr-stop", "2.9", "--snr-step",
                            "0.3", "--trials", "300", "--max-errors", "50"),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def non_diagonal_bbh_code():
    """N = T = 2 with relay columns [z1 + z2, z1] and [z2, z1]:
    B_0 B_0^H = [[2, 1], [1, 1]] is not diagonal."""
    a, b = np.array([[1, 0], [1, 1]]), np.array([[1, 1], [0, 0]])
    return from_design(LinearDesign.from_weights(np.stack([a, 1j * a, b, 1j * b])))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        design_file = str(Path(tmp) / "non_diagonal_bbh.json")
        Path(design_file).write_text(json.dumps(code_to_dict(non_diagonal_bbh_code())))
        for name, (code, modulation, nd, grid, cap, target) in CONFIGS.items():
            if code == "design":
                spec = dict(design_file=design_file)
            else:
                spec = dict(zip(("preset", "N", "lam", "n"), code))
            for decoder in DECODERS:
                for seed in (0, 1):
                    cfg = ExperimentConfig(
                        decoder=decoder, modulation=modulation, nd=nd, snr_grid_db=grid,
                        max_trials=cap, max_bit_errors=target, master_seed=seed, **spec)
                    try:
                        out, kind = run_ber(cfg).to_csv(), "csv"
                    except ValueError as e:
                        out, kind = str(e), "refused"
                    print(f"{name} {decoder} seed={seed} {kind} {sha256(out)}", flush=True)
    for name, argv in CLI_RUNS.items():
        for seed in (0, 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["simulate", *argv, "--seed", str(seed)])
            print(f"{name} seed={seed} exit={code} {sha256(out.getvalue())}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
