"""Fingerprint run_ber output: one sha256 per configuration, decoder and seed.

Prints a line per run_ber(...).to_csv() over the three BER benchmark
configurations, the criterion-9 one at 0 and 12 dB, the same code at
N_D = 1 (2*N_D*T2 < K), a square one (2*N_D*T2 = K), a design file whose
B_0 B_0^H is not diagonal (the noise covariance has cross-slot terms), a
design file of the criterion-9 code with relay 0 dropped (a drop that flips
the orientation of a conjugation component), and the criterion-9 (256-trial
chunks) and criterion-8 (512-trial chunks) codes at trial caps that end in
a short chunk, a code with unrotated QAM-16 groups (whose ZF view splits
groups of two symbols) and an N = 8 QAM-64 code of 72 bits per codeword
(label fields straddle two 64-bit words), for every decoder and master_seed
0 and 1. A decoder a code refuses prints the hash of its message instead.
Then a line per `dstbc check --criterion all` exit code and reports, on
three presets and the dropped code, hashing each report's verdict, sample
count, witness, certificate, coverage and min_singular_value. The last is
hashed to 9 significant digits: its last digits depend on the order BLAS
sums in, while the interference draws, and the differences a group draws
above the cap, move it in the leading ones even where no verdict moves. Last, a line per
`dstbc simulate` stdout and exit code, for the ber-sweep-pam2 flags (SNR 2
to 14 dB in steps of 3) and a fractional-step grid, at master_seed 0 and 1:
these pin the flag-to-config mapping and the SNR grid builder. That is 128
lines. Two checkouts decode and check alike when their outputs are equal:

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
from dstbc.constellation import SignalSet, identity_rotation, make_rotated_qam  # noqa: E402
from dstbc.construct import code_to_dict, drop_relays, from_design, preset  # noqa: E402
from dstbc.decode import DECODERS  # noqa: E402
from dstbc.design import LinearDesign  # noqa: E402
from dstbc.harness import ExperimentConfig, run_ber  # noqa: E402

# name: (code, modulation, nd, SNR grid in dB, trial cap, error target); the
# code is a preset (preset, N, lam, n) or the name of a design file in DESIGNS,
# and the modulation a name or a SignalSet for every group of the preset
CONFIGS = {
    "ber-sweep-pam2": (("scalar", 2, 1, 2), "pam2", 2, (2, 5, 8, 11, 14), 16384, 400),
    "ber-pam8-zfsic": (("alamouti", 8, 1, 3), "pam8", 1, (10, 15, 20), 1024, 10**9),
    "ber-qam4-crit9": (("alamouti", 4, 2, 2), "qam4", 4, (6,), 512, 10**9),
    # the widest and the narrowest ML sphere of the criterion-9 code
    "crit9-0-12db": (("alamouti", 4, 2, 2), "qam4", 4, (0, 12), 512, 10**9),
    # 2*N_D*T2 = 12 < K = 16: every row takes the exact fallback
    "crit9-nd1": (("alamouti", 4, 2, 2), "qam4", 1, (0, 12), 512, 10**9),
    "square-pam4": (("alamouti", 2, 1, 1), "pam4", 1, (0, 10, 20, 30), 4096, 400),
    "non-diagonal-bbh": ("non-diagonal-bbh", "pam4", 2, (0, 10, 20), 2048, 400),
    "crit9-drop-relay0": ("crit9-drop-relay0", "qam4", 4, (6,), 512, 10**9),
    # 600 = 2*256 + 88 trials: the last chunk of each point is a short one
    "crit9-tail-chunk": (("alamouti", 4, 2, 2), "qam4", 4, (3, 9), 600, 10**9),
    # 1300 = 2*512 + 276: the low point stops inside a 512-trial chunk and
    # the high one ends in a short chunk
    "pam2-tail-chunk": (("scalar", 2, 1, 2), "pam2", 2, (2, 14), 1300, 400),
    # an alphabet no modulation name gives, so the code reaches run_ber as an
    # object: its ZF view splits groups of two symbols
    "unrotated-qam16": (("scalar", 4, 2, 2), make_rotated_qam(16, identity_rotation(2)), 2,
                        (6, 16), 512, 10**9),
    # 12 groups of 6 bits: some label fields straddle two 64-bit words
    "qam64-72-bit": (("alamouti", 8, 2, 3), "qam64", 2, (10, 20), 512, 10**9),
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


# name: check flags, less --criterion and --seed; DESIGN stands for the
# dropped code's design file. The qam256 groups have 960 nonzero differences,
# above the checks' cap of 256, so each group draws its own subset
_DROPPED = "crit9-drop-relay0"
CHECK_RUNS = {
    "check-alamouti-N8-l2-n3": ("--preset", "alamouti", "--N", "8", "--lambda", "2", "--n", "3"),
    "check-alamouti-N8-l1-n3": ("--preset", "alamouti", "--N", "8", "--lambda", "1", "--n", "3"),
    "check-scalar-N4-l2-n2-qam256": ("--preset", "scalar", "--N", "4", "--lambda", "2", "--n", "2",
                                     "--modulation", "qam256", "--trials", "20"),
    "check-crit9-drop-relay0": ("--design-file", "DESIGN", "--modulation", "qam4"),
}
# the report fields a check line hashes
CHECK_FIELDS = ("criterion", "passed", "samples_tested", "witness", "analytic_certificate",
                "coverage")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def non_diagonal_bbh_code():
    """N = T = 2 with relay columns [z1 + z2, z1] and [z2, z1]:
    B_0 B_0^H = [[2, 1], [1, 1]] is not diagonal."""
    a, b = np.array([[1, 0], [1, 1]]), np.array([[1, 1], [0, 0]])
    return from_design(LinearDesign.from_weights(np.stack([a, 1j * a, b, 1j * b])))


def main() -> int:
    designs = {"non-diagonal-bbh": non_diagonal_bbh_code(),
               _DROPPED: drop_relays(preset("alamouti", 4, 2, 2), [0])}
    with tempfile.TemporaryDirectory() as tmp:
        design_files = {}
        for name, design in designs.items():
            design_files[name] = str(Path(tmp) / f"{name}.json")
            Path(design_files[name]).write_text(json.dumps(code_to_dict(design)))
        for name, (code, modulation, nd, grid, cap, target) in CONFIGS.items():
            if isinstance(code, str):
                spec = dict(design_file=design_files[code])
            else:
                spec = dict(zip(("preset", "N", "lam", "n"), code))
            code_object = None
            if isinstance(modulation, SignalSet):
                code_object, modulation = preset(*code, modulation), None
            for decoder in DECODERS:
                for seed in (0, 1):
                    cfg = ExperimentConfig(
                        decoder=decoder, modulation=modulation, nd=nd, snr_grid_db=grid,
                        max_trials=cap, max_bit_errors=target, master_seed=seed, **spec)
                    try:
                        out, kind = run_ber(cfg, code_object).to_csv(), "csv"
                    except ValueError as e:
                        out, kind = str(e), "refused"
                    print(f"{name} {decoder} seed={seed} {kind} {sha256(out)}", flush=True)
        for name, argv in CHECK_RUNS.items():
            argv = [design_files[_DROPPED] if a == "DESIGN" else a for a in argv]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["check", *argv, "--criterion", "all", "--seed", "0"])
            reports = [{f: r[f] for f in CHECK_FIELDS}
                       | {"min_singular_value": f"{r['min_singular_value']:.9g}"}
                       for r in json.loads(out.getvalue())]
            print(f"{name} exit={code} {sha256(json.dumps(reports))}", flush=True)
    for name, argv in CLI_RUNS.items():
        for seed in (0, 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["simulate", *argv, "--seed", str(seed)])
            print(f"{name} seed={seed} exit={code} {sha256(out.getvalue())}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
