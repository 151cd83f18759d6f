"""The benchmark's workloads: their inputs, their rounds and their checks.

A round runs every operation of a workload once. An operation is one SNR
point of a simulation or one criterion report. Rounds repeat the same
inputs, so every round must give byte-identical output; the first round is
the canonical output that the once-per-run checks read.

Workloads build their codes in `build` (the set-up the benchmark times as
setup_s) and touch dstbc only through its public functions.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json

import numpy as np

import checks
from reference import ReferenceLink, bits_per_codeword

RAISED = "raised"


def _scaled(value: int, scale: float) -> int:
    return max(1, int(round(value * scale)))


class Simulation:
    """BER sweeps of one code over one SNR grid, under one or more decoders."""

    def __init__(self, name, code_args, decoders, grid, cap, target, scale=1.0,
                 via_cli=False, reference=(), ref_trials=0, slope_window=None,
                 twin=None, ordering=False):
        self.name = name
        self.code_args = code_args  # preset, N, lam, n, modulation, nd
        self.decoders = list(decoders)
        self.grid = tuple(float(s) for s in grid)
        self.cap = _scaled(cap, scale)
        self.target = _scaled(target, scale) if target else 10**9
        self.via_cli = via_cli
        self.reference = list(reference)  # (decoder, SNR point index)
        self.ref_trials = _scaled(ref_trials, scale)
        self.slope_window = slope_window
        self.twin = twin  # decoder whose bit-error counts must match exactly
        self.ordering = ordering
        self.seed = 0
        self.code = None

    # -- set-up --------------------------------------------------------------
    def build(self):
        from dstbc.construct import preset
        from dstbc.harness import modulation_set

        a = self.code_args
        self.code = preset(a["preset"], a["N"], a["lam"], a["n"],
                           modulation_set(a["modulation"]))
        self.bits_per_cw = bits_per_codeword(self.code)
        if self.via_cli:
            import dstbc.cli  # noqa: F401  (resolved at call time in run_round)

    def warm(self):
        """Exercise every code path once, untimed, so lazy set-up is done."""
        for d in self.decoders:
            self._simulate(d, grid=self.grid[:1], cap=min(self.cap, 512))

    def ops(self):
        return [(d, i) for d in self.decoders for i in range(len(self.grid))]

    def _config(self, decoder, grid=None, cap=None):
        from dstbc.harness import ExperimentConfig

        a = self.code_args
        return ExperimentConfig(
            decoder=decoder, preset=a["preset"], N=a["N"], lam=a["lam"], n=a["n"],
            modulation=a["modulation"], nd=a["nd"],
            snr_grid_db=self.grid if grid is None else grid,
            max_trials=self.cap if cap is None else cap,
            max_bit_errors=self.target, master_seed=self.seed,
        )

    def _argv(self, decoder):
        a = self.code_args
        step = self.grid[1] - self.grid[0] if len(self.grid) > 1 else 1.0
        return [
            "simulate", "--preset", a["preset"], "--N", str(a["N"]),
            "--lambda", str(a["lam"]), "--n", str(a["n"]),
            "--modulation", a["modulation"], "--nd", str(a["nd"]),
            "--decoder", decoder, "--snr-start", f"{self.grid[0]:g}",
            "--snr-stop", f"{self.grid[-1]:g}", "--snr-step", f"{step:g}",
            "--trials", str(self.cap), "--max-errors", str(self.target),
            "--seed", str(self.seed),
        ]

    def _simulate(self, decoder, grid=None, cap=None) -> str:
        import dstbc.harness as harness

        if self.via_cli and grid is None and cap is None:
            import dstbc.cli as cli

            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(self._argv(decoder))
            if rc != 0:
                raise RuntimeError(f"dstbc simulate exited with {rc}")
            return out.getvalue()
        return harness.run_ber(self._config(decoder, grid, cap), self.code).to_csv()

    # -- one round -------------------------------------------------------------
    def run_round(self):
        outputs, trials = {}, 0
        for d in self.decoders:
            try:
                outputs[d] = self._simulate(d)
                trials += sum(p["trials"] for p in checks.parse_csv(outputs[d]))
            except Exception as e:  # an operation that raises counts as failed
                outputs[d] = e
        return outputs, trials

    def round_problems(self, outputs, canonical):
        probs = []
        for d in self.decoders:
            out = outputs[d]
            if isinstance(out, Exception):
                probs += [((d, i), RAISED, repr(out)) for i in range(len(self.grid))]
                continue
            try:
                points = checks.parse_csv(out)
            except ValueError as e:
                probs += [((d, i), "csv", str(e)) for i in range(len(self.grid))]
                continue
            if len(points) != len(self.grid):
                probs += [((d, i), "csv", "wrong row count") for i in range(len(self.grid))]
                continue
            for i, msgs in checks.point_problems(points, self.cap, self.target,
                                                 self.bits_per_cw).items():
                probs += [((d, i), "point", m) for m in msgs]
            ref = canonical.get(d)
            if isinstance(ref, str):
                for i in checks.csv_mismatches(ref, out):
                    probs.append(((d, i), "identical-csv",
                                  "CSV differs from the first round (other worker count)"))
        return probs

    # -- once per run, on the canonical outputs --------------------------------
    def final_problems(self, canonical):
        probs = []
        points = {}
        for d in self.decoders:
            if not isinstance(canonical.get(d), str):
                return probs  # nothing to check; the round already failed
            points[d] = checks.parse_csv(canonical[d])
        m = self.bits_per_cw
        for d in self.decoders:
            stopped = [i for i, p in enumerate(points[d])
                       if p["bit_errors"] >= self.target]
            for i in stopped:
                p = points[d][i]
                if p["trials"] == 1:
                    continue
                prefix = checks.parse_csv(self._simulate(
                    d, grid=self.grid[:i + 1], cap=p["trials"] - 1))[i]
                msg = checks.first_stop_problem(p, prefix, self.target)
                if msg:
                    probs.append(([(d, i)], "first-stop", msg))
        if self.slope_window is not None:
            d = self.decoders[0]
            msg = checks.slope_problem(points[d], self.slope_window, m)
            if msg:
                top = max(p["snr_db"] for p in points[d]) - self.slope_window
                probs.append(([(d, i) for i, p in enumerate(points[d]) if p["snr_db"] >= top],
                              "slope", msg))
        if self.twin is not None:
            d = self.decoders[0]
            twin = checks.parse_csv(self._simulate(self.twin))
            for i, (a, b) in enumerate(zip(points[d], twin)):
                if (a["trials"], a["bit_errors"]) != (b["trials"], b["bit_errors"]):
                    probs.append(([(d, i)], "twin-decoder",
                                  f"{d} {a['bit_errors']} vs {self.twin} "
                                  f"{b['bit_errors']} bit errors"))
        if self.ordering:
            for i in range(len(self.grid)):
                msgs = checks.ordering_problem(points["ml"][i], points["pic-sic"][i],
                                               points["pic"][i], m)
                probs += [([(d, i) for d in ("ml", "pic-sic", "pic")], "ordering", msg)
                          for msg in msgs]
        for d, i in self.reference:
            p = points[d][i]
            link = ReferenceLink(self.code, d, self.code_args["nd"])
            ref = link.errors(self.grid[i], self.ref_trials, self.seed)
            msg = checks.reference_band_problem(p["bit_errors"], p["trials"], ref, m)
            if msg:
                probs.append(([(d, i)], "reference", msg))
        return probs

    def chunks_consumed(self, canonical, chunk):
        """Chunks the ordered consumer reads in one round (the one a point
        stops in included)."""
        return sum(-(-p["trials"] // chunk) for d in self.decoders
                   for p in checks.parse_csv(canonical[d]))


def sweep_codes():
    """The 45 criterion-6 sweep codes: alamouti and scalar presets over
    N in {2,4,6,8}, lam in {1,2}, n in {1,2,3}; PAM-2 or rotated QAM-4."""
    from dstbc.constellation import make_pam, make_rotated_qam, rotation_2d
    from dstbc.construct import build
    from dstbc.design import cod_alamouti, cod_trivial

    qam, pam = make_rotated_qam(4, rotation_2d()), make_pam(2)
    out = []
    for n_relays, lam, n in itertools.product((2, 4, 6, 8), (1, 2), (1, 2, 3)):
        gset = pam if lam == 1 else qam
        if n_relays % 2 == 0 and lam <= n_relays // 2:
            out.append((f"alamouti-N{n_relays}-l{lam}-n{n}",
                        build(n_relays, cod_alamouti(), lam, n, gset)))
        if lam <= n_relays:
            out.append((f"scalar-N{n_relays}-l{lam}-n{n}",
                        build(n_relays, cod_trivial(), lam, n, gset)))
    return out


def duplicated_column_code():
    """Alamouti weights with relay 0's column copied into relay 1: every
    combination is rank deficient, so PIC-SIC must fail."""
    from dstbc.constellation import make_pam
    from dstbc.construct import from_design
    from dstbc.design import LinearDesign, cod_alamouti

    w = cod_alamouti().design.weights[:, :, [0, 0]]
    return from_design(LinearDesign.from_weights(w)).with_sets(make_pam(2))


class CheckSweep:
    """check_pic_sic, check_pic and check_zf on the sweep codes and the
    duplicated-column counterexample."""

    name = "check-sweep"
    criteria = ("check_pic_sic", "check_pic", "check_zf")

    def __init__(self, trials=100, scale=1.0):
        self.trials = _scaled(trials, scale)
        self.seed = 0
        self.codes = None

    def build(self):
        import dstbc.diversity as diversity

        self.threshold = float(getattr(diversity, "REL_SV_THRESHOLD", 1e-8))
        self.codes = sweep_codes() + [("duplicated-column", duplicated_column_code())]

    def warm(self):
        """Exercise every criterion once, untimed, so lazy set-up is done."""
        import dstbc.diversity as diversity

        for fn in self.criteria:
            getattr(diversity, fn)(self.codes[0][1], 10, np.random.default_rng(0))

    def ops(self):
        return [(tag, fn) for tag, _ in self.codes for fn in self.criteria]

    def run_round(self):
        import dstbc.diversity as diversity

        rng = np.random.default_rng(self.seed)
        outputs, tests = {}, 0
        for tag, code in self.codes:
            for fn in self.criteria:
                try:
                    rep = getattr(diversity, fn)(code, self.trials, rng)
                    tests += rep.samples_tested
                    outputs[(tag, fn)] = rep
                except Exception as e:  # an operation that raises counts as failed
                    outputs[(tag, fn)] = e
        return outputs, tests

    def round_problems(self, outputs, canonical):
        probs = []
        for tag, code in self.codes:
            dup = tag == "duplicated-column"
            for fn in self.criteria:
                op, rep = (tag, fn), outputs[(tag, fn)]
                if isinstance(rep, Exception):
                    probs.append((op, RAISED, repr(rep)))
                    continue
                msgs = checks.report_problems(
                    rep, code.design.weights, code.grouping.groups, self.threshold,
                    must_pass=not dup and fn != "check_zf",
                    must_fail=dup and fn == "check_pic_sic",
                    must_certify=not dup and fn == "check_pic_sic",
                )
                first = canonical.get(op)
                if not isinstance(first, Exception) and first is not None and \
                        json.dumps(first.to_dict()) != json.dumps(rep.to_dict()):
                    msgs.append("report differs from the first round")
                probs += [(op, "report", m) for m in msgs]
        return probs

    def final_problems(self, canonical):
        return []


def make_workload(name: str, seed: int, scale: float = 1.0):
    """The named workload with inputs drawn from `seed`."""
    if name == "ber-sweep-pam2":
        wl = Simulation(
            name, dict(preset="scalar", N=2, lam=1, n=2, modulation="pam2", nd=2),
            ["pic-sic"], grid=(2, 5, 8, 11, 14), cap=16384, target=400, scale=scale,
            via_cli=True, reference=[("pic-sic", 2)], ref_trials=8192,
            slope_window=9.0,
        )
    elif name == "ber-pam8-zfsic":
        wl = Simulation(
            name, dict(preset="alamouti", N=8, lam=1, n=3, modulation="pam8", nd=1),
            ["zf-sic"], grid=(10, 15, 20), cap=1024, target=0, scale=scale,
            reference=[("zf-sic", 1)], ref_trials=4096, twin="pic-sic",
        )
    elif name == "ber-qam4-crit9":
        wl = Simulation(
            name, dict(preset="alamouti", N=4, lam=2, n=2, modulation="qam4", nd=4),
            ["pic", "pic-sic", "ml"], grid=(6,), cap=512, target=0, scale=scale,
            reference=[("pic", 0), ("pic-sic", 0), ("ml", 0)], ref_trials=1024,
            ordering=True,
        )
    elif name == "check-sweep":
        wl = CheckSweep(trials=100, scale=scale)
    else:
        raise ValueError(f"unknown workload {name!r}")
    wl.seed = seed
    return wl


WORKLOADS = ("ber-sweep-pam2", "ber-pam8-zfsic", "ber-qam4-crit9", "check-sweep")
