import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dstbc import cli
from dstbc.cli import MAX_SNR_POINTS, _snr_grid, main
from dstbc.construct import build, code_to_dict, drop_relays, preset
from dstbc.decode import DECODERS, GroupDecoder
from dstbc.design import cod_trivial
from dstbc.harness import ExperimentConfig, run_ber
from tests.helpers import accumulated_snr_grid


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestInfo:
    def test_n8_lam1_n3_parameters(self, capsys):
        code, out, _ = run(
            capsys, "info", "--preset", "example1", "--N", "8", "--lambda", "1",
            "--n", "3",
        )
        assert code == 0
        assert "R   = 1/3" in out
        assert "T2  = 12" in out
        assert "T1  = 6" in out
        assert "K   = 12" in out

    def test_bpcu_with_modulation(self, capsys):
        code, out, _ = run(
            capsys, "info", "--preset", "example1", "--N", "8", "--lambda", "1",
            "--n", "3", "--modulation", "pam8",
        )
        assert code == 0 and "bpcu = 2" in out

    def test_needs_exactly_one_source(self, capsys):
        code, _, err = run(capsys, "info", "--N", "4")
        assert code == 2

    def test_unknown_preset(self, capsys):
        code, _, err = run(capsys, "info", "--preset", "bogus", "--N", "2")
        assert code == 2

    @pytest.mark.parametrize("modulation", ["pamx", "pam"])
    def test_modulation_without_an_order_is_usage_error(self, capsys, modulation):
        code, _, err = run(capsys, "info", "--preset", "example1", "--N", "2",
                           "--modulation", modulation)
        assert code == 2 and "modulation must be pamM or qamM" in err

    def test_zero_relays_is_usage_error(self, capsys):
        code, _, err = run(capsys, "info", "--preset", "example1", "--N", "0")
        assert code == 2 and "N must be a positive multiple" in err


class TestCheck:
    def test_certified_pass(self, capsys):
        code, out, _ = run(
            capsys, "check", "--preset", "example1", "--N", "4", "--lambda", "2",
            "--n", "2", "--trials", "50",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["analytic_certificate"] is True

    def test_failing_code_exits_one(self, capsys, tmp_path):
        from dstbc.construct import from_design
        from dstbc.design import LinearDesign, cod_alamouti

        w = cod_alamouti().design.weights[:, :, [0, 0]]
        doc = code_to_dict(from_design(LinearDesign.from_weights(w)))
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys, "check", "--design-file", str(path), "--trials", "20",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["passed"] is False and doc["witness"] is not None

    def test_negative_trials_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "check", "--preset", "toeplitz", "--N", "2", "--n", "2",
            "--trials", "-5", "--criterion", "all",
        )
        assert code == 2 and out == ""
        assert "trials must be >= 0, got -5" in err

    def test_negative_seed_names_the_flag(self, capsys):
        code, out, err = run(capsys, "check", "--preset", "toeplitz", "--N", "2", "--n", "2",
                             "--trials", "5", "--seed", "-1")
        assert code == 2 and out == "" and "--seed must be a non-negative integer" in err

    def test_all_criteria(self, capsys):
        code, out, _ = run(
            capsys, "check", "--preset", "toeplitz", "--N", "2", "--n", "2",
            "--trials", "20", "--criterion", "all",
        )
        assert code == 0
        docs = json.loads(out)
        assert [d["criterion"] for d in docs] == ["PIC", "PIC-SIC", "ZF"]

    def test_zf_needs_no_alphabet(self, capsys, tmp_path):
        # a group of three symbols has no default alphabet; PIC and PIC-SIC refuse it
        path = tmp_path / "code.json"
        path.write_text(json.dumps(_CODE | {"grouping": [[0, 1, 2], [3]]}))
        code, out, _ = run(capsys, "check", "--design-file", str(path), "--trials", "20",
                           "--criterion", "zf")
        assert code == 0 and json.loads(out)["passed"] is True


class TestRelayDropDocument:
    """The criterion-9 code with relay 0 dropped, written by code_to_dict: the
    scan flips the component whose lowest column was dropped."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "dropped.json"
        path.write_text(json.dumps(code_to_dict(drop_relays(preset("alamouti", 4, 2, 1), [0]))))
        return str(path)

    def test_info(self, capsys, path):
        code, out, _ = run(capsys, "info", "--design-file", path)
        assert code == 0 and "N   = 3" in out and "S   = [2]" in out

    def test_simulate(self, capsys, path):
        code, out, _ = run(capsys, "simulate", "--design-file", path, "--snr-start", "10",
                           "--snr-stop", "10", "--trials", "64")
        assert code == 0 and len(out.splitlines()) == 2


class TestSimulate:
    def test_missing_grid_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--preset", "toeplitz", "--N", "2", "--n", "2",
        )
        assert code == 2

    def test_malformed_grid_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--preset", "toeplitz", "--N", "2", "--n", "2",
            "--snr-start", "20", "--snr-stop", "10",
        )
        assert code == 2

    @pytest.mark.parametrize("step", ["0", "-1", "nan"])
    def test_non_positive_step_is_usage_error(self, capsys, step):
        code, out, err = run(
            capsys, "simulate", "--preset", "toeplitz", "--N", "2", "--n", "2",
            "--snr-start", "0", "--snr-stop", "2", "--snr-step", step, "--trials", "10",
        )
        assert code == 2 and out == ""
        assert "--snr-step must be positive" in err

    @pytest.mark.parametrize("flag,grid", [
        ("--snr-stop", ["--snr-start", "0", "--snr-stop", "inf"]),
        ("--snr-start", ["--snr-start=-inf", "--snr-stop", "0"]),
        ("--snr-start", ["--snr-start", "nan", "--snr-stop", "2"]),
        ("--snr-stop", ["--snr-start", "0", "--snr-stop", "nan"]),
    ], ids=["stop-inf", "start-minus-inf", "start-nan", "stop-nan"])
    def test_non_finite_snr_flag_is_usage_error(self, capsys, flag, grid):
        # an infinite bound once never left the grid loop
        code, out, err = run(capsys, "simulate", "--preset", "toeplitz", "--N", "2", "--n", "2",
                             *grid, "--trials", "10")
        assert code == 2 and out == "" and f"{flag} must be finite" in err

    # grids as flags give them: start and step in hundredths of a dB, stop on a
    # grid point, off it, or 1e-12 dB around a point
    @settings(deadline=None, max_examples=300)
    @given(start=st.integers(-4000, 4000), step=st.integers(1, 1000), points=st.integers(0, 500),
           past=st.integers(0, 999), nudge=st.sampled_from([0.0, 1e-12, -1e-12]))
    def test_counted_grid_equals_accumulated_grid(self, start, step, points, past, nudge):
        stop = (start + points * step + past % step) / 100
        start, step = start / 100, step / 100
        stop = max(start, stop + nudge)
        assert _snr_grid(start, stop, step) == accumulated_snr_grid(start, stop, step)

    def test_grid_point_bound(self):
        assert len(_snr_grid(0.0, MAX_SNR_POINTS - 1.0, 1.0)) == MAX_SNR_POINTS
        with pytest.raises(ValueError, match=f"^--snr-step must give at most {MAX_SNR_POINTS} "):
            _snr_grid(0.0, float(MAX_SNR_POINTS), 1.0)
        # with the step left at its default of 1 dB, the bound names the stop
        with pytest.raises(ValueError, match=f"^--snr-stop must give at most {MAX_SNR_POINTS} "):
            _snr_grid(0.0, float(MAX_SNR_POINTS), None)

    def test_small_run_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "curve.csv"
        code, _, _ = run(
            capsys, "simulate", "--preset", "toeplitz", "--N", "2", "--n", "2",
            "--nd", "2", "--decoder", "zf-sic", "--snr-start", "8",
            "--snr-stop", "12", "--snr-step", "4", "--trials", "200",
            "--seed", "3", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "snr_db,trials,bit_errors,ber"
        assert len(lines) == 3

    def test_unwritable_out_refused_before_the_run(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr("dstbc.harness.run_ber",
                            lambda *args: pytest.fail("run_ber was called"))
        path = tmp_path / "missing" / "curve.csv"
        code, out, err = run(capsys, "simulate", *_TOEPLITZ, *_GRID, "--out", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: --out must be a file that can be written, got '{path}: ")

    def test_out_file_kept_until_the_run_ends(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("earlier results\n" * 50)
        argv = ("simulate", *_TOEPLITZ, *_GRID, "--out", str(path))

        def refused(*args):
            raise ValueError("nd must be >= 1, got 0")

        with monkeypatch.context() as mp:
            mp.setattr("dstbc.harness.run_ber", refused)
            assert run(capsys, *argv)[0] == 2
        assert path.read_text() == "earlier results\n" * 50
        assert run(capsys, *argv)[0] == 0
        assert path.read_text() == run(capsys, *argv[:-2])[1]

    def test_refused_run_removes_the_out_file_it_created(self, capsys, tmp_path):
        # one group of four symbols has no default alphabet: run_ber refuses
        # the run after --out is opened
        doc = code_to_dict(preset("alamouti", 2, 1, 1)) | {"grouping": [[0, 1, 2, 3]]}
        design = tmp_path / "code.json"
        design.write_text(json.dumps(doc))
        path = tmp_path / "curve.csv"
        argv = ("simulate", "--design-file", str(design), *_GRID, "--out", str(path))
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: modulation must be given")
        assert not path.exists()
        path.write_text("earlier results\n")
        assert run(capsys, *argv)[0] == 2
        assert path.read_text() == "earlier results\n"

    def test_stdout_output(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--preset", "toeplitz", "--N", "2", "--n", "2",
            "--snr-start", "10", "--snr-stop", "10", "--trials", "50",
            "--seed", "1",
        )
        assert code == 0
        assert out.startswith("snr_db,trials,bit_errors,ber")

    def test_config_file_with_override(self, capsys, tmp_path):
        cfg = dict(
            decoder="pic-sic", preset="toeplitz", N=2, n=2, modulation="pam2",
            nd=1, snr_grid_db=[10.0], max_trials=50, max_bit_errors=1000,
            master_seed=1,
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run(
            capsys, "simulate", "--config", str(path), "--trials", "25",
        )
        assert code == 0
        assert ",25," in out.strip().split("\n")[1]

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "simulate", "--frobnicate")
        assert code == 2

    @pytest.mark.parametrize("doc,named", [
        ([1], "must hold a JSON object"),
        ('{"preset": "toeplitz",}', "must hold valid JSON"),
        ({"snr_grid_db": 5}, "snr_grid_db must be a list of numbers"),
        ({"snr_grid_db": [10, "12"]}, "snr_grid_db must be a list of numbers"),
        ({"max_trials": "10"}, "max_trials must be an integer"),
        ({"nd": 1.5}, "nd must be an integer"),
        ({"master_seed": True}, "master_seed must be an integer"),
        ({"pi1": "1"}, "pi1 must be a number"),
        ({"modulation": 4}, "modulation must be a string"),
        ({"decoder": None}, "decoder must be a string"),
        ({"preset": ["toeplitz"]}, "preset must be a string"),
        ({"design_file": 1}, "design_file must be a string"),
    ], ids=["list", "syntax", "grid-number", "grid-string", "max_trials-string", "nd-float",
            "seed-bool", "pi1-string", "modulation-int", "decoder-null", "preset-list",
            "design_file-int"])
    def test_malformed_config_is_usage_error(self, capsys, tmp_path, doc, named):
        base = dict(preset="toeplitz", N=2, n=2, modulation="pam2", snr_grid_db=[10.0],
                    max_trials=20)
        path = tmp_path / "cfg.json"
        if isinstance(doc, dict):
            doc = base | doc
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code, out, err = run(capsys, "simulate", "--config", str(path))
        assert code == 2 and out == "" and named in err
        if not isinstance(doc, dict):
            assert str(path) in err

    @pytest.mark.parametrize("seed", [str(2**64), "-1"])
    def test_seed_outside_64_bits_is_usage_error(self, capsys, seed):
        code, out, err = run(
            capsys, "simulate", "--preset", "toeplitz", "--N", "2", "--n", "2",
            "--snr-start", "10", "--snr-stop", "10", "--trials", "20", "--seed", seed,
        )
        assert code == 2 and out == "" and f"master_seed must lie in [0, 2**64), got {seed}" in err

    def test_unknown_config_key_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"preset": "toeplitz", "N": 2, "bogus_key": 1}))
        code, _, err = run(capsys, "simulate", "--config", str(path))
        assert code == 2


_PAIRS = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]  # one 2 x 2 weight as [re, im] pairs


@pytest.mark.parametrize("doc,named", [
    ([1, 2], "must hold a JSON object"),
    ('{"T": 2, x}', "must hold valid JSON"),
    ({"T": 2, "N": 2, "weights": [_PAIRS]}, "design field 'K' must be present"),
    ({"T": 2, "N": 2, "K": 1}, "design field 'weights' must be present"),
    ({"T": "2", "N": 2, "K": 1, "weights": [_PAIRS]}, "field 'T'"),
    ({"T": 2, "N": 0, "K": 1, "weights": [_PAIRS]}, "field 'N'"),
    ({"T": 2, "N": 2, "K": 1, "weights": [[[1, 0]]]}, "field 'weights'"),
    ({"T": 2, "N": 2, "K": 1, "weights": [[[1, 0], [0, 0]], [[0, 0]]]}, "field 'weights'"),
    ({"T": 2, "N": 2, "K": 1, "weights": [[[[1, 0], [0, 0]], [[0, 0], ["1", 0]]]]},
     "field 'weights'"),
    *[({"T": 2, "N": 2, "K": 1, "weights": [[[[1, 0], [0, 0]], [[0, 0], [bad, 0]]]]},
       "design field 'weights' must hold K x T x N = 1 x 2 x 2 [re, im] pairs of finite numbers")
      for bad in (float("nan"), float("inf"), -float("inf"))],
], ids=["list", "syntax", "no-K", "no-weights", "T-string", "N-zero", "weights-short",
        "weights-ragged", "weights-string", "weights-nan", "weights-inf", "weights-minus-inf"])
def test_malformed_design_file_is_usage_error(capsys, tmp_path, doc, named):
    path = tmp_path / "design.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code, out, err = run(capsys, "info", "--design-file", str(path))
    assert code == 2 and out == "" and named in err
    if not isinstance(doc, dict):
        assert str(path) in err


@pytest.mark.parametrize("field,value", [
    ("grouping", 5), ("grouping", [[0, 1], [2]]), ("grouping", [[1, 0], [2], [3]]),
    ("S", 3), ("S", [0, 1.0]), ("T1", "x"), ("T1", True), ("pairing", [[0]]),
    ("pairing", [[0, 1], [1, 2]]),
], ids=["grouping-int", "grouping-missing-symbol", "grouping-descending", "S-int",
        "S-float", "T1-string", "T1-bool", "pairing-single", "pairing-repeat"])
def test_malformed_code_field_is_usage_error(capsys, tmp_path, field, value):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(code_to_dict(build(2, cod_trivial(), 1, 2)) | {field: value}))
    code, out, err = run(capsys, "info", "--design-file", str(path))
    assert code == 2 and out == "" and f"code field {field!r}" in err


@pytest.mark.parametrize("field,value", [("grouping", [[0, 1], [2, 3]]),
                                         ("pairing", [[1, 0], [3, 2]])])
def test_well_formed_code_field_accepted(capsys, tmp_path, field, value):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(code_to_dict(build(2, cod_trivial(), 1, 2)) | {field: value}))
    code, _, _ = run(capsys, "info", "--design-file", str(path))
    assert code == 0


_CFG = dict(preset="toeplitz", N=2, n=2, modulation="pam2", snr_grid_db=[10.0], max_trials=20)
_TOEPLITZ = ("--preset", "toeplitz", "--N", "2", "--n", "2")
_GRID = ("--snr-start", "10", "--snr-stop", "10", "--trials", "20")
_EXAMPLE1_LAM2 = ("--preset", "example1", "--N", "4", "--lambda", "2")
_CODE = code_to_dict(build(2, cod_trivial(), 1, 2))
# id: (argv with FILE for the input file, the file's document or text (None: the file is
# never written), environment, the name the refusal starts with)
_REFUSALS = {
    "config-nd": (("simulate", "--config", "FILE"), _CFG | {"nd": 1.5}, {}, "nd"),
    "config-pi1": (("simulate", "--config", "FILE"), _CFG | {"pi1": "1"}, {}, "pi1"),
    "config-grid": (("simulate", "--config", "FILE"), _CFG | {"snr_grid_db": []}, {},
                    "snr_grid_db"),
    "config-errors": (("simulate", "--config", "FILE"), _CFG | {"max_bit_errors": 0}, {},
                      "max_bit_errors"),
    "config-decoder": (("simulate", "--config", "FILE"), _CFG | {"decoder": "magic"}, {},
                       "decoder"),
    "config-source": (("simulate", "--config", "FILE"), _CFG | {"preset": None}, {},
                      "exactly one of preset and design_file"),
    "config-modulation": (("simulate", "--config", "FILE"), _CFG | {"modulation": "psk8"}, {},
                          "modulation"),
    "config-key": (("simulate", "--config", "FILE"), _CFG | {"bogus": 1}, {}, "config file FILE"),
    "config-list": (("simulate", "--config", "FILE"), [1], {}, "config file FILE"),
    "config-syntax": (("simulate", "--config", "FILE"), "{", {}, "config file FILE"),
    "config-missing": (("simulate", "--config", "FILE"), None, {}, "config file FILE"),
    "design-weights": (("info", "--design-file", "FILE"), {"T": 2, "N": 2, "K": 1}, {},
                       "design field 'weights'"),
    "design-T": (("info", "--design-file", "FILE"), {"T": 0, "N": 2, "K": 1, "weights": []}, {},
                 "design field 'T'"),
    "design-syntax": (("info", "--design-file", "FILE"), "[", {}, "design file FILE"),
    "design-missing": (("info", "--design-file", "FILE"), None, {}, "design file FILE"),
    "code-grouping": (("info", "--design-file", "FILE"), _CODE | {"grouping": [[1, 0], [2], [3]]},
                      {}, "code field 'grouping'"),
    "code-pairing": (("info", "--design-file", "FILE"), _CODE | {"pairing": [[0]]}, {},
                     "code field 'pairing'"),
    "code-S": (("info", "--design-file", "FILE"), _CODE | {"S": [0]}, {}, "code field 'S'"),
    "code-T1": (("info", "--design-file", "FILE"), _CODE | {"T1": 3}, {}, "code field 'T1'"),
    "flag-N": (("info", "--preset", "example1", "--N", "3"), None, {}, "N"),
    "flag-lambda": (("info", *_TOEPLITZ, "--lambda", "2"), None, {}, "lam"),
    "flag-preset": (("info", "--preset", "bogus", "--N", "2"), None, {}, "preset"),
    "check-trials": (("check", *_TOEPLITZ, "--trials", "-5"), None, {}, "trials"),
    "check-seed": (("check", *_TOEPLITZ, "--seed", "-1"), None, {}, "--seed"),
    "flag-snr-pair": (("simulate", *_TOEPLITZ, "--snr-start", "10"), None, {},
                      "--snr-start and --snr-stop"),
    "flag-snr-step": (("simulate", *_TOEPLITZ, *_GRID, "--snr-step", "0"), None, {}, "--snr-step"),
    "flag-snr-start": (("simulate", *_TOEPLITZ, "--snr-start", "inf", "--snr-stop", "10"), None,
                       {}, "--snr-start"),
    "flag-seed": (("simulate", *_TOEPLITZ, *_GRID, "--seed", "-1"), None, {}, "master_seed"),
    "env-threads": (("simulate", *_TOEPLITZ, *_GRID), None, {"DSTBC_THREADS": "0"},
                    "DSTBC_THREADS"),
    "env-threads-bound": (("simulate", *_TOEPLITZ, *_GRID), None, {"DSTBC_THREADS": "100000"},
                          "DSTBC_THREADS"),
    "config-pi1-range": (("simulate", "--config", "FILE"), _CFG | {"pi1": 5}, {}, "pi1"),
    **{f"flag-modulation-{m}": (("info", "--preset", "example1", "--N", "2", "--modulation", m),
                                None, {}, "modulation") for m in ("pam3", "pam1", "qam8")},
    "flag-modulation-qam4-lam1": (("info", *_TOEPLITZ, "--modulation", "qam4"), None, {},
                                  "modulation"),
    "flag-modulation-pam2-lam2": (("info", *_EXAMPLE1_LAM2, "--modulation", "pam2"), None, {},
                                  "modulation"),
    "design-no-alphabet": (("simulate", "--design-file", "FILE", *_GRID),
                           _CODE | {"grouping": [[0, 1, 2], [3]]}, {}, "modulation"),
    "design-no-alphabet-check": (("check", "--design-file", "FILE", "--trials", "20"),
                                 _CODE | {"grouping": [[0, 1, 2], [3]]}, {}, "modulation"),
    "design-no-relay-form": (("simulate", "--design-file", "FILE", *_GRID),
                             {"T": 1, "N": 1, "K": 1, "weights": [[[[1, 0]]]]}, {}, "design_file"),
    "flag-decoder-zf-rotated": (("simulate", *_EXAMPLE1_LAM2, "--modulation", "qam4",
                                 "--decoder", "zf", *_GRID), None, {}, "decoder"),
    "flag-decoder-ml-cap": (("simulate", *_TOEPLITZ, "--modulation", "pam64", "--decoder", "ml",
                             *_GRID), None, {}, "decoder"),
    "flag-decoder-unknown": (("simulate", *_TOEPLITZ, *_GRID, "--decoder", "magic"), None, {},
                             "decoder"),
    **{f"flag-snr-step-{step}": (("simulate", *_TOEPLITZ, "--snr-start", "2", "--snr-stop", "14",
                                  "--snr-step", step), None, {}, "--snr-step")
       for step in ("1e-300", "5e-324")},
    "flag-snr-stop-bound": (("simulate", *_TOEPLITZ, "--snr-start", "0", "--snr-stop", "20000"),
                            None, {}, "--snr-stop"),
    "config-grid-max-snr": (("simulate", "--config", "FILE"), _CFG | {"snr_grid_db": [1e308]}, {},
                            "snr_grid_db"),
    "flag-snr-max-snr": (("simulate", *_TOEPLITZ, "--snr-start", "1600", "--snr-stop", "1600"),
                         None, {}, "snr_grid_db"),
}


@pytest.mark.parametrize("argv,doc,env,name", _REFUSALS.values(), ids=_REFUSALS.keys())
def test_refusal_reads_name_must_what_got_value(capsys, monkeypatch, tmp_path, argv, doc, env,
                                                name):
    path = tmp_path / "input.json"
    if doc is not None:
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code, out, err = run(capsys, *(str(path) if a == "FILE" else a for a in argv))
    assert code == 2 and out == ""
    assert re.match(f"error: {re.escape(name.replace('FILE', str(path)))} must .*, got .", err)


@pytest.mark.parametrize("argv,doc", [row[:2] for row in _REFUSALS.values() if row[3] == "decoder"],
                         ids=[key for key, row in _REFUSALS.items() if row[3] == "decoder"])
def test_decoder_refusal_is_the_library_message(capsys, tmp_path, argv, doc):
    path = tmp_path / "input.json"
    if doc is not None:
        path.write_text(json.dumps(doc))
    code, _, err = run(capsys, *(str(path) if a == "FILE" else a for a in argv))
    if doc is None:  # the config fields the flags set
        flags = vars(cli._build_parser().parse_args(argv))
        doc = {k: flags[k] for k in ("preset", "N", "lam", "n", "modulation", "decoder")
               if flags[k] is not None} | {"snr_grid_db": [10.0]}
    with pytest.raises(ValueError) as library:
        run_ber(ExperimentConfig(**doc))
    assert code == 2 and err == f"error: {library.value}\n"


def test_simulate_builds_one_decoder(capsys, monkeypatch):
    built = []
    init = GroupDecoder.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(GroupDecoder, "__init__", counting)
    code, _, _ = run(capsys, "simulate", *_TOEPLITZ, *_GRID, "--decoder", "zf-sic")
    assert code == 0 and built == ["zf-sic"]


def test_design_file_round_trip_via_cli(capsys, tmp_path):
    code_obj = build(2, cod_trivial(), 1, 2)
    path = tmp_path / "code.json"
    path.write_text(json.dumps(code_to_dict(code_obj)))
    code, out, _ = run(capsys, "info", "--design-file", str(path))
    assert code == 0
    assert "T1  = 2" in out


def test_simulate_help_lists_every_decoder(capsys):
    code, out, _ = run(capsys, "simulate", "--help")
    assert code == 0 and all(d in out for d in DECODERS)


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "[PASS] cod identities" in out
    assert "[FAIL]" not in out
