"""The package's lazy exports, and which modules each entry point loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dstbc

ROOT = Path(__file__).resolve().parents[1]

# the names the package exported when it imported every module, by module
OLD_EXPORTS = {
    "constellation": ["RotationMatrix", "SignalSet", "difference_set", "identity_rotation",
                      "make_pam", "make_rotated_qam", "rotation_2d", "verify_rotation"],
    "design": ["CodProfile", "LinearDesign", "cod_alamouti", "cod_trivial", "evaluate",
               "verify_cod"],
    "construct": ["ConjugateLinearForm", "DstbcCode", "GroupingScheme", "NotConjugateLinear",
                  "bits_per_channel_use", "build", "contiguous_grouping", "drop_relays",
                  "extract_relay_form", "from_design", "preset", "rate_cspcu"],
    "channel": ["PowerConfig", "RelayChannel"],
    "decode": ["DECODERS", "GroupDecoder"],
    "diversity": ["CriterionReport", "check_pic", "check_pic_sic", "check_zf",
                  "cod_certificate", "relay_failure_sweep"],
    "harness": ["BerCurve", "ExperimentConfig", "estimate_diversity_slope", "run_ber"],
}
ENGINE = {"dstbc.harness", "dstbc.channel", "dstbc.decode"}

_CLI = """
import contextlib, io
from dstbc import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert cli.main({argv!r}) == 0
"""


def loaded_after(code: str) -> set:
    """The dstbc modules a fresh interpreter has loaded after running code."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, cwd=ROOT,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).stdout
    return {m for m in json.loads(out.splitlines()[-1]) if m.startswith("dstbc.")}


def test_import_loads_no_module():
    assert loaded_after("import dstbc; dstbc.__version__") == set()


@pytest.mark.parametrize("code, loads", [
    ("import dstbc.diversity", "dstbc.diversity"),
    (_CLI.format(argv=["info", "--preset", "alamouti", "--N", "4", "--n", "2"]),
     "dstbc.construct"),
    (_CLI.format(argv=["check", "--preset", "alamouti", "--N", "4", "--criterion", "all",
                       "--trials", "10"]), "dstbc.diversity"),
], ids=["diversity", "info", "check"])
def test_engine_not_loaded(code, loads):
    loaded = loaded_after(code)
    assert loads in loaded and not loaded & ENGINE


def test_simulate_loads_no_diversity():
    loaded = loaded_after(_CLI.format(argv=[
        "simulate", "--preset", "scalar", "--N", "2", "--snr-start", "0", "--snr-stop", "0",
        "--trials", "64"]))
    assert "dstbc.harness" in loaded and "dstbc.diversity" not in loaded


def test_old_exports_resolve_to_their_module_objects():
    names = [name for names in OLD_EXPORTS.values() for name in names]
    assert sorted(dstbc.__all__) == sorted(names)
    namespace = {}
    exec("from dstbc import *", namespace)
    for module, names in OLD_EXPORTS.items():
        mod = importlib.import_module(f"dstbc.{module}")
        assert getattr(dstbc, module) is mod
        for name in names:
            assert getattr(dstbc, name) is getattr(mod, name) is namespace[name]
            assert name in dir(dstbc)
    assert dstbc.cli is importlib.import_module("dstbc.cli")
    assert {"cli", "harness", "__version__"} <= set(dir(dstbc))
    with pytest.raises(AttributeError, match="has no attribute 'group_symbols'"):
        dstbc.group_symbols  # noqa: B018


def test_traced_names_restored():
    # the tracer wraps run_ber in every dstbc module that holds it; the
    # package holds no copy, so after restore it reads the original again
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        tracing = importlib.import_module("tracing")
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))
    import dstbc.harness as harness

    original = harness.run_ber
    tracer = tracing.install(tracing.Tracer())
    try:
        assert dstbc.run_ber is harness.run_ber is not original
    finally:
        tracer.restore()
    assert dstbc.run_ber is harness.run_ber is original
    assert not set(vars(dstbc)) & set(dstbc.__all__)
