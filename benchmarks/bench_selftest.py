"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest -q benchmarks/bench_selftest.py

A tiny run of every workload checks the plumbing; the other tests feed each
correctness check a deliberately wrong input and expect it to be rejected.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
from reference import ReferenceLink, power_split  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, duplicated_column_code  # noqa: E402

E2E = {"trials_per_s": "trials/s", "trials_per_s_1w": "trials/s", "ops_per_s": "ops/s",
       "setup_s": "s", "peak_rss_mb": "MiB"}


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_of_every_workload(trace):
    p = _run("--workload", "all", "--seed", "3", "--seconds", "1", "--scale", "0.05",
             "--trace", trace)
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    assert lines[0].startswith("env ")
    env = json.loads(lines[0][4:])
    assert env["blas"]["threads"] in (1, "unknown") and env["nproc"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = ({m["name"]: m["unit"] for m in spec["end_to_end"]} if trace == "0"
            else {m["name"]: m["unit"] for m in spec["per_layer"]})
    if trace == "0":
        assert want == E2E
    for name in WORKLOADS:
        line = next(ln for ln in lines if ln.startswith(f"result {name} "))
        res = json.loads(line.split(" ", 2)[2])
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["attempted"] >= 1 and 0 <= res["failed"] <= res["attempted"]
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want
        if trace == "0":
            assert all(v["value"] > 0 for v in res["metrics"].values())
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = _run("--workload", "check-sweep", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert p.returncode != 0
    assert not p.stdout.strip()


def _curve(rows):
    text = checks.CSV_HEADER + "\n" + "".join(
        f"{s:g},{t},{e},{e / (t * 4):.6g}\n" for s, t, e in rows)
    return text, checks.parse_csv(text)


GOOD = [(2, 800, 400), (5, 1700, 400), (8, 4000, 400), (11, 12800, 400), (14, 16384, 150)]


def test_point_checks_accept_a_valid_curve():
    _, pts = _curve(GOOD)
    assert checks.point_problems(pts, 16384, 400, 4) == {}
    assert checks.slope_problem(pts, 6.0, 4) is None


def test_point_checks_reject_rising_ber():
    _, pts = _curve([(2, 800, 400), (5, 700, 400)])
    assert 1 in checks.point_problems(pts, 16384, 400, 4)


def test_point_checks_reject_wrong_ber_and_bounds():
    _, pts = _curve(GOOD)
    pts[0]["ber_text"] = "0.125001"
    assert 0 in checks.point_problems(pts, 16384, 400, 4)
    _, pts = _curve([(2, 100, 200)])  # BER 1/2 is not strictly below 1/2
    assert 0 in checks.point_problems(pts, 16384, 400, 4)
    _, pts = _curve([(2, 16384, 0)])
    assert 0 in checks.point_problems(pts, 16384, 400, 4)


def test_point_checks_reject_a_short_capped_point():
    _, pts = _curve([(2, 1000, 399)])  # stopped below both target and cap
    assert 0 in checks.point_problems(pts, 16384, 400, 4)


def test_csv_differing_by_one_byte_is_rejected():
    text, _ = _curve(GOOD)
    other = text.replace("12800,400", "12800,401", 1)
    assert len(other) == len(text)
    assert checks.csv_mismatches(text, other) == [3]
    assert checks.csv_mismatches(text, text) == []


def test_late_stop_is_rejected():
    point = {"trials": 100, "bit_errors": 402}
    assert checks.first_stop_problem(point, {"trials": 99, "bit_errors": 398}, 400) is None
    assert checks.first_stop_problem(point, {"trials": 99, "bit_errors": 401}, 400)


def test_shallow_slope_is_rejected():
    _, pts = _curve([(8, 4000, 400), (11, 6000, 400), (14, 9000, 400)])
    assert checks.slope_problem(pts, 6.0, 4)


def test_decoder_ordering_violation_is_rejected():
    def p(ber):
        return {"ber": ber, "trials": 512}
    assert checks.ordering_problem(p(0.033), p(0.034), p(0.035), 16) == []
    assert checks.ordering_problem(p(0.060), p(0.034), p(0.035), 16)
    assert checks.ordering_problem(p(0.033), p(0.060), p(0.035), 16)


def test_reference_band():
    rng = np.random.default_rng(0)
    ref = rng.binomial(4, 0.03, size=8192)
    inside = int(round(0.03 * 4000 * 4))
    assert checks.reference_band_problem(inside, 4000, ref, 4) is None
    assert checks.reference_band_problem(2 * inside, 4000, ref, 4)


def _alamouti():
    from dstbc.constellation import make_pam
    from dstbc.construct import build
    from dstbc.design import cod_alamouti

    return build(2, cod_alamouti(), 1, 1, make_pam(2))


def _report(criterion, passed, min_sv, witness=None, cert=None):
    return SimpleNamespace(criterion=criterion, passed=passed, min_singular_value=min_sv,
                           witness=witness, analytic_certificate=cert)


def test_full_rank_zf_witness_is_rejected():
    code = _alamouti()
    w, groups = code.design.weights, code.grouping.groups
    witness = SimpleNamespace(k=None, a_k=None, u=np.eye(code.K)[0])
    msgs = checks.report_problems(_report("ZF", False, 0.0, witness), w, groups, 1e-8)
    assert any("not rank deficient" in m for m in msgs)


def test_real_counterexample_witness_is_confirmed():
    from dstbc.diversity import check_pic_sic, check_zf

    dup = duplicated_column_code()
    w, groups = dup.design.weights, dup.grouping.groups
    for rep in (check_pic_sic(dup, 20, np.random.default_rng(1)),
                check_zf(dup, 20, np.random.default_rng(1))):
        assert checks.report_problems(rep, w, groups, 1e-8, must_fail=True) == []


def test_inconsistent_passing_reports_are_rejected():
    code = _alamouti()
    w, groups = code.design.weights, code.grouping.groups
    assert checks.report_problems(_report("PIC-SIC", True, 1e-9, cert=True), w, groups, 1e-8)
    assert checks.report_problems(_report("PIC-SIC", True, 0.5, cert=None), w, groups, 1e-8,
                                  must_certify=True)
    assert checks.report_problems(_report("PIC-SIC", True, 0.5), w, groups, 1e-8,
                                  must_fail=True)
    assert checks.report_problems(_report("PIC-SIC", True, 0.5, cert=True), w, groups,
                                  1e-8, must_pass=True, must_certify=True) == []


def test_reference_power_split_matches_the_model():
    from dstbc.channel import PowerConfig

    code = _alamouti()
    gain, amp1, rho = power_split(code, 13.0)
    pc = PowerConfig.balanced(code, 10 ** 1.3)
    assert np.isclose(gain, pc.relay_gain) and np.isclose(rho, pc.rho)
    assert np.isclose(amp1, np.sqrt(pc.pi1 * pc.P))


def test_reference_split_ml_equals_full_enumeration():
    from dstbc.constellation import make_rotated_qam, rotation_2d
    from dstbc.construct import build
    from dstbc.design import cod_alamouti

    code = build(4, cod_alamouti(), 2, 1, make_rotated_qam(4, rotation_2d()))
    link = ReferenceLink(code, "ml", 2)
    tx, gw, yw = link._transmit(np.random.default_rng(5), 16, 4.0)
    got = link._decide(gw, yw)
    sizes = [p.shape[0] for p in link.points]
    grid = np.indices(sizes).reshape(len(sizes), -1).T
    x_all = np.zeros((grid.shape[0], link.k))
    for gi, grp in enumerate(link.groups):
        x_all[:, grp] = link.points[gi][grid[:, gi]]
    for i in range(16):
        res = yw[i][:, None] - gw[i] @ x_all.T
        np.testing.assert_array_equal(got[i], grid[np.argmin((res * res).sum(0))])


def test_tracer_reports_absent_stages_and_restores():
    target = SimpleNamespace(work=lambda x: x + 1)
    orig = target.work
    t = Tracer()
    assert t.wrap(target, "work", "demo.work")
    assert not t.wrap(target, "gone", "demo.gone")
    assert target.work(1) == 2 and t.count("demo.work") == 1
    t.restore()
    assert target.work is orig and t.absent == ["demo.gone"]
