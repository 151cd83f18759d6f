"""Acceptance suite: one test per acceptance criterion, at stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion. The statistical criteria (8 and 9) run multi-minute
Monte-Carlo experiments; the whole module is sized for a laptop.
"""

import itertools
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from dstbc.channel import PowerConfig, RelayChannel
from dstbc.constellation import make_pam, make_rotated_qam, rotation_2d
from dstbc.construct import (
    bits_per_channel_use,
    build,
    from_design,
    GroupingScheme,
    rate_cspcu,
)
from dstbc.design import LinearDesign, cod_alamouti, cod_trivial, evaluate, verify_cod
from dstbc.diversity import REL_SV_THRESHOLD, _relative_sv, check_pic_sic
from dstbc.harness import ExperimentConfig, estimate_diversity_slope, run_ber
from tests.helpers import (
    _realify_cov,
    _whitener,
    codeword_column,
    covariance,
    noise_bound,
    rvec,
)
from tests.test_decode import cn, observed_problem, x_hat


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {desc}")
        raise
    print(f"[PASS] criterion {num}: {desc}")


def test_criterion_01_cod_algebra():
    with criterion(1, "COD identities and Gram property"):
        rng = np.random.default_rng(101)
        for cod in (cod_trivial(), cod_alamouti()):
            assert verify_cod(cod)
            for _ in range(100):
                x = rng.standard_normal(cod.design.K)
                m = evaluate(cod.design, x)
                gram = m.conj().T @ m
                assert np.abs(gram - np.sum(x**2) * np.eye(cod.design.N)).max() < 1e-10


def test_criterion_02_construction_arithmetic():
    with criterion(2, "construction parameters and exact rates"):
        pam8_code = build(8, cod_alamouti(), 1, 3, make_pam(8))
        assert pam8_code.T2 == 12 and pam8_code.T1 == 6 and pam8_code.K == 12
        assert rate_cspcu(pam8_code) == Fraction(1, 3)
        assert bits_per_channel_use(pam8_code) == 2

        qam16_code = build(6, cod_alamouti(), 2, 2, make_rotated_qam(16, rotation_2d()))
        assert qam16_code.T2 == 8 and qam16_code.T1 == 8 and qam16_code.K == 16
        assert rate_cspcu(qam16_code) == Fraction(1, 2)
        assert bits_per_channel_use(qam16_code) == 2

        checked = 0
        for n in (1, 2, 3):
            for N in (2, 4, 6, 8):
                for lam in range(1, N // 2 + 1):
                    code = build(N, cod_alamouti(), lam, n)
                    want = Fraction(lam) / (Fraction(lam + 1) + Fraction(N - 2, 2 * n))
                    assert rate_cspcu(code) == want
                    checked += 1
                for lam in (1, min(2, N), N):
                    code = build(N, cod_trivial(), lam, n)
                    want = Fraction(lam) / (Fraction(lam + 1) + Fraction(N - 1, n))
                    assert rate_cspcu(code) == want
                    checked += 1
        assert checked >= 20


def test_criterion_03_conjugate_linear_extraction():
    with criterion(3, "relay form reconstruction, T1 and S"):
        rng = np.random.default_rng(103)
        cases = [
            (build(8, cod_alamouti(), 1, 3), 2 * 3 * 1, {1, 3, 5, 7}),
            (build(6, cod_alamouti(), 2, 2), 2 * 2 * 2, {1, 3, 5}),
            (build(4, cod_trivial(), 2, 2), 2 * 2, set()),
            (build(3, cod_trivial(), 1, 2), 2 * 1, set()),
        ]
        for code, t1, s in cases:
            form = code.relay_form
            assert form.T1 == t1
            assert form.S == frozenset(s)
            for _ in range(100):
                x = rng.standard_normal(code.K)
                xmat = evaluate(code.design, x)
                z = form.V @ x
                for j in range(code.N):
                    col = codeword_column(form, j, z)
                    assert np.abs(col - xmat[:, j]).max() < 1e-10


def test_criterion_04_noise_model():
    with criterion(4, "noise covariance oracle, whitening, trace bound"):
        rng = np.random.default_rng(104)
        code = build(2, cod_alamouti(), 1, 1)
        power = PowerConfig.balanced(code, 10.0)
        channel = RelayChannel(code)
        n = 100_000
        for _ in range(3):
            f, gm = cn(rng, 1, 2), cn(rng, 1, 2, 2)
            gammas = _realify_cov(covariance(channel, gm, power))
            gamma, whitener, dim = gammas[0], _whitener(gammas)[0][0], gammas.shape[1]
            y = channel.transmit(np.zeros((n, code.K)), f.repeat(n, axis=0), gm.repeat(n, axis=0),
                                 cn(rng, n, 2, code.T1), cn(rng, n, code.T2, 2), power)
            draws = rvec(y)
            emp = draws.T @ draws / draws.shape[0]
            rel = np.linalg.norm(emp - gamma) / np.linalg.norm(gamma)
            assert rel < 0.03, f"covariance mismatch {rel:.4f}"
            white = draws @ whitener.T
            emp_w = white.T @ white / white.shape[0]
            rel_w = (np.linalg.norm(emp_w - np.eye(dim))
                     / np.linalg.norm(np.eye(dim)))
            assert rel_w < 0.03, f"whitened covariance mismatch {rel_w:.4f}"
        assert noise_bound(channel, cn(rng, 100, 2, 2), power).all()


def test_criterion_05_decoder_equivalences():
    with criterion(5, "PIC/ML, ZF aliases, noiseless recovery"):
        rng = np.random.default_rng(105)
        single = from_design(
            cod_trivial().design, GroupingScheme(((0, 1),))
        ).with_sets(make_rotated_qam(4, rotation_2d()))
        g, y, _ = observed_problem(single, 2, 3.0, rng, trials=100)
        np.testing.assert_array_equal(x_hat("pic", single, g, y), x_hat("ml", single, g, y))

        lam1 = build(4, cod_alamouti(), 1, 2, make_pam(4))
        g, y, _ = observed_problem(lam1, 2, 8.0, rng, trials=100)
        np.testing.assert_array_equal(x_hat("zf", lam1, g, y), x_hat("pic", lam1, g, y))
        np.testing.assert_array_equal(
            x_hat("zf-sic", lam1, g, y), x_hat("pic-sic", lam1, g, y)
        )

        rotated = build(6, cod_alamouti(), 2, 2, make_rotated_qam(16, rotation_2d()))
        g, y, x0 = observed_problem(rotated, 2, 50.0, rng, trials=100, noiseless=True)
        np.testing.assert_allclose(x_hat("pic", rotated, g, y), x0)
        np.testing.assert_allclose(x_hat("pic-sic", rotated, g, y), x0)


def _sweep_codes():
    qam = make_rotated_qam(4, rotation_2d())
    pam = make_pam(2)
    for N, lam, n in itertools.product((2, 4, 6, 8), (1, 2), (1, 2, 3)):
        gset = pam if lam == 1 else qam
        if N % 2 == 0 and lam <= N // 2:
            yield ("alamouti", N, lam, n), build(N, cod_alamouti(), lam, n, gset)
        if lam <= N:
            yield ("scalar", N, lam, n), build(N, cod_trivial(), lam, n, gset)


def _deficient(code, k, a_k, u, interference_idx):
    w = code.design.weights
    mat = np.einsum("g,gtn->tn", a_k, w[list(code.grouping.groups[k])])
    if len(interference_idx):
        mat = mat + np.einsum("c,ctn->tn", u, w[list(interference_idx)])
    return float(_relative_sv(mat[None])[0]) <= REL_SV_THRESHOLD


def test_criterion_06_criteria_sweep():
    with criterion(6, "PIC-SIC sweep with certificates, counterexample, nesting"):
        rng = np.random.default_rng(106)
        for tag, code in _sweep_codes():
            report = check_pic_sic(code, 1000, rng)
            assert report.passed, f"{tag} failed: {report}"
            assert report.analytic_certificate is True, f"{tag} not certified"

        dup = from_design(
            LinearDesign.from_weights(cod_alamouti().design.weights[:, :, [0, 0]])
        ).with_sets(make_pam(2))
        rep = check_pic_sic(dup, 50, rng)
        assert not rep.passed and rep.witness is not None
        # witness nesting: the PIC-SIC witness embeds into the PIC index set
        # and the combined direction is a ZF witness
        k = rep.witness.k
        tail = dup.grouping.tail(k)
        comp = dup.grouping.complement(k)
        u_pic = np.zeros(len(comp))
        for idx, val in zip(tail, rep.witness.u):
            u_pic[comp.index(idx)] = val
        assert _deficient(dup, k, rep.witness.a_k, u_pic, comp)
        u_full = np.zeros(dup.K)
        u_full[list(dup.grouping.groups[k])] = rep.witness.a_k
        for idx, val in zip(tail, rep.witness.u):
            u_full[idx] = val
        assert float(
            _relative_sv(np.einsum("k,ktn->tn", u_full, dup.design.weights)[None])[0]
        ) <= REL_SV_THRESHOLD


def test_criterion_07_relay_failure():
    with criterion(7, "single-relay drops keep PIC-SIC full diversity"):
        from dstbc.diversity import relay_failure_sweep

        code = build(4, cod_alamouti(), 1, 2, make_pam(2))
        reports = relay_failure_sweep(code, 1, trials=300,
                                      rng=np.random.default_rng(107))
        singles = [(s, r) for s, r in reports if len(s) == 1]
        assert len(singles) == 4
        for sub, rep in singles:
            assert rep.passed, f"drop {sub} failed"


@pytest.mark.slow
def test_criterion_08_diversity_slope():
    with criterion(8, "empirical diversity slope in [1.6, 2.6]"):
        cfg = ExperimentConfig(
            decoder="pic-sic", preset="scalar", N=2, lam=1, n=2,
            modulation="pam2", nd=2, snr_grid_db=(14.0, 18.0, 22.0),
            max_trials=1_600_000, max_bit_errors=300, master_seed=2024,
        )
        curve = run_ber(cfg)
        for p in curve.points:
            print(f"  snr {p['snr_db']:g} dB: ber {p['ber']:.3g} "
                  f"({p['bit_errors']} errors / {p['trials']} trials)")
            assert p["bit_errors"] >= 100
        slope = estimate_diversity_slope(curve, 10.0)
        print(f"  slope estimate: {slope:.3f}")
        assert 1.6 <= slope <= 2.6


@pytest.mark.slow
def test_criterion_09_decoder_ordering():
    with criterion(9, "BER(ML) <= BER(PIC-SIC) + 3s <= BER(PIC) + 6s"):
        base = dict(
            preset="alamouti", N=4, lam=2, n=2, modulation="qam4", nd=4,
            snr_grid_db=(6.0,), max_trials=6000, max_bit_errors=10**9,
            master_seed=109,
        )
        bers = {}
        for dec in ("pic", "pic-sic", "ml"):
            pt = run_ber(ExperimentConfig(decoder=dec, **base)).points[0]
            nbits = pt["trials"] * 16
            sigma = float(np.sqrt(pt["ber"] * (1 - pt["ber"]) / nbits))
            bers[dec] = (pt["ber"], sigma)
            print(f"  {dec}: ber {pt['ber']:.5f} (sigma {sigma:.2g})")
        assert bers["ml"][0] <= bers["pic-sic"][0] + 3 * bers["pic-sic"][1]
        assert bers["pic-sic"][0] <= bers["pic"][0] + 3 * bers["pic"][1]


def test_criterion_10_reproducibility(tmp_path, monkeypatch, capsys):
    with criterion(10, "simulate is byte-identical across DSTBC_THREADS"):
        from dstbc.cli import main

        argv = [
            "simulate", "--preset", "toeplitz", "--N", "2", "--n", "2",
            "--nd", "2", "--decoder", "pic-sic", "--snr-start", "6",
            "--snr-stop", "12", "--snr-step", "3", "--trials", "3000",
            "--max-errors", "120", "--seed", "31",
        ]
        monkeypatch.setenv("DSTBC_THREADS", "1")
        out1 = tmp_path / "a.csv"
        assert main(argv + ["--out", str(out1)]) == 0
        monkeypatch.setenv("DSTBC_THREADS", "2")
        out2 = tmp_path / "b.csv"
        assert main(argv + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
