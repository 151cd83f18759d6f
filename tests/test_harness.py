import json

import numpy as np
import pytest

from dstbc.channel import (
    PowerConfig,
    draw_cn,
    ChannelRealization,
    effective_channel,
    equivalent_real_channel,
    noise_covariance,
    rvec,
    simulate_transmission,
    whiten,
)
from dstbc.constellation import identity_rotation, make_pam, make_rotated_qam
from dstbc.construct import build, code_to_dict, from_design, GroupingScheme
from dstbc.decode import (
    DecodeProblem,
    ml_decode,
    pic_decode,
    pic_sic_decode,
    zf_decode,
    zf_sic_decode,
)
from dstbc.design import cod_trivial
from dstbc.harness import (
    BerCurve,
    ExperimentConfig,
    _Engine,
    estimate_diversity_slope,
    mix_seed,
    modulation_set,
    run_ber,
    snr_db_to_power,
    worker_count,
)


def small_config(**kw):
    base = dict(
        decoder="pic-sic", preset="scalar", N=2, lam=1, n=2, modulation="pam2",
        nd=2, snr_grid_db=(10.0,), max_trials=500, max_bit_errors=10**9,
        master_seed=7,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestSlopeEstimator:
    def _curve(self, snrs, bers):
        pts = tuple(
            {"snr_db": s, "trials": 1000, "bit_errors": 1, "ber": b}
            for s, b in zip(snrs, bers)
        )
        return BerCurve(pts, {}, 0.0)

    def test_exact_power_law(self):
        snrs = [10.0, 15.0, 20.0, 25.0, 30.0]
        bers = [snr_db_to_power(s) ** -2.0 for s in snrs]
        slope = estimate_diversity_slope(self._curve(snrs, bers), 10.0)
        assert abs(slope - 2.0) < 1e-9

    def test_flat_curve(self):
        slope = estimate_diversity_slope(
            self._curve([0.0, 5.0, 10.0], [0.1, 0.1, 0.1]), 10.0
        )
        assert abs(slope) < 1e-12

    def test_window_selects_top_decade(self):
        # slope 1 below 20 dB, slope 3 above; a 10 dB window sees only the top
        snrs = [10.0, 20.0, 25.0, 30.0]
        bers = [1e-1, 1e-2, 10 ** (-2 - 1.5), 10 ** (-2 - 3)]
        slope = estimate_diversity_slope(self._curve(snrs, bers), 10.0)
        assert abs(slope - 3.0) < 1e-9

    def test_insufficient_points(self):
        with pytest.raises(ValueError):
            estimate_diversity_slope(self._curve([10.0], [1e-2]), 10.0)
        with pytest.raises(ValueError):
            estimate_diversity_slope(
                self._curve([10.0, 20.0], [1e-2, 0.0]), 5.0
            )


class TestSeedMixing:
    def test_deterministic_and_distinct(self):
        a = mix_seed(1, 2, 3)
        assert a == mix_seed(1, 2, 3)
        assert a != mix_seed(1, 2, 4)
        assert a != mix_seed(2, 2, 3)
        assert 0 <= a < 2**64

    def test_no_collisions_in_small_window(self):
        seeds = {mix_seed(9, s, t) for s in range(4) for t in range(10000)}
        assert len(seeds) == 40000


SINGLE_TRIAL_DECODERS = {
    "pic": pic_decode, "pic-sic": pic_sic_decode, "zf": zf_decode,
    "zf-sic": zf_sic_decode, "ml": ml_decode,
}


def _pam2_code():
    return build(2, cod_trivial(), 1, 2, make_pam(2))


def _unrotated_qam4_code():
    # lambda = 2 groups whose alphabet factors per coordinate, so ZF decodes
    # per symbol and maps level pairs back to QAM points through the label map
    return build(2, cod_trivial(), 2, 2, make_rotated_qam(4, identity_rotation(2)))


class TestEngineCrossCheck:
    @pytest.mark.parametrize("decoder,make_code", [
        pytest.param(d, _pam2_code, id=d) for d in SINGLE_TRIAL_DECODERS
    ] + [pytest.param("zf-sic", _unrotated_qam4_code, id="zf-sic-unrotated-qam4")])
    def test_batched_equals_single_trial_pipeline(self, decoder, make_code):
        code = make_code()
        power = PowerConfig.balanced(code, snr_db_to_power(6.0))
        engine = _Engine(code, decoder, 2)
        seeds = [mix_seed(3, 0, i) for i in range(150)]
        batched = engine.chunk_bit_errors(power, seeds)

        singles = []
        for seed in seeds:
            rng = np.random.default_rng(seed)
            bits = rng.integers(0, 2, sum(s.bits_per_point for s in code.group_sets))
            x = np.empty(code.K)
            tx = []
            pos = 0
            for grp, s in zip(code.grouping.groups, code.group_sets):
                label = 0
                for b in bits[pos:pos + s.bits_per_point]:
                    label = (label << 1) | int(b)
                idx = int(s.index_of_label[label])
                tx.append(idx)
                x[list(grp)] = s.points[idx]
                pos += s.bits_per_point
            real = ChannelRealization(draw_cn(rng, code.N), draw_cn(rng, (code.N, 2)))
            y = simulate_transmission(code, x, real, power, rng)
            model = noise_covariance(code, real, power)
            h = effective_channel(code, real)
            gp = equivalent_real_channel(code.design, h, power.rho)
            g, yw = whiten(model, gp, rvec(y))
            problem = DecodeProblem(g, yw, code.grouping, code.group_sets)
            x_hat = SINGLE_TRIAL_DECODERS[decoder](problem).x_hat
            errs = 0
            for k, (grp, s) in enumerate(zip(code.grouping.groups, code.group_sets)):
                # nearest point: ZF decisions carry per-coordinate levels
                rx = int(np.argmin(np.sum((s.points - x_hat[list(grp)]) ** 2, axis=1)))
                errs += bin(int(s.labels[tx[k]]) ^ int(s.labels[rx])).count("1")
            singles.append(errs)
        assert batched.sum() > 0  # the comparison must see actual errors
        np.testing.assert_array_equal(batched, np.array(singles))


class TestRunBer:
    def test_high_snr_is_error_free(self):
        curve = run_ber(small_config(snr_grid_db=(60.0,), max_trials=100))
        assert curve.points[0]["ber"] == 0.0
        assert curve.points[0]["trials"] == 100

    def test_reproducible_across_thread_counts(self, monkeypatch):
        cfg = small_config(snr_grid_db=(6.0, 10.0), max_trials=1500, max_bit_errors=80)
        monkeypatch.setenv("DSTBC_THREADS", "1")
        a = run_ber(cfg).to_csv()
        monkeypatch.setenv("DSTBC_THREADS", "2")
        b = run_ber(cfg).to_csv()
        monkeypatch.setenv("DSTBC_THREADS", "3")
        c = run_ber(cfg).to_csv()
        assert a == b == c

    def test_seed_changes_results(self):
        a = run_ber(small_config(snr_grid_db=(6.0,), master_seed=1))
        b = run_ber(small_config(snr_grid_db=(6.0,), master_seed=2))
        assert a.points[0]["bit_errors"] != b.points[0]["bit_errors"]

    def test_early_stop_accounting(self):
        cfg = small_config(snr_grid_db=(0.0,), max_trials=100000, max_bit_errors=25)
        pt = run_ber(cfg).points[0]
        assert pt["bit_errors"] >= 25
        assert pt["trials"] < 100000
        assert pt["ber"] == pt["bit_errors"] / (pt["trials"] * 4)  # 4 bits/codeword

    def test_ml_equals_single_group_pic(self, tmp_path):
        code = from_design(cod_trivial().design, GroupingScheme(((0, 1),)))
        doc = code_to_dict(code)
        path = tmp_path / "code.json"
        path.write_text(json.dumps(doc))
        base = dict(
            design_file=str(path), preset=None, N=None, modulation="qam4",
            nd=2, snr_grid_db=(4.0,), max_trials=2000, max_bit_errors=10**9,
            master_seed=11,
        )
        a = run_ber(ExperimentConfig(decoder="ml", **base))
        b = run_ber(ExperimentConfig(decoder="pic", **base))
        assert a.points[0]["bit_errors"] == b.points[0]["bit_errors"]
        assert a.points[0]["bit_errors"] > 0

    def test_zf_sic_equals_pic_sic_for_lam1(self):
        a = run_ber(small_config(decoder="zf-sic", snr_grid_db=(8.0,), max_trials=800))
        b = run_ber(small_config(decoder="pic-sic", snr_grid_db=(8.0,), max_trials=800))
        assert a.points[0]["bit_errors"] == b.points[0]["bit_errors"]

    def test_zf_on_rotated_groups_refused(self):
        cfg = ExperimentConfig(
            decoder="zf", preset="scalar", N=4, lam=2, n=2, modulation="qam16",
            nd=2, snr_grid_db=(10.0,), max_trials=10, master_seed=0,
        )
        with pytest.raises(ValueError):
            run_ber(cfg)

    def test_ml_candidate_cap_enforced(self):
        cfg = ExperimentConfig(
            decoder="ml", preset="alamouti", N=4, lam=2, n=3, modulation="qam16",
            nd=1, snr_grid_db=(10.0,), max_trials=10, master_seed=0,
        )
        with pytest.raises(ValueError):
            run_ber(cfg)

    def test_pam8_zf_sic_setup_runs(self):
        # the 2 bpcu, rate-1/3 single-receive-antenna configuration
        from dstbc.construct import bits_per_channel_use
        from dstbc.harness import resolve_code

        cfg = ExperimentConfig(
            decoder="zf-sic", preset="alamouti", N=8, lam=1, n=3,
            modulation="pam8", nd=1, snr_grid_db=(20.0,), max_trials=200,
            max_bit_errors=10**9, master_seed=4,
        )
        assert bits_per_channel_use(resolve_code(cfg)) == 2
        pt = run_ber(cfg).points[0]
        assert pt["trials"] == 200
        assert 0 <= pt["ber"] < 0.5

    def test_saved_lam2_code_simulates_after_reload(self, tmp_path):
        # interleaved symbol pairing survives the JSON round trip
        from dstbc.constellation import make_rotated_qam, rotation_2d
        from dstbc.design import cod_alamouti

        code = build(6, cod_alamouti(), 2, 2, make_rotated_qam(4, rotation_2d()))
        path = tmp_path / "lam2.json"
        path.write_text(json.dumps(code_to_dict(code)))
        cfg = ExperimentConfig(
            decoder="pic-sic", design_file=str(path), preset=None,
            modulation="qam4", nd=2, snr_grid_db=(8.0,), max_trials=300,
            max_bit_errors=10**9, master_seed=5,
        )
        pt = run_ber(cfg).points[0]
        assert pt["trials"] == 300


class TestCsvAndConfig:
    def test_csv_schema(self):
        curve = run_ber(small_config(max_trials=50, snr_grid_db=(5.0, 10.0)))
        lines = curve.to_csv().strip().split("\n")
        assert lines[0] == "snr_db,trials,bit_errors,ber"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "5" and first[1] == "50"

    def test_ber_six_significant_digits(self):
        pts = ({"snr_db": 1.0, "trials": 7, "bit_errors": 3, "ber": 1 / 7},)
        text = BerCurve(pts, {}, 0.0).to_csv()
        assert text.strip().split("\n")[1].endswith("0.142857")

    def test_config_json_round_trip(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.__dict__ | {"snr_grid_db": [10.0]}))
        loaded = ExperimentConfig.from_json(path)
        assert loaded == cfg

    def test_flag_overrides_file(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.__dict__ | {"snr_grid_db": [10.0]}))
        loaded = ExperimentConfig.from_json(path, master_seed=99, decoder="zf-sic")
        assert loaded.master_seed == 99 and loaded.decoder == "zf-sic"
        assert loaded.N == cfg.N

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            small_config(snr_grid_db=()).validate()
        with pytest.raises(ValueError):
            small_config(snr_grid_db=(10.0, 5.0)).validate()
        with pytest.raises(ValueError):
            small_config(decoder="magic").validate()
        with pytest.raises(ValueError):
            small_config(preset=None).validate()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_snr_grid_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            small_config(snr_grid_db=(0.0, bad)).validate()

    @pytest.mark.parametrize("value", ["two", "1.5"])
    def test_non_integer_thread_count_rejected(self, monkeypatch, value):
        monkeypatch.setenv("DSTBC_THREADS", value)
        with pytest.raises(ValueError, match="DSTBC_THREADS"):
            worker_count()


def test_modulation_set_parsing():
    assert modulation_set("pam8").size == 8
    assert modulation_set("qam16").dim == 2
    with pytest.raises(ValueError):
        modulation_set("psk8")


def test_ber_matches_closed_form_single_relay():
    """End-to-end absolute check against an independent derivation.

    For the one-relay scalar code with binary symbols the exact BER is
    available: conditioned on the relay-to-destination gain power t, the
    whitened detection SNR is rho*u*t/(relay_gain*t + 1) with u the
    source-to-relay gain power, and averaging the Gaussian tail over
    u ~ Exp(1) in closed form leaves a one-dimensional integral,

        BER = int_0^inf 1/2 (1 - sqrt(c/(2+c))) e^{-t} dt,
        c(t) = rho*t / (relay_gain*t + 1),

    evaluated here with the t = s^2 substitution (the integrand has a
    sqrt kink at 0) and fine trapezoids. Validates the power split, noise
    amplification, whitening and bit accounting of the whole pipeline.
    """
    snr_db = 10.0
    p_lin = snr_db_to_power(snr_db)
    rho = 2 * p_lin * p_lin / (p_lin + 1)  # pi1 = 1, pi2 = 1/R = 2
    relay_gain = 2 * p_lin / (p_lin + 1)
    s = np.linspace(0.0, 8.0, 16001)
    t = s * s
    c = rho * t / (relay_gain * t + 1.0)
    integrand = 0.5 * (1.0 - np.sqrt(c / (2.0 + c))) * np.exp(-t) * 2 * s
    expected = float(np.sum((integrand[1:] + integrand[:-1]) * np.diff(s)) / 2)

    cfg = ExperimentConfig(
        decoder="pic", preset="scalar", N=1, lam=1, n=1, modulation="pam2",
        nd=1, snr_grid_db=(snr_db,), max_trials=150_000,
        max_bit_errors=10**9, master_seed=23,
    )
    pt = run_ber(cfg).points[0]
    sigma = np.sqrt(expected * (1 - expected) / (pt["trials"] * 2))
    assert abs(pt["ber"] - expected) < 4 * sigma
