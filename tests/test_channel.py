import numpy as np
import pytest

from dstbc.channel import (
    ChannelRealization,
    PowerConfig,
    draw_cn,
    draw_realization,
    effective_channel,
    equivalent_real_channel,
    noise_bound,
    noise_covariance,
    rvec,
    simulate_transmission,
    whiten,
)
from dstbc.construct import build
from dstbc.design import cod_alamouti, cod_trivial, evaluate


def _alamouti_code():
    return build(2, cod_alamouti(), 1, 1)


class TestPowerConfig:
    def test_balanced_split_is_one_over_rate(self):
        code = build(8, cod_alamouti(), 1, 3)
        cfg = PowerConfig.balanced(code, 10.0)
        assert abs(cfg.pi2 - 3.0) < 1e-12  # R = 1/3
        assert cfg.satisfies_constraint(code)

    def test_rho_formula(self):
        cfg = PowerConfig(4.0, 1.0, 2.0)
        assert abs(cfg.rho - 1.0 * 2.0 * 16.0 / 5.0) < 1e-12

    def test_constraint_rejected_when_violated(self):
        code = _alamouti_code()
        assert not PowerConfig(10.0, 1.0, 17.3).satisfies_constraint(code)

    @pytest.mark.parametrize("pi1", [0.0, -1.0, 2.5, 3.0, float("nan")])
    def test_balanced_rejects_pi1_outside_open_interval(self, pi1):
        # T1 = 2, T2 = 3: pi1 must lie in (0, 5/2) for pi2 to stay positive
        code = build(2, cod_trivial(), 1, 2)
        with pytest.raises(ValueError, match="pi1"):
            PowerConfig.balanced(code, 100.0, pi1)
        assert PowerConfig.balanced(code, 100.0, 2.4).pi2 > 0


class TestEffectiveChannel:
    def test_single_relay_no_conjugation(self):
        code = build(1, cod_trivial(), 1, 1)
        real = ChannelRealization(np.array([2 + 1j]), np.array([[3 - 1j]]))
        h = effective_channel(code, real)
        assert h.shape == (1, 1)
        assert h[0, 0] == (2 + 1j) * (3 - 1j)

    def test_conjugating_relay(self):
        code = _alamouti_code()  # S = {1}
        real = ChannelRealization(np.array([1.0, 1j]), np.ones((2, 1), dtype=complex))
        h = effective_channel(code, real)
        assert h[0, 0] == 1.0
        assert h[1, 0] == -1j  # conjugated gain

    def test_elementwise_definition(self):
        rng = np.random.default_rng(3)
        code = build(4, cod_alamouti(), 1, 2)
        real = draw_realization(rng, 4, 3)
        h = effective_channel(code, real)
        for j in range(4):
            fj = real.f[j].conj() if j in code.relay_form.S else real.f[j]
            np.testing.assert_allclose(h[j], fj * real.Gmat[j])

    def test_relay_count_mismatch_rejected(self):
        code = build(4, cod_alamouti(), 1, 2)
        real = draw_realization(np.random.default_rng(0), 2, 1)
        with pytest.raises(ValueError):
            effective_channel(code, real)


class TestNoiseCovariance:
    def test_single_relay_identity_b(self):
        code = build(1, cod_trivial(), 1, 1)  # B_1 = [[1]]
        real = ChannelRealization(np.array([1.0 + 0j]), np.array([[2.0 + 0j]]))
        power = PowerConfig.balanced(code, 5.0)
        model = noise_covariance(code, real, power)
        expect = power.relay_gain * 4.0 + 1.0
        np.testing.assert_allclose(model.gamma_c, [[expect]])

    def test_vanishing_power_leaves_destination_noise(self):
        code = _alamouti_code()
        rng = np.random.default_rng(4)
        real = draw_realization(rng, 2, 2)
        model = noise_covariance(code, real, PowerConfig(1e-12, 1.0, 2.0))
        np.testing.assert_allclose(model.gamma_c, np.eye(4), atol=1e-10)

    def test_empirical_covariance_oracle(self):
        rng = np.random.default_rng(5)
        code = _alamouti_code()
        power = PowerConfig.balanced(code, 10.0)
        real = draw_realization(rng, 2, 2)
        model = noise_covariance(code, real, power)
        draws = np.stack([
            rvec(simulate_transmission(code, np.zeros(code.K), real, power, rng))
            for _ in range(30000)
        ])
        emp = draws.T @ draws / draws.shape[0]
        rel = np.linalg.norm(emp - model.gamma) / np.linalg.norm(model.gamma)
        assert rel < 0.05

    def test_psd_and_whitener(self):
        rng = np.random.default_rng(6)
        code = build(4, cod_trivial(), 2, 2)
        power = PowerConfig.balanced(code, 20.0)
        for _ in range(100):
            real = draw_realization(rng, 4, 2)
            model = noise_covariance(code, real, power)
            assert np.linalg.eigvalsh(model.gamma)[0] >= -1e-10
            eye = model.whitener @ model.gamma @ model.whitener
            assert np.abs(eye - np.eye(model.dim)).max() < 1e-8

    def test_trace_and_eigenvalue_bound(self):
        rng = np.random.default_rng(7)
        code = build(4, cod_alamouti(), 1, 2)
        power = PowerConfig.balanced(code, 15.0)
        for _ in range(100):
            real = draw_realization(rng, 4, 2)
            assert noise_bound(code, real, power)["passed"]


class TestSimulate:
    def test_noiseless_equals_linear_model(self):
        rng = np.random.default_rng(8)
        code = build(6, cod_alamouti(), 2, 2)
        power = PowerConfig.balanced(code, 7.0)
        for _ in range(100):
            real = draw_realization(rng, 6, 2)
            x = rng.standard_normal(code.K)
            y = simulate_transmission(code, x, real, power, rng,
                                      relay_noise=False, dest_noise=False)
            ref = np.sqrt(power.rho) * evaluate(code.design, x) @ effective_channel(code, real)
            assert np.abs(y - ref).max() < 1e-9

    def test_zero_input_zero_relay_noise_is_destination_noise(self):
        code = _alamouti_code()
        power = PowerConfig.balanced(code, 10.0)
        real = draw_realization(np.random.default_rng(0), 2, 1)
        y = simulate_transmission(code, np.zeros(4), real, power,
                                  np.random.default_rng(123), relay_noise=False)
        # replicate the draw order: relay noise first, then destination noise
        rng = np.random.default_rng(123)
        _ = draw_cn(rng, (2, code.T1))
        w = draw_cn(rng, (code.T2, 1))
        np.testing.assert_allclose(y, w)

    def test_sample_mean_matches_signal(self):
        rng = np.random.default_rng(9)
        code = _alamouti_code()
        power = PowerConfig.balanced(code, 4.0)
        real = draw_realization(rng, 2, 1)
        x = np.ones(4) * 0.5
        ys = np.stack([
            simulate_transmission(code, x, real, power, rng) for _ in range(10000)
        ])
        mean = ys.mean(axis=0)
        ref = np.sqrt(power.rho) * evaluate(code.design, x) @ effective_channel(code, real)
        # per-entry noise std after averaging ~ sigma/100; allow 5 sigma
        sigma = np.sqrt(float(np.max(np.diag(noise_covariance(code, real, power).gamma_c.real))))
        assert np.abs(mean - ref).max() < 5 * sigma / np.sqrt(10000)

    def test_requires_relay_form(self):
        from dstbc.construct import from_design
        from dstbc.design import LinearDesign

        w = cod_alamouti().design.weights[[0, 2, 1, 3]]
        code = from_design(LinearDesign.from_weights(w))
        with pytest.raises(ValueError):
            simulate_transmission(code, np.zeros(4),
                                  draw_realization(np.random.default_rng(0), 2, 1),
                                  PowerConfig(1.0, 1.0, 1.0),
                                  np.random.default_rng(0))


class TestEquivalentRealChannel:
    def test_scalar_example(self):
        d = cod_trivial().design
        g = equivalent_real_channel(d, np.array([[1.0 + 0j]]), 4.0)
        np.testing.assert_allclose(g, [[2.0, 0.0], [0.0, 2.0]])

    def test_zero_channel(self):
        d = cod_alamouti().design
        assert np.all(equivalent_real_channel(d, np.zeros((2, 3), dtype=complex), 9.0) == 0)

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(10)
        code = build(4, cod_trivial(), 2, 2)
        for _ in range(50):
            h = draw_cn(rng, (4, 2))
            gp = equivalent_real_channel(code.design, h, 2.5)
            x = rng.standard_normal(code.K)
            ref = np.sqrt(2.5) * rvec(evaluate(code.design, x) @ h)
            assert np.abs(gp @ x - ref).max() < 1e-12


class TestWhiten:
    def test_identity_covariance_is_noop(self):
        from dstbc.channel import NoiseModel

        eye = np.eye(4)
        model = NoiseModel(np.eye(2, dtype=complex), eye, eye)
        g = np.arange(8.0).reshape(4, 2)
        y = np.arange(4.0)
        gw, yw = whiten(model, g, y)
        np.testing.assert_array_equal(gw, g)
        np.testing.assert_array_equal(yw, y)

    def test_scaled_covariance_halves(self):
        from dstbc.channel import NoiseModel

        model = NoiseModel(2 * np.eye(2, dtype=complex), 4 * np.eye(4), 0.5 * np.eye(4))
        g = np.ones((4, 2))
        gw, yw = whiten(model, g, np.ones(4))
        np.testing.assert_allclose(gw, 0.5 * g)
        np.testing.assert_allclose(yw, 0.5)

    def test_whitened_noise_is_white(self):
        rng = np.random.default_rng(11)
        code = _alamouti_code()
        power = PowerConfig.balanced(code, 10.0)
        real = draw_realization(rng, 2, 2)
        model = noise_covariance(code, real, power)
        draws = np.stack([
            model.whitener @ rvec(
                simulate_transmission(code, np.zeros(4), real, power, rng)
            )
            for _ in range(30000)
        ])
        emp = draws.T @ draws / draws.shape[0]
        rel = np.linalg.norm(emp - np.eye(model.dim)) / np.linalg.norm(np.eye(model.dim))
        assert rel < 0.05
