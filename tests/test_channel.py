import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dstbc.channel import PowerConfig, RelayChannel, Workspace, solve_lower
from dstbc.construct import build, code_from_dict, from_design
from dstbc.decode import group_symbols
from dstbc.design import LinearDesign, cod_alamouti, cod_trivial, evaluate
from tests.helpers import (
    _real_channel,
    _realify_cov,
    _whitener,
    covariance_oracle,
    joined,
    noise_bound,
    realified_noise_bound,
    real_model,
    realified_observe,
    rvec,
    satisfies_constraint,
    solve_lower_out_of_place,
)
from tests.test_acceptance import _sweep_codes
from tests.test_construct import preset_codes, preset_codes_with_modulation
from tests.test_decode import cn, decoders_of


def _alamouti_code():
    return build(2, cod_alamouti(), 1, 1)


def _fixed_gains(rng, code, nd, trials):
    """One realization (f, gm), repeated along the trial axis."""
    f, gm = cn(rng, 1, code.N), cn(rng, 1, code.N, nd)
    return np.repeat(f, trials, axis=0), np.repeat(gm, trials, axis=0)


def _noise_only(code, rng, nd, trials, power):
    """rvec of the destination observations of a zero input, (trials, d),
    and the realified covariance of their single realization."""
    channel = RelayChannel(code)
    f, gm = _fixed_gains(rng, code, nd, trials)
    y = channel.transmit(np.zeros((trials, code.K)), f, gm, cn(rng, trials, code.N, code.T1),
                         cn(rng, trials, code.T2, nd), power)
    return rvec(y), _realify_cov(channel.covariance(gm[:1], power))[0]


class TestPowerConfig:
    def test_balanced_split_is_one_over_rate(self):
        code = build(8, cod_alamouti(), 1, 3)
        cfg = PowerConfig.balanced(code, 10.0)
        assert abs(cfg.pi2 - 3.0) < 1e-12  # R = 1/3
        assert satisfies_constraint(cfg, code)

    def test_rho_formula(self):
        cfg = PowerConfig(4.0, 1.0, 2.0)
        assert abs(cfg.rho - 1.0 * 2.0 * 16.0 / 5.0) < 1e-12

    def test_constraint_rejected_when_violated(self):
        code = _alamouti_code()
        assert not satisfies_constraint(PowerConfig(10.0, 1.0, 17.3), code)

    @pytest.mark.parametrize("pi1", [0.0, -1.0, 2.5, 3.0, float("nan")])
    def test_balanced_rejects_pi1_outside_open_interval(self, pi1):
        # T1 = 2, T2 = 3: pi1 must lie in (0, 5/2) for pi2 to stay positive
        code = build(2, cod_trivial(), 1, 2)
        with pytest.raises(ValueError, match="pi1"):
            PowerConfig.balanced(code, 100.0, pi1)
        assert PowerConfig.balanced(code, 100.0, 2.4).pi2 > 0

    def test_balanced_rejects_pi1_whose_pi2_rounds_to_zero(self):
        # T1 = 12, T2 = 8: (T1 + T2)/T1 rounds up to 1.6666666666666667, so
        # the pi1 an ulp below it is inside the interval, but T1 + T2 - pi1*T1
        # rounds to 0 and the cooperation phase would get no power
        code = build(4, cod_alamouti(), 2, 3)
        assert (code.T1, code.T2) == (12, 8)
        with pytest.raises(ValueError, match="pi1"):
            PowerConfig.balanced(code, 100.0, 1.6666666666666665)
        assert PowerConfig.balanced(code, 100.0, 1.666666666666666).pi2 > 0


@settings(deadline=None, max_examples=60)
@given(code_modulation=preset_codes_with_modulation(), data=st.data())
def test_balanced_split_meets_the_power_constraint(code_modulation, data):
    code, _ = code_modulation
    pi1 = data.draw(st.floats(0.0, (code.T1 + code.T2) / code.T1,
                              exclude_min=True, exclude_max=True), label="pi1")
    P = data.draw(st.floats(1e-3, 1e6), label="P")
    if code.T1 + code.T2 - pi1 * code.T1 <= 0:  # an ulp below the bound pi2 rounds to 0
        with pytest.raises(ValueError, match="pi1"):
            PowerConfig.balanced(code, P, pi1)
        return
    power = PowerConfig.balanced(code, P, pi1)
    assert power.pi2 > 0 and satisfies_constraint(power, code)


class TestEffectiveChannel:
    def test_single_relay_no_conjugation(self):
        code = build(1, cod_trivial(), 1, 1)
        h = RelayChannel(code).effective(np.array([[2 + 1j]]), np.array([[[3 - 1j]]]))[0]
        assert h.shape == (1, 1)
        assert h[0, 0] == (2 + 1j) * (3 - 1j)

    def test_conjugating_relay(self):
        code = _alamouti_code()  # S = {1}
        h = RelayChannel(code).effective(np.array([[1.0, 1j]]), np.ones((1, 2, 1), dtype=complex))[0]
        assert h[0, 0] == 1.0
        assert h[1, 0] == -1j  # conjugated gain

    def test_elementwise_definition(self):
        rng = np.random.default_rng(3)
        code = build(4, cod_alamouti(), 1, 2)
        f, gm = cn(rng, 5, 4), cn(rng, 5, 4, 3)
        h = RelayChannel(code).effective(f, gm)
        for b in range(5):
            for j in range(4):
                fj = f[b, j].conj() if j in code.relay_form.S else f[b, j]
                np.testing.assert_allclose(h[b, j], fj * gm[b, j])

    def test_code_without_relay_form_rejected(self):
        # one real symbol alone: `info` reports no conjugate-linear relay form
        code = code_from_dict({"T": 1, "N": 1, "K": 1, "weights": [[[[1, 0]]]]})
        with pytest.raises(ValueError, match="^design_file must hold a code with a relay form"):
            RelayChannel(code)

    def test_relay_count_mismatch_rejected(self):
        code = build(4, cod_alamouti(), 1, 2)
        channel = RelayChannel(code)
        power = PowerConfig.balanced(code, 10.0)
        x, v, w = np.zeros((1, code.K)), np.zeros((1, 4, code.T1)), np.zeros((1, code.T2, 1))
        f4, gm4 = np.ones((1, 4), dtype=complex), np.ones((1, 4, 1), dtype=complex)
        f2, gm2 = np.ones((1, 2), dtype=complex), np.ones((1, 2, 1), dtype=complex)
        for call in (channel.transmit, channel.observe):
            with pytest.raises(ValueError, match="^f must have the code's 4 relays"):
                call(x, f2, gm4, v, w, power)
            with pytest.raises(ValueError, match="^gm must have the code's 4 relays"):
                call(x, f4, gm2, v, w, power)
            with pytest.raises(ValueError, match="^f must"):
                call(x, f4[0], gm4, v, w, power)  # no trial axis
        with pytest.raises(ValueError, match="^gm must"):
            channel.covariance(gm2, power)


class TestBoundaryChecks:
    """transmit and observe refuse x, v and w that do not fit the code (N=4,
    K=8, T1=4, T2=6) or gm; covariance refuses a gm without N relays."""

    def _setup(self):
        code = build(4, cod_alamouti(), 1, 2)
        rng = np.random.default_rng(0)
        args = dict(x=np.zeros((2, code.K)), f=cn(rng, 2, 4), gm=cn(rng, 2, 4, 3),
                    v=cn(rng, 2, 4, code.T1), w=cn(rng, 2, code.T2, 3))
        return RelayChannel(code), args, PowerConfig.balanced(code, 10.0)

    def _assert_refused(self, name, bad, match):
        channel, args, power = self._setup()
        args[name] = bad
        for call in (channel.transmit, channel.observe):
            with pytest.raises(ValueError, match=match):
                call(power=power, **args)

    def test_x_symbol_count_rejected(self):
        self._assert_refused("x", np.zeros((2, 7)), r"^x must have shape \(b, 8\), got shape \(2, 7\)")
        self._assert_refused("x", np.zeros(8), r"^x must have shape \(b, 8\)")

    def test_v_length_rejected(self):
        self._assert_refused("v", np.zeros((2, 4, 3), dtype=complex), r"^v must have shape \(b, 4, 4\)")

    def test_w_receive_antennas_follow_gm(self):
        # gm has N_D = 3 receive antennas; w with 2 does not fit it
        self._assert_refused("w", np.zeros((2, 6, 2), dtype=complex), r"^w must have shape \(b, 6, 3\)")

    @pytest.mark.parametrize("name, match", [
        ("x", r"^x has 3 trials on axis 0, f has 2$"),
        ("f", r"^gm has 2 trials on axis 0, f has 3$"),
        ("gm", r"^gm has 3 trials on axis 0, f has 2$"),
        ("v", r"^v has 3 trials on axis 0, f has 2$"),
        ("w", r"^w has 3 trials on axis 0, f has 2$"),
    ], ids=["x", "f", "gm", "v", "w"])
    def test_trial_counts_must_agree(self, name, match):
        _, args, _ = self._setup()
        self._assert_refused(name, np.concatenate([args[name], args[name][:1]]), match)

    def test_covariance_checks_gm(self):
        channel, args, power = self._setup()
        with pytest.raises(ValueError, match="^gm must have the code's 4 relays"):
            channel.covariance(args["gm"][:, :3], power)
        assert channel.covariance(args["gm"], power).shape == (2, 18, 18)


class TestNoiseCovariance:
    def test_single_relay_identity_b(self):
        code = build(1, cod_trivial(), 1, 1)  # B_1 = [[1]]
        power = PowerConfig.balanced(code, 5.0)
        gamma_c = RelayChannel(code).covariance(np.array([[[2.0 + 0j]]]), power)
        expect = power.relay_gain * 4.0 + 1.0
        np.testing.assert_allclose(gamma_c, [[[expect]]])

    def test_vanishing_power_leaves_destination_noise(self):
        code = _alamouti_code()
        rng = np.random.default_rng(4)
        gamma_c = RelayChannel(code).covariance(cn(rng, 1, 2, 2), PowerConfig(1e-12, 1.0, 2.0))
        np.testing.assert_allclose(gamma_c[0], np.eye(4), atol=1e-10)

    def test_empirical_covariance_oracle(self):
        rng = np.random.default_rng(5)
        code = _alamouti_code()
        draws, gamma = _noise_only(code, rng, 2, 30000, PowerConfig.balanced(code, 10.0))
        emp = draws.T @ draws / draws.shape[0]
        rel = np.linalg.norm(emp - gamma) / np.linalg.norm(gamma)
        assert rel < 0.05

    def test_psd_and_whitener(self):
        rng = np.random.default_rng(6)
        code = build(4, cod_trivial(), 2, 2)
        power = PowerConfig.balanced(code, 20.0)
        gamma = _realify_cov(RelayChannel(code).covariance(cn(rng, 100, 4, 2), power))
        whitener, evals = _whitener(gamma)
        assert evals.min() >= -1e-10
        eye = whitener @ gamma @ whitener
        assert np.abs(eye - np.eye(gamma.shape[1])).max() < 1e-8

    def test_trace_and_eigenvalue_bound(self):
        rng = np.random.default_rng(7)
        code = build(4, cod_alamouti(), 1, 2)
        power = PowerConfig.balanced(code, 15.0)
        ok = noise_bound(RelayChannel(code), cn(rng, 100, 4, 2), power)
        assert ok.shape == (100,) and ok.all()

    @pytest.mark.parametrize("nd", [1, 3])
    def test_block_formula_oracle(self, nd):
        # the (l1, x, l2, y) block order of the matmul, against a loop per block
        rng = np.random.default_rng(17)
        codes = [code for _, code in _sweep_codes()] + [_non_diagonal_bbh_code(),
                                                         _two_slot_bbh_code()]
        for code in codes:
            power = PowerConfig.balanced(code, 12.0)
            gm = cn(rng, 8, code.N, nd)
            gamma_c = RelayChannel(code).covariance(gm, power)
            ref = covariance_oracle(code, gm, power)
            rel = np.linalg.norm(gamma_c - ref, axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2))
            assert rel.max() < 1e-12

    def test_smallest_eigenvalue_at_least_one(self):
        # Gamma_c is the identity plus a PSD sum, so the whitener needs no clamp
        rng = np.random.default_rng(16)
        codes = [code for _, code in _sweep_codes()] + [_non_diagonal_bbh_code()]
        for code in codes:
            power = PowerConfig.balanced(code, 30.0)
            gamma_c = RelayChannel(code).covariance(cn(rng, 50, code.N, 2), power)
            assert np.linalg.eigvalsh(gamma_c).min() >= 1 - 1e-12


class TestSimulate:
    def test_noiseless_equals_linear_model(self):
        rng = np.random.default_rng(8)
        code = build(6, cod_alamouti(), 2, 2)
        power = PowerConfig.balanced(code, 7.0)
        channel = RelayChannel(code)
        f, gm = cn(rng, 100, 6), cn(rng, 100, 6, 2)
        x = rng.standard_normal((100, code.K))
        y = channel.transmit(x, f, gm, np.zeros((100, 6, code.T1)),
                             np.zeros((100, code.T2, 2)), power)
        h = channel.effective(f, gm)
        for b in range(100):
            ref = np.sqrt(power.rho) * evaluate(code.design, x[b]) @ h[b]
            assert np.abs(y[b] - ref).max() < 1e-9

    def test_zero_input_zero_relay_noise_is_destination_noise(self):
        code = _alamouti_code()
        power = PowerConfig.balanced(code, 10.0)
        rng = np.random.default_rng(0)
        f, gm, w = cn(rng, 3, 2), cn(rng, 3, 2, 1), cn(rng, 3, code.T2, 1)
        y = RelayChannel(code).transmit(np.zeros((3, 4)), f, gm,
                                        np.zeros((3, 2, code.T1)), w, power)
        np.testing.assert_allclose(y, w)

    def test_sample_mean_matches_signal(self):
        rng = np.random.default_rng(9)
        code = _alamouti_code()
        power = PowerConfig.balanced(code, 4.0)
        channel = RelayChannel(code)
        f, gm = _fixed_gains(rng, code, 1, 10000)
        x = np.full((10000, 4), 0.5)
        ys = channel.transmit(x, f, gm, cn(rng, 10000, 2, code.T1),
                              cn(rng, 10000, code.T2, 1), power)
        mean = ys.mean(axis=0)
        ref = np.sqrt(power.rho) * evaluate(code.design, x[0]) @ channel.effective(f[:1], gm[:1])[0]
        # per-entry noise std after averaging ~ sigma/100; allow 5 sigma
        sigma = np.sqrt(float(np.max(np.diag(channel.covariance(gm[:1], power)[0].real))))
        assert np.abs(mean - ref).max() < 5 * sigma / np.sqrt(10000)

    def test_requires_relay_form(self):
        w = cod_alamouti().design.weights[[0, 2, 1, 3]]
        code = from_design(LinearDesign.from_weights(w))
        with pytest.raises(ValueError, match="relay form"):
            RelayChannel(code)


class TestEquivalentRealChannel:
    def test_scalar_example(self):
        d = cod_trivial().design
        g = _real_channel(d.weights, np.array([[[1.0 + 0j]]]), 4.0)[0]
        np.testing.assert_allclose(g, [[2.0, 0.0], [0.0, 2.0]])

    def test_zero_channel(self):
        d = cod_alamouti().design
        assert np.all(_real_channel(d.weights, np.zeros((1, 2, 3), dtype=complex), 9.0) == 0)

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(10)
        code = build(4, cod_trivial(), 2, 2)
        h = cn(rng, 50, 4, 2)
        gp = _real_channel(code.design.weights, h, 2.5)
        x = rng.standard_normal((50, code.K))
        ref = np.sqrt(2.5) * rvec(np.stack([evaluate(code.design, x[b]) @ h[b] for b in range(50)]))
        assert np.abs(np.einsum("bdk,bk->bd", gp, x) - ref).max() < 1e-12


class TestWhiten:
    def test_identity_covariance_is_noop(self):
        whitener, evals = _whitener(np.eye(4)[None])
        np.testing.assert_array_equal(evals, np.ones((1, 4)))
        np.testing.assert_allclose(whitener[0], np.eye(4), atol=1e-15)

    def test_scaled_covariance_halves(self):
        whitener, _ = _whitener(4 * np.eye(4)[None])
        np.testing.assert_allclose(whitener[0], 0.5 * np.eye(4), atol=1e-15)

    def test_complex_hermitian_covariance(self):
        # a complex Hermitian covariance needs the conjugate right factor
        rng = np.random.default_rng(12)
        m = cn(rng, 5, 6, 6)
        gamma = m @ np.conj(np.swapaxes(m, 1, 2)) + np.eye(6)
        whitener, _ = _whitener(gamma)
        assert np.abs(whitener @ gamma @ whitener - np.eye(6)).max() < 1e-10

    def test_whitened_noise_is_white(self):
        # the whitener that observe applies, on zero-input observations
        rng = np.random.default_rng(11)
        code = _alamouti_code()
        power = PowerConfig.balanced(code, 10.0)
        f, gm = _fixed_gains(rng, code, 2, 30000)
        _, draws = real_model(RelayChannel(code).observe(
            np.zeros((30000, 4)), f, gm, cn(rng, 30000, 2, code.T1), cn(rng, 30000, code.T2, 2), power
        ))
        dim = draws.shape[1]
        emp = draws.T @ draws / draws.shape[0]
        rel = np.linalg.norm(emp - np.eye(dim)) / np.linalg.norm(np.eye(dim))
        assert rel < 0.05


class TestSolveLower:
    """In-place forward substitution against the out-of-place formula it
    replaced (bit-equal) and np.linalg.solve; low is left unchanged."""

    @staticmethod
    def _assert_solves(low, c):
        low_before = low.copy()
        ref, old = np.linalg.solve(low, c), solve_lower_out_of_place(low, c)
        x = c.copy()
        assert solve_lower(low, x) is x
        assert x.shape == ref.shape and x.dtype == ref.dtype
        assert x.tobytes() == old.tobytes()
        rel = np.linalg.norm(x - ref, axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2))
        assert rel.max() < 1e-12
        np.testing.assert_array_equal(low, low_before)

    @pytest.mark.parametrize("nd", [1, 2, 4])
    def test_complex_covariance_factors(self, nd):
        rng = np.random.default_rng(19)
        code = build(4, cod_alamouti(), 2, 2)
        gamma_c = RelayChannel(code).covariance(cn(rng, 32, code.N, nd),
                                                PowerConfig.balanced(code, 30.0))
        low = np.linalg.cholesky(gamma_c)
        self._assert_solves(low, cn(rng, 32, low.shape[1], code.K + 1))

    def test_real_transposed_upper_factors(self):
        # R' of the decoders' upper Gram factor R, as PIC inverts it
        rng = np.random.default_rng(20)
        g = rng.standard_normal((32, 24, 16))
        low = np.linalg.cholesky(np.swapaxes(g, 1, 2) @ g)
        self._assert_solves(low, rng.standard_normal((32, 16, 5)))

    @pytest.mark.parametrize("d, m", [(1, 1), (1, 4), (6, 1)])
    def test_edge_sizes(self, d, m):
        rng = np.random.default_rng(21)
        a = cn(rng, 10, d, d)
        low = np.linalg.cholesky(a @ np.swapaxes(a.conj(), 1, 2) + np.eye(d))
        self._assert_solves(low, cn(rng, 10, d, m))

    def test_identity_in_place(self):
        # the writable identity that PIC solves for R^-T
        rng = np.random.default_rng(22)
        g = rng.standard_normal((16, 12, 8))
        low = np.linalg.cholesky(np.swapaxes(g, 1, 2) @ g)
        self._assert_solves(low, np.tile(np.eye(8), (16, 1, 1)))

    def test_strided_right_hand_side(self):
        # observe solves a view of its columns; the solve writes through it
        rng = np.random.default_rng(23)
        a = cn(rng, 8, 4, 4)
        low = np.linalg.cholesky(a @ np.swapaxes(a.conj(), 1, 2) + np.eye(4))
        whole = cn(rng, 8, 4, 7)
        view = whole[:, :, 1:6]
        expected = solve_lower_out_of_place(low, view)
        solve_lower(low, view)
        assert view.tobytes() == expected.tobytes()

    def test_read_only_right_hand_side_refused(self):
        low = np.eye(3)[None]
        with pytest.raises(ValueError, match="read-only"):
            solve_lower(low, np.broadcast_to(np.eye(3), (1, 3, 3)))


def _non_diagonal_bbh_code():
    """N = T = 2 with relay columns [z1 + z2, z1] and [z2, z1]:
    B_0 B_0^H = [[2, 1], [1, 1]] is not diagonal."""
    a, b = np.array([[1, 0], [1, 1]]), np.array([[1, 1], [0, 0]])
    return from_design(LinearDesign.from_weights(np.stack([a, 1j * a, b, 1j * b])))


def _two_slot_bbh_code():
    """_non_diagonal_bbh_code in slots 0-1 on z1, z2 over itself in slots
    2-3 on z3, z4 (N = 2, T = 4): every B_j B_j^H is block-diagonal with
    2-slot blocks, and B_0 B_0^H is not diagonal."""
    w = _non_diagonal_bbh_code().design.weights
    top, bottom = np.concatenate([w, 0 * w], axis=1), np.concatenate([0 * w, w], axis=1)
    return from_design(LinearDesign.from_weights(np.concatenate([top, bottom])))


def _gram(g, y):
    """[G y]'[G y] per trial, (b, K + 1, K + 1): all that the decoders read."""
    m = np.concatenate([g, y[:, :, None]], axis=2)
    return np.swapaxes(m, 1, 2) @ m


class TestRealifiedOracle:
    """observe and noise_bound against the realified route of tests.helpers:
    realify first, then whiten with a real eigh of twice the size. The two
    whiteners differ by an orthogonal factor on the left, so the real model
    of observe must match the route in [G y]'[G y], and observe's complex W
    must match it in every decoder's decisions."""

    def _observe_both(self, code, rng, nd=2, trials=4, P=30.0):
        channel = RelayChannel(code)
        power = PowerConfig.balanced(code, P)
        idx = np.stack([rng.integers(s.size, size=trials) for s in code.group_sets], axis=1)
        args = (group_symbols(code.grouping.groups, code.group_sets, idx),
                cn(rng, trials, code.N), cn(rng, trials, code.N, nd),
                cn(rng, trials, code.N, code.T1), cn(rng, trials, code.T2, nd), power)
        return channel.observe(*args), realified_observe(channel, *args)

    def _assert_gram_matches(self, code, rng, nd=2, trials=4):
        w, (g_ref, y_ref) = self._observe_both(code, rng, nd, trials)
        gram, gram_ref = _gram(*real_model(w)), _gram(g_ref, y_ref)
        rel = (np.linalg.norm(gram - gram_ref, axis=(1, 2))
               / np.linalg.norm(gram_ref, axis=(1, 2)))
        assert rel.max() < 1e-10

    def test_sweep_codes(self):
        rng = np.random.default_rng(13)
        for _, code in _sweep_codes():
            self._assert_gram_matches(code, rng)

    def test_non_diagonal_bbh(self):
        code = _non_diagonal_bbh_code()
        bbh = RelayChannel(code).bbh
        np.testing.assert_allclose(bbh[0], [[2, 1], [1, 1]])
        self._assert_gram_matches(code, np.random.default_rng(14), nd=3, trials=20)

    def test_two_slot_bbh(self):
        self._assert_gram_matches(_two_slot_bbh_code(), np.random.default_rng(23), nd=3, trials=20)

    def test_decisions_equal_oracle(self):
        rng = np.random.default_rng(18)
        codes = list(_sweep_codes()) + [("non-diagonal-bbh", _non_diagonal_bbh_code()),
                                        ("two-slot-bbh", _two_slot_bbh_code())]
        for tag, code in codes:
            w, (g_ref, y_ref) = self._observe_both(code, rng, trials=256, P=5.0)
            for decoder, dec in decoders_of(code).items():
                np.testing.assert_array_equal(dec.decide(w)[0], dec.decide(joined(g_ref, y_ref))[0],
                                              err_msg=f"{tag} {decoder}")

    @pytest.mark.parametrize("code", [_non_diagonal_bbh_code(), build(4, cod_alamouti(), 1, 2)],
                             ids=["non-diagonal-bbh", "alamouti-N4"])
    def test_noise_bound_verdicts(self, code):
        rng = np.random.default_rng(15)
        channel = RelayChannel(code)
        power = PowerConfig.balanced(code, 15.0)
        gm = cn(rng, 100, code.N, 2)
        np.testing.assert_array_equal(noise_bound(channel, gm, power),
                                      realified_noise_bound(channel, gm, power))


class TestObserveInto:
    """observe writing into a held Workspace is byte-equal to observe on a new one."""

    @staticmethod
    def _arrays(code, nd, trials, seed=24):
        rng = np.random.default_rng(seed)
        return (rng.standard_normal((trials, code.K)), cn(rng, trials, code.N),
                cn(rng, trials, code.N, nd), cn(rng, trials, code.N, code.T1),
                cn(rng, trials, code.T2, nd))

    @pytest.mark.parametrize("code", [build(4, cod_alamouti(), 2, 2), _non_diagonal_bbh_code()],
                             ids=["crit9", "non-diagonal-bbh"])
    def test_white_prefilled_with_nan(self, code):
        channel, power = RelayChannel(code), PowerConfig.balanced(code, 10.0)
        arrays = self._arrays(code, 2, 40)
        fresh = channel.observe(*arrays, power)
        work = Workspace()
        buf = work("white", fresh.shape, complex)
        buf.fill(np.nan + 1j * np.nan)
        white = channel.observe(*arrays, power, work)
        assert np.shares_memory(white, work.arrays["white"])
        assert buf.tobytes() == white.tobytes() == fresh.tobytes()

    def test_workspace_reused_across_calls(self):
        # arrays made for 16 trials serve 5 trials as a view of their leading
        # rows; refilled with NaN between calls, they are overwritten
        code = build(4, cod_alamouti(), 2, 2)
        channel, power = RelayChannel(code), PowerConfig.balanced(code, 10.0)
        work = Workspace()
        for trials, seed in ((16, 25), (5, 26), (16, 27)):
            arrays = self._arrays(code, 4, trials, seed)
            for a in work.arrays.values():
                a.fill(np.nan)
            white = channel.observe(*arrays, power, work=work)
            assert np.shares_memory(white, work.arrays["white"])
            assert white.tobytes() == channel.observe(*arrays, power).tobytes()
        assert {name: len(a) for name, a in work.arrays.items()} == {"ah": 16, "white": 16}


class TestSlotBlocks:
    """observe factors Gamma_c as T2/s slot blocks of size s*N_D, s the
    smallest divisor of T2 whose aligned s x s blocks hold every Bbar_j Bbar_j^H."""

    def test_block_size(self):
        assert all(RelayChannel(code).s == 1 for _, code in _sweep_codes())
        assert RelayChannel(_non_diagonal_bbh_code()).s == 2  # = T2
        two_slot = RelayChannel(_two_slot_bbh_code())
        assert (two_slot.s, two_slot.T2) == (2, 4)
        np.testing.assert_allclose(two_slot.bbh[0], np.kron(np.eye(2), [[2, 1], [1, 1]]))


@settings(deadline=None, max_examples=30)
@given(code_s=st.one_of(preset_codes().map(lambda code: (code, 1)),
                       st.just((_non_diagonal_bbh_code(), 2))),
       nd=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_batched_observe_equals_batches_of_one(code_s, nd, seed):
    # the (b*T2/s, s*N_D, ...) reshape must keep every trial's rows together
    code, s = code_s
    channel = RelayChannel(code)
    assert channel.s == s
    rng = np.random.default_rng(seed)
    arrays = (rng.standard_normal((5, code.K)), cn(rng, 5, code.N), cn(rng, 5, code.N, nd),
              cn(rng, 5, code.N, code.T1), cn(rng, 5, code.T2, nd))
    power = PowerConfig.balanced(code, 10.0)
    white = channel.observe(*arrays, power)
    for i in range(5):
        one = channel.observe(*(a[i:i + 1] for a in arrays), power)[0]
        for batched, alone in ((white[i, :, :-1], one[:, :-1]), (white[i, :, -1], one[:, -1])):
            assert np.linalg.norm(batched - alone) <= 1e-12 * np.linalg.norm(alone)
