from fractions import Fraction

import numpy as np
import pytest

from dstbc.constellation import make_pam, make_rotated_qam, rotation_2d
from dstbc.construct import (
    GroupingScheme,
    NotConjugateLinear,
    bits_per_channel_use,
    build,
    code_from_dict,
    code_to_dict,
    contiguous_grouping,
    drop_relays,
    extract_relay_form,
    from_design,
    preset,
    rate_cspcu,
)
from dstbc.design import LinearDesign, cod_alamouti, cod_trivial, evaluate

from tests.helpers import relay_form_consistent


class TestGrouping:
    def test_lam2_kp4_n1(self):
        g = contiguous_grouping(2, 4, 1)
        assert g.groups == ((0, 1), (2, 3), (4, 5), (6, 7))

    def test_singletons(self):
        g = contiguous_grouping(1, 2, 3)
        assert g.groups == tuple((i,) for i in range(6))

    def test_lam2_kp4_n2(self):
        g = contiguous_grouping(2, 4, 2)
        assert g.g == 8
        assert g.groups[-1] == (14, 15)

    def test_partition_enforced(self):
        with pytest.raises(ValueError):
            GroupingScheme(((0, 1), (1, 2)))


class TestBuild:
    def test_plain_alamouti(self):
        code = build(2, cod_alamouti(), 1, 1)
        assert (code.T2, code.K, code.N) == (2, 4, 2)
        np.testing.assert_array_equal(
            code.design.weights, cod_alamouti().design.weights
        )

    def test_alamouti_family_n8(self):
        code = build(8, cod_alamouti(), 1, 3)
        assert code.T2 == 8 + 2 * (3 - 1)
        assert code.K == 4 * 3 * 1

    def test_scalar_family_n4(self):
        code = build(4, cod_trivial(), 2, 2)
        assert code.T2 == 4 + 2 - 1
        assert code.K == 2 * 2 * 2
        assert code.g == 4

    def test_rejects_indivisible_n(self):
        with pytest.raises(ValueError):
            build(3, cod_alamouti(), 1, 1)

    def test_rejects_lam_above_l(self):
        with pytest.raises(ValueError):
            build(4, cod_alamouti(), 3, 1)

    @pytest.mark.parametrize(
        "cod,N,lam,n",
        [
            (cod_alamouti, 8, 2, 3),
            (cod_alamouti, 6, 1, 2),
            (cod_trivial, 5, 3, 2),
            (cod_trivial, 4, 1, 3),
        ],
    )
    def test_block_placement(self, cod, N, lam, n):
        code = build(N, cod(), lam, n)
        p = code.params
        mag = np.abs(code.design.weights).sum(axis=0)
        for rb in range(p.n + p.L - 1):
            for cb in range(p.L):
                block = mag[rb * p.Tp:(rb + 1) * p.Tp, cb * p.Np:(cb + 1) * p.Np]
                if block.max() > 0:
                    assert 0 <= rb - cb <= p.n - 1
        # column cb's nonzero blocks occupy block-rows cb .. cb+n-1
        for cb in range(p.L):
            rows = [
                rb
                for rb in range(p.n + p.L - 1)
                if mag[rb * p.Tp:(rb + 1) * p.Tp, cb * p.Np:(cb + 1) * p.Np].max() > 0
            ]
            assert rows == list(range(cb, cb + p.n))

    def test_group_to_layer_mapping(self):
        code = build(8, cod_alamouti(), 2, 3)
        p = code.params
        for k, grp in enumerate(code.grouping.groups):
            layer = k // p.Kp
            for i in grp:
                rows, cols = np.nonzero(np.abs(code.design.weights[i]) > 0)
                assert np.all(rows // p.Tp - cols // p.Np == layer)


class TestRelayForm:
    def test_alamouti_family_t1_and_s(self):
        code = build(8, cod_alamouti(), 1, 3)
        assert code.T1 == 2 * 3 * 1
        assert sorted(code.relay_form.S) == [1, 3, 5, 7]  # even columns, 1-based

    def test_scalar_family_t1_and_s(self):
        code = build(4, cod_trivial(), 2, 2)
        assert code.T1 == 2 * 2
        assert code.relay_form.S == frozenset()

    def test_plain_alamouti_s(self):
        code = build(2, cod_alamouti(), 1, 1)
        assert code.T1 == 2
        assert code.relay_form.S == frozenset({1})

    @pytest.mark.parametrize(
        "cod,N,lam,n",
        [(cod_alamouti, 8, 1, 3), (cod_alamouti, 6, 2, 2), (cod_trivial, 4, 2, 2)],
    )
    def test_reconstruction_identity(self, cod, N, lam, n):
        code = build(N, cod(), lam, n)
        rng = np.random.default_rng(5)
        assert relay_form_consistent(
            code.design, code.relay_form, trials=100, rng=rng, tol=1e-10
        )

    def test_realified_v_has_full_rank(self):
        code = build(6, cod_alamouti(), 2, 2)
        v = code.relay_form.V
        stacked = np.concatenate([v.real, v.imag], axis=0)
        assert np.linalg.matrix_rank(stacked) == code.K

    def test_mixed_column_rejected(self):
        # one entry holds x1 + x2: both the super-symbol and its conjugate
        w = np.array([[[1.0 + 0j]], [[1.0 + 0j]]])
        with pytest.raises(NotConjugateLinear):
            extract_relay_form(LinearDesign.from_weights(w))

    def test_identity_pairing_on_trivial_cod(self):
        form = extract_relay_form(cod_trivial().design)
        assert form.T1 == 1 and form.S == frozenset()

    def test_column_swap_flips_conjugation_labels(self):
        # leading with the conjugated column re-orients the super-symbols so
        # that column 0 stays unconjugated; reconstruction must still hold
        swapped = LinearDesign.from_weights(cod_alamouti().design.weights[:, :, [1, 0]])
        form = extract_relay_form(swapped)
        assert form.S == frozenset({1})
        assert relay_form_consistent(swapped, form, trials=50)

    def test_zero_column_is_tolerated(self):
        w = np.zeros((2, 1, 2), dtype=complex)
        w[0, 0, 0] = 1.0
        w[1, 0, 0] = 1j
        design = LinearDesign.from_weights(w)  # second column all zero
        form = extract_relay_form(design)
        assert relay_form_consistent(design, form, trials=20)


class TestRates:
    def test_rate_n8_lam1_n3(self):
        code = build(8, cod_alamouti(), 1, 3)
        assert rate_cspcu(code) == Fraction(1, 3)

    def test_rate_n6_lam2_n2(self):
        code = build(6, cod_alamouti(), 2, 2)
        assert rate_cspcu(code) == Fraction(1, 2)

    def test_closed_forms_over_sweep(self):
        count = 0
        for n in (1, 2, 3):
            for N in (2, 4, 6, 8):
                for lam in range(1, N // 2 + 1):
                    code = build(N, cod_alamouti(), lam, n)
                    expect = Fraction(lam) / (Fraction(lam + 1) + Fraction(N - 2, 2 * n))
                    assert rate_cspcu(code) == expect
                    count += 1
                for lam in range(1, N + 1):
                    code = build(N, cod_trivial(), lam, n)
                    expect = Fraction(lam) / (Fraction(lam + 1) + Fraction(N - 1, n))
                    assert rate_cspcu(code) == expect
                    count += 1
        assert count >= 20

    def test_bpcu_pam8_setup(self):
        code = build(8, cod_alamouti(), 1, 3, make_pam(8))
        assert bits_per_channel_use(code) == 2

    def test_bpcu_qam16_setup(self):
        code = build(6, cod_alamouti(), 2, 2, make_rotated_qam(16, rotation_2d()))
        assert bits_per_channel_use(code) == 2

    def test_bpcu_bpsk_alamouti(self):
        code = build(2, cod_alamouti(), 1, 1, make_pam(2))
        assert bits_per_channel_use(code) == 1

    def test_rate_increases_to_supremum(self):
        # more layers push the rate toward lam/(lam+1) from below
        for cod, N, lam in [(cod_alamouti, 6, 2), (cod_trivial, 5, 3)]:
            sup = Fraction(lam, lam + 1)
            prev = Fraction(0)
            for n in (1, 2, 4, 16, 64):
                r = rate_cspcu(build(N, cod(), lam, n))
                assert prev < r < sup
                prev = r
            assert sup - prev < Fraction(1, 32)


class TestPresets:
    def test_toeplitz(self):
        a = preset("toeplitz", N=3, n=4)
        b = build(3, cod_trivial(), 1, 4)
        np.testing.assert_array_equal(a.design.weights, b.design.weights)

    def test_single_complex_n4(self):
        a = preset("shi_zhang", N=4, n=2)
        b = build(4, cod_alamouti(), 2, 2)
        np.testing.assert_array_equal(a.design.weights, b.design.weights)

    def test_single_complex_n2(self):
        a = preset("single-complex", N=2, n=2)
        b = build(2, cod_trivial(), 2, 2)
        np.testing.assert_array_equal(a.design.weights, b.design.weights)

    def test_scalar_full(self):
        a = preset("example2_full", N=3, n=2)
        b = build(3, cod_trivial(), 3, 2)
        np.testing.assert_array_equal(a.design.weights, b.design.weights)

    def test_aliases_match(self):
        a = preset("example1", N=8, lam=1, n=3)
        b = preset("alamouti", N=8, lam=1, n=3)
        np.testing.assert_array_equal(a.design.weights, b.design.weights)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("nope", N=2)


class TestDropRelays:
    def test_drop_one_of_two(self):
        code = build(2, cod_alamouti(), 1, 1)
        dropped = drop_relays(code, [1])
        assert dropped.N == 1
        np.testing.assert_array_equal(
            dropped.design.weights, code.design.weights[:, :, :1]
        )

    def test_drop_nothing(self):
        code = build(2, cod_alamouti(), 1, 1)
        assert drop_relays(code, []) is code

    def test_drop_all_rejected(self):
        code = build(4, cod_alamouti(), 1, 1)
        with pytest.raises(ValueError):
            drop_relays(code, [0, 1, 2, 3])

    def test_commutes_with_evaluate(self):
        rng = np.random.default_rng(9)
        code = build(4, cod_alamouti(), 2, 2)
        dropped = drop_relays(code, [2])
        for _ in range(20):
            x = rng.standard_normal(code.K)
            full = evaluate(code.design, x)
            np.testing.assert_allclose(
                evaluate(dropped.design, x), full[:, [0, 1, 3]]
            )

    def test_relay_form_follows_columns(self):
        code = build(8, cod_alamouti(), 1, 2)  # S = odd 0-based columns
        dropped = drop_relays(code, [0, 1])
        assert sorted(dropped.relay_form.S) == [1, 3, 5]
        assert relay_form_consistent(dropped.design, dropped.relay_form)


def test_code_json_round_trip():
    code = build(4, cod_trivial(), 2, 2)
    doc = code_to_dict(code)
    assert doc["S"] == [] and doc["T1"] == 4
    back = code_from_dict(doc)
    np.testing.assert_array_equal(back.design.weights, code.design.weights)
    assert back.grouping == code.grouping
    assert back.relay_form.S == code.relay_form.S


def test_from_design_without_conjugate_linearity():
    # identity pairing fails here: column mixes w and w* (Alamouti's natural
    # pairing is (0,1),(2,3) but we scramble the symbols)
    w = cod_alamouti().design.weights[[0, 2, 1, 3]]
    code = from_design(LinearDesign.from_weights(w))
    assert code.relay_form is None
