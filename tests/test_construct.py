import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from dstbc.design import LinearDesign, cod_alamouti, cod_trivial, evaluate, independent_weights
from dstbc.diversity import check_pic, check_pic_sic, check_zf, relay_failure_sweep
from dstbc.harness import modulation_set

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

    @pytest.mark.parametrize("N", [0, -2])
    def test_rejects_non_positive_n(self, N):
        # N = 0 used to pass the multiple check and fail on lam in 1..0
        with pytest.raises(ValueError,
                           match=f"^N must be a positive multiple of the COD width 2, got {N}$"):
            build(N, cod_alamouti(), 1, 1)

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
        p, c = code.params, code.params.cod.design
        mag = np.abs(code.design.weights).sum(axis=0)
        for rb in range(p.n + p.L - 1):
            for cb in range(p.L):
                block = mag[rb * c.T:(rb + 1) * c.T, cb * c.N:(cb + 1) * c.N]
                if block.max() > 0:
                    assert 0 <= rb - cb <= p.n - 1
        # column cb's nonzero blocks occupy block-rows cb .. cb+n-1
        for cb in range(p.L):
            rows = [
                rb
                for rb in range(p.n + p.L - 1)
                if mag[rb * c.T:(rb + 1) * c.T, cb * c.N:(cb + 1) * c.N].max() > 0
            ]
            assert rows == list(range(cb, cb + p.n))

    def test_group_to_layer_mapping(self):
        code = build(8, cod_alamouti(), 2, 3)
        c = code.params.cod.design
        for k, grp in enumerate(code.grouping.groups):
            layer = k // c.K
            for i in grp:
                rows, cols = np.nonzero(np.abs(code.design.weights[i]) > 0)
                assert np.all(rows // c.T - cols // c.N == layer)


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

    def test_inconsistent_conjugation_rejected(self):
        # columns [z0, z1] and [conj(z1), z0]: neither mixes a super-symbol
        # with its conjugate, but column 1 would have to be both conjugated
        # (for z1) and not (for z0)
        w = np.zeros((4, 2, 2), dtype=complex)
        w[0, 0, 0] = w[0, 1, 1] = 1.0   # x0 in z0
        w[1, 0, 0] = w[1, 1, 1] = 1j    # x1 in z0
        w[2, 1, 0] = w[2, 0, 1] = 1.0   # x2 in z1, conj(z1)
        w[3, 1, 0], w[3, 0, 1] = 1j, -1j  # x3 in z1, conj(z1)
        design = LinearDesign.from_weights(w)
        with pytest.raises(NotConjugateLinear, match="^inconsistent conjugation pattern$"):
            extract_relay_form(design)
        assert from_design(design).relay_form is None

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

    @pytest.mark.parametrize(
        "name,N,lam,match",
        [
            ("toeplitz", 4, 2, "^lam must be 1 for the toeplitz preset, got 2$"),
            ("scalar-full", 3, 2, "^lam must be 3 for the scalar-full preset, got 2$"),
            ("scalar-full", 3, 4, "^lam must be 3 for the scalar-full preset, got 4$"),
            ("single-complex", 4, 1, "^lam must be 2 for the single-complex preset, got 1$"),
            ("single-complex", 2, 3, "^lam must be 2 for the single-complex preset, got 3$"),
            ("single-complex", 3, None, "^N must be 2 or 4 for the single-complex preset, got 3$"),
        ],
        ids=["toeplitz-4-2-fixes lam = 1", "scalar-full-3-2-fixes lam = N",
             "scalar-full-3-4-fixes lam = N", "single-complex-4-1-fixes lam = 2",
             "single-complex-2-3-fixes lam = 2", "single-complex-3-None-N = 2 or 4"],
    )
    def test_lam_refusals(self, name, N, lam, match):
        with pytest.raises(ValueError, match=match):
            preset(name, N, lam)

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


def test_document_pairing_is_the_one_scanned():
    # the identity pairing also works on this design; the document's own wins
    doc = code_to_dict(from_design(cod_alamouti().design)) | {"pairing": [[0, 1], [3, 2]]}
    back = code_from_dict(doc)
    assert back.relay_form.pairing == ((0, 1), (3, 2))
    assert relay_form_consistent(back.design, back.relay_form)
    assert code_to_dict(back)["pairing"] == [[0, 1], [3, 2]]


def test_from_design_pairing():
    # the grid's pairing on the lam = 2 Alamouti code, against the default one
    code = build(4, cod_alamouti(), 2, 1)
    pairing = code.relay_form.pairing
    assert pairing != ((0, 1), (2, 3), (4, 5), (6, 7))
    assert from_design(code.design, code.grouping, pairing).relay_form.pairing == pairing


def test_code_without_alphabets_refused_by_name():
    # a group of three symbols has no default alphabet; ZF needs none
    code = from_design(build(2, cod_trivial(), 1, 2).design, GroupingScheme(((0, 1, 2), (3,))))
    assert code.group_sets is None
    refusal = r"^modulation must be given for groups with no default alphabet .*, got None$"
    for needs_sets in (bits_per_channel_use, lambda c: check_pic(c, 5),
                       lambda c: check_pic_sic(c, 5)):
        with pytest.raises(ValueError, match=refusal):
            needs_sets(code)
    assert check_zf(code, 5).passed


def test_from_design_without_conjugate_linearity():
    # identity pairing fails here: column mixes w and w* (Alamouti's natural
    # pairing is (0,1),(2,3) but we scramble the symbols)
    w = cod_alamouti().design.weights[[0, 2, 1, 3]]
    code = from_design(LinearDesign.from_weights(w))
    assert code.relay_form is None


@st.composite
def preset_codes(draw):
    """A valid (preset, N, lam, n) and the code it builds."""
    name = draw(st.sampled_from(
        ["alamouti", "scalar", "toeplitz", "scalar-full", "single-complex"]))
    lam = None
    if name == "alamouti":
        N = 2 * draw(st.integers(1, 4))
        lam = draw(st.integers(1, N // 2))
    elif name == "scalar":
        N = draw(st.integers(1, 8))
        lam = draw(st.integers(1, min(N, 4)))
    elif name == "single-complex":
        N = draw(st.sampled_from([2, 4]))
    else:
        N = draw(st.integers(1, 4 if name == "scalar-full" else 8))
    n = draw(st.integers(1, 3))
    return preset(name, N, lam, n)


@st.composite
def dropped_preset_codes(draw):
    """A code from preset_codes with a nonempty proper subset of its relays dropped."""
    code = draw(preset_codes().filter(lambda c: c.N > 1))
    return drop_relays(code, draw(st.sets(st.integers(0, code.N - 1), min_size=1,
                                          max_size=code.N - 1)))


_DEPENDENT_REFUSAL = ("^code field 'weights' must be linearly independent over R to be written, "
                      r"got \[\[\[")


def test_dependent_drop_checked_but_not_written():
    # scalar N=2, lam=2: relay 0 alone carries a symbol, whose weights the drop zeroes
    code = preset("scalar", 2, 2, 1)
    dropped = drop_relays(code, [0])
    assert not independent_weights(dropped.design)
    with pytest.raises(ValueError, match=_DEPENDENT_REFUSAL):
        code_to_dict(dropped)
    # the relay-failure sweep still checks the dropped code
    reports = dict(relay_failure_sweep(code, 1, trials=20, rng=np.random.default_rng(0)))
    assert reports[(0,)].samples_tested > 0


@settings(deadline=None, max_examples=80)
@given(dropped_preset_codes())
def test_relay_drop_json_round_trip(code):
    # a drop that leaves the weights dependent (a symbol's all zero) has no
    # document that loads, so code_to_dict refuses to write one
    if not independent_weights(code.design):
        with pytest.raises(ValueError, match=_DEPENDENT_REFUSAL):
            code_to_dict(code)
        return
    form = code.relay_form
    assert relay_form_consistent(code.design, form, trials=3)
    back = code_from_dict(json.loads(json.dumps(code_to_dict(code))))
    assert back.grouping == code.grouping
    assert (back.relay_form.pairing, back.relay_form.S, back.T1) == (form.pairing, form.S, form.T1)
    np.testing.assert_array_equal(back.relay_form.V, form.V)
    for b, b_ref in zip(back.relay_form.B, form.B, strict=True):
        np.testing.assert_array_equal(b, b_ref)


# the modulations that fit a group of one or two symbols; larger groups have none
_MODULATIONS = {1: ("pam2", "pam4", "pam8", "pam16"), 2: ("qam4", "qam16", "qam64")}


@st.composite
def preset_codes_with_modulation(draw):
    """A preset code from preset_codes with a modulation that fits its groups
    attached, and the modulation's name (None for groups of three or more)."""
    code = draw(preset_codes())
    names = _MODULATIONS.get(len(code.grouping.groups[0]), (None,))
    modulation = draw(st.sampled_from(names))
    return (code if modulation is None else code.with_sets(modulation_set(modulation)),
            modulation)


@settings(deadline=None, max_examples=40)
@given(preset_codes_with_modulation())
def test_preset_relay_form_and_json_round_trip(code_modulation):
    code, modulation = code_modulation
    form = code.relay_form
    assert relay_form_consistent(code.design, form, trials=5)
    back = code_from_dict(json.loads(json.dumps(code_to_dict(code))))
    np.testing.assert_array_equal(back.design.weights, code.design.weights)
    assert back.grouping == code.grouping
    assert back.relay_form.S == form.S and back.T1 == code.T1
    np.testing.assert_array_equal(back.relay_form.V, form.V)
    assert back.relay_form.pairing == form.pairing
    if modulation is None:
        return
    # a design file plus the modulation, as resolve_code reads them
    back = back.with_sets(modulation_set(modulation))
    assert bits_per_channel_use(back) == bits_per_channel_use(code)
    for s, s_ref in zip(back.group_sets, code.group_sets):
        np.testing.assert_array_equal(s.points, s_ref.points)
        np.testing.assert_array_equal(s.labels, s_ref.labels)
