import itertools
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dstbc.constellation import (
    difference_set,
    identity_rotation,
    make_pam,
    make_rotated_qam,
    rotation_2d,
)
from dstbc.construct import build, drop_relays, from_design, preset, preset_names
from dstbc.design import LinearDesign, cod_alamouti, cod_trivial
from dstbc.diversity import (
    REL_SV_THRESHOLD,
    CriterionReport,
    _relative_sv,
    check_pic,
    check_pic_sic,
    check_zf,
    cod_certificate,
    relay_failure_sweep,
)

from tests.helpers import (
    cod_certificate_oracle,
    complement_transform_selftest,
    relative_sv_oracle,
)


def duplicated_column_code():
    """Rank-deficient by construction: both columns of every weight equal."""
    w = cod_alamouti().design.weights[:, :, [0, 0]]
    return from_design(LinearDesign.from_weights(w)).with_sets(make_pam(2))


def rel_sv(mat):
    return float(_relative_sv(mat[None])[0])


class TestCheckPic:
    def test_plain_alamouti_passes(self):
        r = check_pic(build(2, cod_alamouti(), 1, 1), 200, np.random.default_rng(0))
        assert r.passed and r.witness is None
        assert r.analytic_certificate is True

    def test_duplicated_column_fails_with_witness(self):
        r = check_pic(duplicated_column_code(), 50, np.random.default_rng(1))
        assert not r.passed
        assert r.witness is not None
        # the witness must reproduce the deficiency when re-evaluated
        code = duplicated_column_code()
        w = code.design.weights
        grp = list(code.grouping.groups[r.witness.k])
        comp = list(code.grouping.complement(r.witness.k))
        mat = np.einsum("g,gtn->tn", r.witness.a_k, w[grp])
        if comp:
            mat = mat + np.einsum("c,ctn->tn", r.witness.u, w[comp])
        assert rel_sv(mat) <= REL_SV_THRESHOLD

    def test_scalar_family_n2_lam2_passes(self):
        code = build(2, cod_trivial(), 2, 1, make_rotated_qam(4, rotation_2d()))
        r = check_pic(code, 500, np.random.default_rng(2))
        assert r.passed
        assert r.analytic_certificate is True  # n = 1


class TestCheckPicSic:
    @pytest.mark.parametrize(
        "cod,N,lam,n",
        [
            (cod_alamouti, 4, 1, 2),
            (cod_alamouti, 6, 2, 2),
            (cod_trivial, 3, 1, 2),
            (cod_trivial, 4, 2, 3),
        ],
    )
    def test_built_codes_pass_with_certificate(self, cod, N, lam, n):
        code = build(N, cod(), lam, n)
        r = check_pic_sic(code, 100, np.random.default_rng(3))
        assert r.passed
        assert r.analytic_certificate is True

    def test_duplicated_column_fails(self):
        r = check_pic_sic(duplicated_column_code(), 50, np.random.default_rng(4))
        assert not r.passed and r.witness is not None

    def test_unrotated_lam2_fails_at_zero_interference(self):
        # a difference that is nonzero in only one coordinate plus u = 0
        # collapses one diagonal block; the checker tests u = 0 explicitly
        code = build(2, cod_trivial(), 2, 1, make_rotated_qam(4, identity_rotation(2)))
        r = check_pic_sic(code, 50, np.random.default_rng(5))
        assert not r.passed
        assert np.all(r.witness.u == 0)


class TestThreeLayerPicGap:
    """A 3-layer code passes PIC-SIC but violates the PIC criterion.

    The violating interference lies on a measure-zero set, so it is
    constructed explicitly: aligning the leading column's earlier-layer
    entry and the trailing column's same-layer entry reproduces the fixed
    middle-layer block in both columns.
    """

    def _code(self):
        return build(2, cod_trivial(), 2, 3, make_rotated_qam(4, rotation_2d()))

    def test_pic_sic_passes(self):
        r = check_pic_sic(self._code(), 300, np.random.default_rng(6))
        assert r.passed
        assert r.analytic_certificate is True

    def test_randomized_pic_scan_does_not_find_the_witness(self):
        r = check_pic(self._code(), 300, np.random.default_rng(7))
        assert r.passed  # necessary-only evidence
        assert r.analytic_certificate is None  # certificate restricted to n <= 2

    def test_constructed_pic_witness(self):
        code = self._code()
        k = 2  # first group of the middle layer: (x4, x5)
        a = difference_set(code.group_sets[k])
        a = a[np.all(a != 0, axis=1)][0]
        comp = list(code.grouping.complement(k))
        u = np.zeros(len(comp))
        u[comp.index(1)] = a[0]  # x1 := a
        u[comp.index(8)] = a[1]  # x8 := b
        w = code.design.weights
        mat = np.einsum("g,gtn->tn", a, w[[4, 5]]) + np.einsum(
            "c,ctn->tn", u, w[comp]
        )
        assert rel_sv(mat) <= REL_SV_THRESHOLD
        # sanity: the same vector is legal interference for PIC but not for
        # PIC-SIC, whose interference set excludes groups before k
        tail = set(code.grouping.tail(k))
        assert 1 not in tail and 8 in tail


class TestCheckZf:
    def test_lam1_built_codes_pass(self):
        for cod, N in ((cod_alamouti, 4), (cod_trivial, 3)):
            code = build(N, cod(), 1, 2)
            r = check_zf(code, 200, np.random.default_rng(8))
            assert r.passed
            assert r.analytic_certificate is True

    def test_lam2_fails_on_unit_vector(self):
        code = build(2, cod_trivial(), 2, 2, make_rotated_qam(4, rotation_2d()))
        r = check_zf(code, 100, np.random.default_rng(9))
        assert not r.passed
        assert np.count_nonzero(r.witness.u) == 1

    def test_rank_one_design_fails(self):
        w = np.zeros((2, 2, 2), dtype=complex)
        w[0, 0, 0] = 1.0
        w[1, 0, 0] = 1j
        code = from_design(LinearDesign.from_weights(w)).with_sets(make_pam(2))
        r = check_zf(code, 20, np.random.default_rng(10))
        assert not r.passed


class TestWitnessNesting:
    def _full_vector(self, code, report, interference_idx):
        u_full = np.zeros(code.K)
        if report.witness.k is not None:
            grp = list(code.grouping.groups[report.witness.k])
            u_full[grp] = report.witness.a_k
            u_full[list(interference_idx)] = report.witness.u
        else:
            u_full = report.witness.u
        return u_full

    def test_pic_sic_witness_nests_into_pic_and_zf(self):
        code = duplicated_column_code()
        rng = np.random.default_rng(11)
        r = check_pic_sic(code, 50, rng)
        assert not r.passed
        k = r.witness.k
        tail = code.grouping.tail(k)
        comp = code.grouping.complement(k)
        w = code.design.weights
        # embed the PIC-SIC interference into the PIC index set
        u_pic = np.zeros(len(comp))
        for idx, val in zip(tail, r.witness.u):
            u_pic[comp.index(idx)] = val
        mat = np.einsum("g,gtn->tn", r.witness.a_k, w[list(code.grouping.groups[k])])
        mat = mat + np.einsum("c,ctn->tn", u_pic, w[list(comp)])
        assert rel_sv(mat) <= REL_SV_THRESHOLD
        # and the combined vector is a ZF witness
        u_full = self._full_vector(code, r, comp[: len(r.witness.u)])
        u_full = np.zeros(code.K)
        u_full[list(code.grouping.groups[k])] = r.witness.a_k
        for idx, val in zip(tail, r.witness.u):
            u_full[idx] = val
        assert rel_sv(np.einsum("k,ktn->tn", u_full, w)) <= REL_SV_THRESHOLD


class TestScaleInvariance:
    def test_pass_and_fail_survive_scaling(self):
        rng = np.random.default_rng(12)
        good = build(4, cod_trivial(), 2, 2, make_rotated_qam(4, rotation_2d()))
        bad = duplicated_column_code()
        for c in (1e-3, 1e3):
            scaled_good = from_design(
                LinearDesign.from_weights(c * good.design.weights), good.grouping
            ).with_sets(good.group_sets)
            scaled_bad = from_design(
                LinearDesign.from_weights(c * bad.design.weights), bad.grouping
            ).with_sets(bad.group_sets)
            assert check_pic_sic(scaled_good, 50, rng).passed
            assert not check_pic_sic(scaled_bad, 50, rng).passed


class TestCertificate:
    def test_alamouti_family(self):
        assert cod_certificate(build(8, cod_alamouti(), 1, 3)) is True

    def test_scalar_family_with_rotation(self):
        code = build(4, cod_trivial(), 2, 2, make_rotated_qam(4, rotation_2d()))
        assert cod_certificate(code) is True

    def test_identity_rotation_refused(self):
        code = build(4, cod_trivial(), 2, 2, make_rotated_qam(4, identity_rotation(2)))
        assert cod_certificate(code) is False

    def test_loaded_design_refused(self):
        code = from_design(cod_alamouti().design).with_sets(make_pam(2))
        assert cod_certificate(code) is False

    def test_dropped_code_refused(self):
        code = build(4, cod_alamouti(), 1, 2)
        assert cod_certificate(drop_relays(code, [0])) is False

    def test_certificate_never_contradicts_sampling(self):
        rng = np.random.default_rng(13)
        for cod, N, lam, n in [
            (cod_alamouti, 4, 2, 2),
            (cod_trivial, 3, 3, 2),
            (cod_alamouti, 6, 1, 3),
        ]:
            gset = make_pam(2) if lam == 1 else None
            if lam == 2:
                gset = make_rotated_qam(4, rotation_2d())
            if lam == 3:
                continue  # no built-in rotation catalog beyond dim 2
            code = build(N, cod(), lam, n, gset)
            r = check_pic_sic(code, 100, rng)
            if r.analytic_certificate:
                assert r.passed

    @staticmethod
    def _all_presets():
        """Every preset with N <= 8, lam <= 4 and n <= 3, with its default alphabets."""
        for name, N in itertools.product(preset_names(), range(1, 9)):
            for lam, n in itertools.product((None, 1, 2, 3, 4), (1, 2, 3)):
                try:
                    yield preset(name, N, lam, n)
                except ValueError:  # N or lam outside the preset
                    pass

    def test_equals_loop_oracle_on_presets_and_drops(self):
        seen = 0
        for code in self._all_presets():
            assert cod_certificate(code) is cod_certificate_oracle(code)
            seen += cod_certificate(code)
            for j in range(code.N if code.N > 1 else 0):
                dropped = drop_relays(code, [j])
                assert cod_certificate(dropped) is cod_certificate_oracle(dropped) is False
        assert seen > 100

    @pytest.mark.parametrize("args", [("alamouti", 8, 2, 3), ("scalar", 8, 1, 3),
                                      ("scalar", 4, 2, 2), ("alamouti", 4, 1, 1)])
    def test_equals_loop_oracle_on_mutated_codes(self, args):
        code = preset(*args)
        p = code.params
        assert cod_certificate(code) is cod_certificate_oracle(code) is True
        mutated = []
        for i in (0, code.K - 1):
            w = code.design.weights.copy()
            w[i] = np.roll(w[i], p.cod.design.T, axis=0)  # one block row down: off its layer
            mutated.append(w)
            w = code.design.weights.copy()
            w[i, 0, -1] = 0.5  # block row 0, last block column: outside the band
            mutated.append(w)
            w = code.design.weights.copy()
            w[i] = 0  # a symbol in no block
            mutated.append(w)
        bad_codes = [replace(code, design=LinearDesign.from_weights(w)) for w in mutated]
        if p.n > 1:  # the last layer lies outside the band of a code with one layer less
            bad_codes.append(replace(code, params=replace(p, n=p.n - 1)))
        for bad in bad_codes:
            assert cod_certificate(bad) is cod_certificate_oracle(bad) is False


class TestRelayFailure:
    def test_single_drops_pass_at_reduced_rank(self):
        code = build(4, cod_alamouti(), 1, 2)
        reports = relay_failure_sweep(code, 1, trials=100, rng=np.random.default_rng(14))
        subsets = [s for s, _ in reports]
        assert () in subsets and len(subsets) == 5
        for sub, rep in reports:
            assert rep.passed, f"drop {sub} failed"

    def test_zero_drop_equals_plain_check(self):
        code = build(4, cod_alamouti(), 1, 2)
        reports = relay_failure_sweep(code, 0, trials=100, rng=np.random.default_rng(15))
        assert len(reports) == 1 and reports[0][0] == ()
        assert reports[0][1].passed == check_pic_sic(code, 100, np.random.default_rng(15)).passed

    def test_duplicated_columns_fail_after_any_drop(self):
        w = np.concatenate(
            [cod_alamouti().design.weights, cod_alamouti().design.weights[:, :, :1]],
            axis=2,
        )  # 3 columns, first and third identical
        code = from_design(LinearDesign(2, 3, 4, w)).with_sets(make_pam(2))
        reports = relay_failure_sweep(code, 1, trials=50, rng=np.random.default_rng(16))
        by_subset = dict(reports)
        assert not by_subset[()].passed
        assert not by_subset[(1,)].passed  # duplicates survive


class TestComplementTransform:
    def test_identity_and_scaled_identity(self):
        rng = np.random.default_rng(17)
        # A = I and A = 2I are covered by the random-A check being exact for
        # any symmetric full-rank matrix; verify directly as well
        dim = 4
        basis = rng.standard_normal((dim, 2))
        q = np.linalg.qr(basis)[0]
        p_direct = np.eye(dim) - q @ q.T
        for scale in (1.0, 2.0):
            a = scale * np.eye(dim)
            q1 = np.linalg.qr(a @ basis)[0]
            p1 = np.eye(dim) - q1 @ q1.T
            np.testing.assert_allclose(p1, p_direct, atol=1e-12)

    def test_random_matrices(self):
        assert complement_transform_selftest(6, 100, np.random.default_rng(18))

    def test_rejects_dim_one(self):
        with pytest.raises(ValueError):
            complement_transform_selftest(1)


@pytest.mark.parametrize("check", [check_pic, check_pic_sic, check_zf])
def test_negative_trials_refused(check):
    code = build(4, cod_alamouti(), 2, 1)
    with pytest.raises(ValueError, match="^trials must be >= 0, got -5$"):
        check(code, -5)
    # no random draws is valid: the fixed combinations are still tested
    report = check(code, 0)
    assert report.samples_tested > 0 and report.coverage == 1.0


def test_report_json_shape():
    r = check_pic_sic(build(2, cod_alamouti(), 1, 1), 20, np.random.default_rng(19))
    doc = r.to_dict()
    assert set(doc) == {
        "criterion", "passed", "samples_tested", "min_singular_value",
        "witness", "analytic_certificate", "coverage", "exact_svd_fallbacks",
    }
    assert doc["criterion"] == "PIC-SIC" and doc["witness"] is None
    assert doc["exact_svd_fallbacks"] == 0  # every ratio of a clean code is large


def test_report_dict_keys_are_the_fields_in_order():
    for r in (check_pic_sic(build(2, cod_alamouti(), 1, 1), 20, np.random.default_rng(19)),
              check_pic_sic(duplicated_column_code(), 50, np.random.default_rng(4))):
        assert list(r.to_dict()) == [f.name for f in fields(CriterionReport)]


def test_exact_svd_fallbacks_counted():
    r = check_pic_sic(duplicated_column_code(), 50, np.random.default_rng(4))
    assert not r.passed and r.exact_svd_fallbacks >= 1
    assert r.to_dict()["exact_svd_fallbacks"] == r.exact_svd_fallbacks


def _assert_owns_its_data(witness):
    assert witness.u.base is None
    assert witness.a_k is None or witness.a_k.base is None


def test_pic_sic_witness_owns_its_data():
    r = check_pic_sic(duplicated_column_code(), 50, np.random.default_rng(4))
    assert r.witness.a_k is not None
    _assert_owns_its_data(r.witness)


def test_zf_witness_serializes_without_group():
    w = np.zeros((2, 2, 2), dtype=complex)
    w[0, 0, 0] = 1.0
    w[1, 0, 0] = 1j
    code = from_design(LinearDesign.from_weights(w)).with_sets(make_pam(2))
    r = check_zf(code, 20, np.random.default_rng(20))
    doc = r.to_dict()
    assert doc["witness"]["k"] is None and doc["witness"]["a_k"] is None
    assert len(doc["witness"]["u"]) == code.K
    _assert_owns_its_data(r.witness)


def test_oversized_difference_set_is_subsampled():
    # 256-QAM groups have 961 distinct nonzero differences; the checker caps
    # at 256 per group and reports partial coverage
    big = make_rotated_qam(256, rotation_2d())
    code = build(2, cod_trivial(), 2, 1, big)
    rng = np.random.default_rng(21)
    r = check_pic_sic(code, 20, rng)
    assert r.passed
    assert 0 < r.coverage < 1
    assert abs(r.coverage - 2 * 256 / (2 * 960)) < 1e-12
    assert r.to_dict()["coverage"] == r.coverage
    # each group draws its own subset, then its interference, whether or
    # not it shares its alphabet: the generator ends where those draws leave it
    ref = np.random.default_rng(21)
    for k in range(code.g):
        ref.choice(960, size=256, replace=False)
        if code.grouping.tail(k):
            ref.standard_normal((20, len(code.grouping.tail(k))))
    assert rng.bit_generator.state == ref.bit_generator.state


def test_exact_svd_fallback_equals_per_matrix_svd():
    # near-rank-deficient matrices (ratio far below the Gram fast path) and
    # an all-zero one take the batched exact SVD, which must equal a
    # per-matrix SVD bit for bit; a wide stack cannot have full column rank
    rng = np.random.default_rng(22)
    mats = rng.standard_normal((9, 4, 3)) + 1j * rng.standard_normal((9, 4, 3))
    mats[:, :, 2] = mats[:, :, 1] + 1e-9 * rng.standard_normal((9, 4))
    mats[4] = 0.0
    expect = []
    for m in mats:
        s = np.linalg.svd(m, compute_uv=False)
        expect.append(0.0 if s[0] == 0 else s[-1] / s[0])
    assert 0.0 in expect and max(expect) < 1e-6
    np.testing.assert_array_equal(_relative_sv(mats), expect)
    np.testing.assert_array_equal(_relative_sv(np.swapaxes(mats, 1, 2)[:, :2]), np.zeros(9))


@st.composite
def conditioned_stacks(draw):
    """A stack of complex (T, N) matrices, T >= N, built from set singular
    values at a scale from 1e-3 to 1e3: each matrix is well conditioned
    (ratio 1e-2 to 1), near deficient (ratio 1e-14 to 1e-9) or zero."""
    n = draw(st.integers(1, 6))
    t = draw(st.integers(n, 8))
    kinds = draw(st.lists(st.sampled_from(("well", "near", "zero")), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def unitary(m):
        return np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]

    mats = np.zeros((len(kinds), t, n), dtype=complex)
    for b, kind in enumerate(kinds):
        if kind == "zero":
            continue
        low = 10.0 ** (rng.uniform(-2, 0) if kind == "well" else rng.uniform(-14, -9))
        inner = rng.uniform(low, 1.0, max(n - 2, 0))
        s = np.sort(np.concatenate([[1.0], inner, [low]]))[::-1][:n]
        mats[b] = 10.0 ** rng.uniform(-3, 3) * (unitary(t)[:, :n] * s) @ unitary(n)
    return mats


@settings(deadline=None, max_examples=150)
@given(conditioned_stacks())
def test_relative_sv_equals_per_matrix_svd(mats):
    # the Gram fast path agrees with the SVD ratio within 1e-9 relative on
    # well-conditioned matrices; the rest take the exact SVD and equal it
    expect = np.array([s[-1] / s[0] if s[0] > 0 else 0.0
                       for s in (np.linalg.svd(m, compute_uv=False) for m in mats)])
    fallbacks = []
    got = _relative_sv(mats, fallbacks)
    exact = expect < 1e-6
    np.testing.assert_array_equal(got[exact], expect[exact])
    np.testing.assert_allclose(got[~exact], expect[~exact], rtol=1e-9, atol=0)
    assert sum(fallbacks) == np.count_nonzero(exact)


def sweep_codes():
    """The 45 sweep codes of the benchmark's check-sweep workload: alamouti
    and scalar presets over N in {2, 4, 6, 8}, lam in {1, 2}, n in {1, 2, 3},
    with PAM-2 or rotated QAM-4."""
    qam, pam = make_rotated_qam(4, rotation_2d()), make_pam(2)
    codes = []
    for n_relays, lam, n in itertools.product((2, 4, 6, 8), (1, 2), (1, 2, 3)):
        gset = pam if lam == 1 else qam
        if lam <= n_relays // 2:
            codes.append(build(n_relays, cod_alamouti(), lam, n, gset))
        if lam <= n_relays:
            codes.append(build(n_relays, cod_trivial(), lam, n, gset))
    return codes


def _sweep_reports(seed):
    rng = np.random.default_rng(seed)
    return [check(code, 100, rng) for code in sweep_codes()
            for check in (check_pic_sic, check_pic, check_zf)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sweep_reports_equal_einsum_gram_kernel(seed, monkeypatch):
    # one generator per seed through every code and criterion, as the
    # check-sweep round runs them, so the random stream must also agree
    reports = _sweep_reports(seed)
    monkeypatch.setattr("dstbc.diversity._relative_sv", relative_sv_oracle)
    expected = _sweep_reports(seed)
    assert len(reports) == 3 * 45
    for got, want in zip(reports, expected, strict=True):
        for name in ("criterion", "passed", "samples_tested", "coverage",
                     "analytic_certificate"):
            assert getattr(got, name) == getattr(want, name)
        assert got.to_dict()["witness"] == want.to_dict()["witness"]
        assert abs(got.min_singular_value - want.min_singular_value) <= \
            1e-12 * abs(want.min_singular_value)
