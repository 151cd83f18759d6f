import numpy as np
import pytest

from dstbc.constellation import (
    difference_set,
    identity_rotation,
    make_pam,
    make_rotated_qam,
    rotation_2d,
)
from dstbc.construct import build, drop_relays, from_design
from dstbc.design import LinearDesign, cod_alamouti, cod_trivial
from dstbc.diversity import (
    REL_SV_THRESHOLD,
    _relative_sv,
    check_pic,
    check_pic_sic,
    check_zf,
    cod_certificate,
    relay_failure_sweep,
)

from tests.helpers import complement_transform_selftest


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


def test_report_json_shape():
    r = check_pic_sic(build(2, cod_alamouti(), 1, 1), 20, np.random.default_rng(19))
    doc = r.to_dict()
    assert set(doc) == {
        "criterion", "passed", "samples_tested", "min_singular_value",
        "witness", "analytic_certificate", "coverage",
    }
    assert doc["criterion"] == "PIC-SIC" and doc["witness"] is None


def test_zf_witness_serializes_without_group():
    w = np.zeros((2, 2, 2), dtype=complex)
    w[0, 0, 0] = 1.0
    w[1, 0, 0] = 1j
    code = from_design(LinearDesign.from_weights(w)).with_sets(make_pam(2))
    r = check_zf(code, 20, np.random.default_rng(20))
    doc = r.to_dict()
    assert doc["witness"]["k"] is None and doc["witness"]["a_k"] is None
    assert len(doc["witness"]["u"]) == code.K


def test_oversized_difference_set_is_subsampled():
    # 256-QAM groups have 961 distinct nonzero differences; the checker caps
    # at 256 per group and reports partial coverage
    big = make_rotated_qam(256, rotation_2d())
    code = build(2, cod_trivial(), 2, 1, big)
    r = check_pic_sic(code, 20, np.random.default_rng(21))
    assert r.passed
    assert 0 < r.coverage < 1
    assert abs(r.coverage - 2 * 256 / (2 * 960)) < 1e-12
    assert r.to_dict()["coverage"] == r.coverage
