import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dstbc import decode
from dstbc.channel import PowerConfig, RelayChannel
from dstbc.constellation import (
    SignalSet, identity_rotation, make_pam, make_rotated_qam, rotation_2d,
)
from dstbc.construct import GroupingScheme, build, from_design, preset
from dstbc.decode import (
    DECODERS,
    ML_CANDIDATE_CAP,
    GroupDecoder,
    _project_out,
    _singleton_refinement,
)
from dstbc.design import cod_alamouti, cod_trivial
from dstbc.harness import ExperimentConfig, modulation_set
from tests.helpers import group_symbols_oracle, joined, oracle_decide, real_model


def cn(rng, *shape):
    """Unit-variance circularly symmetric complex Gaussian draws."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def observed(code, nd, P, rng, trials=1, noiseless=False):
    """A batch of whitened relay observations; returns observe's
    W (b, d, K + 1) and x0 (b, K), drawn uniformly from the group alphabets."""
    power = PowerConfig.balanced(code, P)
    f, gm = cn(rng, trials, code.N), cn(rng, trials, code.N, nd)
    idx = np.stack([rng.integers(s.size, size=trials) for s in code.group_sets], axis=1)
    x = group_symbols_oracle(code.grouping.groups, code.group_sets, idx)
    v, w = cn(rng, trials, code.N, code.T1), cn(rng, trials, code.T2, nd)
    if noiseless:
        v, w = 0 * v, 0 * w
    return RelayChannel(code).observe(x, f, gm, v, w, power), x


def observed_problem(code, nd, P, rng, trials=1, noiseless=False):
    """observed as the real model: (G (b, d, K), y (b, d), x0 (b, K))."""
    w, x = observed(code, nd, P, rng, trials, noiseless)
    return (*real_model(w), x)


def x_hat(decoder, code, g, y):
    """One decoder's decisions on a batch, as symbol vectors (b, K)."""
    dec = GroupDecoder(decoder, code.grouping, code.group_sets)
    return group_symbols_oracle(dec.groups, dec.sets, dec.decide(joined(g, y))[0])


def projector(cols):
    """The rank-cut projector of _project_out, read off by projecting the
    identity: the complement of the column space of each cols (b, d, c)."""
    b, d, _ = cols.shape
    return _project_out(cols, np.zeros((b, d)), np.broadcast_to(np.eye(d), (b, d, d)))[1]


class TestProjector:
    def test_empty_is_identity(self):
        np.testing.assert_array_equal(projector(np.empty((1, 3, 0)))[0], np.eye(3))

    def test_e1_complement(self):
        p = projector(np.array([[[1.0], [0.0]]]))[0]
        np.testing.assert_allclose(p, np.diag([0.0, 1.0]))

    def test_annihilates_columns(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((20, 8, 3))
        y = rng.standard_normal((20, 8))
        p = projector(m)
        py, _ = _project_out(m, y, m)
        assert np.abs(p @ m).max() < 1e-10
        assert np.abs(p @ p - p).max() < 1e-10
        assert np.abs(p - p.transpose(0, 2, 1)).max() < 1e-10
        assert np.abs(py - np.einsum("bij,bj->bi", p, y)).max() < 1e-10

    def test_rank_deficient_input(self):
        p = projector(np.ones((1, 4, 3)))[0]  # rank 1
        assert abs(np.trace(p) - 3.0) < 1e-10


class TestPic:
    def test_single_group_equals_ml(self):
        rng = np.random.default_rng(1)
        code = from_design(
            cod_trivial().design, GroupingScheme(((0, 1),))
        ).with_sets(make_rotated_qam(4, rotation_2d()))
        g, y, _ = observed_problem(code, 2, 3.0, rng, trials=100)
        np.testing.assert_array_equal(x_hat("pic", code, g, y), x_hat("ml", code, g, y))

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(2)
        code = build(4, cod_trivial(), 2, 2, make_rotated_qam(16, rotation_2d()))
        g, y, x0 = observed_problem(code, 2, 50.0, rng, trials=100, noiseless=True)
        dec = GroupDecoder("pic", code.grouping, code.group_sets)
        idx, metric = dec.decide(joined(g, y))
        np.testing.assert_allclose(group_symbols_oracle(dec.groups, dec.sets, idx), x0)
        assert metric.max() < 1e-12

    def test_matched_filter_on_orthogonal_columns(self):
        # orthogonal G with singleton groups: PIC must equal per-symbol
        # threshold detection
        rng = np.random.default_rng(3)
        s = make_pam(4)
        grouping = GroupingScheme(tuple((i,) for i in range(4)))
        q = np.stack([np.linalg.qr(rng.standard_normal((8, 4)))[0] * rng.uniform(0.5, 2.0)
                      for _ in range(50)])
        x0 = s.points[rng.integers(4, size=(50, 4)), 0]
        y = np.einsum("bdk,bk->bd", q, x0) + 0.05 * rng.standard_normal((50, 8))
        dec = GroupDecoder("pic", grouping, (s,) * 4)
        xh = group_symbols_oracle(dec.groups, dec.sets, dec.decide(joined(q, y))[0])
        # scalar oracle: project y onto each column, pick nearest level
        for t in range(50):
            scale = float(q[t, :, 0] @ q[t, :, 0])
            for i in range(4):
                est = float(q[t, :, i] @ y[t]) / scale
                nearest = s.points[np.argmin(np.abs(s.points[:, 0] - est)), 0]
                assert xh[t, i] == nearest

    def test_projector_identities(self):
        rng = np.random.default_rng(4)
        code = build(6, cod_alamouti(), 2, 2, make_rotated_qam(4, rotation_2d()))
        g, _, _ = observed_problem(code, 2, 10.0, rng)
        for k in range(code.g):
            proj = projector(g[:, :, list(code.grouping.complement(k))])[0]
            for ell in range(code.g):
                if ell == k:
                    continue
                assert np.abs(proj @ g[0][:, code.grouping.groups[ell]]).max() < 1e-10


class TestPicSic:
    def test_single_group_equals_pic(self):
        rng = np.random.default_rng(5)
        code = from_design(
            cod_trivial().design, GroupingScheme(((0, 1),))
        ).with_sets(make_rotated_qam(4, rotation_2d()))
        g, y, _ = observed_problem(code, 2, 3.0, rng, trials=50)
        np.testing.assert_array_equal(x_hat("pic", code, g, y), x_hat("pic-sic", code, g, y))

    def test_noiseless_recovery_with_zero_stage_residuals(self):
        rng = np.random.default_rng(6)
        code = build(6, cod_alamouti(), 2, 2, make_rotated_qam(16, rotation_2d()))
        g, y, x0 = observed_problem(code, 2, 50.0, rng, trials=100, noiseless=True)
        dec = GroupDecoder("pic-sic", code.grouping, code.group_sets)
        idx, metric = dec.decide(joined(g, y))
        np.testing.assert_allclose(group_symbols_oracle(dec.groups, dec.sets, idx), x0)
        assert metric.max() < 1e-10

    def test_tail_projector_identities(self):
        rng = np.random.default_rng(7)
        code = build(4, cod_trivial(), 2, 2, make_rotated_qam(4, rotation_2d()))
        g, _, _ = observed_problem(code, 2, 10.0, rng)
        for k in range(code.g):
            proj = projector(g[:, :, list(code.grouping.tail(k))])[0]
            for ell in range(k + 1, code.g):
                assert np.abs(proj @ g[0][:, code.grouping.groups[ell]]).max() < 1e-10


class TestZf:
    def test_lam1_zf_equals_pic_bit_for_bit(self):
        rng = np.random.default_rng(8)
        code = build(8, cod_alamouti(), 1, 3, make_pam(8))
        g, y, _ = observed_problem(code, 1, 15.0, rng, trials=30)
        np.testing.assert_array_equal(x_hat("zf", code, g, y), x_hat("pic", code, g, y))
        np.testing.assert_array_equal(x_hat("zf-sic", code, g, y), x_hat("pic-sic", code, g, y))

    def test_rotated_group_refused(self):
        code = build(4, cod_trivial(), 2, 2, make_rotated_qam(16, rotation_2d()))
        with pytest.raises(ValueError, match=r"^decoder must suit the code \(group 0 is not "
                                             "coordinate-separable; .*\\), got 'zf'$"):
            GroupDecoder("zf", code.grouping, code.group_sets)

    def test_unknown_decoder_refused_as_the_config_refuses_it(self):
        code = build(2, cod_trivial(), 1, 2, make_pam(2))
        with pytest.raises(ValueError) as library:
            GroupDecoder("magic", code.grouping, code.group_sets)
        with pytest.raises(ValueError) as config:
            ExperimentConfig(decoder="magic", preset="toeplitz", N=2, n=2, snr_grid_db=(0.0,))
        assert str(library.value) == str(config.value) == (
            "decoder must be one of ml, pic, pic-sic, zf, zf-sic, got 'magic'")

    def test_unrotated_product_set_splits(self):
        # identity-rotation QPSK factors per coordinate, so ZF may refine it
        rng = np.random.default_rng(10)
        from dstbc.constellation import identity_rotation

        code = build(4, cod_trivial(), 2, 2, make_rotated_qam(4, identity_rotation(2)))
        g, y, _ = observed_problem(code, 2, 10.0, rng)
        assert x_hat("zf", code, g, y).shape == (1, code.K)

    def test_unrotated_qam16_levels_are_the_sent_coordinates(self):
        s = make_rotated_qam(16, identity_rotation(2))
        _, coord_sets, _ = _singleton_refinement(GroupingScheme(((0, 1),)), (s,), "zf")
        for d, c in enumerate(coord_sets):
            assert c.points.ravel().tobytes() == np.unique(s.points[:, d]).tobytes()

    @pytest.mark.parametrize("m", [2**k for k in range(1, 11)])
    def test_pam_set_refines_to_its_own_points(self, m):
        s = make_pam(m)
        _, (c,), (strides, offsets, table) = _singleton_refinement(
            GroupingScheme(((0,),)), (s,), "zf")
        assert c.points.tobytes() == s.points.tobytes()
        assert strides.tolist() == [[1]] and offsets.tolist() == [0]
        np.testing.assert_array_equal(table, np.arange(m))

    @pytest.mark.parametrize("points", [
        [[0.5], [0.5 + 1e-14]],
        # as many points as the product of the levels, but (0, 0) twice and no (1, 0)
        [[0.0, 0.0], [1e-14, 0.0], [0.0, 1.0], [1.0, 1.0]],
    ], ids=["1d", "2d"])
    def test_points_equal_to_12_decimals_refused(self, points):
        s = SignalSet(len(points[0]), points, len(points).bit_length() - 1, range(len(points)))
        grouping = GroupingScheme((tuple(range(s.dim)),))
        with pytest.raises(ValueError, match=r"^decoder must suit the code \(group 0 is not "):
            GroupDecoder("zf", grouping, (s,))

    def test_k1_all_decoders_agree(self):
        rng = np.random.default_rng(11)
        s = make_pam(2)
        grouping = GroupingScheme(((0,),))
        g = rng.standard_normal((20, 4, 1))
        y = g[:, :, 0] * s.points[rng.integers(2, size=(20, 1)), 0] + 0.3 * rng.standard_normal((20, 4))
        a, b, c = (GroupDecoder(d, grouping, (s,)).decide(joined(g, y))[0]
                   for d in ("zf", "zf-sic", "ml"))
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(b, c)


class TestMl:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(12)
        code = build(2, cod_trivial(), 2, 2, make_rotated_qam(4, rotation_2d()))
        g, y, x0 = observed_problem(code, 2, 50.0, rng, trials=50, noiseless=True)
        np.testing.assert_allclose(x_hat("ml", code, g, y), x0)

    def test_candidate_cap(self):
        code = build(8, cod_trivial(), 1, 3, make_pam(16))  # 16**6 = 2**24 points
        assert math.prod(s.size for s in code.group_sets) > ML_CANDIDATE_CAP
        with pytest.raises(ValueError, match="cap"):
            GroupDecoder("ml", code.grouping, code.group_sets)

    def test_empty_sphere_keeps_the_pic_sic_decision(self, monkeypatch):
        # were rounding to prune every leaf of a trial's search, the PIC-SIC
        # decision that set its radius would still be a candidate
        rng = np.random.default_rng(13)
        code = _qam_code()
        g, y, _ = observed_problem(code, 2, 5.0, rng, trials=50)
        monkeypatch.setattr(GroupDecoder, "_descend", lambda self, *args: [])
        np.testing.assert_array_equal(x_hat("ml", code, g, y), x_hat("pic-sic", code, g, y))

    def test_global_optimality_over_sic(self):
        rng = np.random.default_rng(14)
        code = build(4, cod_trivial(), 2, 2, make_rotated_qam(4, rotation_2d()))
        g, y, _ = observed_problem(code, 2, 2.0, rng, trials=50)
        xm, xs = x_hat("ml", code, g, y), x_hat("pic-sic", code, g, y)
        rm = np.linalg.norm(y - np.einsum("bdk,bk->bd", g, xm), axis=1)
        rs = np.linalg.norm(y - np.einsum("bdk,bk->bd", g, xs), axis=1)
        assert np.all(rm <= rs + 1e-12)


class TestDeterminism:
    def test_identical_inputs_identical_outputs(self):
        rng = np.random.default_rng(15)
        code = build(4, cod_trivial(), 2, 2, make_rotated_qam(4, rotation_2d()))
        g, y, _ = observed_problem(code, 2, 5.0, rng)
        dec = GroupDecoder("pic-sic", code.grouping, code.group_sets)
        a, b = dec.decide(joined(g, y)), dec.decide(joined(g, y))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_tie_breaks_to_lowest_index(self):
        # y = 0 makes every symmetric candidate pair tie; index 0 must win
        s = make_pam(2)
        grouping = GroupingScheme(((0,),))
        g, y = np.ones((1, 2, 1)), np.zeros((1, 2))
        for decoder in ("pic", "ml"):
            assert GroupDecoder(decoder, grouping, (s,)).decide(joined(g, y))[0].tolist() == [[0]]


class TestBoundaryChecks:
    def _pam2_decoder(self, decoder="pic"):
        code = build(2, cod_trivial(), 1, 2, make_pam(2))
        return code, GroupDecoder(decoder, code.grouping, code.group_sets)

    def test_extra_signal_set_rejected(self):
        code, _ = self._pam2_decoder()
        sets = code.group_sets + (make_pam(2),)
        with pytest.raises(ValueError, match="one signal set per group"):
            GroupDecoder("pic", code.grouping, sets)

    def test_wrong_dimension_set_rejected(self):
        code, _ = self._pam2_decoder()
        sets = (make_rotated_qam(4, rotation_2d()),) + code.group_sets[1:]
        with pytest.raises(ValueError, match="dimension"):
            GroupDecoder("ml", code.grouping, sets)

    @pytest.mark.parametrize("decoder", ["pic", "zf-sic", "ml"])
    def test_g_column_count_rejected(self, decoder):
        code, dec = self._pam2_decoder(decoder)
        with pytest.raises(ValueError, match=r"^W must be \(b, d, K \+ 1\) with K = 4"):
            dec.decide(np.ones((3, 8, code.K)))  # G one column short
        with pytest.raises(ValueError, match="^W must be"):
            dec.decide(np.ones((8, code.K + 1)))  # no trial axis

    @pytest.mark.parametrize("decoder", ["pic", "zf-sic", "ml"])
    def test_y_length_rejected(self, decoder):
        # y is W's last column, so it always has G's rows; a W with a column
        # too many is refused, and so is a y passed apart from G
        code, dec = self._pam2_decoder(decoder)
        with pytest.raises(ValueError, match="^W must be"):
            dec.decide(np.ones((3, 8, code.K + 2)))
        with pytest.raises(TypeError):
            dec.decide(np.ones((3, 8, code.K)), np.ones((3, 8)))


def decoders_of(code):
    """Every decoder the code admits: ZF needs coordinate-separable group
    alphabets, and ML a product alphabet within the candidate cap."""
    out = {}
    for decoder in DECODERS:
        try:
            out[decoder] = GroupDecoder(decoder, code.grouping, code.group_sets)
        except ValueError:
            pass
    return out


def spy(monkeypatch, name):
    """The arguments of every later call to GroupDecoder.<name>, in a list."""
    calls, method = [], getattr(GroupDecoder, name)

    def recorded(self, *args):
        calls.append(args)
        return method(self, *args)

    monkeypatch.setattr(GroupDecoder, name, recorded)
    return calls


def qr_spy(monkeypatch):
    """The arguments of every later np.linalg.qr call, in a list, as spy
    records them: ML factors the rows with no Cholesky factor by QR."""
    calls, qr = [], np.linalg.qr

    def recorded(*args, **kwargs):
        calls.append(args)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", recorded)
    return calls


def duplicate_column(g, rows, src, dst, delta=0.0, rng=None):
    """G with column dst replaced by column src on the given rows, plus
    delta times standard normal noise when delta is nonzero, in the real and
    the imaginary part of a complex G."""
    g = g.copy()
    g[rows, :, dst] = g[rows, :, src]
    if delta:
        shape = (len(rows), g.shape[1])
        g[rows, :, dst] += delta * rng.standard_normal(shape)
        if np.iscomplexobj(g):
            g[rows, :, dst] += 1j * delta * rng.standard_normal(shape)
    return g


# a rotated QAM-4 code (4 groups of 2) and a PAM-2 code (8 singletons)
def _qam_code():
    return build(4, cod_alamouti(), 2, 1, make_rotated_qam(4, rotation_2d()))


def _pam_code():
    return build(2, cod_alamouti(), 1, 2, make_pam(2))


class TestOracle:
    """decide against oracle_decide: the SVD projections and exhaustive ML."""

    @pytest.mark.parametrize("decoder", DECODERS)
    def test_sweep_codes_equal_oracle(self, decoder):
        from tests.test_acceptance import _sweep_codes

        batches, ties, shapes = 0, 0, {"d > K": 0, "d = K": 0, "d < K": 0}
        for i, (tag, code) in enumerate(_sweep_codes()):
            try:
                dec = GroupDecoder(decoder, code.grouping, code.group_sets)
            except ValueError:
                continue  # ZF on a rotated alphabet, ML above the cap
            rng = np.random.default_rng(900 + i)
            for nd in (2, 1):
                d = 2 * nd * code.T2
                shapes["d > K" if d > code.K else "d = K" if d == code.K else "d < K"] += 2
                for P in (2.0, 1000.0):
                    g, y, _ = observed_problem(code, nd, P, rng, trials=256)
                    idx, metric = dec.decide(joined(g, y))
                    o_idx, o_metric, n_ties = oracle_decide(
                        decoder, code.grouping, code.group_sets, g, y)
                    msg = f"{tag} N_D={nd} P={P}"
                    np.testing.assert_array_equal(idx, o_idx, err_msg=msg)
                    if nd == 2:
                        np.testing.assert_allclose(metric, o_metric, rtol=1e-9, err_msg=msg)
                    else:  # plus an absolute floor of 1e-10 ||y||^2 per row
                        yy = np.einsum("bd,bd->b", y, y)[:, None]
                        np.testing.assert_allclose(metric / yy, o_metric / yy, rtol=1e-9,
                                                   atol=1e-10, err_msg=msg)
                    batches += 1
                    ties += n_ties
        print(f"{decoder}: {batches} batches of 256 equal the oracle ({shapes}); "
              f"{ties} oracle decisions had an exact metric tie")
        assert batches >= 2 * 2 * 24  # the 24 PAM-2 codes at least
        assert shapes["d = K"]  # square G at N_D = 1

    @pytest.mark.parametrize("make_code,decoder", [
        (_qam_code, "pic"), (_qam_code, "pic-sic"), (_qam_code, "ml"),
        (_pam_code, "pic"), (_pam_code, "pic-sic"), (_pam_code, "zf"), (_pam_code, "zf-sic"),
    ])
    def test_duplicated_column_rows(self, make_code, decoder, monkeypatch):
        # every third row gets column 0 twice: inside group 0 of the QAM
        # code, across the first two singletons of the PAM code. ML stays on
        # the QAM code: swapping two PAM-2 symbols on a shared column leaves
        # G x unchanged, an exact tie that only rounding would break. The
        # near-duplicates (delta > 0) have full rank, but a condition number
        # that a factor of the Gram matrix cannot resolve: at delta = 1e-6
        # only those 20 rows fall below the pivot tolerance and reach the
        # exact fallback, while at 0 and 1e-8 the Cholesky factor of the
        # chunk fails and all 60 rows do. The same holds for the duplicate
        # made on the complex W that observe returns, of which only the
        # fallback rows are realified.
        code = make_code()
        assert 1 in code.grouping.groups[0] + code.grouping.groups[1]
        rng = np.random.default_rng(16)
        w0, _ = observed(code, 2, 20.0, rng, trials=60)
        g0, y = real_model(w0)
        dec = GroupDecoder(decoder, code.grouping, code.group_sets)
        exact = qr_spy(monkeypatch) if decoder == "ml" else spy(monkeypatch, "_projected")
        for delta in (0.0, 1e-6, 1e-8):
            g = duplicate_column(g0, np.arange(0, 60, 3), 0, 1, delta, rng)
            w = duplicate_column(w0, np.arange(0, 60, 3), 0, 1, delta, rng)
            if not delta:
                assert (np.linalg.matrix_rank(g) < code.K).tolist() == [t % 3 == 0
                                                                        for t in range(60)]
            for form, wy, (gr, yr) in (("real", joined(g, y), (g, y)),
                                       ("complex", w, real_model(w))):
                msg = f"{form} delta={delta}"
                exact.clear()
                idx, metric = dec.decide(wy)
                fallback_rows = 20 if delta == 1e-6 else 60
                assert sum(len(args[0]) for args in exact) == fallback_rows, msg
                o_idx, o_metric, _ = oracle_decide(decoder, code.grouping, code.group_sets,
                                                   gr, yr)
                np.testing.assert_array_equal(idx, o_idx, err_msg=msg)
                np.testing.assert_allclose(metric, o_metric, rtol=1e-9, atol=1e-12,
                                           err_msg=msg)

    @pytest.mark.parametrize("decoder", DECODERS)
    def test_rows_decode_as_batches_of_one(self, decoder, monkeypatch):
        sizes = (1, 7, 8, 9, 257)
        # a survivor budget small enough that the ML batches split their trial blocks
        monkeypatch.setattr(decode, "_ML_SURVIVORS", 4)
        descents = spy(monkeypatch, "_descend")
        for make_code in (_qam_code, _pam_code):
            code = make_code()
            try:
                dec = GroupDecoder(decoder, code.grouping, code.group_sets)
            except ValueError:
                continue  # ZF on the rotated QAM code
            g, y, _ = observed_problem(code, 2, 5.0, np.random.default_rng(17), trials=257)
            # duplicated columns from row 10 on: the batches of up to 9 rows
            # decode from the factor, and the batch of 257 fails it as a whole
            g = duplicate_column(g, np.arange(10, 257, 10), 0, 1)
            gy = joined(g, y)
            single = np.concatenate([dec.decide(gy[t:t + 1])[0] for t in range(257)])
            descents.clear()
            for n in sizes:
                np.testing.assert_array_equal(dec.decide(gy[:n])[0], single[:n],
                                              err_msg=f"{make_code.__name__} batch of {n}")
            if decoder == "ml":  # one search per batch of 1-9, and more where a block split
                assert len(descents) > len(sizes) - 1, make_code.__name__

    @pytest.mark.parametrize("nd,budget", [
        pytest.param(4, None, id="None"), pytest.param(4, 64, id="64"),
        pytest.param(1, None, id="nd1-None"), pytest.param(1, 64, id="nd1-64"),
    ])
    def test_sphere_at_widest_radius(self, nd, budget, monkeypatch):
        # the crit-9 code at P = 1 (0 dB), where the PIC-SIC radius is widest;
        # at N_D = 1, G (12 x 16) is wide and every row is searched on the
        # QR factor from the MMSE-SIC decision
        code = preset("alamouti", 4, 2, 2, modulation_set("qam4"))
        g, y, _ = observed_problem(code, nd, 1.0, np.random.default_rng(18), trials=128)
        dec = GroupDecoder("ml", code.grouping, code.group_sets)
        if budget:
            monkeypatch.setattr(decode, "_ML_SURVIVORS", budget)
        descents, exact = spy(monkeypatch, "_descend"), qr_spy(monkeypatch)
        idx, metric = dec.decide(joined(g, y))
        o_idx, o_metric, _ = oracle_decide("ml", code.grouping, code.group_sets, g, y)
        np.testing.assert_array_equal(idx, o_idx)
        np.testing.assert_allclose(metric, o_metric, rtol=1e-9)
        assert sum(len(args[0]) for args in exact) == (128 if nd == 1 else 0)
        # the default budget searches the chunk as one block; 64 splits it
        assert (len(descents) > 1) == bool(budget)


_MODULATIONS = {1: ("pam2", "pam4", "pam8"), 2: ("qam4", "qam16", "qam4-unrotated")}


@st.composite
def noiseless_problems(draw):
    """A preset code with a modulation, a receive-antenna count and a seed."""
    name = draw(st.sampled_from(
        ["alamouti", "scalar", "toeplitz", "scalar-full", "single-complex"]))
    lam = None
    if name == "alamouti":
        N = 2 * draw(st.integers(1, 4))
        lam = draw(st.integers(1, min(2, N // 2)))
    elif name == "scalar":
        N = draw(st.integers(1, 8))
        lam = draw(st.integers(1, min(N, 2)))
    elif name == "single-complex":
        N = draw(st.sampled_from([2, 4]))
    else:
        N = draw(st.integers(1, 2 if name == "scalar-full" else 8))
    code = preset(name, N, lam, draw(st.integers(1, 3)))
    modulation = draw(st.sampled_from(_MODULATIONS[len(code.grouping.groups[0])]))
    if modulation == "qam4-unrotated":
        gset = make_rotated_qam(4, identity_rotation(2))
    else:
        gset = modulation_set(modulation)
    return code.with_sets(gset), draw(st.integers(1, 3)), draw(st.integers(0, 2**32 - 1))


@settings(deadline=None, max_examples=60)
@given(noiseless_problems())
def test_noiseless_recovery_every_decoder(problem):
    code, nd, seed = problem
    assume(2 * nd * code.T2 >= code.K)  # G can have full column rank
    rng = np.random.default_rng(seed)
    trials = 4
    sent = np.stack([rng.integers(s.size, size=trials) for s in code.group_sets], axis=1)
    x = group_symbols_oracle(code.grouping.groups, code.group_sets, sent)
    f, gm = cn(rng, trials, code.N), cn(rng, trials, code.N, nd)
    v, w = np.zeros((trials, code.N, code.T1)), np.zeros((trials, code.T2, nd))
    white = RelayChannel(code).observe(x, f, gm, v, w, PowerConfig.balanced(code, 10.0))
    for decoder, dec in decoders_of(code).items():
        np.testing.assert_array_equal(dec.group_indices(dec.decide(white)[0]), sent,
                                      err_msg=decoder)
