import numpy as np
import pytest

from dstbc import harness
from dstbc.constellation import (
    RotationMatrix,
    SignalSet,
    difference_set,
    identity_rotation,
    make_pam,
    make_rotated_qam,
    modulation_set,
    rotation_2d,
    verify_rotation,
)
from dstbc.construct import default_group_set
from tests.helpers import gray_grid_oracle


def assert_bit_equal(s: SignalSet, oracle):
    """s is the oracle's (points, labels, bits_per_point, component_levels)
    to the last bit."""
    points, labels, bits, levels = oracle
    assert s.points.shape == points.shape and s.points.tobytes() == points.tobytes()
    assert s.labels.tolist() == labels.tolist() and s.bits_per_point == bits
    assert s.component_levels.tobytes() == levels.tobytes()


class TestGrayGrid:
    """make_pam and make_rotated_qam share one grid builder; each equals the
    list-built grid bit for bit."""

    @pytest.mark.parametrize("m", [2**k for k in range(1, 11)])
    def test_pam(self, m):
        assert_bit_equal(make_pam(m), gray_grid_oracle(m))

    @pytest.mark.parametrize("q", [rotation_2d(), identity_rotation(2), rotation_2d(0.3)],
                             ids=["default", "identity", "0.3rad"])
    @pytest.mark.parametrize("m", [4**k for k in range(1, 7)])
    def test_qam(self, m, q):
        assert_bit_equal(make_rotated_qam(m, q), gray_grid_oracle(m, q))


class TestPam:
    def test_bpsk_points(self):
        s = make_pam(2)
        np.testing.assert_allclose(
            np.sort(s.points.ravel()), [-1 / np.sqrt(2), 1 / np.sqrt(2)]
        )
        assert abs(np.mean(np.sum(s.points**2, axis=1)) - 0.5) < 1e-12

    def test_8pam_scale_against_brute_force(self):
        # oracle: unnormalized odd-grid energy (M^2-1)/3, averaged explicitly
        raw = np.arange(-7, 8, 2, dtype=float)
        e_unnorm = np.mean(raw**2)
        assert e_unnorm == (8**2 - 1) / 3
        s = make_pam(8)
        np.testing.assert_allclose(s.points.ravel(), raw / np.sqrt(2 * e_unnorm))
        assert abs(np.mean(np.sum(s.points**2, axis=1)) - 0.5) < 1e-12

    @pytest.mark.parametrize("bad", [3, 6, 1, 0, 12])
    def test_rejects_non_power_of_two(self, bad):
        with pytest.raises(ValueError):
            make_pam(bad)

    def test_gray_adjacency(self):
        for m in (2, 4, 8, 16):
            s = make_pam(m)
            order = np.argsort(s.points.ravel())
            for a, b in zip(order, order[1:]):
                assert bin(int(s.labels[a]) ^ int(s.labels[b])).count("1") == 1


class TestRotatedQam:
    def test_qpsk_identity_rotation(self):
        s = make_rotated_qam(4, identity_rotation(2))
        pts = {tuple(np.round(p, 12)) for p in s.points}
        v = round(1 / np.sqrt(2), 12)
        assert pts == {(a, b) for a in (-v, v) for b in (-v, v)}

    def test_16qam_unit_energy_enumerated(self):
        s = make_rotated_qam(16, rotation_2d())
        energies = np.sum(s.points**2, axis=1)
        assert abs(energies.mean() - 1.0) < 1e-12
        assert s.size == 16 and s.bits_per_point == 4

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            make_rotated_qam(8, rotation_2d())

    def test_rejects_wrong_rotation_dim(self):
        with pytest.raises(ValueError):
            make_rotated_qam(16, identity_rotation(3))

    def test_labels_bijective(self):
        s = make_rotated_qam(16, rotation_2d())
        assert sorted(s.labels.tolist()) == list(range(16))
        assert np.array_equal(s.index_of_label[s.labels], np.arange(16))


class TestRotation:
    def test_orthogonality_enforced(self):
        with pytest.raises(ValueError):
            RotationMatrix(2, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_identity_fails_full_diversity(self):
        assert not verify_rotation(identity_rotation(2), np.array([-1.0, 1.0]))

    def test_standard_angle_passes_exhaustively(self):
        q = rotation_2d()
        levels = np.array([-3.0, -1.0, 1.0, 3.0])
        assert verify_rotation(q, levels)
        # brute-force oracle over every lattice difference
        diffs = np.unique(levels[:, None] - levels[None, :])
        for d1 in diffs:
            for d2 in diffs:
                if d1 == 0 and d2 == 0:
                    continue
                r = q.entries @ np.array([d1, d2])
                assert np.min(np.abs(r)) > 1e-9

    def test_scalar_rotation_always_passes(self):
        assert verify_rotation(identity_rotation(1), np.array([-1.0, 0.5, 2.0]))

    def test_invariant_under_permutation(self):
        q = rotation_2d()
        levels = np.array([-3.0, -1.0, 1.0, 3.0])
        assert verify_rotation(q, levels) == verify_rotation(q, levels[::-1])

    def test_accepted_rotation_gives_nonzero_difference_coords(self):
        q = rotation_2d()
        s = make_rotated_qam(16, q)
        assert verify_rotation(q, s.component_levels)
        for d in difference_set(s):
            if np.any(d != 0):
                assert np.min(np.abs(d)) > 1e-9


class TestDifferenceSet:
    def test_bpsk(self):
        d = difference_set(make_pam(2))
        np.testing.assert_allclose(
            np.sort(d.ravel()), np.array([-2, 0, 2]) / np.sqrt(2)
        )

    def test_singleton(self):
        s = SignalSet(1, np.array([[0.71]]), 0, np.array([0]))
        d = difference_set(s)
        assert d.shape == (1, 1) and d[0, 0] == 0

    def test_qpsk_has_nine_vectors(self):
        s = make_rotated_qam(4, identity_rotation(2))
        assert difference_set(s).shape[0] == 9


@pytest.mark.parametrize("name", [f"pam{2**b}" for b in range(1, 11)]
                         + [f"qam{4**b}" for b in range(1, 6)])
def test_unique_calls_equal_the_plain_forms(monkeypatch, name):
    # verify_rotation and difference_set call np.unique with return_index,
    # which keeps numpy.ma unloaded; each result equals the plain call's
    unique, calls = np.unique, []

    def both(ar, **kwargs):
        out = unique(ar, **kwargs)
        plain = unique(ar, axis=kwargs.get("axis"))
        assert kwargs.get("return_index") and out[0].shape == plain.shape
        assert out[0].tobytes() == plain.tobytes()
        calls.append(name)
        return out

    monkeypatch.setattr(np, "unique", both)
    s = modulation_set(name)
    verify_rotation(s.rotation, s.component_levels)
    difference_set(s)
    assert len(calls) == 2


def test_signal_set_rejects_duplicate_points():
    with pytest.raises(ValueError):
        SignalSet(1, np.array([[1.0], [1.0]]), 1, np.array([0, 1]))


def test_signal_set_rejects_bad_labels():
    with pytest.raises(ValueError):
        SignalSet(1, np.array([[1.0], [-1.0]]), 1, np.array([0, 2]))


class TestModulationSet:
    @pytest.mark.parametrize("name,dim,size", [("pam2", 1, 2), ("PAM8", 1, 8), ("qam4", 2, 4),
                                               ("qam16", 2, 16), ("qam64", 2, 64)])
    def test_standard_alphabets(self, name, dim, size):
        s = modulation_set(name)
        assert (s.dim, s.size) == (dim, size)

    @pytest.mark.parametrize("name", ["pam0", "pam1", "pam3", "pam6", "qam1", "qam2", "qam8",
                                      "qam32"])
    def test_order_refused_naming_modulation(self, name):
        with pytest.raises(ValueError, match=f"^modulation must be pamM with M in 2, 4, 8, "
                                             rf"\.\.\. or qamM with M in 4, 16, 64, \.\.\., "
                                             f"got '{name}'$"):
            modulation_set(name)

    def test_default_group_sets_are_the_smallest_standard_alphabets(self):
        for lam, name in ((1, "pam2"), (2, "qam4")):
            got, want = default_group_set(lam), modulation_set(name)
            assert np.array_equal(got.points, want.points)
            assert np.array_equal(got.labels, want.labels)
        assert default_group_set(3) is None

    def test_harness_reexports_it(self):
        # the benchmark imports it from dstbc.harness
        assert harness.modulation_set is modulation_set
