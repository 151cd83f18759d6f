import itertools
import json

import numpy as np
import pytest

from dstbc.design import (
    LinearDesign,
    cod_alamouti,
    cod_trivial,
    design_from_dict,
    design_to_dict,
    evaluate,
    independent_weights,
    require,
    verify_cod,
)

from tests.helpers import load_design, reindex, save_design, verify_cod_oracle


def test_evaluate_zero_and_unit_vectors():
    d = cod_alamouti().design
    assert np.all(evaluate(d, np.zeros(4)) == 0)
    for i in range(4):
        e = np.zeros(4)
        e[i] = 1.0
        np.testing.assert_array_equal(evaluate(d, e), d.weights[i])


def test_evaluate_alamouti_explicit():
    d = cod_alamouti().design
    x = np.array([1.0, 2.0, 3.0, 4.0])
    expected = np.array([[1 + 2j, 3 + 4j], [-3 + 4j, 1 - 2j]])
    np.testing.assert_allclose(evaluate(d, x), expected)


def test_evaluate_rejects_wrong_length():
    with pytest.raises(ValueError):
        evaluate(cod_trivial().design, np.zeros(3))


def test_evaluate_is_linear():
    rng = np.random.default_rng(1)
    d = cod_alamouti().design
    for _ in range(50):
        a, b = rng.standard_normal(2)
        x, y = rng.standard_normal((2, 4))
        lhs = evaluate(d, a * x + b * y)
        rhs = a * evaluate(d, x) + b * evaluate(d, y)
        assert np.abs(lhs - rhs).max() < 1e-13


class TestCod:
    def test_trivial(self):
        c = cod_trivial()
        assert verify_cod(c)
        assert c.design.K == 2
        np.testing.assert_allclose(evaluate(c.design, np.array([3.0, 4.0])), [[3 + 4j]])

    def test_alamouti(self):
        c = cod_alamouti()
        assert verify_cod(c)
        np.testing.assert_array_equal(
            evaluate(c.design, np.array([1.0, 0, 0, 0])), np.eye(2)
        )
        x = np.ones(4)
        m = evaluate(c.design, x)
        assert abs(np.linalg.det(m.conj().T @ m) - 16.0) < 1e-10

    @pytest.mark.parametrize("eps", [0.0, 1e-14, 1e-13, 4e-13, 2e-12, 1e-11, 1e-6])
    def test_equals_loop_oracle(self, eps):
        # each entry of each weight moved by eps in turn, well away from the
        # 1e-12 tolerance's edge: the one einsum and the pair loop agree
        verdicts = set()
        for c in (cod_trivial(), cod_alamouti()):
            w = c.design.weights
            for idx in itertools.product(*map(range, w.shape)):
                for step in (eps, 1j * eps):
                    moved = w.copy()
                    moved[idx] += step
                    d = LinearDesign.from_weights(moved)
                    verdicts.add(verify_cod(d))
                    assert verify_cod(d) is verify_cod_oracle(d)
        if eps <= 1e-13:
            assert verdicts == {True}
        elif eps >= 2e-12:
            assert verdicts == {False}  # 4e-13 moves some identities past 1e-12
        assert verify_cod(LinearDesign(1, 1, 0, np.zeros((0, 1, 1))))  # no pairs to check

    def test_duplicated_weights_fail(self):
        d = LinearDesign.from_weights(np.stack([np.eye(2) + 0j, np.eye(2) + 0j]))
        assert not verify_cod(d)

    def test_gram_identity_random(self):
        rng = np.random.default_rng(2)
        for c in (cod_trivial(), cod_alamouti()):
            for _ in range(100):
                x = rng.standard_normal(c.Kp)
                m = evaluate(c.design, x)
                gram = m.conj().T @ m
                assert np.abs(gram - np.sum(x**2) * np.eye(c.Np)).max() < 1e-10


class TestReindex:
    def test_trivial_shift(self):
        d = reindex(cod_trivial(), (2, 4), 6)
        assert (d.T, d.N, d.K) == (1, 1, 6)
        np.testing.assert_array_equal(d.weights[2], [[1]])
        np.testing.assert_array_equal(d.weights[4], [[1j]])
        for i in (0, 1, 3, 5):
            assert np.all(d.weights[i] == 0)

    def test_identity_indices_reproduce_alamouti(self):
        d = reindex(cod_alamouti(), (0, 1, 2, 3), 4)
        np.testing.assert_array_equal(d.weights, cod_alamouti().design.weights)

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            reindex(cod_trivial(), (1, 1), 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            reindex(cod_trivial(), (0, 4), 4)


def test_independence_predicate():
    assert independent_weights(cod_alamouti().design)
    dep = LinearDesign.from_weights(
        np.stack([np.eye(2) + 0j, 2.0 * np.eye(2) + 0j])
    )
    assert not independent_weights(dep)


def test_json_round_trip(tmp_path):
    d = cod_alamouti().design
    doc = design_to_dict(d)
    text = json.dumps(doc)
    back = design_from_dict(json.loads(text))
    np.testing.assert_array_equal(back.weights, d.weights)
    assert (back.T, back.N, back.K) == (d.T, d.N, d.K)


def test_loaded_weights_bit_identical_to_complex_of_each_pair():
    # signed zeros, integers and full-precision floats load as complex(re, im)
    rng = np.random.default_rng(3)
    pairs = rng.standard_normal((4, 2, 2, 2)).tolist()
    pairs[0][0][0], pairs[1][1][1] = [-0.0, 1], [0.0, -0.0]
    doc = {"T": 2, "N": 2, "K": 4, "weights": pairs}
    expected = np.array([[[complex(re, im) for re, im in row] for row in mat] for mat in pairs])
    assert design_from_dict(json.loads(json.dumps(doc))).weights.tobytes() == expected.tobytes()


def test_file_round_trip(tmp_path):
    d = cod_alamouti().design
    path = tmp_path / "design.json"
    save_design(d, path)
    np.testing.assert_array_equal(load_design(path).weights, d.weights)


def test_load_rejects_dependent_weights():
    dep = LinearDesign.from_weights(np.stack([np.eye(2) + 0j, np.eye(2) + 0j]))
    with pytest.raises(ValueError):
        design_from_dict(design_to_dict(dep))


def test_require_cuts_a_long_value():
    require(True, "x", "be anything", "a" * 500)
    with pytest.raises(ValueError) as e:
        require(False, "x", "be short", "a" * 500)
    assert str(e.value) == "x must be short, got '" + "a" * 196 + "..."
