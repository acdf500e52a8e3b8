import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from matscale.polyfeatures import (
    FeatureMap,
    enumerate_monomials,
    feature_count,
    feature_matrix,
)


def brute_force_multisets(p, d):
    """Independent enumeration: distinct sorted index tuples of size 1..d."""
    seen = set()
    for k in range(1, d + 1):
        for combo in itertools.product(range(p), repeat=k):
            seen.add(tuple(sorted(combo)))
    return seen


def test_reference_counts():
    assert len(enumerate_monomials(27, 2).monomials) == 405
    assert len(enumerate_monomials(27, 3).monomials) == 4059


def test_small_case_enumeration():
    fm = enumerate_monomials(2, 2)
    got = [m.as_dict() for m in fm.monomials]
    assert got == [{0: 1}, {1: 1}, {0: 2}, {0: 1, 1: 1}, {1: 2}]


def test_constant_monomial_excluded():
    fm = enumerate_monomials(3, 2)
    assert all(m.degree >= 1 for m in fm.monomials)


@given(st.integers(1, 6), st.integers(1, 6))
def test_count_matches_brute_force(p, d):
    fm = enumerate_monomials(p, d)
    assert len(fm.monomials) == feature_count(p, d)
    assert len(fm.monomials) == len(brute_force_multisets(p, d))


def test_graded_lex_order_is_deterministic():
    a = enumerate_monomials(4, 3)
    b = enumerate_monomials(4, 3)
    assert a.monomials == b.monomials
    degrees = [m.degree for m in a.monomials]
    assert degrees == sorted(degrees)


def test_rejects_bad_dims():
    with pytest.raises(ValueError):
        enumerate_monomials(0, 2)
    with pytest.raises(ValueError):
        enumerate_monomials(2, 0)


def test_count_closed_form_equals_the_sum_over_degrees():
    from math import comb

    for p in range(0, 16):
        for d in range(0, 16):
            assert feature_count(p, d) == sum(comb(p + k - 1, k) for k in range(1, d + 1))
    assert feature_count(7, 50) == 264_385_835  # no per-degree loop at large d
    assert feature_count(2, 10**9) == (10**9 + 2) * (10**9 + 1) // 2 - 1


def test_count_overflow_is_explicit():
    with pytest.raises(OverflowError):
        enumerate_monomials(10**6, 12)


def test_evaluate_all_ones():
    fm = enumerate_monomials(3, 3)
    assert np.all(feature_matrix([[1.0, 1.0, 1.0]], fm)[0] == 1.0)


def test_evaluate_powers_by_hand():
    fm = enumerate_monomials(1, 3)
    assert feature_matrix([[2.0]], fm)[0].tolist() == [2.0, 4.0, 8.0]


def test_evaluate_zero_propagates():
    fm = enumerate_monomials(1, 2)
    assert feature_matrix([[0.0]], fm)[0].tolist() == [0.0, 0.0]


def test_evaluate_rejects_wrong_length():
    fm = enumerate_monomials(2, 2)
    with pytest.raises(ValueError):
        feature_matrix([[1.0]], fm)


@given(st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=5),
       st.integers(1, 4))
def test_degree_one_block_reproduces_input(xs, d):
    x = np.array(xs)
    fm = enumerate_monomials(len(xs), d)
    feats = feature_matrix(x[None, :], fm)[0]
    assert np.array_equal(feats[: len(xs)], x)


def test_feature_matrix_matches_rowwise_evaluation():
    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 1, size=(6, 3))
    fm = enumerate_monomials(3, 3)
    F = feature_matrix(X, fm)
    for i in range(6):
        assert np.allclose(F[i], feature_matrix(X[i : i + 1], fm)[0])


def _evaluate_features_loop(x, fm):
    """The scalar per-monomial loop that evaluated one row, kept as an oracle."""
    out = np.empty(len(fm.monomials))
    for m_i, m in enumerate(fm.monomials):
        v = 1.0
        for i, e in m.exponents:
            v *= x[i] ** e
        out[m_i] = v
    return out


def test_evaluate_features_matches_scalar_loop_within_2_ulp():
    # the array power and the scalar power may round apart by an ulp or two
    rng = np.random.default_rng(17)
    for _ in range(3000):
        p, d = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        fm = enumerate_monomials(p, d)
        x = rng.uniform(-1, 1, p)
        x[rng.random(p) < 0.1] = rng.choice([-1.0, 0.0, 1.0])
        np.testing.assert_array_max_ulp(
            feature_matrix(x[None, :], fm)[0], _evaluate_features_loop(x, fm), maxulp=2
        )


def test_json_round_trip():
    fm = enumerate_monomials(3, 2)
    back = FeatureMap.from_json(fm.to_json())
    assert back.p == fm.p and back.d == fm.d
    assert back.monomials == fm.monomials
