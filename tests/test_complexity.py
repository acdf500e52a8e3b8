import pytest
from hypothesis import given
from hypothesis import strategies as st

from matscale.complexity import (
    ComplexityWeights,
    NnSpec,
    ParamBreakdown,
    RfSpec,
    SissoSpec,
    nn_descriptor,
    rf_descriptor,
    sisso_descriptor,
    weighted_complexity,
)


def test_nn_minimal_net():
    assert nn_descriptor(NnSpec([1, 1])) == (1, 1)


def test_nn_two_hidden_example():
    # 2*3 + 3*1 weights; 3 + 1 biases
    assert nn_descriptor(NnSpec([2, 3, 1])) == (9, 4)


def test_nn_uniform_widths():
    assert nn_descriptor(NnSpec([5, 5, 5, 5])) == (75, 15)


def brute_force_nn_counts(widths):
    weights = 0
    biases = 0
    for layer in range(1, len(widths)):
        for _ in range(widths[layer]):
            biases += 1
            weights += widths[layer - 1]
    return weights, biases


@given(st.lists(st.integers(1, 8), min_size=2, max_size=6))
def test_nn_matches_per_node_brute_force(widths):
    assert nn_descriptor(NnSpec(widths)) == brute_force_nn_counts(widths)


def test_nn_validation():
    with pytest.raises(ValueError):
        NnSpec([3])
    with pytest.raises(ValueError):
        NnSpec([3, 0])


def test_rf_stump():
    assert rf_descriptor(RfSpec([1])) == (1, 0)


def test_rf_one_tree_eight_leaves():
    assert rf_descriptor(RfSpec([8])) == (8, 7)


def test_rf_two_trees():
    assert rf_descriptor(RfSpec([3, 5])) == (8, 6)


@given(st.lists(st.integers(1, 50), min_size=1, max_size=10))
def test_rf_leaves_minus_splits_is_tree_count(leaves):
    total, splits = rf_descriptor(RfSpec(leaves))
    assert total - splits == len(leaves)


def test_sisso_without_bias():
    assert sisso_descriptor(SissoSpec(rung=2, dimension=3)) == (2, 3)


def test_sisso_bias_counts_as_extra_dimension():
    assert sisso_descriptor(SissoSpec(rung=2, dimension=3, has_bias=True)) == (2, 4)


def test_sisso_minimal():
    assert sisso_descriptor(SissoSpec(rung=0, dimension=1)) == (0, 1)


def test_weighted_complexity_unit_weights_total_count():
    c = weighted_complexity(ParamBreakdown(4, 9, 0), ComplexityWeights(1, 1, 1))
    assert c == 13


def test_weighted_complexity_zero_breakdown():
    assert weighted_complexity(ParamBreakdown(0, 0, 0), ComplexityWeights(1, 1, 1)) == 0


def test_weighted_complexity_hand_value():
    assert weighted_complexity(ParamBreakdown(3, 5, 7), ComplexityWeights(2, 0, 1)) == 13


@given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
def test_unit_weights_recover_parameter_count(a, l, n):
    b = ParamBreakdown(a, l, n)
    assert weighted_complexity(b, ComplexityWeights()) == a + l + n


def test_breakdown_rejects_negative():
    with pytest.raises(ValueError):
        ParamBreakdown(-1, 0, 0)


def test_weights_must_be_finite():
    with pytest.raises(ValueError):
        ComplexityWeights(float("inf"), 1, 1)
