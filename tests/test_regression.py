import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matscale.lattice import Cluster, SymmetryGroup
from matscale.regression import (
    FitTrace,
    TracePoint,
    compare_feature_spaces,
    fit_feature_spaces,
    least_squares,
    omp_fit,
    plateau_detect,
    rmse,
)


# --- rmse --------------------------------------------------------------------

def test_rmse_exact_fit():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0


def test_rmse_hand_values():
    assert rmse([0.0, 0.0], [1.0, -1.0]) == 1.0
    assert rmse([3.0], [0.0]) == 3.0


def test_rmse_rejects_length_mismatch():
    with pytest.raises(ValueError):
        rmse([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        rmse([], [])


# --- least_squares ------------------------------------------------------------

def test_constant_target_gives_intercept_only():
    X = np.arange(12.0).reshape(6, 2)
    coef, intercept = least_squares(X, np.full(6, 4.0))
    assert np.allclose(coef, 0.0)
    assert intercept == pytest.approx(4.0)


def test_recovers_planted_linear_model():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 2))
    y = 2.0 * X[:, 0] - 3.0 * X[:, 1] + 1.0
    coef, intercept = least_squares(X, y)
    assert np.allclose(coef, [2.0, -3.0], atol=1e-10)
    assert intercept == pytest.approx(1.0, abs=1e-10)


def test_duplicated_column_minimum_norm():
    rng = np.random.default_rng(1)
    x = rng.normal(size=30)
    y = 3.0 * x + rng.normal(size=30)
    single_coef, single_b = least_squares(x[:, None], y)
    dup = np.column_stack([x, x])
    dup_coef, dup_b = least_squares(dup, y)
    assert np.all(np.isfinite(dup_coef))
    resid_single = y - (x[:, None] @ single_coef + single_b)
    resid_dup = y - (dup @ dup_coef + dup_b)
    assert np.allclose(resid_single, resid_dup, atol=1e-10)
    # minimum-norm solution splits the weight evenly across the twins
    assert dup_coef[0] == pytest.approx(dup_coef[1])


def test_zero_columns_zero_target_not_an_error():
    coef, intercept = least_squares(np.zeros((5, 2)), np.zeros(5))
    assert np.allclose(coef, 0.0)
    assert intercept == 0.0


def test_more_columns_than_rows_rejected():
    with pytest.raises(ValueError):
        least_squares(np.ones((2, 3)), np.ones(2))


# --- omp_fit -------------------------------------------------------------------

def test_omp_selects_planted_single_feature_first():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 8))
    y = 3.0 * X[:, 5]
    trace = omp_fit(X, y, max_features=4)
    first = trace.points[1]
    assert first.model.selected == [5]
    assert first.rmse < 1e-10


def test_omp_orthogonal_pair_recovered_in_two_steps():
    n = 16
    Q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(n, 6)))
    y = Q[:, 1] + Q[:, 2]
    trace = omp_fit(Q, y, max_features=4)
    assert set(trace.points[2].model.selected) == {1, 2}
    assert trace.points[2].rmse < 1e-12


def test_omp_constant_target_stops_at_intercept():
    X = np.random.default_rng(4).normal(size=(10, 3))
    trace = omp_fit(X, np.full(10, 2.5), max_features=2)
    assert len(trace.points) == 1
    assert trace.points[0].n_features == 0
    assert trace.points[0].rmse == 0.0


def test_omp_rejects_non_finite():
    X = np.ones((4, 2))
    X[0, 0] = np.nan
    with pytest.raises(ValueError):
        omp_fit(X, np.ones(4), max_features=1)


def test_omp_rejects_excessive_max_features():
    X = np.random.default_rng(5).normal(size=(6, 10))
    with pytest.raises(ValueError):
        omp_fit(X, np.ones(6), max_features=6)  # > n - 1


def test_omp_coefficients_in_original_units():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(50, 4)) * np.array([1.0, 100.0, 0.01, 1.0])
    y = 5.0 * X[:, 1] + 1.0
    trace = omp_fit(X, y, max_features=2)
    model = trace.points[1].model
    assert model.selected == [1]
    assert model.coefficients[0] == pytest.approx(5.0, abs=1e-8)
    assert model.intercept == pytest.approx(1.0, abs=1e-8)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_omp_training_rmse_non_increasing(seed):
    rng = np.random.default_rng(seed)
    n, q = int(rng.integers(8, 24)), int(rng.integers(2, 10))
    X = rng.normal(size=(n, q))
    y = rng.normal(size=n)
    trace = omp_fit(X, y, max_features=min(n - 1, q))
    rmses = [pt.rmse for pt in trace.points]
    for a, b in zip(rmses, rmses[1:]):
        assert b <= a + 1e-12 * max(1.0, rmses[0])


def test_omp_deterministic_selection():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(20, 6))
    y = rng.normal(size=20)
    t1 = omp_fit(X, y, max_features=5)
    t2 = omp_fit(X, y, max_features=5)
    assert [p.model.selected for p in t1.points] == [
        p.model.selected for p in t2.points
    ]
    assert [p.rmse for p in t1.points] == [p.rmse for p in t2.points]


# --- plateau_detect -------------------------------------------------------------

def synthetic_trace(rmses):
    return FitTrace([TracePoint(i, r, None) for i, r in enumerate(rmses)])


def test_plateau_none_for_strict_decrease():
    trace = synthetic_trace([5.0, 4.0, 3.0, 2.0])
    assert plateau_detect(trace, window=1, eps=0.0) is None


def test_plateau_flat_tail_detected():
    trace = synthetic_trace([5.0, 2.0, 1.0, 0.5, 0.5, 0.5])
    assert plateau_detect(trace, window=2, eps=1e-6) == 3


def test_plateau_single_point_is_none():
    assert plateau_detect(synthetic_trace([1.0]), window=1, eps=1.0) is None


def test_plateau_validates_arguments():
    trace = synthetic_trace([1.0, 0.5])
    with pytest.raises(ValueError):
        plateau_detect(trace, window=0, eps=0.1)
    with pytest.raises(ValueError):
        plateau_detect(trace, window=1, eps=-1.0)


# --- compare_feature_spaces ------------------------------------------------------

def all_sign_configs(n_sites, fill=6):
    """Every (s0, s1) combination, remaining sites +1."""
    out = []
    for s0 in (1, -1):
        for s1 in (1, -1):
            out.append([s0, s1] + [1] * (fill - 2))
    return out


def test_linear_targets_reached_by_all_degrees():
    g = SymmetryGroup.identity(4)
    clusters = [Cluster((0,)), Cluster((1,))]
    rng = np.random.default_rng(8)
    configs = [rng.choice([-1, 1], size=4).tolist() for _ in range(12)]
    from matscale.lattice import correlation_matrix

    X = correlation_matrix(configs, clusters, g)
    y = 1.5 * X[:, 0] - 0.5 * X[:, 1] + 0.25
    traces = compare_feature_spaces(configs, y, clusters, g, degrees=[1, 2, 3])
    for d, trace in traces.items():
        assert trace.final.rmse < 1e-10, f"degree {d} failed to fit linear data"


def test_planted_quadratic_needs_degree_two():
    g = SymmetryGroup.identity(6)
    clusters = [Cluster((0,)), Cluster((1,))]
    configs = all_sign_configs(6)
    y = np.array([s[0] * s[1] for s in configs], dtype=float)
    traces = compare_feature_spaces(configs, y, clusters, g, degrees=[1, 2])
    assert traces[1].final.rmse > 0.5      # product term is out of reach
    assert traces[2].final.rmse < 1e-8


def test_constant_targets_start_at_zero():
    g = SymmetryGroup.identity(3)
    clusters = [Cluster((0,))]
    configs = [[1, 1, -1], [-1, 1, 1], [1, -1, 1]]
    traces = compare_feature_spaces(configs, [2.0, 2.0, 2.0], clusters, g, [1, 2])
    for trace in traces.values():
        assert trace.points[0].rmse == 0.0


def test_degree_one_trace_equals_bare_correlations():
    g = SymmetryGroup.cyclic(5)
    clusters = [Cluster((0,)), Cluster((0, 1))]
    rng = np.random.default_rng(9)
    configs = [rng.choice([-1, 1], size=5).tolist() for _ in range(10)]
    y = rng.normal(size=10)
    from matscale.lattice import correlation_matrix

    X = correlation_matrix(configs, clusters, g)
    direct = omp_fit(X, y, max_features=2)
    via = compare_feature_spaces(configs, y, clusters, g, degrees=[1],
                                 max_features=2)[1]
    assert [p.rmse for p in via.points] == [p.rmse for p in direct.points]


def test_fit_feature_spaces_returns_each_degrees_features():
    from matscale.lattice import correlation_matrix
    from matscale.polyfeatures import enumerate_monomials, feature_matrix

    g = SymmetryGroup.cyclic(5)
    clusters = [Cluster((0,)), Cluster((0, 1)), Cluster((0, 2))]
    rng = np.random.default_rng(10)
    configs = rng.choice([-1, 1], size=(15, 5))
    y = rng.normal(size=15)
    base = correlation_matrix(configs, clusters, g)
    fits = fit_feature_spaces(base, y, [2, 1], max_features=4)
    traces = compare_feature_spaces(configs, y, clusters, g, [2, 1], max_features=4)
    assert list(fits) == list(traces) == [2, 1]
    for d, (trace, F) in fits.items():
        assert np.array_equal(F, feature_matrix(base, enumerate_monomials(3, d)))
        assert [p.rmse for p in trace.points] == [p.rmse for p in traces[d].points]
        assert trace.final.model.selected == traces[d].final.model.selected
