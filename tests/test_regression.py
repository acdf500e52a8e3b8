import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matscale import BLAS_THREAD_ENV, _workers, regression
from matscale.lattice import Cluster, SymmetryGroup
from matscale.polyfeatures import MAX_EXPANSION_BYTES, check_expansion_size, feature_count
from matscale.regression import (
    FitTrace,
    OmpModel,
    TracePoint,
    compare_feature_spaces,
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


@pytest.mark.parametrize("tol", [float("nan"), -1e-9, float("inf")])
def test_omp_rejects_nan_or_negative_tol(tol):
    X = np.random.default_rng(5).normal(size=(6, 10))
    with pytest.raises(ValueError, match="tol"):
        omp_fit(X, np.ones(6), max_features=4, tol=tol)


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


# --- omp_fit against its earlier loop, which gathered and predicted twice a step ---

def _loop_omp_fit(X, y, max_features, tol=1e-12):
    """omp_fit as it was: each step refits, predicts for the residual, then
    predicts again inside rmse."""
    X, y = regression._design_matrix(X, y)
    sd = X.std(axis=0)
    Xs = np.where(sd > 0, (X - X.mean(axis=0)) / np.where(sd > 0, sd, 1.0), 0.0)
    selected = []
    coef, intercept = least_squares(X[:, selected], y)
    model = OmpModel(selected.copy(), coef, intercept)
    residual = y - model.predict(X)
    points = [TracePoint(0, rmse(y, model.predict(X)), model)]
    while len(selected) < max_features and np.linalg.norm(residual) >= tol:
        score = np.abs(Xs.T @ residual)
        score[selected] = -1.0
        selected.append(int(np.argmax(score)))
        coef, intercept = least_squares(X[:, selected], y)
        model = OmpModel(selected.copy(), coef, intercept)
        residual = y - model.predict(X)
        points.append(TracePoint(len(selected), rmse(y, model.predict(X)), model))
    return FitTrace(points)


def _assert_traces_bitwise_equal(got, want):
    assert len(got.points) == len(want.points)
    for a, b in zip(got.points, want.points):
        assert a.n_features == b.n_features
        assert a.model.selected == b.model.selected
        assert float.hex(a.rmse) == float.hex(b.rmse)
        assert float.hex(a.model.intercept) == float.hex(b.model.intercept)
        assert a.model.coefficients.shape == b.model.coefficients.shape
        assert a.model.coefficients.tobytes() == b.model.coefficients.tobytes()


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10_000), duplicates=st.integers(0, 3),
       exact=st.booleans(), tol=st.sampled_from([1e-12, 1e-3, 0.5]))
def test_omp_fit_equals_loop_oracle(seed, duplicates, exact, tol):
    rng = np.random.default_rng(seed)
    n, q = int(rng.integers(4, 20)), int(rng.integers(2, 9))
    X = rng.normal(size=(n, q))
    # duplicated columns tie in the screening score; a planted model stops on tol
    X = np.column_stack([X, X[:, rng.integers(0, q, size=duplicates)]])
    y = X[:, :2] @ [2.0, -1.0] + 0.5 if exact else rng.normal(size=n)
    for max_features in {0, 1, min(n - 1, X.shape[1])}:
        got = omp_fit(X, y, max_features, tol)
        _assert_traces_bitwise_equal(got, _loop_omp_fit(X, y, max_features, tol))
        assert got.fitted.tobytes() == got.final.model.predict(X).tobytes()


def test_intercept_only_model_predicts_its_intercept_as_it_is():
    # a zero product plus an intercept of -0.0 would give 0.0
    assert np.signbit(OmpModel([], np.empty(0), -0.0).predict(np.eye(3))).all()


def test_omp_fit_stops_on_tol_like_the_loop_oracle():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(12, 6))
    y = 3.0 * X[:, 4] - X[:, 1] + 2.0
    got, want = omp_fit(X, y, 5, tol=1e-9), _loop_omp_fit(X, y, 5, tol=1e-9)
    assert len(got.points) == 3  # the planted pair leaves a residual below tol
    _assert_traces_bitwise_equal(got, want)
    trace = omp_fit(X, y, 0)
    assert [p.n_features for p in trace.points] == [0]
    _assert_traces_bitwise_equal(trace, _loop_omp_fit(X, y, 0))


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
    with pytest.raises(ValueError):
        plateau_detect(trace, window=1, eps=float("nan"))
    with pytest.raises(ValueError):
        plateau_detect(trace, window=1, eps=float("inf"))


DBL_MAX = sys.float_info.max


@pytest.mark.parametrize("targets", [[1e308, -1e308, 1e308], [1e200, -1e200, 3],
                                     [DBL_MAX, DBL_MAX, 0]])
def test_omp_refuses_targets_whose_spread_overflows(targets):
    with pytest.raises(ValueError, match=r"^targets: the sum of squared deviations from "
                                         r"their mean \((inf|nan)\) must be at most half "
                                         "the largest float64$"):
        omp_fit(np.eye(3), targets, max_features=1)


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


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000), p=st.integers(1, 4),
       degrees=st.lists(st.integers(1, 3), min_size=1, max_size=4),
       max_features=st.sampled_from([None, 0, 3]), exact=st.booleans(),
       tol=st.sampled_from([1e-12, 1e-3, 0.5]))
def test_each_degree_fits_as_its_own_expansion(seed, p, degrees, max_features, exact, tol):
    from matscale.lattice import correlation_matrix
    from matscale.polyfeatures import enumerate_monomials, feature_matrix

    g = SymmetryGroup.cyclic(5)
    # the empty cluster's column of ones has no spread and never scores
    clusters = [Cluster(()), Cluster((0,)), Cluster((0, 1)), Cluster((0, 2))][:p]
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 16))
    configs = rng.choice([-1, 1], size=(n, 5))
    base = correlation_matrix(configs, clusters, g)
    # a planted model on the correlations lets tol stop a trace early
    y = base @ rng.normal(size=p) + 0.5 if exact else rng.normal(size=n)
    traces = compare_feature_spaces(configs, y, clusters, g, degrees, max_features, tol)
    assert list(traces) == list(dict.fromkeys(degrees))
    for d, trace in traces.items():
        F = feature_matrix(base, enumerate_monomials(p, d))
        cap = min([n - 1, F.shape[1]] + ([] if max_features is None else [max_features]))
        _assert_traces_bitwise_equal(trace, omp_fit(F, y, cap, tol))
        assert trace.fitted.tobytes() == trace.final.model.predict(F).tobytes()


# --- degree fits split over forked processes --------------------------------------


def _ce_problem(seed=3, n=14):
    g = SymmetryGroup.cyclic(5)
    clusters = [Cluster((0,)), Cluster((0, 1)), Cluster((0, 2))]
    rng = np.random.default_rng(seed)
    configs = rng.choice([-1, 1], size=(n, 5))
    return configs, rng.normal(size=n), clusters, g


# numpy's overflow warnings fail the test (hypothesis' own DeprecationWarnings do not)
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-DBL_MAX, DBL_MAX) | st.sampled_from([DBL_MAX, -DBL_MAX, 0.0]),
                min_size=3, max_size=8))
def test_huge_targets_are_refused_or_fit_to_finite_traces(targets):
    # the 4-site cyclic group with the point and pair clusters, as ce-fit reads them
    configs = [[1, 1, 1, 1], [1, -1, 1, -1], [-1, -1, 1, 1], [1, -1, -1, -1]] * 2
    try:
        traces = compare_feature_spaces(configs[:len(targets)], targets, [Cluster((0,)),
                                        Cluster((0, 1))], SymmetryGroup.cyclic(4), [1, 2])
    except ValueError as exc:
        assert "must be at most half the largest float64" in str(exc)
        return
    for trace in traces.values():
        assert np.all(np.isfinite([point.rmse for point in trace.points]))
        assert np.all(np.isfinite(trace.fitted))


@pytest.fixture
def cpus(monkeypatch):
    """cpus(k): the process may use k CPUs, and the BLAS runs on one thread. No
    pin takes effect, so k may exceed the machine's CPUs."""
    def set_cpus(k):
        for name in BLAS_THREAD_ENV:
            monkeypatch.setenv(name, "1")
        monkeypatch.setattr(_workers.os, "sched_getaffinity", lambda pid: set(range(k)),
                            raising=False)
    monkeypatch.setattr(_workers.os, "sched_setaffinity", lambda pid, cpus: None,
                        raising=False)
    return set_cpus


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls that compare_feature_spaces makes; each still forks."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(_workers.os, "fork", counting_fork)
    return calls


def _fits(*args, **kwargs):
    """compare_feature_spaces(*args, **kwargs), after which no child is left."""
    try:
        return compare_feature_spaces(*args, **kwargs)
    finally:
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def _assert_fits_equal(got, want):
    assert list(got) == list(want)
    for d in want:
        _assert_traces_bitwise_equal(got[d], want[d])
        assert got[d].fitted.tobytes() == want[d].fitted.tobytes()


@pytest.mark.parametrize("degrees", [[1, 2, 3], [3, 1, 2], [2, 3, 1, 3],
                                     [5, 1, 8, 3, 2, 7, 4, 6]])
def test_forked_fits_equal_the_serial_loop(cpus, forks, degrees):
    problem = _ce_problem(seed=5, n=20)
    cpus(1)
    serial = _fits(*problem, degrees, max_features=8)
    assert forks == []
    distinct = len(set(degrees))
    for k in (2, 3, 8):
        cpus(k)
        _assert_fits_equal(_fits(*problem, degrees, max_features=8), serial)
    # min(distinct degrees, CPUs) processes, this one among them
    assert len(forks) == sum(min(distinct, k) - 1 for k in (2, 3, 8))


@pytest.mark.parametrize("preset", [
    {},
    {"OPENBLAS_NUM_THREADS": "2"},
    {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"},
    {"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": ""},
])
def test_no_fork_unless_the_blas_runs_on_one_thread(monkeypatch, forks, preset):
    for name in BLAS_THREAD_ENV:
        monkeypatch.delenv(name, raising=False)
    for name, value in preset.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(_workers.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    traces = _fits(*_ce_problem(), [1, 2, 3])
    assert list(traces) == [1, 2, 3]
    assert forks == []


def test_nan_target_raises_the_serial_error(cpus, forks):
    configs, y, clusters, g = _ce_problem()
    y[4] = np.nan
    cpus(1)
    with pytest.raises(ValueError) as serial:
        _fits(configs, y, clusters, g, [1, 2, 3])
    cpus(3)
    with pytest.raises(ValueError) as forked:
        _fits(configs, y, clusters, g, [1, 2, 3])
    assert len(forks) == 2
    assert str(forked.value) == str(serial.value) == "design matrix contains non-finite entries"


def test_a_failing_child_falls_back_to_the_serial_loop(cpus, forks, monkeypatch):
    problem = _ce_problem()
    cpus(1)
    serial = _fits(*problem, [3, 1, 4, 2])
    parent, real_omp_fit = os.getpid(), regression.omp_fit

    def omp_fit_failing_in_a_child(*args):
        if os.getpid() != parent:
            raise ValueError("a child failed")
        return real_omp_fit(*args)

    monkeypatch.setattr(regression, "omp_fit", omp_fit_failing_in_a_child)
    cpus(4)
    _assert_fits_equal(_fits(*problem, [3, 1, 4, 2]), serial)
    assert len(forks) == 3


def test_the_first_failing_degree_in_the_given_order_is_raised(cpus, forks, monkeypatch):
    # one process per degree: this one fits 3, children fit 1, 4 and 2. Degrees 4
    # and 2 fail in every process; raising in sorted order would name 2
    problem = _ce_problem()
    degree_of = {feature_count(3, d): d for d in (1, 2, 3, 4)}
    real_omp_fit = regression.omp_fit

    def omp_fit_failing_on_even_degrees(X, *args):
        d = degree_of[X.shape[1]]
        if d % 2 == 0:
            raise ValueError(f"degree {d} failed")
        return real_omp_fit(X, *args)

    monkeypatch.setattr(regression, "omp_fit", omp_fit_failing_on_even_degrees)
    cpus(4)
    with pytest.raises(ValueError, match="^degree 4 failed$"):
        _fits(*problem, [3, 1, 4, 2])
    assert len(forks) == 3


def test_repeated_degree_gives_one_trace(cpus, forks):
    problem = _ce_problem()
    cpus(1)
    serial = _fits(*problem, [2])
    cpus(4)
    _assert_fits_equal(_fits(*problem, [2, 2]), serial)
    assert forks == []  # one distinct degree needs one process


# --- the expansion-size bound ----------------------------------------------------

def test_expansion_size_bound_is_inclusive():
    # feature_count(1, d) == d, so n = 8 rows of 2**25 columns are exactly the limit
    assert MAX_EXPANSION_BYTES == 2**31
    check_expansion_size(8, 1, 2**25)
    with pytest.raises(ValueError, match=f"{2**25 + 1} columns.*{2**31 + 64} bytes"):
        check_expansion_size(8, 1, 2**25 + 1)


def test_large_degree_is_refused_before_the_expansion(monkeypatch):
    def no_expansion(*args):
        raise AssertionError("the expansion was built")

    monkeypatch.setattr(regression, "enumerate_monomials", no_expansion)
    configs, y, clusters, g = _ce_problem()
    q = feature_count(3, 3000)
    with pytest.raises(ValueError, match=f"{q} columns; at 14 rows that is {14 * q * 8} bytes"):
        compare_feature_spaces(configs, y, clusters, g, [1, 3000])
