"""Orthogonal matching pursuit, fit traces, and plateau detection.

omp_fit greedily selects the feature most correlated with the residual
(columns standardized for the screening step only), refits a least-squares
model with intercept on all selected columns, and records the training
RMSE after every step. Coefficients are always reported in the original
column units.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._workers import split_map
from .lattice import Cluster, SymmetryGroup, correlation_matrix
from .polyfeatures import (check_degree, check_expansion_size, enumerate_monomials,
                           feature_count, feature_matrix)


def check_targets(y, name: str = "targets") -> None:
    """Raise ValueError unless the float targets' sum of squared deviations from
    their mean is at most half the largest float64. That sum bounds the residual
    sum of squares of every OMP step (RMSE never rises), and with it every
    screening product |Xs.T @ r| <= sqrt(n) * ||r||; the other half is room for
    np.linalg.norm's summation order to round up."""
    with np.errstate(over="ignore", invalid="ignore"):
        spread = np.square(y - y.mean()).sum()
    if not spread <= sys.float_info.max / 2:  # a mean that overflows makes it inf or NaN
        raise ValueError(f"{name}: the sum of squared deviations from their mean "
                         f"({spread:g}) must be at most half the largest float64")


def _design_matrix(X, y) -> tuple[np.ndarray, np.ndarray]:
    """X and y as float arrays: an n x q feature matrix and n targets, all finite,
    that check_targets accepts."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError(f"X must be (n >= 1, q >= 1), got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise ValueError(f"targets must have shape ({X.shape[0]},), got {y.shape}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("design matrix contains non-finite entries")
    check_targets(y)
    return X, y


def check_tol(value: float, name: str = "tol") -> None:
    """Raise ValueError unless a tolerance (omp_fit's tol, plateau_detect's eps,
    checked under its own name) is a finite number >= 0."""
    if not 0 <= value < np.inf:  # NaN fails too
        raise ValueError(f"{name} must be a finite number >= 0, got {value}")


def check_max_features(max_features: Optional[int]) -> None:
    """Raise ValueError unless compare_feature_spaces' cap is None or >= 0."""
    if max_features is not None and max_features < 0:
        raise ValueError(f"max_features must be None or >= 0, got {max_features}")


def check_plateau_window(window: int) -> None:
    """Raise ValueError unless plateau_detect's window is >= 1."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")


@dataclass
class OmpModel:
    selected: list[int]
    coefficients: np.ndarray
    intercept: float

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return _prediction(X[:, self.selected], self.coefficients, self.intercept)


def _prediction(X_selected, coef, intercept) -> np.ndarray:
    # np.full keeps an intercept of -0.0; a zero product plus -0.0 is 0.0
    if X_selected.shape[1] == 0:
        return np.full(X_selected.shape[0], intercept)
    return X_selected @ coef + intercept


@dataclass
class TracePoint:
    n_features: int
    rmse: float
    model: Optional[OmpModel]


@dataclass
class FitTrace:
    points: list[TracePoint]
    # the final model's predictions on the training rows
    fitted: Optional[np.ndarray] = None

    @property
    def final(self) -> TracePoint:
        return self.points[-1]


def rmse(y, yhat) -> float:
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if y.shape != yhat.shape or y.ndim != 1 or y.size < 1:
        raise ValueError(f"need equal-length vectors, got {y.shape} and {yhat.shape}")
    return float(np.sqrt(np.mean((y - yhat) ** 2)))


def least_squares(X, y) -> tuple[np.ndarray, float]:
    """Least squares with intercept; minimum-norm coefficients.

    Columns and targets are mean-centered, the centered system is solved
    by SVD (numpy lstsq), and the intercept is recovered from the means.
    Rank-deficient systems get the minimum Euclidean-norm coefficient
    vector; an empty column set yields the intercept-only model.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError(f"shape mismatch: X {X.shape}, y {y.shape}")
    if X.shape[1] > X.shape[0]:
        raise ValueError(
            f"selected column count {X.shape[1]} exceeds sample count {X.shape[0]}"
        )
    y_mean = float(y.mean())
    if X.shape[1] == 0:
        return np.empty(0), y_mean
    x_mean = X.mean(axis=0)
    coef, *_ = np.linalg.lstsq(X - x_mean, y - y_mean, rcond=None)
    return coef, y_mean - float(x_mean @ coef)


def omp_fit(X, y, max_features: int, tol: float = 1e-12) -> FitTrace:
    """Greedy forward selection with a full refit after every step.

    The trace starts from the intercept-only model (0 features) and stops
    at max_features or as soon as the residual norm drops below tol.
    Correlation ties break toward the lowest column index. The trace's
    ``fitted`` is the final model's prediction on X, kept from its step.
    """
    X, y = _design_matrix(X, y)
    n, q = X.shape
    if not 0 <= max_features <= min(n - 1, q):
        raise ValueError(
            f"max_features must be in [0, min(n-1, q)] = "
            f"[0, {min(n - 1, q)}], got {max_features}"
        )
    check_tol(tol)

    sd = X.std(axis=0)
    Xs = np.where(sd > 0, (X - X.mean(axis=0)) / np.where(sd > 0, sd, 1.0), 0.0)

    selected: list[int] = []
    points = []
    while True:
        X_selected = X[:, selected]  # gathered and predicted once per step
        coef, intercept = least_squares(X_selected, y)
        fitted = _prediction(X_selected, coef, intercept)
        residual = y - fitted
        rmse_step = float(np.sqrt(np.mean(residual ** 2)))  # rmse(y, fitted)
        points.append(TracePoint(len(selected), rmse_step,
                                 OmpModel(selected.copy(), coef, intercept)))
        # a NaN norm fails ">= tol" and stops the trace
        if not (len(selected) < max_features and np.linalg.norm(residual) >= tol):
            return FitTrace(points, fitted)
        score = np.abs(Xs.T @ residual)
        score[selected] = -1.0
        selected.append(int(np.argmax(score)))  # first max: lowest index wins ties


def plateau_detect(trace: FitTrace, window: int, eps: float) -> Optional[int]:
    """Smallest feature count after which `window` more points improve < eps."""
    check_plateau_window(window)
    check_tol(eps, "eps")
    pts = trace.points
    for i in range(len(pts) - window):
        if pts[i].rmse - pts[i + window].rmse < eps:
            return pts[i].n_features
    return None


def compare_feature_spaces(
    configs: Sequence,
    targets,
    clusters: Sequence[Cluster],
    group: SymmetryGroup,
    degrees: Sequence[int],
    max_features: Optional[int] = None,
    tol: float = 1e-12,
) -> dict[int, FitTrace]:
    """OMP trace per degree d over the degree-1..d monomials of the correlations.

    The (n, p) correlations are expanded once, to the highest degree. The expansion
    is degree-major, so its leading feature_count(p, d) columns are the
    degree-d expansion. Each trace carries its final predictions as ``fitted``.
    The fits share no state, so the distinct degrees are split over processes by
    _workers.split_map; the traces, and the error of the first failing degree in
    the given order, are the serial loop's.
    """
    for d in degrees:
        check_degree(d)
    check_max_features(max_features)
    check_expansion_size(len(configs), len(clusters), max(degrees))
    base = correlation_matrix(configs, clusters, group)
    n, p = base.shape
    features = feature_matrix(base, enumerate_monomials(p, max(degrees)))
    order = list(dict.fromkeys(degrees))

    def fit(fit_degrees):
        traces = []
        for d in fit_degrees:
            q = feature_count(p, d)
            cap = min(n - 1, q) if max_features is None else min(n - 1, q, max_features)
            traces.append(omp_fit(features[:, :q], targets, cap, tol))
        return traces

    return dict(zip(order, split_map(fit, order)))
