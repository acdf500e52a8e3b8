"""Orthogonal matching pursuit, fit traces, and plateau detection.

omp_fit greedily selects the feature most correlated with the residual
(columns standardized for the screening step only), refits a least-squares
model with intercept on all selected columns, and records the training
RMSE after every step. Coefficients are always reported in the original
column units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .lattice import Cluster, SymmetryGroup, correlation_matrix
from .polyfeatures import enumerate_monomials, feature_matrix


@dataclass
class DesignMatrix:
    """n x q feature matrix with an n-vector of targets; all finite."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.X.ndim != 2 or self.X.shape[0] < 1 or self.X.shape[1] < 1:
            raise ValueError(f"X must be (n >= 1, q >= 1), got shape {self.X.shape}")
        if self.y.shape != (self.X.shape[0],):
            raise ValueError(
                f"targets must have shape ({self.X.shape[0]},), got {self.y.shape}"
            )
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.y))):
            raise ValueError("design matrix contains non-finite entries")


@dataclass
class OmpModel:
    selected: list[int]
    coefficients: np.ndarray
    intercept: float

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if not self.selected:
            return np.full(X.shape[0], self.intercept)
        return X[:, self.selected] @ self.coefficients + self.intercept


@dataclass
class TracePoint:
    n_features: int
    rmse: float
    model: Optional[OmpModel]


@dataclass
class FitTrace:
    points: list[TracePoint]

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
    Correlation ties break toward the lowest column index.
    """
    dm = DesignMatrix(X, y)
    X, y = dm.X, dm.y
    n, q = X.shape
    if not 0 <= max_features <= min(n - 1, q):
        raise ValueError(
            f"max_features must be in [0, min(n-1, q)] = "
            f"[0, {min(n - 1, q)}], got {max_features}"
        )

    sd = X.std(axis=0)
    Xs = np.where(sd > 0, (X - X.mean(axis=0)) / np.where(sd > 0, sd, 1.0), 0.0)

    selected: list[int] = []
    coef, intercept = least_squares(X[:, selected], y)
    model = OmpModel(selected.copy(), coef, intercept)
    residual = y - model.predict(X)
    points = [TracePoint(0, rmse(y, model.predict(X)), model)]

    while len(selected) < max_features and np.linalg.norm(residual) >= tol:
        score = np.abs(Xs.T @ residual)
        score[selected] = -1.0
        j = int(np.argmax(score))  # first max: lowest index wins ties
        selected.append(j)
        coef, intercept = least_squares(X[:, selected], y)
        model = OmpModel(selected.copy(), coef, intercept)
        residual = y - model.predict(X)
        points.append(TracePoint(len(selected), rmse(y, model.predict(X)), model))
    return FitTrace(points)


def plateau_detect(trace: FitTrace, window: int, eps: float) -> Optional[int]:
    """Smallest feature count after which `window` more points improve < eps."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    pts = trace.points
    for i in range(len(pts) - window):
        if pts[i].rmse - pts[i + window].rmse < eps:
            return pts[i].n_features
    return None


def fit_feature_spaces(
    base,
    targets,
    degrees: Sequence[int],
    max_features: Optional[int] = None,
    tol: float = 1e-12,
) -> dict[int, tuple[FitTrace, np.ndarray]]:
    """OMP trace and feature matrix of each degree's monomial expansion of base.

    base is the (n, p) correlation matrix; degree d expands it through every
    monomial of degree 1..d, so degree 1 fits the bare correlations. The
    feature matrix is returned with the trace so callers can predict without
    rebuilding it.
    """
    base = np.asarray(base, dtype=float)
    y = np.asarray(targets, dtype=float)
    n, p = base.shape
    fits = {}
    for d in degrees:
        F = feature_matrix(base, enumerate_monomials(p, d))
        cap = min(n - 1, F.shape[1])
        if max_features is not None:
            cap = min(cap, max_features)
        fits[d] = (omp_fit(F, y, cap, tol), F)
    return fits


def compare_feature_spaces(
    configs: Sequence,
    targets,
    clusters: Sequence[Cluster],
    group: SymmetryGroup,
    degrees: Sequence[int],
    max_features: Optional[int] = None,
    tol: float = 1e-12,
) -> dict[int, FitTrace]:
    """OMP traces over the monomial feature space of each requested degree.

    Degree 1 reproduces the bare-correlation design matrix; higher degrees
    expand the same correlations through their monomials.
    """
    base = correlation_matrix(configs, clusters, group)
    fits = fit_feature_spaces(base, targets, degrees, max_features, tol)
    return {d: trace for d, (trace, _) in fits.items()}
