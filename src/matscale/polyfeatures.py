"""Monomial feature expansion over a base feature vector.

The expansion of p base features up to degree d contains every multiset
of 1..d indices, ordered degree-major and lexicographically within each
degree. The constant monomial is excluded; models carry it as an
intercept. The count is sum_{k=1..d} C(p+k-1, k).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import comb

import numpy as np

from . import MAX_ARRAY_BYTES

_MAX_COUNT = 2**63 - 1  # counts past a signed 64-bit integer are refused
# The largest float64 expansion check_expansion_size allows. On c CPUs ce-fit holds at
# most c + 1 arrays that size: F, which its processes share, and one standardized copy each.
MAX_EXPANSION_BYTES = MAX_ARRAY_BYTES


@dataclass(frozen=True)
class Monomial:
    """Sparse exponent map, stored as ((feature_index, exponent), ...)."""

    exponents: tuple[tuple[int, int], ...]

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.exponents)


@dataclass
class FeatureMap:
    p: int
    d: int
    monomials: list[Monomial]


def check_degree(d: int) -> None:
    """Raise ValueError unless the expansion degree d is >= 1."""
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")


def feature_count(p: int, d: int) -> int:
    """Closed-form size of the degree-1..d monomial set over p features."""
    # sum_{k=0..d} C(p+k-1, k) = C(p+d, d), less k = 0, the constant monomial
    return comb(p + d, p) - 1 if d > 0 else 0


def check_expansion_size(n: int, p: int, d: int) -> None:
    """Refuse an (n, feature_count(p, d)) float64 expansion over MAX_EXPANSION_BYTES."""
    q = feature_count(p, d)
    size = n * q * 8
    if size > MAX_EXPANSION_BYTES:
        raise ValueError(
            f"the degree-{d} expansion of {p} base features has {q} columns; "
            f"at {n} rows that is {size} bytes, over the {MAX_EXPANSION_BYTES}-byte limit"
        )


def enumerate_monomials(p: int, d: int) -> FeatureMap:
    """All monomials of degree 1..d over p features, in graded-lex order."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    check_degree(d)
    count = feature_count(p, d)
    if count > _MAX_COUNT:
        raise OverflowError(
            f"feature count {count} exceeds the 64-bit integer range"
        )
    monomials = []
    for k in range(1, d + 1):
        for combo in itertools.combinations_with_replacement(range(p), k):
            exps = tuple(sorted(Counter(combo).items()))
            monomials.append(Monomial(exps))
    return FeatureMap(p=p, d=d, monomials=monomials)


def feature_matrix(X, fm: FeatureMap) -> np.ndarray:
    """Row-wise expansion of a base feature matrix (n, p) to (n, q)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != fm.p:
        raise ValueError(f"expected an (n, {fm.p}) matrix, got shape {X.shape}")
    out = np.empty((X.shape[0], len(fm.monomials)))
    for m_i, m in enumerate(fm.monomials):
        col = np.ones(X.shape[0])
        for i, e in m.exponents:
            col = col * X[:, i] ** e
        out[:, m_i] = col
    return out
