"""Monomial feature expansion over a base feature vector.

The expansion of p base features up to degree d contains every multiset
of 1..d indices, ordered degree-major and lexicographically within each
degree. The constant monomial is excluded; models carry it as an
intercept. The count is sum_{k=1..d} C(p+k-1, k).
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass
from math import comb

import numpy as np

_MAX_COUNT = 2**63 - 1  # counts past a signed 64-bit integer are refused


@dataclass(frozen=True)
class Monomial:
    """Sparse exponent map, stored as ((feature_index, exponent), ...)."""

    exponents: tuple[tuple[int, int], ...]

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.exponents)

    def as_dict(self) -> dict[int, int]:
        return dict(self.exponents)


@dataclass
class FeatureMap:
    p: int
    d: int
    monomials: list[Monomial]

    def to_json(self) -> str:
        """Audit form: list of {index: exponent} maps."""
        return json.dumps(
            {
                "p": self.p,
                "d": self.d,
                "monomials": [
                    {str(i): e for i, e in m.exponents} for m in self.monomials
                ],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "FeatureMap":
        obj = json.loads(text)
        monomials = [
            Monomial(tuple(sorted((int(i), int(e)) for i, e in m.items())))
            for m in obj["monomials"]
        ]
        return cls(p=obj["p"], d=obj["d"], monomials=monomials)


def feature_count(p: int, d: int) -> int:
    """Closed-form size of the degree-1..d monomial set over p features."""
    return sum(comb(p + k - 1, k) for k in range(1, d + 1))


def enumerate_monomials(p: int, d: int) -> FeatureMap:
    """All monomials of degree 1..d over p features, in graded-lex order."""
    if p < 1 or d < 1:
        raise ValueError(f"p and d must be >= 1, got p={p}, d={d}")
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
