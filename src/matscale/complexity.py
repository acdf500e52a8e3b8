"""Model-complexity descriptors for feed-forward NNs, random forests,
and symbolic-regression models, plus a weighted scalar complexity."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class NnSpec:
    """Fully connected feed-forward net, described by its layer widths."""

    layer_widths: list[int]

    def __post_init__(self):
        if len(self.layer_widths) < 2:
            raise ValueError("need at least input and output layers")
        if any(w < 1 for w in self.layer_widths):
            raise ValueError(f"layer widths must be positive: {self.layer_widths}")


@dataclass
class RfSpec:
    leaves_per_tree: list[int]

    def __post_init__(self):
        if not self.leaves_per_tree or any(l < 1 for l in self.leaves_per_tree):
            raise ValueError(
                f"every tree needs at least one leaf: {self.leaves_per_tree}"
            )


@dataclass
class SissoSpec:
    rung: int
    dimension: int
    has_bias: bool = False

    def __post_init__(self):
        if self.rung < 0:
            raise ValueError(f"rung must be >= 0, got {self.rung}")
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")


@dataclass
class ParamBreakdown:
    """Additive (A), linear-coefficient (L), and nonlinear-coefficient (N)
    parameter counts of a model. The mapping from a concrete model class
    onto (A, L, N) is the caller's responsibility."""

    additive: int
    linear: int
    nonlinear: int

    def __post_init__(self):
        if self.additive < 0 or self.linear < 0 or self.nonlinear < 0:
            raise ValueError("parameter counts must be non-negative")


@dataclass
class ComplexityWeights:
    a: float = 1.0
    b: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(w) for w in (self.a, self.b, self.c)):
            raise ValueError("weights must be finite")


def nn_descriptor(spec: NnSpec) -> tuple[int, int]:
    """(weights, biases): sum of n_k * n_{k+1}, and sum of widths past the input."""
    widths = spec.layer_widths
    weights = sum(a * b for a, b in zip(widths, widths[1:]))
    biases = sum(widths[1:])
    return weights, biases


def rf_descriptor(spec: RfSpec) -> tuple[int, int]:
    """(leaves, splits) totals; each binary tree has one more leaf than splits."""
    leaves = sum(spec.leaves_per_tree)
    splits = sum(l - 1 for l in spec.leaves_per_tree)
    return leaves, splits


def sisso_descriptor(spec: SissoSpec) -> tuple[int, int]:
    """(rung, dimension), counting a bias term as an extra dimension."""
    return spec.rung, spec.dimension + (1 if spec.has_bias else 0)


def weighted_complexity(b: ParamBreakdown, w: ComplexityWeights) -> float:
    """a*A + b*L + c*N; unit weights recover the total parameter count."""
    return w.a * b.additive + w.b * b.linear + w.c * b.nonlinear
