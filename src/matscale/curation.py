"""Structure identities, dataset overlap, grouped splits, and histograms.

A structure's identity is its canonical formula concatenated with its
spacegroup number (e.g. ``Mg2F4_136``); it is computed once, when the
``Structure`` is built. Splits are assigned per identity group, never per
entry, so duplicate structures can never straddle a
train/validation/test boundary.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .elements import electronegativity_key

SPLIT_NAMES = ("train", "validation", "test")

STRUCTURE_ID_RE = re.compile(r"^([A-Z][a-z]?[0-9]*)+_[0-9]{1,3}$")

_FORMULA_TOKEN_RE = re.compile(r"([A-Z][a-z]?)([0-9]*)")
_FORMULA_RE = re.compile(r"(?:[A-Z][a-z]?[0-9]*)+")


@dataclass(frozen=True)
class Structure:
    """One database entry: composition, spacegroup, scalar properties.

    The record is frozen, and its identity (``structure_id``) is computed
    once at construction and stored in ``identity``. Property values must
    be finite numbers.
    """

    entry_id: str
    composition: dict[str, int]
    spacegroup: int
    properties: dict[str, float] = field(default_factory=dict)
    source: str = ""
    identity: str = field(init=False)

    def __post_init__(self):
        formula = canonical_formula(self.composition)
        sg = self.spacegroup
        if not isinstance(sg, int) or isinstance(sg, bool) or not 1 <= sg <= 230:
            raise ValueError(f"spacegroup must be an integer in [1, 230], got {sg!r}")
        for name, value in self.properties.items():
            if not math.isfinite(value):
                raise ValueError(f"property {name!r} must be finite, got {value!r}")
        object.__setattr__(self, "identity", f"{formula}_{sg}")


@dataclass
class SplitAssignment:
    """Entry-level split assignment produced by grouped_split."""

    assignment: dict[str, str]  # entry_id -> "train" | "validation" | "test"
    seed: int
    fractions: tuple[float, float, float]


@dataclass
class Histogram:
    bin_edges: np.ndarray
    counts: np.ndarray
    n_missing: int = 0        # entries without the property
    n_out_of_range: int = 0   # values falling outside the outermost edges


def validate_composition(composition: Mapping[str, int]) -> None:
    if not composition:
        raise ValueError("composition must be non-empty")
    for symbol, count in composition.items():
        electronegativity_key(symbol)  # raises on unknown symbols
        if type(count) is not int or count < 1:  # bool is an int subclass; reject it
            raise ValueError(
                f"count for {symbol!r} must be a positive integer, got {count!r}"
            )


def canonical_formula(composition: Mapping[str, int]) -> str:
    """Canonical formula string for a composition map.

    Elements are ordered by ascending Pauling electronegativity
    (alphabetical tie-break). Counts are written verbatim, including 1,
    and are never reduced to the primitive formula: {Mg: 2, F: 4} gives
    "Mg2F4", not "MgF2".
    """
    validate_composition(composition)
    symbols = sorted(composition, key=electronegativity_key)
    return "".join(f"{sym}{composition[sym]}" for sym in symbols)


def parse_formula(formula: str) -> dict[str, int]:
    """Parse an element-count token string like "Mg2F4" or "BaTiO3".

    A missing count means 1. Repeated element tokens are summed.
    """
    if not isinstance(formula, str) or not _FORMULA_RE.fullmatch(formula):
        raise ValueError(f"cannot parse formula string: {formula!r}")
    composition: dict[str, int] = {}
    for sym, digits in _FORMULA_TOKEN_RE.findall(formula):
        composition[sym] = composition.get(sym, 0) + (int(digits) if digits else 1)
    validate_composition(composition)
    return composition


def structure_id(s: Structure) -> str:
    """Identity label: canonical formula + "_" + spacegroup number."""
    return s.identity


def dataset_overlap(
    a: Sequence[Structure], b: Sequence[Structure]
) -> tuple[int, int, set[str]]:
    """Unique identity counts of both datasets and their common identities."""
    ids_a = {s.identity for s in a}
    ids_b = {s.identity for s in b}
    return len(ids_a), len(ids_b), ids_a & ids_b


def _hash_split_of(label: str, seed: int, fractions: Sequence[float]) -> str:
    # Stable 64-bit hash of (label, seed); identical across platforms and runs.
    digest = hashlib.sha256(f"{label}\x1f{seed}".encode()).digest()
    u = int.from_bytes(digest[:8], "big") / 2.0**64
    if u < fractions[0]:
        return "train"
    if u < fractions[0] + fractions[1]:
        return "validation"
    return "test"


def _allocate_counts(
    n_free: int, fractions: Sequence[float], base: Sequence[int]
) -> list[int]:
    """Place n_free groups so that final per-split counts sit as close as
    possible to the fraction targets, given pre-assigned base counts."""
    total = n_free + sum(base)
    targets = [total * f for f in fractions]
    counts = list(base)
    for _ in range(n_free):
        gains = [
            abs(counts[s] - targets[s]) - abs(counts[s] + 1 - targets[s])
            for s in range(3)
        ]
        best = max(range(3), key=lambda s: (gains[s], -s))
        counts[best] += 1
    return [counts[s] - base[s] for s in range(3)]


def grouped_split(
    entries: Sequence[Structure],
    fractions: tuple[float, float, float],
    seed: int,
    shared_ids: Optional[Iterable[str]] = None,
) -> SplitAssignment:
    """Leakage-free split: all entries sharing an identity land in one split.

    Identity groups are shuffled with a seeded PCG64 generator and assigned
    so realized group-count fractions are as close as possible to the
    targets. Groups whose identity is in ``shared_ids`` are instead placed
    by a stable hash of (label, seed): two datasets run with the same seed
    put a shared identity in the same split on both sides.
    """
    if not entries:
        raise ValueError("entries must be non-empty")
    if len(fractions) != 3:
        raise ValueError("fractions must have exactly 3 components")
    if not all(math.isfinite(f) and f >= 0 for f in fractions):
        raise ValueError(f"fractions must be finite and non-negative, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {fractions}")

    label_of = {e.entry_id: e.identity for e in entries}
    labels = sorted(set(label_of.values()))

    shared = set(shared_ids) if shared_ids is not None else set()
    split_of_label: dict[str, str] = {}
    base = [0, 0, 0]
    free_labels = []
    for label in labels:
        if label in shared:
            split = _hash_split_of(label, seed, fractions)
            split_of_label[label] = split
            base[SPLIT_NAMES.index(split)] += 1
        else:
            free_labels.append(label)

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(free_labels))
    shuffled = [free_labels[i] for i in order]

    quota = _allocate_counts(len(free_labels), fractions, base)
    cursor = 0
    for split, n in zip(SPLIT_NAMES, quota):
        for label in shuffled[cursor : cursor + n]:
            split_of_label[label] = split
        cursor += n

    assignment = {eid: split_of_label[label] for eid, label in label_of.items()}
    return SplitAssignment(assignment=assignment, seed=seed, fractions=tuple(fractions))


def property_histogram(
    entries: Sequence[Structure], property_name: str, bin_edges: Sequence[float]
) -> Histogram:
    """Histogram a property over all entries that carry it.

    Bins are half-open [e_i, e_{i+1}) with the last bin closed. Entries
    missing the property and values outside the outermost edges are not
    binned; both counts are reported on the result.
    """
    edges = np.asarray(bin_edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("bin_edges must be a 1-D sequence of at least 2 edges")
    if not np.all(np.diff(edges) > 0):
        raise ValueError("bin_edges must be strictly ascending")

    values = [
        e.properties[property_name] for e in entries if property_name in e.properties
    ]
    n_missing = len(entries) - len(values)
    counts, _ = np.histogram(values, bins=edges)
    n_out = len(values) - int(counts.sum())
    return Histogram(
        bin_edges=edges,
        counts=counts.astype(int),
        n_missing=n_missing,
        n_out_of_range=n_out,
    )
