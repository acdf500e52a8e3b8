"""Lattice configurations, clusters, symmetry orbits, and correlations.

Occupations are +/-1 vectors over crystal sites. A cluster is a site
subset; its cluster function is the product of the occupations it touches.
Correlations average the cluster function over the symmetry orbit;
``correlation_matrix`` gives them for many configurations at once. A model
on the correlations, or on their monomials (``polyfeatures.feature_matrix``),
is fitted by ``regression.omp_fit`` and predicts with ``OmpModel.predict``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Cluster:
    """Strictly ascending site indices; the empty cluster is allowed."""

    sites: tuple[int, ...]

    def __init__(self, sites=()):
        sites = tuple(int(i) for i in sites)
        if any(i < 0 for i in sites):
            raise ValueError(f"site indices must be non-negative: {sites}")
        if any(a >= b for a, b in zip(sites, sites[1:])):
            raise ValueError(f"sites must be strictly ascending: {sites}")
        object.__setattr__(self, "sites", sites)

    def __len__(self):
        return len(self.sites)


def _row_keys(rows) -> np.ndarray:
    """One fixed-width byte key per row of an (m, n) matrix with entries in [0, n).

    Entries are stored big-endian in the narrowest unsigned type that holds
    n - 1, so equal rows give equal keys and the keys sort (memcmp order) in
    the lexicographic order of the rows.
    """
    rows = np.asarray(rows)
    n = rows.shape[1]
    if n == 0:  # numpy cannot view rows as zero-width keys
        return np.zeros(rows.shape[0], dtype="V1")
    dtype = np.min_scalar_type(n - 1).newbyteorder(">")
    rows = np.ascontiguousarray(rows, dtype=dtype)
    return rows.view(np.dtype((np.void, n * rows.itemsize))).ravel()


def _contains(sorted_keys: np.ndarray, rows) -> np.ndarray:
    """For each row, whether its key is in the sorted key array."""
    keys = _row_keys(rows)  # present iff it has a non-empty equal range
    return np.searchsorted(sorted_keys, keys, "left") < np.searchsorted(
        sorted_keys, keys, "right"
    )


def _closure(gens: np.ndarray, elems: np.ndarray, candidates: np.ndarray, within=None):
    """Breadth-first closure of the rows elems under composition with gens.

    Each round adds the distinct candidates not yet in elems (found by
    sorting; np.unique would import numpy.ma) and composes every generator with them
    (g[e]) for the next round. None as soon as a candidate is not `within`.
    """
    n = gens.shape[1]
    while len(candidates):
        if within is not None and not _contains(within, candidates).all():
            return None
        candidates = candidates[np.argsort(_row_keys(candidates), kind="stable")]
        distinct = np.concatenate(([True], (candidates[1:] != candidates[:-1]).any(axis=1)))
        new = candidates[distinct & ~_contains(np.sort(_row_keys(elems)), candidates)]
        elems = np.concatenate([elems, new])
        candidates = gens[:, new].reshape(len(gens) * len(new), n)
    return elems


def _check_bijections(perms: np.ndarray) -> None:
    n = perms.shape[1]
    bad = np.any(np.sort(perms, axis=1) != np.arange(n), axis=1)
    if bad.any():
        p = perms[np.argmax(bad)]
        raise ValueError(f"not a bijection on {n} sites: {p.tolist()}")


def _as_permutation_rows(permutations) -> np.ndarray:
    try:
        perms = np.asarray(permutations, dtype=np.int64)
    except ValueError:  # ragged rows: name the first one that differs
        sizes = [np.size(p) for p in permutations]
        k = next((k for k, m in enumerate(sizes) if m != sizes[0]), None)
        if k is None:
            raise
        raise ValueError(
            f"permutation {k} has {sizes[k]} entries "
            f"but permutation 0 has {sizes[0]}"
        ) from None
    except OverflowError:  # name the first row holding an index past int64
        k = next(k for k, p in enumerate(permutations) if not all(-2**63 <= i < 2**63 for i in p))
        raise ValueError(f"permutation {k} holds an index outside the int64 range") from None
    if perms.ndim != 2 or perms.shape[0] < 1:
        raise ValueError("permutations must be a non-empty list of index lists")
    return perms


def _raise_first_open_pair(perms: np.ndarray, sorted_keys: np.ndarray) -> None:
    """Name the first p o q, in row order, whose row is not among the keys."""
    for p in perms:
        closed = _contains(sorted_keys, p[perms])  # row q is p o q: p[q[i]]
        if not closed.all():
            q = perms[np.argmin(closed)]
            pair = f"{p.tolist()} o {q.tolist()}"
            raise ValueError(f"group not closed under composition: {pair}")


class SymmetryGroup:
    """Explicit site-permutation group.

    Permutations map site i to perm[i]. Construction verifies that every
    element is a bijection, that the identity is present, and that the set
    is closed under composition. That check grows a subgroup H from the
    identity: the first row not in H joins the generators and H is closed
    again (`_closure`), each composed row looked up among the set's sorted
    row keys. A new generator at least doubles |H| (Lagrange), so H reaches
    every row after at most log2|G| generators, O(|G| log|G|) compositions.
    Only a composed row outside the set runs the |G|^2 scan that names the
    first p o q leaving it, as a brute-force check would.
    """

    def __init__(self, permutations: Sequence[Sequence[int]]):
        perms = _as_permutation_rows(permutations)
        n = perms.shape[1]
        _check_bijections(perms)
        keys = np.sort(_row_keys(perms))
        if not _contains(keys, np.arange(n)[None, :])[0]:
            raise ValueError("group must contain the identity permutation")
        gens, group = perms[:0], np.arange(n)[None, :]
        while group is not None:
            missing = ~_contains(np.sort(_row_keys(group)), perms)
            if not missing.any():
                break
            gens = np.concatenate([gens, perms[np.argmax(missing)][None, :]])
            group = _closure(gens, group, gens[-1][group], within=keys)
        if group is None:  # a composed row is outside the set
            _raise_first_open_pair(perms, keys)
        self.permutations = perms
        self.n_sites = n

    def __len__(self):
        return self.permutations.shape[0]

    @classmethod
    def identity(cls, n_sites: int) -> "SymmetryGroup":
        return cls([list(range(n_sites))])

    @classmethod
    def cyclic(cls, n_sites: int) -> "SymmetryGroup":
        """Rotations i -> i + k (mod n_sites)."""
        base = np.arange(n_sites)
        return cls([np.roll(base, -k) for k in range(n_sites)])

    @classmethod
    def generate(cls, generators: Sequence[Sequence[int]]) -> "SymmetryGroup":
        """Closure of the given generator permutations, elements sorted.

        Breadth-first from the identity (`_closure`): each round composes
        every generator with every element found in the previous round
        (g[e]) and keeps the rows whose keys are new.
        """
        if not len(generators):
            raise ValueError("need at least one generator")
        gens = _as_permutation_rows(generators)
        _check_bijections(gens)
        identity = np.arange(gens.shape[1])[None, :]
        elems = _closure(gens, identity[:0], identity)
        return cls(elems[np.argsort(_row_keys(elems), kind="stable")])


def as_occupations(s) -> np.ndarray:
    """Validate and return an occupation vector with entries in {-1, +1}."""
    arr = np.asarray(s)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("occupations must be a non-empty 1-D vector")
    # checked before the cast, which would truncate 1.5 to 1
    if not np.all((arr == 1) | (arr == -1)):
        raise ValueError("every occupation must be exactly -1 or +1")
    return arr.astype(np.int64)


def apply_permutation(perm: Sequence[int], s) -> np.ndarray:
    """Transformed configuration s' with s'[perm[i]] = s[i]."""
    s = as_occupations(s)
    out = np.empty_like(s)
    out[np.asarray(perm, dtype=int)] = s
    return out


def _orbit_sites(c: Cluster, g: SymmetryGroup) -> np.ndarray:
    """Distinct images of the cluster as sorted site rows, in ascending order."""
    if c.sites and c.sites[-1] >= g.n_sites:
        raise ValueError(
            f"cluster touches site {c.sites[-1]} but group acts on {g.n_sites} sites"
        )
    rows = np.sort(g.permutations[:, list(c.sites)], axis=1)
    if not c.sites:  # np.lexsort needs a key; the empty cluster is its own orbit
        return rows[:1]
    # sorted distinct rows; np.unique's masked-array check would import numpy.ma
    rows = rows[np.lexsort(rows.T[::-1])]
    return rows[np.concatenate(([True], (rows[1:] != rows[:-1]).any(axis=1)))]


def orbit(c: Cluster, g: SymmetryGroup) -> set[Cluster]:
    """Distinct images of the cluster under every group element."""
    return {Cluster(sites) for sites in _orbit_sites(c, g)}


def correlation(c: Cluster, g: SymmetryGroup, s) -> float:
    """Orbit-averaged cluster function, exactly in [-1, +1].

    The average runs over the distinct symmetry-equivalent clusters, not
    over group elements.
    """
    s = as_occupations(s)
    if s.size != g.n_sites:
        raise ValueError(f"config has {s.size} sites but group acts on {g.n_sites}")
    return float(correlation_matrix([s], [c], g)[0, 0])


def correlation_matrix(
    configs: Sequence, clusters: Sequence[Cluster], g: SymmetryGroup
) -> np.ndarray:
    """Row per configuration, column per cluster: the `correlation` of each pair.

    One gather-product per cluster: the occupations at every orbit member's
    sites are multiplied and summed over the orbit in exact int64, then
    divided by the orbit size, so every entry is the correctly rounded
    quotient of two integers. The empty cluster gives a column of ones, and
    an empty configuration list gives shape (0, len(clusters)).
    """
    rows = [as_occupations(s) for s in configs]
    if any(r.size != g.n_sites for r in rows):
        raise ValueError("all configurations must match the group's site count")
    S = np.array(rows, dtype=np.int64).reshape(len(rows), g.n_sites)
    out = np.empty((len(rows), len(clusters)))
    for j, c in enumerate(clusters):
        members = _orbit_sites(c, g)
        out[:, j] = S[:, members].prod(axis=2).sum(axis=1) / len(members)
    return out
