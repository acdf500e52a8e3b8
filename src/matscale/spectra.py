"""DOS fingerprints, Tanimoto similarity, sorted matrices, block statistics.

Spectra are discretized on an energy window around the Fermi level. In
raster mode each energy bin becomes a column of bits growing from zero up
to the binned DOS height, stored as the column heights; in vector mode the
per-bin integrals are kept as reals. Similarity is the Tanimoto coefficient
of the bit rasters or the vectors.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Hashable, Optional, Sequence

import numpy as np

from . import MAX_ARRAY_BYTES

DEFAULT_WINDOW = (-10.0, 10.0)
DEFAULT_GRID = (256, 64)

# The largest inner product <a,a> of a vector fingerprint with itself: past it,
# a Tanimoto denominator <a,a> + <b,b> - <a,b> can overflow float64.
MAX_SELF_TERM = sys.float_info.max / 2

_XC_RANK = {"LDA": 0, "PBE": 1}
_TIER_RANK = {"light": 0, "tight": 1, "really_tight": 2}
_REL_RANK = {"ZORA": 0, "atomic_ZORA": 1, "none": 2}


@dataclass(eq=False)
class Spectrum:
    """A DOS curve: energies (eV, strictly ascending), dos (states/eV >= 0);
    ``source`` names the file it was read from, for error messages."""

    energies: np.ndarray
    dos: np.ndarray
    fermi_energy: float
    source: str = ""

    def __post_init__(self):
        self.energies = np.asarray(self.energies, dtype=float)
        self.dos = np.asarray(self.dos, dtype=float)
        if self.energies.ndim != 1 or self.energies.shape != self.dos.shape:
            raise ValueError("energies and dos must be 1-D arrays of equal length")
        if self.energies.size < 2:
            raise ValueError("spectrum needs at least 2 points")
        energies, dos = self.energies, self.dos
        if not (energies[1:] > energies[:-1]).all():
            raise ValueError("energies must be strictly ascending")
        if not dos.min() >= 0:  # a NaN is the minimum, and fails the test
            raise ValueError("dos values must be non-negative")
        # Ascending energies and non-negative dos hold no NaN, so only the
        # energies' ends and the largest dos value can be infinite.
        if not (math.isfinite(energies[0]) and math.isfinite(energies[-1])
                and math.isfinite(dos.max()) and math.isfinite(self.fermi_energy)):
            raise ValueError("spectrum contains non-finite values")


@dataclass
class CalcMetadata:
    """Computational settings of one calculation (used as sort labels)."""

    xc: str
    n_kpt: int
    n_basis: int
    settings_tier: str
    relativistic: str

    def __post_init__(self):
        for name in ("xc", "settings_tier", "relativistic"):
            if not getattr(self, name):
                raise ValueError(f"CalcMetadata.{name} must be set")
        if self.relativistic not in _REL_RANK:
            raise ValueError(
                f"relativistic must be one of {sorted(_REL_RANK)}, "
                f"got {self.relativistic!r}"
            )
        if self.n_kpt < 1 or self.n_basis < 1:
            raise ValueError("n_kpt and n_basis must be positive")

    def sort_key(self):
        xc = _XC_RANK.get(self.xc)
        tier = _TIER_RANK.get(self.settings_tier)
        return (
            (xc, "") if xc is not None else (len(_XC_RANK), self.xc),
            self.n_kpt,
            (tier, "") if tier is not None else (len(_TIER_RANK), self.settings_tier),
            self.n_basis,
            _REL_RANK[self.relativistic],
        )


def _raster_heights(data, grid) -> np.ndarray:
    """data as rows of raster column heights of dtype np.min_scalar_type(n_dos):
    integers in [0, n_dos], n_energy to a row; else a ValueError."""
    n_energy, n_dos = grid
    h = np.asarray(data)
    if (h.ndim != 2 or h.shape[1] != n_energy or h.dtype.kind not in "iu"
            or h.size and (h.min() < 0 or h.max() > n_dos)):
        raise ValueError(f"raster data must be {n_energy} integer column heights "
                         f"in [0, {n_dos}], got {h.dtype} of shape {h.shape}")
    return h.astype(np.min_scalar_type(n_dos))


@dataclass(eq=False)
class FingerprintSet:
    """n fingerprints of one window, grid and mode as one (n, n_energy) array:
    raster column heights of dtype np.min_scalar_type(n_dos), row k's column j
    with its lowest data[k, j] bits set, or float64 vectors. len(fps) is n,
    fps[k] is row k as a one-row set, and fps[a:b] the set of the rows it slices."""

    window: tuple[float, float]
    grid: tuple[int, int]
    mode: str
    data: np.ndarray

    def __post_init__(self):
        if self.mode == "raster":
            self.data = _raster_heights(self.data, self.grid)
        else:
            self.data = np.asarray(self.data, dtype=np.float64)
            if self.data.ndim != 2:
                raise ValueError(f"vector data must be one row per fingerprint, "
                                 f"got shape {self.data.shape}")

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, k: int | slice) -> "FingerprintSet":
        rows = k if isinstance(k, slice) else [range(len(self))[k]]  # k past the end: IndexError
        return FingerprintSet(self.window, self.grid, self.mode, self.data[rows])

    def to_raster(self) -> np.ndarray:
        """The (n, n_energy, n_dos) bool bit rasters of a raster set."""
        if self.mode != "raster":
            raise ValueError("only raster fingerprints have a bit raster")
        return np.arange(self.grid[1]) < self.data[:, :, None]


@dataclass(eq=False)
class SimilarityMatrix:
    values: np.ndarray
    ordering: list[int]          # row index -> original input index
    labels: list[CalcMetadata]

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def mean_off_diagonal(self) -> Optional[float]:
        """Mean of the off-diagonal cells (None below two rows), by one sum() in
        row order over one row's cells at a time: from Python 3.12, sum() rounds
        differently when its floats are split across calls."""
        n = self.n
        if n < 2:
            return None
        cells = chain.from_iterable(
            self.values[i, :i].tolist() + self.values[i, i + 1:].tolist() for i in range(n))
        return sum(cells) / (n * n - n)


def _bin_integrals(x: np.ndarray, y: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Integral of the piecewise-linear curve (x, y) over each [e_i, e_{i+1}).

    The curve is treated as zero outside its data range; no extrapolation.
    """
    inner = x[(x > edges[0]) & (x < edges[-1])]
    # sorted distinct points; np.unique's masked-array check would import numpy.ma
    pts = np.sort(np.concatenate([edges, inner]))
    pts = np.concatenate((pts[:1], pts[1:][pts[1:] != pts[:-1]]))
    vals = np.interp(pts, x, y, left=0.0, right=0.0)
    widths = np.diff(pts)
    seg = 0.5 * (vals[:-1] + vals[1:]) * widths
    mids = 0.5 * (pts[:-1] + pts[1:])
    seg[(mids < x[0]) | (mids > x[-1])] = 0.0  # segments outside the data range
    # pts holds every edge, so a segment's left end names its bin; a midpoint
    # can round onto an edge and name the bin below
    which = np.searchsorted(edges, pts[:-1], side="right") - 1
    # adds in element order, as np.add.at does
    return np.bincount(which, weights=seg, minlength=edges.size - 1)


def check_window(window: tuple[float, float]) -> None:
    """Raise ValueError unless window is (lo, hi), finite with lo < hi."""
    lo, hi = window
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"window must be finite with lo < hi, got {window}")


def check_grid(grid: Sequence[int]) -> None:
    """Raise ValueError unless every grid dimension (n_energy, n_dos) is >= 1, the
    n_energy + 1 float64 bin edges fit in MAX_ARRAY_BYTES, and the raster bits are
    below 2**62, as the int64 similarity sums of two rasters need."""
    if min(grid) < 1:
        raise ValueError(f"grid dimensions must be >= 1, got {grid}")
    if (grid[0] + 1) * 8 > MAX_ARRAY_BYTES or math.prod(grid) >= 2**62:
        raise ValueError(f"grid {grid} exceeds {MAX_ARRAY_BYTES} bytes of bin edges "
                         "or 2**62 - 1 raster bits")


def check_h_max(h_max: float) -> None:
    """Raise ValueError unless the raster normalization h_max is finite and > 0."""
    if not (math.isfinite(h_max) and h_max > 0):
        raise ValueError(f"h_max must be a finite number > 0, got {h_max}")


def bin_heights(
    spectrum: Spectrum, window: tuple[float, float], n_energy_bins: int
) -> np.ndarray:
    """Per-bin trapezoidal DOS integrals on the Fermi-shifted window."""
    check_window(window)
    check_grid((n_energy_bins,))
    lo, hi = window
    where = f"{spectrum.source}: " if spectrum.source else ""
    with np.errstate(over="ignore"):  # energies ascend: only the ends can overflow
        shifted = spectrum.energies - spectrum.fermi_energy
    if not (math.isfinite(shifted[0]) and math.isfinite(shifted[-1])):
        raise ValueError(f"{where}an energy minus the Fermi energy "
                         f"{spectrum.fermi_energy:g} overflows float64")
    if shifted[-1] <= lo or shifted[0] >= hi:
        raise ValueError(
            f"{where}window {window} does not overlap the spectrum range "
            f"[{shifted[0]:g}, {shifted[-1]:g}] after Fermi shift"
        )
    edges = np.linspace(lo, hi, n_energy_bins + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        heights = _bin_integrals(shifted, spectrum.dos, edges)
    if not np.all(np.isfinite(heights)):
        raise ValueError(f"{where}a DOS bin integral in window {window} overflows "
                         "to a non-finite value")
    return heights


def fingerprint_set(
    spectra: Sequence[Spectrum],
    window: tuple[float, float] = DEFAULT_WINDOW,
    grid: tuple[int, int] = DEFAULT_GRID,
    mode: str = "raster",
    h_max: Optional[float] = None,
) -> FingerprintSet:
    """Fingerprint a set of spectra with one shared normalization.

    In raster mode a column of height h gets floor(n_dos * clamp(h, 0, h_max)
    / h_max) bits set. When h_max is not given, the maximum bin height across
    the whole set is used, so rasters of different spectra are directly
    comparable; if every spectrum is flat (zero) in the window, every raster
    is empty. A given h_max must be finite and > 0. One spectrum's
    fingerprint is fingerprint_set([spectrum], ...).
    """
    if not spectra:
        raise ValueError("no spectra given")
    check_settings(window, grid, mode, h_max)
    return _fingerprints([bin_heights(s, window, grid[0]) for s in spectra],
                         window, grid, mode, h_max, [s.source for s in spectra])


def check_settings(window, grid, mode: str, h_max: Optional[float]) -> None:
    """Raise ValueError unless a set can be fingerprinted with these settings:
    check_grid, the mode, check_h_max of a given h_max, then check_window."""
    check_grid(grid)
    if mode not in ("raster", "vector"):
        raise ValueError(f"mode must be 'raster' or 'vector', got {mode!r}")
    if h_max is not None:
        check_h_max(h_max)
    check_window(window)


def _fingerprints(all_heights, window, grid, mode, h_max, sources=()) -> FingerprintSet:
    """The fingerprint set of a set's bin heights; an h_max of None is the
    largest height in the set. Rasters are quantized for the whole set at once.
    A vector whose self term passes MAX_SELF_TERM is an error that names its
    source (sources[k] for the k-th heights, when given)."""
    window, grid = tuple(window), tuple(grid)
    if mode == "vector":
        data = np.stack(all_heights)
        _check_self_terms(_vector_self_terms(data), sources)
        return FingerprintSet(window, grid, mode, data)
    heights = np.stack(all_heights, dtype=float)
    if h_max is None:
        h_max = float(heights.max())
    n_dos = grid[1]
    if h_max > 0:
        if math.isinf(h_max * n_dos):
            # an exact power of two keeps every product's bits, short of overflow
            scale = 2.0 ** -int(n_dos).bit_length()
            np.multiply(heights, scale, out=heights)
            h_max *= scale
        # n_dos * clamp(h, 0, h_max) / h_max in place, in that order, so each
        # row gets the bits of quantizing its spectrum alone
        np.clip(heights, 0.0, h_max, out=heights)
        np.multiply(heights, n_dos, out=heights)
        np.divide(heights, h_max, out=heights)
        n_bits = heights.astype(np.int64)
        np.minimum(n_bits, n_dos, out=n_bits)
    else:
        n_bits = np.zeros(heights.shape, dtype=np.int64)
    return FingerprintSet(window, grid, mode, n_bits)


def _vector_self_terms(data: np.ndarray) -> np.ndarray:
    """<a,a> of each row a of data: one ddot each, as np.dot makes it, batched
    through matmul's vector-vector path; one may overflow (_check_self_terms)."""
    with np.errstate(over="ignore"):
        return np.matmul(data[:, None, :], data[:, :, None])[:, 0, 0]


def _check_self_terms(terms, names=()) -> None:
    """Raise ValueError, naming the first vector by names (else by its index),
    unless every self term is at most MAX_SELF_TERM."""
    bad = np.flatnonzero(~(np.asarray(terms) <= MAX_SELF_TERM))
    if bad.size:
        k = int(bad[0])
        name = names[k] if len(names) else f"fingerprint {k}"
        raise ValueError(f"{name}: the vector's inner product with itself, {terms[k]:g}, "
                         f"exceeds {MAX_SELF_TERM:g}, so its similarities overflow float64")


def tanimoto(f1: FingerprintSet, f2: FingerprintSet) -> float:
    """Tanimoto coefficient <a,b> / (<a,a> + <b,b> - <a,b>) in [0, 1] of two
    one-row sets of one window, grid and mode.

    Raster columns share min(k, k') bits, so <a,b> sums the height minima.
    Both-all-zero fingerprints compare as 1.0 (defined limit). Vectors whose
    self terms pass MAX_SELF_TERM are an error.
    """
    if len(f1) != 1 or len(f2) != 1:
        raise ValueError(f"tanimoto compares two one-row sets, got {len(f1)} and "
                         f"{len(f2)} rows")
    if (f1.window, f1.grid, f1.mode) != (f2.window, f2.grid, f2.mode):
        raise ValueError("fingerprints have mismatched window/grid/mode")
    a, b = f1.data[0], f2.data[0]
    if f1.mode == "raster":
        ab = int(np.minimum(a, b).sum(dtype=np.int64))
        aa = int(a.sum(dtype=np.int64))
        bb = int(b.sum(dtype=np.int64))
    else:
        with np.errstate(over="ignore"):  # only past the check below
            ab = float(np.dot(a, b))
            aa = float(np.dot(a, a))
            bb = float(np.dot(b, b))
        _check_self_terms([aa, bb], ("f1", "f2"))
    denom = aa + bb - ab
    if denom == 0:
        return 1.0
    return ab / denom


def similarity_matrix(fps: FingerprintSet, labels: Sequence[CalcMetadata]
                      ) -> SimilarityMatrix:
    """Pairwise Tanimoto matrix of a set, with one label per row; ordering is the
    identity permutation.

    Every cell equals tanimoto() of its pair bit for bit: raster inner products
    are exact integer sums of minima, in uint32 while the n_energy * n_dos raster
    bits stay below 2**32 and in int64 past that; vector ones are np.dot's ddot,
    batched per row through matmul's vector-vector path (a gemv would round
    differently). Vectors whose self terms pass MAX_SELF_TERM are an error.
    """
    if not isinstance(fps, FingerprintSet):
        raise TypeError(f"similarity_matrix takes a FingerprintSet, got {type(fps).__name__}")
    n = len(fps)
    if not n:
        raise ValueError("need at least one fingerprint")
    if len(labels) != n:
        raise ValueError(f"got {len(labels)} labels for {n} fingerprints")
    data = fps.data
    raster = fps.mode == "raster"
    # int64 self terms: an unsigned one beside an int64 ab would promote to float64,
    # while a uint32 ab beside them stays int64
    if raster:
        self_terms = data.sum(axis=1, dtype=np.int64)
    else:
        self_terms = _vector_self_terms(data)
        _check_self_terms(self_terms)
    # a sum of minima is at most n_energy * n_dos, so below 2**32 it fits in uint32
    ab_type = np.uint32 if math.prod(fps.grid) < 2**32 else np.int64
    values = np.ones((n, n))
    for i in range(n - 1):
        if raster:
            ab = np.minimum(data[i], data[i + 1:]).sum(axis=1, dtype=ab_type)
        else:
            ab = np.matmul(data[i + 1:, None, :], data[i, :, None])[:, 0, 0]
        denom = self_terms[i] + self_terms[i + 1:] - ab
        values[i, i + 1:] = values[i + 1:, i] = np.divide(
            ab, denom, out=np.ones(n - 1 - i), where=denom != 0)
    return SimilarityMatrix(values=values, ordering=list(range(n)), labels=list(labels))


def sort_by_settings(m: SimilarityMatrix) -> SimilarityMatrix:
    """Permute rows/columns by (xc, n_kpt, settings_tier, n_basis, relativistic).

    LDA sorts before PBE, light < tight < really_tight, ZORA before
    atomic_ZORA; unknown tags sort after the known ones, alphabetically.
    """
    perm = sorted(range(m.n), key=lambda i: m.labels[i].sort_key())
    values = m.values[np.ix_(perm, perm)]
    return SimilarityMatrix(
        values=values,
        ordering=[m.ordering[p] for p in perm],
        labels=[m.labels[p] for p in perm],
    )


def block_stats(
    m: SimilarityMatrix, groups: Sequence[Hashable]
) -> dict[tuple[Hashable, Hashable], float]:
    """Mean similarity per (group_i, group_j) block, keyed in the order in which the
    (hashable) groups first appear, row group first. Diagonal entries are excluded
    from intra-group means; blocks left empty by that (singleton groups) are omitted.
    Each mean is np.mean of the block's cells in row-major order."""
    if len(groups) != m.n:
        raise ValueError(f"groups must cover every index: got {len(groups)} for n={m.n}")
    members: dict[Hashable, list[int]] = {}
    for i, g in enumerate(groups):
        members.setdefault(g, []).append(i)

    # each group's columns side by side, so that each block is a slice of its band
    order = list(chain.from_iterable(members.values()))
    ends = list(accumulate(map(len, members.values())))
    out: dict[tuple[Hashable, Hashable], float] = {}
    for gi, rows in members.items():
        band = m.values[np.ix_(rows, order)]
        for gj, start, end in zip(members, [0] + ends, ends):
            block = band[:, start:end]
            if gj is gi:  # one dict key, so a label unequal to itself (NaN) counts too
                block = block[~np.eye(len(rows), dtype=bool)]
            if block.size:
                out[(gi, gj)] = float(np.mean(block.ravel()))
    return out
