"""Structure identities, dataset overlap, grouped splits, and histograms.

A structure's identity is its canonical formula concatenated with its
spacegroup number (e.g. ``Mg2F4_136``); it is computed once, when the
``Structure`` or the ``StructureTable`` is built. Splits are assigned per
identity group, never per entry, so duplicate structures can never straddle
a train/validation/test boundary. The curation functions accept a
``StructureTable`` or any sequence of ``Structure`` and work on columns.
"""

from __future__ import annotations

import hashlib
import math
import operator
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from . import MAX_ARRAY_BYTES
from .elements import ELECTRONEGATIVITY_RANK

SPLIT_NAMES = ("train", "validation", "test")

STRUCTURE_ID_RE = re.compile(r"^([A-Z][a-z]?[0-9]*)+_[0-9]{1,3}$")

_FORMULA_TOKEN_RE = re.compile(r"([A-Z][a-z]?)([0-9]*)")
_FORMULA_RE = re.compile(r"(?:[A-Z][a-z]?[0-9]*)+")
# a count longer than this goes through parse_formula: 640 digits is the
# lowest limit sys.set_int_max_str_digits accepts, so int() may refuse more
_MAX_COPIED_DIGITS = 640


def _symbol_rank_table() -> np.ndarray:
    """Element rank by the codes of a symbol's capital and its lowercase
    letter (0 if none); -1 where no element has that symbol. A newline
    ranks after every element."""
    table = np.full((128, 128), -1, dtype=np.int16)
    for symbol, rank in ELECTRONEGATIVITY_RANK.items():
        table[ord(symbol[0]), ord(symbol[1:] or "\0")] = rank
    table[ord("\n"), 0] = len(ELECTRONEGATIVITY_RANK)
    return table


_SYMBOL_RANK = _symbol_rank_table()


@dataclass(frozen=True)
class Structure:
    """One database entry: composition, spacegroup, scalar properties.

    The record is frozen, and its identity (``structure_id``) is computed
    once at construction and stored in ``identity``. Property values must
    be finite numbers.
    """

    entry_id: str
    composition: dict[str, int] = field(hash=False)
    spacegroup: int
    properties: dict[str, float] = field(default_factory=dict, hash=False)
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


class StructureTable(Sequence[Structure]):
    """Structure entries held as columns, one per field.

    ``table[k]`` and iteration build each ``Structure`` on demand; the
    curation functions read the columns. A table equals any sequence of
    equal structures. The table and its columns are read-only.
    """

    __slots__ = ("entry_ids", "identities", "spacegroups", "properties", "sources")
    entry_ids: tuple[str, ...]
    identities: tuple[str, ...]
    spacegroups: np.ndarray  # int
    properties: dict[str, np.ndarray]  # float64 per property, NaN = missing
    sources: tuple

    def __init__(self, entry_ids, identities, spacegroups, properties, sources):
        columns = (entry_ids, identities, spacegroups, properties, sources)
        for name, column in zip(self.__slots__, columns):
            object.__setattr__(self, name, column)
        for array in (spacegroups, *properties.values()):
            array.flags.writeable = False

    def __setattr__(self, name, value):
        raise AttributeError(f"StructureTable is read-only: cannot set {name!r}")

    @classmethod
    def of(cls, entries: Sequence[Structure]) -> "StructureTable":
        """The table itself, or a table holding the given structures."""
        if isinstance(entries, cls):
            return entries
        names = dict.fromkeys(name for e in entries for name in e.properties)
        return cls(
            entry_ids=tuple(e.entry_id for e in entries),
            identities=tuple(e.identity for e in entries),
            spacegroups=np.array([e.spacegroup for e in entries], dtype=int),
            properties={
                name: np.array([e.properties.get(name, np.nan) for e in entries], dtype=float)
                for name in names
            },
            sources=tuple(e.source for e in entries),
        )

    def __len__(self) -> int:
        return len(self.entry_ids)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        k = range(len(self))[k]  # negative indices; IndexError past the end
        return Structure(
            entry_id=self.entry_ids[k],
            # the canonical formula is never reduced, so it parses to the composition
            composition=parse_formula(self.identities[k].rpartition("_")[0]),
            spacegroup=int(self.spacegroups[k]),
            properties={name: float(column[k]) for name, column in self.properties.items()
                        if not math.isnan(column[k])},
            source=self.sources[k],
        )

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"StructureTable({len(self)} entries, properties={list(self.properties)})"


@dataclass
class SplitAssignment:
    """Entry-level split assignment produced by grouped_split."""

    assignment: dict[str, str]  # entry_id -> "train" | "validation" | "test"
    seed: int
    fractions: tuple[float, float, float]


@dataclass(eq=False)
class Histogram:
    bin_edges: np.ndarray
    counts: np.ndarray
    n_missing: int = 0        # entries without the property
    n_out_of_range: int = 0   # values falling outside the outermost edges


def validate_composition(composition: Mapping[str, int]) -> None:
    if not composition:
        raise ValueError("composition must be non-empty")
    for symbol, count in composition.items():
        if symbol not in ELECTRONEGATIVITY_RANK:
            raise ValueError(f"unknown element symbol: {symbol!r}")
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
    symbols = sorted(composition, key=ELECTRONEGATIVITY_RANK.__getitem__)
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


def canonical_formulas(formulas: Iterable[str]) -> dict[str, str]:
    """Canonical formula of each distinct formula string.

    numpy checks the joined strings byte by byte, splits them into element
    tokens, orders each formula's tokens by electronegativity with one sort
    and gathers their bytes into the canonical strings. A count is copied as
    written, so no count is parsed. A formula whose count has a leading zero
    (or more digits than ``int`` need accept), or that repeats a symbol,
    goes through ``parse_formula`` and ``canonical_formula`` instead. Raises
    ValueError if any formula is bad, without naming it: ``parse_formula``
    and ``canonical_formula`` on each string give the reason.
    """
    formulas = list(formulas)
    if not formulas:
        return {}
    lines = "\n".join(formulas)
    if lines.count("\n") != len(formulas) - 1 or not lines.isascii():
        raise ValueError("cannot parse every formula string")
    # each formula is a line that a newline ends; a "1" follows, for bare symbols
    text = np.frombuffer(f"{lines}\n1".encode("ascii"), dtype=np.uint8)
    del lines
    # int32 positions while every output index fits: at most each byte of
    # the text plus a "1" after each bare symbol. Each per-token array is
    # dropped once used; at 10^6 rows they would otherwise set the peak RSS.
    index = np.int32 if 2 * len(text) < 2**31 else np.int64
    one = len(text) - 1
    starts = _formula_tokens(text[:one]).astype(index)
    # a token is an element symbol with its count, or a line end, which
    # ranks after every element
    lengths = np.diff(starts, append=index(one))
    second = text[starts + 1]
    two_letters = second >= ord("a")
    rank = _SYMBOL_RANK[text[starts], np.where(two_letters, second, 0)]
    del second
    if (rank < 0).any():
        raise ValueError("unknown element symbol")
    line_end = text[starts] == ord("\n")
    n_digits = lengths - 1 - two_letters  # a line end has none
    scalar = (n_digits > _MAX_COPIED_DIGITS) | (
        (n_digits > 0) & (text[starts + 1 + two_letters] == ord("0")))
    bare = (n_digits == 0) & ~line_end
    del n_digits, two_letters
    line = np.cumsum(line_end, dtype=index) - line_end
    del line_end
    order = np.lexsort((rank, line))
    line, rank = line[order], rank[order]
    repeated = (line[1:] == line[:-1]) & (rank[1:] == rank[:-1])
    flagged = np.sort(np.concatenate((line[scalar[order]], line[1:][repeated])))
    # sorted distinct lines; np.union1d's masked-array check would import numpy.ma
    scalar_lines = np.concatenate((flagged[:1], flagged[1:][flagged[1:] != flagged[:-1]]))
    del line, rank, repeated, scalar, flagged
    # each token writes its bytes, then a bare symbol a "1"; the last line
    # end is dropped
    starts, lengths, bare = starts[order], lengths[order], bare[order]
    del order
    out_lengths = lengths + bare
    offsets = np.cumsum(out_lengths, dtype=index)
    offsets -= out_lengths
    gather = np.repeat(starts - offsets, out_lengths)
    del starts, out_lengths
    gather += np.arange(len(gather), dtype=index)
    gather[(offsets + lengths)[bare]] = one
    del offsets, lengths, bare
    formula_of = dict(zip(formulas, text[gather[:-1]].tobytes().decode("ascii").split("\n")))
    for k in scalar_lines.tolist():
        formula_of[formulas[k]] = canonical_formula(parse_formula(formulas[k]))
    return formula_of


def _formula_tokens(text: np.ndarray) -> np.ndarray:
    """Where each token of formula lines starts: at a capital letter or at
    the newline that ends each line. ValueError if a line is not a formula,
    ``([A-Z][a-z]?[0-9]*)+``."""
    line_end = text == ord("\n")
    upper = (text >= ord("A")) & (text <= ord("Z"))
    lower = (text >= ord("a")) & (text <= ord("z"))
    digit = (text >= ord("0")) & (text <= ord("9"))
    # a line starts with a capital, a lowercase letter follows a capital,
    # and a digit or a line end follows a letter or a digit
    if not (upper[0] and (upper | lower | digit | line_end).all()
            and not (lower[1:] & ~upper[:-1]).any()
            and not ((digit[1:] | line_end[1:]) & line_end[:-1]).any()):
        raise ValueError("cannot parse every formula string")
    return np.flatnonzero(upper | line_end)


def structure_id(s: Structure) -> str:
    """Identity label: canonical formula + "_" + spacegroup number."""
    return s.identity


def dataset_overlap(
    a: Sequence[Structure], b: Sequence[Structure]
) -> tuple[int, int, set[str]]:
    """Unique identity counts of both datasets and their common identities."""
    ids_a = set(StructureTable.of(a).identities)
    ids_b = set(StructureTable.of(b).identities)
    return len(ids_a), len(ids_b), ids_a & ids_b


def _hash_split_of(label: str, seed: int, fractions: Sequence[float]) -> int:
    # Stable 64-bit hash of (label, seed); identical across platforms and runs.
    digest = hashlib.sha256(f"{label}\x1f{seed}".encode()).digest()
    u = int.from_bytes(digest[:8], "big") / 2.0**64
    if u < fractions[0]:
        return 0
    if u < fractions[0] + fractions[1]:
        return 1
    return 2


def _allocate_counts(
    n_free: int, fractions: Sequence[float], base: Sequence[int]
) -> list[int]:
    """Place n_free groups so that final per-split counts sit as close as
    possible to the fraction targets, given pre-assigned base counts.

    This is the closed form of a greedy that adds one group at a time to
    the split whose distance to its target drops most, the lowest split
    on a tie. A split first takes every group that keeps it at or below its
    target (each gains exactly 1), lowest split first. Then each split
    still below its target may take one group that overshoots it, best gain
    first. Whatever is left over can only come from targets summing below
    the total by rounding; every gain is then -1 and it goes to the first
    split.
    """
    total = n_free + sum(base)
    targets = [total * f for f in fractions]
    quota = [0, 0, 0]
    left = n_free
    for s in range(3):
        quota[s] = min(left, max(0, math.floor(targets[s]) - base[s]))
        left -= quota[s]
    counts = [b + q for b, q in zip(base, quota)]
    overshoots = sorted(
        (abs(counts[s] + 1 - targets[s]) - abs(counts[s] - targets[s]), s)
        for s in range(3) if counts[s] < targets[s]
    )
    for _, s in overshoots[:left]:
        quota[s] += 1
    quota[0] += max(0, left - len(overshoots))
    return quota


def check_fractions(fractions: Sequence[float]) -> None:
    """Raise ValueError unless fractions are 3 finite numbers >= 0 that sum to 1."""
    if len(fractions) != 3:
        raise ValueError(f"fractions must be three numbers, got {len(fractions)}")
    if not all(math.isfinite(f) and f >= 0 for f in fractions):
        raise ValueError(f"fractions must be finite and non-negative, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {fractions}")


def check_seed(seed: int) -> None:
    """Raise ValueError unless seed is >= 0, as the split's generator needs."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_outputs(seed: int) -> Iterator[int]:
    """The 64-bit outputs of np.random.PCG64(seed), as plain ints.

    numpy's SeedSequence(seed) mixes the seed's 32-bit words, least
    significant first, into a pool of 4 (hashmix and mix), and
    generate_state(4, uint64) hashes the pool out again as v0..v3. PCG64
    then starts from state (v0 << 64 | v1) and increment (v2 << 64 | v3) << 1 | 1
    by step, add, step; each output is a step and the XSL-RR 128/64 of the state.
    """
    seed = operator.index(seed)
    words = [seed >> 32 * k & _MASK32 for k in range(max(1, (seed.bit_length() + 31) // 32))]
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[k] if k < len(words) else 0) for k in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = 0x8B51F9DD
    halves = []
    for k in range(8):
        value = pool[k % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        halves.append(value ^ value >> 16)
    v = [halves[2 * k] | halves[2 * k + 1] << 32 for k in range(4)]

    inc = ((v[2] << 64 | v[3]) << 1 | 1) & _MASK128
    state = ((inc + (v[0] << 64 | v[1])) * _PCG64_MULTIPLIER + inc) & _MASK128
    while True:
        state = (state * _PCG64_MULTIPLIER + inc) & _MASK128
        value = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        yield (value >> rot | value << (64 - rot)) & _MASK64


def _permutation(seed: int, m: int, stop: int) -> list[int]:
    """np.random.default_rng(seed).permutation(m) from position stop on; the
    positions below stop hold the rest of range(m), in no promised order.

    numpy's Fisher-Yates fixes position i at its step i, from m - 1 down to 1:
    it swaps i with j = random_interval(i), a draw masked to i's bit length and
    redrawn while above i. While i is below 2**32 each draw takes 32 bits,
    the low half of an output first and then its high half. The steps below
    stop are left out.
    """
    if m > 1 << 32:  # numpy would draw 64 bits for the top positions
        raise ValueError(f"cannot shuffle {m} groups, over 2**32")
    perm = list(range(m))
    outputs = _pcg64_outputs(seed)
    high = None  # the high half of the last output, while it is unused
    for i in range(m - 1, max(stop, 1) - 1, -1):
        mask = (1 << i.bit_length()) - 1
        while True:
            if high is None:
                draw = next(outputs)
                draw, high = draw & _MASK32, draw >> 32
            else:
                draw, high = high, None
            j = draw & mask
            if j <= i:
                break
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def grouped_split(
    entries: Sequence[Structure],
    fractions: tuple[float, float, float],
    seed: int,
    shared_ids: Optional[Iterable[str]] = None,
) -> SplitAssignment:
    """Leakage-free split: all entries sharing an identity land in one split.

    Identity groups, in code-point order of their labels, are shuffled as
    ``np.random.default_rng(seed).permutation`` shuffles them, by this
    module's own PCG64 (_permutation), so the split does not depend on numpy's
    Generator methods, whose streams numpy may change between releases (NEP 19).
    The first groups of the shuffle fill train, the next validation and the
    rest test, with counts as close as possible to the targets. Groups whose
    identity is in ``shared_ids`` are instead placed by a stable hash of
    (label, seed): two datasets run with the same seed put a shared identity
    in the same split on both sides.
    """
    table = StructureTable.of(entries)
    if not len(table):
        raise ValueError("entries must be non-empty")
    check_fractions(fractions)
    check_seed(seed)

    # one label per entry_id; a repeated entry_id keeps its last identity
    label_of = dict(zip(table.entry_ids, table.identities))
    # labels in code-point order, coded through a dict: a fixed-width array of
    # every entry's label would set the peak memory of a large table
    labels = sorted(set(label_of.values()))
    code_of = {label: k for k, label in enumerate(labels)}
    codes = np.fromiter(map(code_of.__getitem__, label_of.values()), dtype=np.intp,
                        count=len(label_of))

    shared = set(shared_ids) if shared_ids is not None else set()
    split_of_label = np.zeros(len(labels), dtype=np.intp)
    base = [0, 0, 0]
    is_free = np.ones(len(labels), dtype=bool)
    for k, label in enumerate(labels):
        if label in shared:
            split = _hash_split_of(label, seed, fractions)
            split_of_label[k] = split
            base[split] += 1
            is_free[k] = False

    free = np.flatnonzero(is_free)
    quota = _allocate_counts(len(free), fractions, base)
    # the first quota[0] shuffled groups all go to train, so their order is not drawn
    shuffled = free[np.array(_permutation(seed, len(free), quota[0]), dtype=np.intp)]
    split_of_label[shuffled] = np.repeat([0, 1, 2], quota)

    names = np.array(SPLIT_NAMES, dtype=object)[split_of_label[codes]]
    assignment = dict(zip(label_of, names.tolist()))
    return SplitAssignment(assignment=assignment, seed=seed, fractions=tuple(fractions))


def property_histogram(
    entries: Sequence[Structure], property_name: str, bin_edges: Sequence[float]
) -> Histogram:
    """Histogram a property over all entries that carry it.

    Bins are half-open [e_i, e_{i+1}) with the last bin closed. Entries
    missing the property and values outside the outermost edges are not
    binned; both counts are reported on the result.
    """
    table = StructureTable.of(entries)
    edges = _checked_edges(bin_edges)
    column = table.properties.get(property_name, np.empty(0))
    values = column[~np.isnan(column)]
    n_missing = len(table) - len(values)
    counts, _ = np.histogram(values, bins=edges)
    n_out = len(values) - int(counts.sum())
    return Histogram(
        bin_edges=edges,
        counts=counts.astype(int),
        n_missing=n_missing,
        n_out_of_range=n_out,
    )


def _checked_edges(bin_edges) -> np.ndarray:
    edges = np.asarray(bin_edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("bin_edges must be a 1-D sequence of at least 2 edges")
    if not np.all(np.diff(edges) > 0):
        raise ValueError("bin_edges must be strictly ascending")
    return edges


def histogram_edges(lo: float, hi: float, nbins: int) -> np.ndarray:
    """nbins + 1 evenly spaced edges from lo to hi, checked as property_histogram
    checks its edges: a step that overflows or underflows fails that check, and
    edges over MAX_ARRAY_BYTES are refused before they are made."""
    if (nbins + 1) * 8 > MAX_ARRAY_BYTES:
        raise ValueError(f"nbins {nbins} needs {(nbins + 1) * 8} bytes of bin edges, "
                         f"over the {MAX_ARRAY_BYTES}-byte limit")
    with np.errstate(all="ignore"):
        return _checked_edges(np.linspace(lo, hi, nbins + 1))
