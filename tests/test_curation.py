import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matscale import curation
from matscale.curation import (
    _FORMULA_TOKEN_RE,
    _MAX_COPIED_DIGITS,
    STRUCTURE_ID_RE,
    _allocate_counts,
    Structure,
    canonical_formula,
    canonical_formulas,
    dataset_overlap,
    grouped_split,
    parse_formula,
    property_histogram,
    structure_id,
)


def make(entry_id, composition, spacegroup, props=None):
    return Structure(entry_id, composition, spacegroup, props or {})


# --- canonical_formula ------------------------------------------------------

def test_formula_cation_first():
    assert canonical_formula({"Mg": 2, "F": 4}) == "Mg2F4"


def test_formula_single_element_writes_count():
    assert canonical_formula({"H": 1}) == "H1"


def test_formula_electronegativity_ordering():
    # published Pauling values: Ba 0.89 < Sn 1.96 < O 3.44
    assert canonical_formula({"O": 3, "Ba": 1, "Sn": 1}) == "Ba1Sn1O3"


def test_formula_not_reduced():
    assert canonical_formula({"Ti": 2, "O": 4}) == "Ti2O4"


def test_formula_rejects_unknown_element():
    with pytest.raises(ValueError, match="unknown element"):
        canonical_formula({"Xx": 1})


def test_formula_rejects_bad_counts():
    with pytest.raises(ValueError):
        canonical_formula({"H": 0})
    with pytest.raises(ValueError):
        canonical_formula({})


def test_parse_formula_roundtrip():
    assert parse_formula("Mg2F4") == {"Mg": 2, "F": 4}
    assert parse_formula("BaTiO3") == {"Ba": 1, "Ti": 1, "O": 3}
    with pytest.raises(ValueError):
        parse_formula("2Mg")
    with pytest.raises(ValueError):
        parse_formula("")


# --- canonical_formulas, against the scalar canonical_formula --------------

_token = st.tuples(
    # Co next to C and O, two symbols without an electronegativity, unknown ones
    st.sampled_from(["C", "O", "Co", "H", "Mg", "F", "Ba", "He", "Og", "Xx", "J"]),
    st.one_of(st.sampled_from(["", "", "1", "2", "12"]),
              st.sampled_from(["0", "00", "01", "007", "10", str(2**63), str(2**64 + 1)]),
              st.integers(0, 10**30).map(str)),
).map("".join)
_formula_text = st.one_of(
    # token strings twice, so that most examples are formulas
    st.lists(_token, min_size=1, max_size=5).map("".join),
    st.lists(_token, min_size=1, max_size=5).map("".join),
    st.sampled_from(["", "\n", "H\nO", "H2O\n", "\nH", "H\n\nO", "2H", "h2", "H2o", "Mgg",
                     "Mg 2", "H_2", "M\u00e9", "H\u0662"]),
    st.text(alphabet="CHOgo02\n \u00e9", max_size=8),
)


def _canonical_or_error(formula):
    try:
        return canonical_formula(parse_formula(formula))
    except ValueError:
        return ValueError


@settings(max_examples=400, deadline=None)
@given(formulas=st.lists(_formula_text, max_size=8))
@example(formulas=["CoO", "COO", "OCo", "H2OH", "Mg01F2", "F2Mg01", "HeOg2"])
@example(formulas=["H" + "9" * 25, "H0H2", "Mg2F4", "F4Mg2"])
@example(formulas=["Mg2F4", "Mg0"])
@example(formulas=["Mg2F4", "Xx"])
@example(formulas=["Mg2F4", ""])
@example(formulas=[])
# int() may refuse a count this long, so it takes the scalar path
@example(formulas=["Mg2F4", "O" + "7" * 640 + "H", "O" + "7" * 641 + "H"])
@example(formulas=["Mg2F4", "O" + "7" * 5000 + "H"])
def test_canonical_formulas_matches_scalar_oracle(formulas):
    expected = {f: _canonical_or_error(f) for f in formulas}
    if ValueError in expected.values():
        with pytest.raises(ValueError):
            canonical_formulas(formulas)
    else:
        assert canonical_formulas(formulas) == expected


# formulas that parse, often with a leading-zero or over-long count, or a repeated symbol
_flagged_formula = st.lists(
    st.tuples(st.sampled_from(["H", "O", "C", "Co", "Mg", "F"]),
              st.sampled_from(["", "1", "2", "12", "01", "007", "7" * (_MAX_COPIED_DIGITS + 1)])
              ).map("".join), min_size=1, max_size=4).map("".join)


def _scalar_path_lines(formulas):
    """The lines canonical_formulas hands to canonical_formula, by the rule it
    states: np.union1d of the odd-count lines and the repeated-symbol lines."""
    tokens = [_FORMULA_TOKEN_RE.findall(f) for f in formulas]
    odd_count = [k for k, t in enumerate(tokens)
                 if any(d.startswith("0") or len(d) > _MAX_COPIED_DIGITS for _, d in t)]
    repeated = [k for k, t in enumerate(tokens) for a, b in itertools.combinations(t, 2)
                if a[0] == b[0]]
    return np.union1d(np.array(odd_count, dtype=int), np.array(repeated, dtype=int))


@settings(max_examples=300, deadline=None)
@given(formulas=st.lists(_flagged_formula, max_size=8))
@example(formulas=["HHH", "H01H", "Mg2F4", "F4Mg2"])
@example(formulas=["Mg2F4"])
def test_canonical_formulas_scalar_calls_follow_np_union1d(formulas):
    # each flagged line once, in line order, however many ways it is flagged
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curation, "canonical_formula",
                   lambda comp: calls.append(comp) or canonical_formula(comp))
        canonical_formulas(formulas)
    assert calls == [parse_formula(formulas[k]) for k in _scalar_path_lines(formulas).tolist()]


# --- structure_id -----------------------------------------------------------

def test_structure_id_protocol():
    assert structure_id(make("a", {"Mg": 2, "F": 4}, 136)) == "Mg2F4_136"
    assert structure_id(make("b", {"H": 1}, 1)) == "H1_1"
    # Ba 0.89 < Ti 1.54 < O 3.44
    assert structure_id(make("c", {"O": 3, "Ba": 1, "Ti": 1}, 221)) == "Ba1Ti1O3_221"


def test_structure_rejects_bad_spacegroup():
    with pytest.raises(ValueError):
        make("a", {"H": 1}, 0)
    with pytest.raises(ValueError):
        make("a", {"H": 1}, 231)
    with pytest.raises(ValueError):
        make("a", {"H": 1}, True)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_structure_rejects_non_finite_property(value):
    with pytest.raises(ValueError, match="property 'gap' must be finite"):
        make("a", {"H": 1}, 1, {"gap": value})


def test_structure_is_frozen_and_keeps_its_identity():
    s = make("a", {"Mg": 2, "F": 4}, 136)
    assert s.identity == structure_id(s) == "Mg2F4_136"
    for name, value in (("spacegroup", 1), ("composition", {"H": 1}), ("identity", "H1_1")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(s, name, value)
    assert structure_id(s) == "Mg2F4_136"


def test_parse_formula_rejects_non_strings():
    for bad in (None, 5, ["Mg"]):
        with pytest.raises(ValueError, match="cannot parse formula"):
            parse_formula(bad)


_SYMBOLS = ["H", "O", "Ba", "Ti", "Mg", "F", "Sn", "K", "Rb", "N"]

composition_st = st.dictionaries(
    st.sampled_from(_SYMBOLS), st.integers(1, 9), min_size=1, max_size=4
)


@given(composition_st, st.integers(1, 230))
def test_structure_id_matches_regex_and_is_pure(comp, sg):
    label = structure_id(make("e", dict(comp), sg))
    assert STRUCTURE_ID_RE.match(label)
    assert label == structure_id(make("other", dict(comp), sg))


# --- dataset_overlap --------------------------------------------------------

def test_overlap_identical_single():
    s = make("a", {"Mg": 2, "F": 4}, 136)
    n_a, n_b, common = dataset_overlap([s], [s])
    assert (n_a, n_b) == (1, 1)
    assert common == {"Mg2F4_136"}


def test_overlap_disjoint():
    a = [make("a", {"Mg": 2, "F": 4}, 136)]
    b = [make("b", {"H": 1}, 1)]
    assert dataset_overlap(a, b) == (1, 1, set())


def test_overlap_synthetic_fixture():
    # a: 5 entries over ids {Mg2F4_136, H1_1, Ti2O4_136}
    a = [
        make("a1", {"Mg": 2, "F": 4}, 136),
        make("a2", {"Mg": 2, "F": 4}, 136),
        make("a3", {"H": 1}, 1),
        make("a4", {"Ti": 2, "O": 4}, 136),
        make("a5", {"Ti": 2, "O": 4}, 136),
    ]
    # b: 4 entries over ids {Ti2O4_136, H1_1, C1N1_10}; shares 2 ids with a
    b = [
        make("b1", {"Ti": 2, "O": 4}, 136),
        make("b2", {"H": 1}, 1),
        make("b3", {"H": 1}, 1),
        make("b4", {"C": 1, "N": 1}, 10),
    ]
    n_a, n_b, common = dataset_overlap(a, b)
    assert (n_a, n_b) == (3, 3)
    assert common == {"Ti2O4_136", "H1_1"}


def test_overlap_common_is_symmetric():
    a = [make(f"a{i}", {"H": i + 1}, 1) for i in range(4)]
    b = [make(f"b{i}", {"H": i + 2}, 1) for i in range(4)]
    assert dataset_overlap(a, b)[2] == dataset_overlap(b, a)[2]


# --- grouped_split ----------------------------------------------------------

def entries_with_ids(n_groups, per_group=1):
    out = []
    for g in range(n_groups):
        for k in range(per_group):
            out.append(make(f"e{g}_{k}", {"H": g + 1}, 1))
    return out


def test_split_single_group_all_train():
    entries = entries_with_ids(1, per_group=3)
    split = grouped_split(entries, (1.0, 0.0, 0.0), seed=7)
    assert set(split.assignment.values()) == {"train"}


def test_split_fraction_targets_and_determinism():
    entries = entries_with_ids(10)
    first = grouped_split(entries, (0.8, 0.1, 0.1), seed=42)
    counts = {name: 0 for name in ("train", "validation", "test")}
    for v in first.assignment.values():
        counts[v] += 1
    assert counts == {"train": 8, "validation": 1, "test": 1}
    again = grouped_split(entries, (0.8, 0.1, 0.1), seed=42)
    assert first.assignment == again.assignment


def test_split_shared_ids_agree_across_datasets():
    shared_entry = {"Mg": 2, "F": 4}
    a = [make("a0", shared_entry, 136)] + entries_with_ids(6)
    b = [make("b0", shared_entry, 136)] + [
        make(f"x{i}", {"O": i + 1}, 2) for i in range(5)
    ]
    common = dataset_overlap(a, b)[2]
    assert common == {"Mg2F4_136"}
    split_a = grouped_split(a, (0.6, 0.2, 0.2), seed=3, shared_ids=common)
    split_b = grouped_split(b, (0.6, 0.2, 0.2), seed=3, shared_ids=common)
    assert split_a.assignment["a0"] == split_b.assignment["b0"]


def test_split_rejects_bad_fractions():
    entries = entries_with_ids(3)
    with pytest.raises(ValueError):
        grouped_split(entries, (0.5, 0.6, -0.1), seed=0)
    with pytest.raises(ValueError):
        grouped_split(entries, (0.5, 0.4, 0.2), seed=0)
    with pytest.raises(ValueError):
        grouped_split([], (1.0, 0.0, 0.0), seed=0)


def test_split_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        grouped_split(entries_with_ids(3), (1.0, 0.0, 0.0), seed=-1)


def assert_permutation_is_numpys(seed, m, stop):
    # numpy's permutation is the oracle: the split must not depend on its Generator
    # method streams, which numpy may change between releases (NEP 19)
    want = np.random.default_rng(seed).permutation(m).tolist()
    got = curation._permutation(seed, m, stop)
    assert got[stop:] == want[stop:]
    assert sorted(got[:stop]) == sorted(want[:stop])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**256 - 1),
       st.integers(0, 3000).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m))))
def test_permutation_is_numpys_from_the_stop_on(seed, m_stop):
    assert_permutation_is_numpys(seed, *m_stop)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**128 + 1])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_permutation_of_few_groups_is_numpys(seed, m):
    for stop in range(m + 1):
        assert_permutation_is_numpys(seed, m, stop)


def test_permutation_refuses_more_than_2_to_the_32_groups():
    with pytest.raises(ValueError, match="over 2"):
        curation._permutation(0, 2**32 + 1, 2**32 + 1)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**128 + 1, 2**200 + 7,
                                  np.uint64(5), True])
def test_pcg64_outputs_are_numpys(seed):
    want = np.random.PCG64(seed).random_raw(40).tolist()
    assert list(itertools.islice(curation._pcg64_outputs(seed), 40)) == want


@pytest.mark.parametrize("fractions", [
    (0.5, 0.5, float("nan")), (float("nan"), 0.5, 0.5), (0.5, float("inf"), 0.0),
])
def test_split_rejects_non_finite_fractions(fractions):
    with pytest.raises(ValueError, match="finite"):
        grouped_split(entries_with_ids(3), fractions, seed=0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(composition_st, st.integers(1, 230), st.integers(1, 3)),
        min_size=1,
        max_size=12,
    ),
    st.integers(0, 2**31),
)
def test_split_never_straddles_groups(specs, seed):
    entries = []
    for i, (comp, sg, copies) in enumerate(specs):
        for k in range(copies):
            entries.append(make(f"e{i}_{k}", dict(comp), sg))
    split = grouped_split(entries, (0.5, 0.25, 0.25), seed=seed)
    by_label = {}
    for e in entries:
        by_label.setdefault(structure_id(e), set()).add(split.assignment[e.entry_id])
    assert all(len(splits) == 1 for splits in by_label.values())


def _greedy_allocate_counts(n_free, fractions, base):
    """The greedy loop _allocate_counts replaced: one group at a time to the
    split whose distance to its target drops most, the lowest on a tie."""
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


def _normalised(weights):
    total = sum(weights)
    return tuple(w / total for w in weights)


_fractions = st.one_of(
    st.sampled_from([(0.8, 0.1, 0.1), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.5, 0.5, 0.0),
                     (1 / 3, 1 / 3, 1 / 3), (0.7, 0.2, 0.1), (0.6, 0.2, 0.2), (0.0, 0.3, 0.7),
                     (0.5, 0.25, 0.25 - 5e-10), (0.1, 0.1, 0.8 + 5e-10)]),
    st.tuples(*[st.one_of(st.just(0.0), st.floats(0.001, 1.0))] * 3)
    .filter(lambda w: sum(w) > 0).map(_normalised),
    st.tuples(*[st.integers(0, 10)] * 3).filter(lambda w: sum(w) > 0).map(_normalised),
)


@settings(max_examples=500, deadline=None)
@given(
    n_free=st.integers(0, 80),
    fractions=_fractions,
    base=st.lists(st.one_of(st.integers(0, 5), st.integers(0, 80)), min_size=3, max_size=3),
)
@example(n_free=5, fractions=(0.8, 0.1, 0.1), base=[0, 40, 0])  # shared groups overfill a split
@example(n_free=0, fractions=(0.8, 0.1, 0.1), base=[3, 1, 0])
@example(n_free=7, fractions=(0.0, 1.0, 0.0), base=[2, 0, 5])
def test_allocate_counts_closed_form_matches_greedy(n_free, fractions, base):
    assert _allocate_counts(n_free, fractions, base) == _greedy_allocate_counts(
        n_free, fractions, base)


# --- property_histogram -----------------------------------------------------

def test_histogram_single_value():
    entries = [make("a", {"H": 1}, 1, {"fe": 0.5})]
    hist = property_histogram(entries, "fe", [0.0, 1.0])
    assert hist.counts.tolist() == [1]


def test_histogram_last_bin_closed():
    entries = [
        make(f"e{i}", {"H": 1}, 1, {"fe": v}) for i, v in enumerate([-1.0, 0.0, 1.0])
    ]
    hist = property_histogram(entries, "fe", [-1.0, 0.0, 1.0])
    assert hist.counts.tolist() == [1, 2]


def test_histogram_empty_entries():
    hist = property_histogram([], "fe", [0.0, 0.5, 1.0])
    assert hist.counts.tolist() == [0, 0]
    assert hist.n_missing == 0


def test_histogram_missing_and_out_of_range_reported():
    entries = [
        make("a", {"H": 1}, 1, {"fe": 0.5}),
        make("b", {"H": 1}, 1, {}),           # property absent
        make("c", {"H": 1}, 1, {"fe": 99.0}),  # outside the edges
    ]
    hist = property_histogram(entries, "fe", [0.0, 1.0])
    assert hist.counts.tolist() == [1]
    assert hist.n_missing == 1
    assert hist.n_out_of_range == 1


def test_histogram_rejects_unsorted_edges():
    with pytest.raises(ValueError):
        property_histogram([], "fe", [1.0, 0.0])
    with pytest.raises(ValueError):
        property_histogram([], "fe", [0.0])


def test_histogram_edges_refuses_edges_over_the_array_limit_before_making_them(monkeypatch):
    monkeypatch.setattr(np, "linspace", None)  # a refused call never reaches it
    with pytest.raises(ValueError, match="^nbins 268435456 needs 2147483656 bytes"):
        curation.histogram_edges(0.0, 1.0, 2**28)  # 2**28 + 1 float64 edges


@given(
    st.lists(st.floats(-5, 5, allow_nan=False), max_size=40),
    st.integers(2, 8),
)
def test_histogram_counts_sum_to_binned(values, nbins):
    entries = [make(f"e{i}", {"H": 1}, 1, {"fe": v}) for i, v in enumerate(values)]
    edges = np.linspace(-2.0, 2.0, nbins)
    hist = property_histogram(entries, "fe", edges)
    binned = sum(1 for v in values if -2.0 <= v <= 2.0)
    assert int(hist.counts.sum()) == binned
    assert int(hist.counts.sum()) + hist.n_out_of_range == len(values)
    assert hist.n_missing == 0
