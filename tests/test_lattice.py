import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matscale import lattice
from matscale.lattice import (
    Cluster,
    SymmetryGroup,
    apply_permutation,
    correlation,
    correlation_matrix,
    orbit,
)
from matscale.lattice import _orbit_sites
from matscale.polyfeatures import enumerate_monomials, feature_matrix
from matscale.regression import OmpModel


def full_symmetric_group(n):
    return SymmetryGroup(list(itertools.permutations(range(n))))


# --- types ------------------------------------------------------------------

def test_cluster_validation():
    Cluster(())
    Cluster((0, 2, 5))
    with pytest.raises(ValueError):
        Cluster((2, 1))
    with pytest.raises(ValueError):
        Cluster((1, 1))
    with pytest.raises(ValueError):
        Cluster((-1,))


def test_group_requires_identity_and_closure():
    with pytest.raises(ValueError, match="identity"):
        SymmetryGroup([[1, 0]])
    with pytest.raises(ValueError, match="closed"):
        SymmetryGroup([[0, 1, 2], [1, 2, 0]])  # missing the second rotation
    with pytest.raises(ValueError, match="bijection"):
        SymmetryGroup([[0, 0, 1]])
    SymmetryGroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]])


def test_group_generate_closure():
    g = SymmetryGroup.generate([[1, 2, 3, 0]])
    assert len(g) == 4
    assert len(SymmetryGroup.generate([[1, 0, 2], [0, 2, 1]])) == 6  # S3


# --- cluster function -------------------------------------------------------
# Under the identity group a cluster's orbit is the cluster alone, so its
# correlation is its cluster function.

def _cluster_function(c, s):
    return correlation(c, SymmetryGroup.identity(len(s)), s)


def test_cluster_function_empty_cluster():
    assert _cluster_function(Cluster(()), [1, -1, 1]) == 1


def test_cluster_function_pair():
    assert _cluster_function(Cluster((0, 1)), [1, -1, 1]) == -1


def test_cluster_function_triple_by_hand():
    assert _cluster_function(Cluster((0, 1, 2)), [-1, -1, 1]) == 1


def test_cluster_function_rejects_out_of_range():
    with pytest.raises(ValueError):
        _cluster_function(Cluster((3,)), [1, -1])
    with pytest.raises(ValueError):
        _cluster_function(Cluster((0,)), [1, 0, -1])
    # checked as given: a cast first would truncate 1.5 to 1 and -1.7 to -1
    with pytest.raises(ValueError, match="exactly -1 or"):
        _cluster_function(Cluster((0,)), [1.5, -1.7, 1.0])
    with pytest.raises(ValueError, match="exactly -1 or"):
        correlation_matrix([[1.9, -1.2]], [Cluster((0,))], SymmetryGroup.identity(2))
    assert _cluster_function(Cluster((0, 1)), [1.0, -1.0]) == -1


# --- orbit ------------------------------------------------------------------

def test_orbit_identity_group():
    c = Cluster((0, 2))
    assert orbit(c, SymmetryGroup.identity(4)) == {c}


def test_orbit_cyclic_singleton():
    got = orbit(Cluster((0,)), SymmetryGroup.cyclic(4))
    assert got == {Cluster((0,)), Cluster((1,)), Cluster((2,)), Cluster((3,))}


def test_orbit_swap_fixes_pair():
    g = SymmetryGroup([[0, 1], [1, 0]])
    assert orbit(Cluster((0, 1)), g) == {Cluster((0, 1))}


def test_orbit_size_divides_group_order():
    g = full_symmetric_group(4)
    for sites in [(), (0,), (0, 1), (0, 1, 2), (0, 1, 2, 3)]:
        assert len(g) % len(orbit(Cluster(sites), g)) == 0


# --- correlation ------------------------------------------------------------

def test_correlation_all_up_is_one():
    g = SymmetryGroup.cyclic(4)
    s = [1, 1, 1, 1]
    for sites in [(), (0,), (0, 1), (0, 2)]:
        assert correlation(Cluster(sites), g, s) == 1.0


def test_correlation_empty_cluster_is_one():
    assert correlation(Cluster(()), SymmetryGroup.cyclic(3), [-1, 1, -1]) == 1.0


def test_correlation_cyclic_half_filled():
    # orbit of {0} is all four sites: (1 + 1 - 1 - 1) / 4 = 0
    assert correlation(Cluster((0,)), SymmetryGroup.cyclic(4), [1, 1, -1, -1]) == 0.0


def test_correlation_bounded():
    rng = np.random.default_rng(0)
    g = SymmetryGroup.cyclic(6)
    for _ in range(50):
        s = rng.choice([-1, 1], size=6)
        c = Cluster(sorted(rng.choice(6, size=rng.integers(0, 4), replace=False)))
        assert abs(correlation(c, g, s)) <= 1.0


def test_correlation_invariant_under_group_action():
    groups = [
        SymmetryGroup.cyclic(6),
        full_symmetric_group(4),
        SymmetryGroup.generate([[1, 2, 3, 0, 4, 5], [0, 1, 2, 3, 5, 4]]),
    ]
    rng = np.random.default_rng(1)
    for g in groups:
        n = g.n_sites
        for _ in range(10):
            s = rng.choice([-1, 1], size=n)
            sites = sorted(rng.choice(n, size=int(rng.integers(0, 4)), replace=False))
            c = Cluster(sites)
            x = correlation(c, g, s)
            for p in g.permutations:
                assert correlation(c, g, apply_permutation(p, s)) == x


def test_flip_all_spins_parity():
    g = SymmetryGroup.cyclic(5)
    rng = np.random.default_rng(2)
    for _ in range(20):
        s = rng.choice([-1, 1], size=5)
        k = int(rng.integers(0, 4))
        c = Cluster(sorted(rng.choice(5, size=k, replace=False)))
        assert correlation(c, g, -s) == (-1) ** len(c) * correlation(c, g, s)


# --- correlation_matrix ------------------------------------------------------

def test_matrix_all_ones_config():
    g = SymmetryGroup.cyclic(3)
    m = correlation_matrix([[1, 1, 1]], [Cluster(()), Cluster((0,))], g)
    assert m.tolist() == [[1.0, 1.0]]


def test_matrix_matches_correlation_oracle():
    g = SymmetryGroup.cyclic(4)
    configs = [[1, -1, 1, -1], [-1, -1, 1, 1]]
    clusters = [Cluster((0,)), Cluster((0, 1))]
    m = correlation_matrix(configs, clusters, g)
    for i, s in enumerate(configs):
        for j, c in enumerate(clusters):
            assert m[i, j] == correlation(c, g, s)


def test_matrix_empty_cluster_column_is_ones():
    g = SymmetryGroup.identity(3)
    m = correlation_matrix([[1, -1, 1], [-1, -1, -1]], [Cluster(())], g)
    assert np.all(m == 1.0)


# --- predict ----------------------------------------------------------------
# A fitted model predicts intercept + coefficients . features, where the
# features are a configuration's correlations or their monomials.

def _predict(model, s, g, clusters, feature_map=None):
    x = correlation_matrix([s], clusters, g)
    feats = x if feature_map is None else feature_matrix(x, feature_map)
    return float(model.predict(feats)[0])


def test_predict_zero_coefficients_gives_intercept():
    g = SymmetryGroup.identity(3)
    clusters = [Cluster((0,)), Cluster((1,))]
    model = OmpModel([0, 1], np.array([0.0, 0.0]), intercept=1.5)
    assert _predict(model, [1, -1, 1], g, clusters) == 1.5


def test_predict_constant_term_model():
    g = SymmetryGroup.identity(2)
    model = OmpModel([0], np.array([2.0]), intercept=0.0)
    for s in ([1, 1], [-1, 1], [-1, -1]):
        assert _predict(model, s, g, [Cluster(())]) == 2.0


def test_predict_hand_dot_product():
    g = SymmetryGroup.identity(3)
    clusters = [Cluster((0,)), Cluster((1, 2))]
    model = OmpModel([0, 1], np.array([2.0, -1.0]), intercept=0.5)
    # s = (-1, 1, -1): X = (-1, -1); 0.5 + 2*(-1) + (-1)*(-1) = -0.5
    assert _predict(model, [-1, 1, -1], g, clusters) == pytest.approx(-0.5)


def test_predict_nonlinear_feature_map():
    g = SymmetryGroup.identity(3)
    clusters = [Cluster((0,)), Cluster((1,))]
    fm = enumerate_monomials(2, 2)  # X1, X2, X1^2, X1X2, X2^2
    coeffs = np.array([0.5, -1.0, 0.0, 2.0, 0.25])
    model = OmpModel(list(range(5)), coeffs, intercept=1.0)
    s = [-1, 1, 1]
    x = correlation_matrix([s], clusters, g)
    expected = 1.0 + float(coeffs @ feature_matrix(x, fm)[0])
    assert _predict(model, s, g, clusters, fm) == pytest.approx(expected)
    # x = (-1, 1): features (-1, 1, 1, -1, 1) -> 1 + (-0.5 -1 +0 -2 +0.25)
    assert _predict(model, s, g, clusters, fm) == pytest.approx(-2.25)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.data())
def test_orbit_always_contains_cluster(n, data):
    g = SymmetryGroup.cyclic(n)
    k = data.draw(st.integers(0, n))
    sites = tuple(sorted(data.draw(
        st.sets(st.integers(0, n - 1), min_size=k, max_size=k))))
    c = Cluster(sites)
    assert c in orbit(c, g)


# --- vectorized kernels against the scalar loops they replaced ---------------

def brute_force_group_error(permutations):
    """Brute-force group validation: the first error message, or None."""
    perms = np.asarray(permutations, dtype=int)
    n = perms.shape[1]
    identity = np.arange(n)
    for p in perms:
        if not np.array_equal(np.sort(p), identity):
            return f"not a bijection on {n} sites: {p.tolist()}"
    elems = {tuple(p) for p in perms}
    if tuple(identity) not in elems:
        return "group must contain the identity permutation"
    for p in perms:
        for q in perms:
            if tuple(p[q]) not in elems:
                return (f"group not closed under composition: "
                        f"{p.tolist()} o {q.tolist()}")
    return None


def tuple_bfs_generate(generators):
    """Tuple BFS closure of the generators, as a sorted list of tuples."""
    gens = [tuple(int(i) for i in g) for g in generators]
    n = len(gens[0])
    elems = {tuple(range(n))}
    frontier = list(elems)
    while frontier:
        new = []
        for e in frontier:
            for g in gens:
                composed = tuple(g[e[i]] for i in range(n))
                if composed not in elems:
                    elems.add(composed)
                    new.append(composed)
        frontier = new
    return sorted(elems)


def loop_correlation_matrix(configs, clusters, g):
    """Per-configuration, per-orbit-member loop with exact integer sums."""
    orbit_indices = []
    for c in clusters:
        orb = sorted({tuple(sorted(p[list(c.sites)])) for p in g.permutations})
        orbit_indices.append([np.array(sites, dtype=int) for sites in orb])
    out = np.empty((len(configs), len(clusters)))
    for i, s in enumerate(configs):
        s = np.asarray(s)
        for j, idx_list in enumerate(orbit_indices):
            total = sum(int(np.prod(s[idx])) if idx.size else 1 for idx in idx_list)
            out[i, j] = total / len(idx_list)
    return out


def rotation(n, k=1):
    return np.roll(np.arange(n), -k).tolist()


def reflection(n):
    return ((-np.arange(n)) % n).tolist()


@st.composite
def groups(draw):
    """Cyclic, dihedral, or a product of two cyclic/dihedral factors."""
    kind = draw(st.sampled_from(["cyclic", "dihedral", "product"]))
    if kind == "cyclic":
        return SymmetryGroup.cyclic(draw(st.integers(1, 7)))
    if kind == "dihedral":
        n = draw(st.integers(1, 7))
        return SymmetryGroup.generate([rotation(n), reflection(n)])
    a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    gens = [rotation(a) + list(range(a, a + b)),
            list(range(a)) + [a + i for i in rotation(b)]]
    if draw(st.booleans()):
        gens.append(reflection(a) + list(range(a, a + b)))
    return SymmetryGroup.generate(gens)


@settings(max_examples=150, deadline=None)
@given(groups(), st.data())
def test_correlation_matrix_equals_scalar_loop(g, data):
    n = g.n_sites
    clusters = data.draw(st.lists(
        st.sets(st.integers(0, n - 1), max_size=min(n, 4)).map(
            lambda s: Cluster(sorted(s))),
        max_size=5))
    clusters.append(Cluster(()))
    configs = data.draw(st.lists(
        st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n), max_size=6))
    got = correlation_matrix(configs, clusters, g)
    want = loop_correlation_matrix(configs, clusters, g)
    assert got.shape == want.shape == (len(configs), len(clusters))
    assert (got == want).all()


# --- orbit rows: sort plus neighbour mask, against np.unique(axis=0) ---------

def _assert_orbit_sites_equal_np_unique(c, g):
    got = _orbit_sites(c, g)
    want = np.unique(np.sort(g.permutations[:, list(c.sites)], axis=1), axis=0)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(groups(), st.data())
def test_orbit_sites_equal_np_unique_rows(g, data):
    sites = data.draw(st.sets(st.integers(0, g.n_sites - 1), max_size=min(g.n_sites, 5)))
    _assert_orbit_sites_equal_np_unique(Cluster(sorted(sites)), g)


@pytest.mark.parametrize("g", [SymmetryGroup([[]]), SymmetryGroup.cyclic(5),
                               full_symmetric_group(4)])
def test_orbit_sites_of_the_empty_cluster_equal_np_unique_rows(g):
    # np.lexsort takes no zero-key input: the (|G|, 0) rows give one (1, 0) row
    _assert_orbit_sites_equal_np_unique(Cluster(()), g)
    assert _orbit_sites(Cluster(()), g).shape == (1, 0)


@st.composite
def permutation_sets(draw):
    """Small row sets: a generated group, shuffled, with an element dropped,
    the identity removed or added, or a row made a non-bijection."""
    n = draw(st.integers(1, 4))
    gens = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=2))
    perms = draw(st.permutations([list(e) for e in tuple_bfs_generate(gens)]))
    change = draw(st.sampled_from(["none", "drop", "extra", "bad_row"]))
    if change == "drop" and len(perms) > 1:
        del perms[draw(st.integers(0, len(perms) - 1))]
    elif change == "extra":
        perms.append(draw(st.permutations(range(n))))
    elif change == "bad_row":
        bad = draw(st.lists(st.integers(-1, n), min_size=n, max_size=n))
        perms[draw(st.integers(0, len(perms) - 1))] = bad
    return perms


@settings(max_examples=300, deadline=None)
@given(permutation_sets())
def test_group_check_matches_brute_force(perms):
    expected = brute_force_group_error(perms)
    if expected is None:
        assert len(SymmetryGroup(perms)) == len(perms)
    else:
        with pytest.raises(ValueError) as exc:
            SymmetryGroup(perms)
        assert str(exc.value) == expected


@pytest.mark.parametrize("perms", [
    [[1, 0, 2], [0, 2, 1]],                        # missing the identity
    [[0, 1, 2], [0, 0, 1]],                        # not a bijection
    [[0, 1, 2], [1, 2, 0], [0, 2, 1], [2, 0, 1]],  # not closed
    [[0, 1, 2, 3], [1, 0, 3, 2], [1, 2, 3, 0]],    # not closed, first at p = row 1
])
def test_group_check_messages_match_brute_force(perms):
    with pytest.raises(ValueError) as exc:
        SymmetryGroup(perms)
    assert str(exc.value) == brute_force_group_error(perms)


def torus_group(side):
    """All translations times the 8 point operations of a side x side square torus."""
    x, y = np.arange(side * side) % side, np.arange(side * side) // side
    ops = [(x, y), (-y, x), (-x, -y), (y, -x), (-x, y), (x, -y), (y, x), (-y, -x)]
    return [((px + tx) % side + side * ((py + ty) % side)).tolist()
            for px, py in ops for ty in range(side) for tx in range(side)]


TORUS = torus_group(6)  # |G| = 288 on 36 sites


@pytest.fixture
def scans(monkeypatch):
    """The calls of the |G|^2 per-element scan that names an open pair."""
    calls, scan = [], lattice._raise_first_open_pair
    monkeypatch.setattr(lattice, "_raise_first_open_pair",
                        lambda *args: calls.append(args) or scan(*args))
    return calls


def test_torus_group_is_accepted_without_the_per_element_scan(scans):
    g = SymmetryGroup(TORUS)
    assert (len(g), g.n_sites) == (288, 36)
    assert g.permutations.tolist() == TORUS
    assert scans == []


@pytest.mark.parametrize("perms", [[[0, 1, 2, 3, 4]], [[]]], ids=["order-1", "zero-site"])
def test_trivial_groups_are_accepted_without_the_per_element_scan(scans, perms):
    assert len(SymmetryGroup(perms)) == 1
    assert scans == []


@pytest.mark.parametrize("change, row", [
    ("drop", 1), ("drop", 150), ("drop", 287),
    ("foreign", 1), ("foreign", 200),
    ("duplicate", 0), ("duplicate", 100),
])
def test_altered_torus_group_gives_the_brute_force_result(scans, change, row):
    perms = [list(p) for p in TORUS]
    if change == "drop":
        del perms[row]
    elif change == "foreign":  # a transposition of two sites is no lattice symmetry
        perms[row] = [1, 0] + list(range(2, 36))
    else:
        perms.insert(row + 1, perms[row])
    expected = brute_force_group_error(perms)
    if change == "duplicate":
        assert expected is None
        assert SymmetryGroup(perms).permutations.tolist() == perms
        assert scans == []
        return
    assert expected is not None
    with pytest.raises(ValueError) as exc:
        SymmetryGroup(perms)
    assert str(exc.value) == expected
    assert len(scans) == 1


def test_group_rejects_ragged_rows_naming_the_entry():
    with pytest.raises(ValueError, match="permutation 2 has 2 entries"):
        SymmetryGroup([[0, 1, 2], [1, 2, 0], [0, 1]])


def test_zero_site_group_is_accepted():
    g = SymmetryGroup([[]])
    assert (len(g), g.n_sites) == (1, 0)
    assert SymmetryGroup.generate([[]]).permutations.shape == (1, 0)


def test_correlation_matrix_of_no_configs():
    g = SymmetryGroup.cyclic(4)
    m = correlation_matrix([], [Cluster(()), Cluster((0,)), Cluster((0, 1))], g)
    assert m.shape == (0, 3)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.data())
def test_generate_equals_tuple_bfs(n, data):
    gens = data.draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    got = SymmetryGroup.generate(gens).permutations.tolist()
    assert got == [list(e) for e in tuple_bfs_generate(gens)]


def test_generate_dihedral_on_many_sites_equals_tuple_bfs():
    gens = [rotation(64), reflection(64)]
    g = SymmetryGroup.generate(gens)
    assert len(g) == 128
    assert g.permutations.tolist() == [list(e) for e in tuple_bfs_generate(gens)]


def test_generate_rejects_a_non_bijective_generator():
    with pytest.raises(ValueError, match="not a bijection"):
        SymmetryGroup.generate([[1, 1, 0]])
