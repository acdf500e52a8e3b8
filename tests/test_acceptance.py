"""Acceptance suite: one test per release criterion.

The terminal summary (see conftest) prints one PASS/FAIL line per
criterion after a run.
"""

import itertools
import time

import numpy as np

from matscale.complexity import (
    ComplexityWeights,
    ParamBreakdown,
    RfSpec,
    rf_descriptor,
    weighted_complexity,
)
from matscale.costs import (
    NasSpec,
    TrainingSpec,
    WorkflowSpec,
    format_bytes,
    nas_budget,
    speedup,
    training_time,
    workflow_estimate,
)
from matscale.curation import Structure, grouped_split, structure_id
from matscale.lattice import (
    Cluster,
    SymmetryGroup,
    apply_permutation,
    correlation,
    correlation_matrix,
)
from matscale.polyfeatures import enumerate_monomials, feature_matrix
from matscale.regression import least_squares, omp_fit
from matscale.spectra import (
    CalcMetadata,
    Fingerprint,
    similarity_matrix,
    sort_by_settings,
)


def test_c1_feature_counting():
    start = time.perf_counter()
    n2 = len(enumerate_monomials(27, 2).monomials)
    n3 = len(enumerate_monomials(27, 3).monomials)
    elapsed = time.perf_counter() - start
    assert n2 == 405
    assert n3 == 4059
    assert elapsed < 1.0


def test_c2_workflow_arithmetic():
    est = workflow_estimate(WorkflowSpec(30_000, 9, 41, 30 * 10**6))
    assert est.runs == 270_000
    assert est.files == 11_070_000
    assert est.bytes == 8_100_000_000_000
    assert format_bytes(est.bytes) == "8.1 TB"


def test_c3_training_times_and_speedup():
    gpu = training_time(TrainingSpec(2_000_000, 0.0010, 0.0023))
    cpu = training_time(TrainingSpec(2_000_000, 0.0012, 0.0177))
    assert abs(gpu - 6_600.0) < 1e-9
    assert abs(cpu - 37_800.0) < 1e-9
    assert abs(cpu / 3600.0 - 10.5) < 1e-9
    ratio = speedup(cpu, gpu)
    assert abs(ratio - 37_800.0 / 6_600.0) < 1e-9
    assert round(ratio, 2) == 5.73


def test_c4_nas_budget():
    budget = nas_budget(NasSpec(2000, 20.0, 3.0))
    assert budget.gpu_hours == 40_000.0
    assert budget.cost == 120_000.0


def test_c5_identifier_protocol():
    s = Structure("ref", {"Mg": 2, "F": 4}, 136)
    assert structure_id(s) == "Mg2F4_136"


def test_c6_complexity_descriptors():
    rng = np.random.default_rng(606)
    for _ in range(100):
        a, l, n = (int(v) for v in rng.integers(0, 10**6, size=3))
        total = weighted_complexity(ParamBreakdown(a, l, n), ComplexityWeights(1, 1, 1))
        assert total == a + l + n
    for _ in range(100):
        leaves = [int(v) for v in rng.integers(1, 200, size=rng.integers(1, 8))]
        for tree_leaves in leaves:
            single = rf_descriptor(RfSpec([tree_leaves]))
            assert single[0] == single[1] + 1  # leaves = splits + 1 per tree
        total_leaves, total_splits = rf_descriptor(RfSpec(leaves))
        assert total_leaves - total_splits == len(leaves)


def _brute_force_best_support(X, y, k):
    """Exhaustive search for the support with minimal least-squares residual,
    solved through numpy's raw lstsq (independent of the greedy path)."""
    n = X.shape[0]
    best, best_resid = None, np.inf
    for support in itertools.combinations(range(X.shape[1]), k):
        cols = np.column_stack([np.ones(n), X[:, support]])
        sol, *_ = np.linalg.lstsq(cols, y, rcond=None)
        resid = float(np.linalg.norm(y - cols @ sol))
        if resid < best_resid - 1e-12:
            best, best_resid = support, resid
    return set(best)


def test_c7a_omp_recovers_planted_supports():
    rng = np.random.default_rng(71)
    for trial in range(20):
        q = int(rng.integers(6, 51))
        k = int(rng.integers(1, 6))
        n = q + 10
        Q, _ = np.linalg.qr(rng.normal(size=(n, q)))
        support = sorted(rng.choice(q, size=k, replace=False))
        beta = rng.uniform(1.0, 3.0, size=k) * rng.choice([-1.0, 1.0], size=k)
        y = Q[:, support] @ beta
        trace = omp_fit(Q, y, max_features=min(n - 1, q))
        assert set(trace.final.model.selected) == set(support)
        assert trace.final.rmse < 1e-8
        if q <= 12:
            assert _brute_force_best_support(Q, y, k) == set(support)
    # dedicated small-q sweep so the brute-force check always runs
    for trial in range(10):
        q = int(rng.integers(4, 13))
        k = int(rng.integers(1, min(5, q - 1) + 1))
        n = q + 8
        Q, _ = np.linalg.qr(rng.normal(size=(n, q)))
        support = sorted(rng.choice(q, size=k, replace=False))
        beta = rng.uniform(1.0, 3.0, size=k) * rng.choice([-1.0, 1.0], size=k)
        y = Q[:, support] @ beta
        trace = omp_fit(Q, y, max_features=min(n - 1, q))
        assert set(trace.final.model.selected) == _brute_force_best_support(Q, y, k)
        assert trace.final.rmse < 1e-8


def test_c7b_omp_rmse_non_increasing_1000_instances():
    rng = np.random.default_rng(72)
    for _ in range(1000):
        n = int(rng.integers(6, 17))
        q = int(rng.integers(2, 9))
        X = rng.normal(size=(n, q))
        y = rng.normal(size=n)
        trace = omp_fit(X, y, max_features=min(n - 1, q, 6))
        rmses = [pt.rmse for pt in trace.points]
        slack = 1e-12 * max(1.0, rmses[0])
        for a, b in zip(rmses, rmses[1:]):
            assert b <= a + slack


def _ols_rmse(X, y):
    coef, intercept = least_squares(X, y)
    pred = X @ coef + intercept
    return float(np.sqrt(np.mean((y - pred) ** 2)))


def test_c7c_degree3_full_basis_never_worse_than_degree1():
    rng = np.random.default_rng(73)
    group = SymmetryGroup.identity(5)
    clusters = [Cluster((0,)), Cluster((1,)), Cluster((0, 1))]
    fm3 = enumerate_monomials(len(clusters), 3)
    for _ in range(100):
        configs = rng.choice([-1, 1], size=(25, 5))
        y = rng.normal(size=25)
        X1 = correlation_matrix(configs, clusters, group)
        X3 = feature_matrix(X1, fm3)
        assert _ols_rmse(X3, y) <= _ols_rmse(X1, y) + 1e-10


def test_c7d_correlations_invariant_under_group_exhaustive():
    s2_tail = [0, 1, 2, 3, 5, 4]  # swap the last two of six sites
    groups = [
        SymmetryGroup.cyclic(8),                          # order 8, 8 sites
        SymmetryGroup.generate(
            [[1, 2, 3, 0], [1, 0, 2, 3]]                  # S4: order 24
        ),
        SymmetryGroup.generate(
            [[1, 2, 3, 0, 4, 5], [1, 0, 2, 3, 4, 5], s2_tail]  # S4 x S2: order 48
        ),
    ]
    assert [len(g) for g in groups] == [8, 24, 48]
    for g in groups:
        n = g.n_sites
        clusters = [Cluster(()), Cluster((0,)), Cluster((0, 1)),
                    Cluster((0, 1, 2))]
        for bits in itertools.product((-1, 1), repeat=n):
            s = np.array(bits)
            for c in clusters:
                x = correlation(c, g, s)
                for p in g.permutations:
                    assert correlation(c, g, apply_permutation(p, s)) == x


def _random_fingerprint_set(rng):
    n_items = int(rng.integers(2, 9))
    n_e, n_d = int(rng.integers(2, 9)), int(rng.integers(2, 9))
    items = []
    for _ in range(n_items):
        heights = rng.integers(0, n_d + 1, size=n_e)
        fp = Fingerprint(window=(-10.0, 10.0), grid=(n_e, n_d), mode="raster",
                         data=heights)
        md = CalcMetadata(
            xc=str(rng.choice(["LDA", "PBE", "SCAN"])),
            n_kpt=int(rng.integers(1, 64)),
            n_basis=int(rng.integers(1, 400)),
            settings_tier=str(rng.choice(["light", "tight", "really_tight"])),
            relativistic=str(rng.choice(["ZORA", "atomic_ZORA", "none"])),
        )
        items.append((fp, md))
    return items


def test_c7e_similarity_matrix_properties_100_sets():
    rng = np.random.default_rng(74)
    for _ in range(100):
        items = _random_fingerprint_set(rng)
        m = similarity_matrix(items)
        n = m.n
        assert np.all(np.abs(m.values - m.values.T) <= 1e-12)
        assert np.all(np.diag(m.values) == 1.0)
        assert np.all((m.values >= 0.0) & (m.values <= 1.0))
        ms = sort_by_settings(m)
        before = sorted(m.values[i, j] for i in range(n) for j in range(n) if i != j)
        after = sorted(ms.values[i, j] for i in range(n) for j in range(n) if i != j)
        assert before == after


_POOL = ["H", "O", "Ba", "Ti", "Mg", "F", "Sn", "K"]


def _random_dataset(rng):
    n = int(rng.integers(1, 21))
    entries = []
    for i in range(n):
        n_el = int(rng.integers(1, 4))
        symbols = rng.choice(_POOL, size=n_el, replace=False)
        comp = {str(sym): int(rng.integers(1, 5)) for sym in symbols}
        entries.append(Structure(f"e{i}", comp, int(rng.integers(1, 231))))
    return entries


def test_c7f_grouped_split_leakage_free_1000_datasets():
    rng = np.random.default_rng(75)
    for _ in range(1000):
        entries = _random_dataset(rng)
        raw = rng.uniform(0.05, 1.0, size=3)
        fractions = tuple(raw / raw.sum())
        seed = int(rng.integers(0, 2**31))
        shared = None
        if rng.random() < 0.3:
            ids = sorted({structure_id(e) for e in entries})
            shared = set(
                str(x) for x in rng.choice(ids, size=min(2, len(ids)), replace=False)
            )
        first = grouped_split(entries, fractions, seed, shared)
        second = grouped_split(entries, fractions, seed, shared)
        assert first.assignment == second.assignment
        by_label = {}
        for e in entries:
            by_label.setdefault(structure_id(e), set()).add(
                first.assignment[e.entry_id]
            )
        assert all(len(splits) == 1 for splits in by_label.values())
