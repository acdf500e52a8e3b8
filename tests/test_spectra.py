import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matscale.spectra import (
    CalcMetadata,
    Fingerprint,
    SimilarityMatrix,
    Spectrum,
    bin_heights,
    block_stats,
    fingerprint_set,
    make_fingerprint,
    similarity_matrix,
    sort_by_settings,
    tanimoto,
)


def meta(xc="PBE", n_kpt=8, n_basis=100, tier="tight", rel="ZORA"):
    return CalcMetadata(xc, n_kpt, n_basis, tier, rel)


def vector_fp(data, grid=None):
    data = np.asarray(data, dtype=float)
    grid = grid or (data.size, 1)
    return Fingerprint(window=(-10.0, 10.0), grid=grid, mode="vector", data=data)


# --- Spectrum validation ----------------------------------------------------

def test_spectrum_rejects_bad_input():
    with pytest.raises(ValueError):
        Spectrum([0.0, 1.0], [1.0], 0.0)
    with pytest.raises(ValueError):
        Spectrum([0.0, 0.0], [1.0, 1.0], 0.0)
    with pytest.raises(ValueError):
        Spectrum([0.0, 1.0], [1.0, -1.0], 0.0)
    with pytest.raises(ValueError, match="non-finite"):
        Spectrum([0.0, 1.0], [1.0, 1.0], float("nan"))


def _spectrum_error(energies, dos, fermi_energy):
    """The message of the first failing Spectrum check, each a full array pass."""
    energies, dos = np.asarray(energies, dtype=float), np.asarray(dos, dtype=float)
    with np.errstate(invalid="ignore"):  # inf - inf
        ascending = np.all(np.diff(energies) > 0)
    if not ascending:
        return "energies must be strictly ascending"
    if not np.all(dos >= 0):
        return "dos values must be non-negative"
    if not (np.all(np.isfinite(energies)) and np.all(np.isfinite(dos))
            and np.isfinite(fermi_energy)):
        return "spectrum contains non-finite values"
    return None


_spectrum_value = st.one_of(
    st.floats(-5, 5), st.sampled_from([0.0, -0.0, -1.0, np.nan, np.inf, -np.inf]))


@settings(max_examples=300, deadline=None)
@given(energies=st.lists(_spectrum_value, min_size=2, max_size=6).map(sorted),
       dos=st.lists(_spectrum_value, min_size=6, max_size=6),
       fermi_energy=_spectrum_value)
def test_spectrum_checks_fire_in_order(energies, dos, fermi_energy):
    dos = dos[:len(energies)]
    message = _spectrum_error(energies, dos, fermi_energy)
    if message is None:
        Spectrum(energies, dos, fermi_energy)
    else:
        with pytest.raises(ValueError, match=f"^{message}$"):
            Spectrum(energies, dos, fermi_energy)


def test_bin_heights_rejects_overflowing_integrals():
    s = Spectrum([-2.0, -0.5, 0.0, 0.5, 2.0], [0.0, 1e308, 1e308, 1e308, 0.0], 0.0,
                 source="huge.csv")
    with pytest.raises(ValueError, match="^huge.csv: .*overflows"):
        bin_heights(s, (-1.0, 1.0), 4)
    with pytest.raises(ValueError, match="overflows"):
        fingerprint_set([s, s], (-1.0, 1.0), (4, 4), mode="vector")


# signed zeros and subnormal neighbours, so that edges and energies often tie
_tie_value = st.one_of(st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 5e-324, -1.0, 1.0]),
                       st.floats(-4, 4))


@settings(max_examples=300, deadline=None)
@given(x=st.lists(_tie_value, min_size=2, max_size=10, unique=True).map(sorted),
       edges=st.lists(_tie_value, min_size=2, max_size=6, unique=True).map(sorted))
def test_bin_integral_points_equal_np_unique(x, edges):
    from matscale import spectra

    x, edges = np.array(x), np.array(edges)
    inner = x[(x > edges[0]) & (x < edges[-1])]
    want = np.unique(np.concatenate([edges, inner]))
    seen = []
    interp = np.interp
    with pytest.MonkeyPatch.context() as mp:  # the points are np.interp's first argument
        mp.setattr(np, "interp", lambda pts, *args, **kw: seen.append(pts) or interp(
            pts, *args, **kw))
        spectra._bin_integrals(x, np.arange(len(x), dtype=float), edges)
    assert len(seen) == 1
    assert (seen[0].shape, seen[0].dtype) == (want.shape, want.dtype)
    assert seen[0].tobytes() == want.tobytes()


# --- make_fingerprint -------------------------------------------------------

def test_flat_zero_dos_gives_all_zero_fingerprint():
    s = Spectrum(np.linspace(-5, 5, 21), np.zeros(21), 0.0)
    fp = make_fingerprint(s, window=(-4, 4), grid=(8, 4), mode="raster", h_max=1.0)
    assert not fp.data.any()
    # a computed maximum of 0 is legal, where a given h_max=0 is not
    assert not make_fingerprint(s, window=(-4, 4), grid=(8, 4), mode="raster").data.any()
    fv = make_fingerprint(s, window=(-4, 4), grid=(8, 4), mode="vector")
    assert np.all(fv.data == 0.0)


def test_identical_spectra_identical_fingerprints():
    s1 = Spectrum([0.0, 1.0, 2.0], [0.5, 1.5, 0.5], 1.0)
    s2 = Spectrum([0.0, 1.0, 2.0], [0.5, 1.5, 0.5], 1.0)
    f1 = make_fingerprint(s1, window=(-1, 1), grid=(4, 4), mode="raster", h_max=2.0)
    f2 = make_fingerprint(s2, window=(-1, 1), grid=(4, 4), mode="raster", h_max=2.0)
    assert np.array_equal(f1.data, f2.data)


def test_triangular_peak_heights_by_hand():
    # dos rises 0 -> 2 over [1, 2] and falls back over [2, 3]; window (0, 4)
    # in four unit bins. Trapezoids: 0, (0+2)/2, (2+0)/2, 0 = (0, 1, 1, 0).
    s = Spectrum([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 2.0, 0.0, 0.0], 0.0)
    fv = make_fingerprint(s, window=(0, 4), grid=(4, 4), mode="vector")
    assert np.allclose(fv.data, [0.0, 1.0, 1.0, 0.0])
    fr = make_fingerprint(s, window=(0, 4), grid=(4, 4), mode="raster", h_max=1.0)
    assert fr.to_raster().sum(axis=1).tolist() == [0, 4, 4, 0]


def test_fingerprint_window_must_overlap():
    s = Spectrum([0.0, 1.0], [1.0, 1.0], 0.0)
    with pytest.raises(ValueError, match="overlap"):
        make_fingerprint(s, window=(5.0, 6.0), grid=(4, 4), mode="vector")


def test_fingerprint_invariant_under_rigid_shift():
    # dyadic energies and an integer shift keep the float arithmetic exact
    energies = np.arange(0, 33) / 8.0
    dos = np.abs(np.sin(np.arange(33)))
    for shift in (-3.0, 2.0, 17.0):
        a = Spectrum(energies, dos, 1.0)
        b = Spectrum(energies + shift, dos, 1.0 + shift)
        fa = make_fingerprint(a, window=(-1, 3), grid=(16, 8), mode="raster", h_max=0.5)
        fb = make_fingerprint(b, window=(-1, 3), grid=(16, 8), mode="raster", h_max=0.5)
        assert np.array_equal(fa.data, fb.data)


def test_raster_fingerprint_stores_column_heights():
    rng = np.random.default_rng(5)
    s = Spectrum(np.linspace(-10, 10, 200), rng.uniform(0, 3, 200), 0.0)
    fp = make_fingerprint(s, grid=(32, 16), mode="raster", h_max=None)
    assert fp.data.shape == (32,) and fp.data.dtype == np.int64
    assert fp.to_raster().shape == (32, 16)
    assert fp.to_raster().sum(axis=1).tolist() == fp.data.tolist()


@pytest.mark.parametrize("data", [
    np.zeros((4, 3), dtype=bool),          # an old-style bit raster
    np.zeros(4, dtype=bool),
    np.array([0.0, 1.0, 2.0, 3.0]),        # floats, even integral ones
    np.array([0, 1, 2]),                   # wrong length
    np.array([0, 1, 2, 4]),                # taller than n_dos
    np.array([0, -1, 2, 3]),
])
def test_raster_fingerprint_rejects_bad_heights(data):
    with pytest.raises(ValueError, match="column heights"):
        Fingerprint((-10.0, 10.0), (4, 3), "raster", data)


def test_to_raster_needs_raster_mode():
    with pytest.raises(ValueError):
        vector_fp([1.0, 2.0]).to_raster()


@pytest.mark.parametrize("h_max", [float("nan"), float("inf"), -1.0, 0.0])
def test_raster_rejects_bad_h_max(h_max):
    s = Spectrum([0.0, 1.0, 2.0], [0.5, 1.5, 0.5], 1.0)
    with pytest.raises(ValueError, match="h_max"):
        make_fingerprint(s, window=(-1, 1), grid=(4, 4), mode="raster", h_max=h_max)
    with pytest.raises(ValueError, match="h_max"):
        fingerprint_set([s], window=(-1, 1), grid=(4, 4), mode="raster", h_max=h_max)


@pytest.mark.parametrize("window", [
    (float("-inf"), float("inf")), (float("nan"), 1.0), (-1.0, float("inf")), (1.0, -1.0),
])
def test_fingerprint_rejects_bad_window(window):
    s = Spectrum([0.0, 1.0, 2.0], [0.5, 1.5, 0.5], 1.0)
    with pytest.raises(ValueError, match="window"):
        make_fingerprint(s, window=window, grid=(4, 4), mode="vector")


def test_fingerprint_set_bins_each_spectrum_once(monkeypatch):
    from matscale import spectra

    calls = []
    original = spectra.bin_heights

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(spectra, "bin_heights", counting)
    s = Spectrum([0.0, 1.0, 2.0], [0.5, 1.5, 0.5], 1.0)
    fingerprint_set([s, s, s], window=(-1, 1), grid=(4, 4), mode="raster")
    assert len(calls) == 3


def test_raster_columns_are_contiguous_runs():
    rng = np.random.default_rng(5)
    s = Spectrum(np.linspace(-10, 10, 200), rng.uniform(0, 3, 200), 0.0)
    fp = make_fingerprint(s, grid=(32, 16), mode="raster", h_max=None)
    for column in fp.to_raster():
        k = int(column.sum())
        assert column[:k].all() and not column[k:].any()


# --- tanimoto ---------------------------------------------------------------

def test_tanimoto_identity_and_disjoint():
    a = vector_fp([1.0, 1.0, 0.0])
    b = vector_fp([0.0, 0.0, 2.0])
    assert tanimoto(a, a) == 1.0
    assert tanimoto(a, b) == 0.0


def test_tanimoto_hand_value():
    a = vector_fp([1.0, 1.0, 0.0])
    b = vector_fp([1.0, 0.0, 1.0])
    assert tanimoto(a, b) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_tanimoto_all_zero_defined_limit():
    a = vector_fp([0.0, 0.0])
    b = vector_fp([0.0, 0.0])
    assert tanimoto(a, b) == 1.0


def test_tanimoto_rejects_mismatched_grids():
    a = vector_fp([1.0, 0.0])
    b = vector_fp([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        tanimoto(a, b)


@settings(max_examples=80)
@given(
    st.lists(st.floats(0, 10, allow_nan=False), min_size=1, max_size=16),
    st.lists(st.floats(0, 10, allow_nan=False), min_size=1, max_size=16),
)
def test_tanimoto_symmetric_and_bounded(xs, ys):
    n = min(len(xs), len(ys))
    a, b = vector_fp(xs[:n]), vector_fp(ys[:n])
    s_ab, s_ba = tanimoto(a, b), tanimoto(b, a)
    assert s_ab == s_ba
    assert 0.0 <= s_ab <= 1.0
    if np.any(np.asarray(xs[:n]) > 0):
        assert tanimoto(a, a) == 1.0


# --- similarity_matrix ------------------------------------------------------

def test_matrix_single_item():
    m = similarity_matrix([(vector_fp([1.0, 2.0]), meta())])
    assert m.values.tolist() == [[1.0]]
    assert m.ordering == [0]


def test_matrix_identical_pair():
    fp = vector_fp([1.0, 2.0, 0.0])
    m = similarity_matrix([(fp, meta()), (fp, meta(xc="LDA"))])
    assert np.array_equal(m.values, np.ones((2, 2)))


def test_matrix_matches_pairwise_tanimoto():
    fps = [vector_fp([1.0, 0.0, 2.0]), vector_fp([0.5, 1.0, 0.0]),
           vector_fp([0.0, 0.0, 1.0])]
    m = similarity_matrix([(fp, meta()) for fp in fps])
    for i in range(3):
        for j in range(3):
            expected = 1.0 if i == j else tanimoto(fps[i], fps[j])
            assert m.values[i, j] == expected


def _pairwise_fill(items):
    """The per-pair tanimoto fill similarity_matrix used to run, kept as an oracle."""
    fps = [fp for fp, _ in items]
    n = len(fps)
    values = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            values[i, j] = values[j, i] = tanimoto(fps[i], fps[j])
    return values


@st.composite
def fingerprint_items(draw):
    n = draw(st.integers(1, 7))
    n_e, n_d = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        # all-zero columns are likely, all-zero rasters possible
        cols = st.integers(0, n_d) | st.just(0)
        fps = [
            Fingerprint((-10.0, 10.0), (n_e, n_d), "raster",
                        np.array(draw(st.lists(cols, min_size=n_e, max_size=n_e))))
            for _ in range(n)
        ]
    elif draw(st.booleans()):
        vals = st.floats(0, 1e150) | st.just(0.0)
        fps = [vector_fp(draw(st.lists(vals, min_size=n_e, max_size=n_e)))
               for _ in range(n)]
    else:
        # OpenBLAS's ddot kernel changes with the vector length, so run to ~300 bins;
        # zeroed bins are likely, all-zero vectors possible
        n_e = draw(st.integers(1, 300))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        data = rng.random((n, n_e)) * 10.0 ** rng.integers(-150, 151, (n, 1))
        data[rng.random((n, n_e)) < draw(st.sampled_from([0.0, 0.5, 1.0]))] = 0.0
        fps = [vector_fp(row) for row in data]
    return [(fp, meta()) for fp in fps]


@settings(max_examples=150)
@given(fingerprint_items())
def test_matrix_equals_pairwise_tanimoto_fill(items):
    assert similarity_matrix(items).values.tobytes() == _pairwise_fill(items).tobytes()


# large cells of both signs next to small ones: where compensated summation
# (Python >= 3.12) and a running sum over pieces round apart
_cell = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([1e16, -1e16, 1.0, 0.1, -0.0]))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 9), data=st.data())
def test_mean_off_diagonal_bits_equal_the_sum_over_the_cell_list(n, data):
    values = np.array(data.draw(st.lists(_cell, min_size=n * n, max_size=n * n)),
                      dtype=float).reshape(n, n)
    got = SimilarityMatrix(values, list(range(n)), [meta()] * n).mean_off_diagonal()
    off_diag = values[~np.eye(n, dtype=bool)].tolist()  # how the CLI computed it before
    if not off_diag:
        assert got is None
    else:
        assert float.hex(got) == float.hex(sum(off_diag) / len(off_diag))


def test_matrix_all_zero_fingerprints_compare_as_one():
    zero = Fingerprint((-10.0, 10.0), (3, 4), "raster", np.zeros(3, dtype=int))
    other = Fingerprint((-10.0, 10.0), (3, 4), "raster", np.array([1, 0, 4]))
    m = similarity_matrix([(zero, meta()), (zero, meta()), (other, meta())])
    assert m.values.tolist() == [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    mv = similarity_matrix([(vector_fp([0.0, 0.0]), meta())] * 2)
    assert mv.values.tolist() == [[1.0, 1.0], [1.0, 1.0]]


# --- sort_by_settings -------------------------------------------------------

def test_sort_already_sorted_is_identity():
    items = [
        (vector_fp([1.0, 0.0]), meta(xc="LDA", n_kpt=2)),
        (vector_fp([0.0, 1.0]), meta(xc="LDA", n_kpt=4)),
        (vector_fp([1.0, 1.0]), meta(xc="PBE", n_kpt=2)),
    ]
    m = sort_by_settings(similarity_matrix(items))
    assert m.ordering == [0, 1, 2]


def test_sort_lda_before_pbe():
    items = [
        (vector_fp([1.0, 0.0]), meta(xc="PBE")),
        (vector_fp([0.0, 1.0]), meta(xc="LDA")),
    ]
    m = sort_by_settings(similarity_matrix(items))
    assert m.ordering == [1, 0]
    assert [lab.xc for lab in m.labels] == ["LDA", "PBE"]


def test_sort_six_item_fixture_hand_order():
    labels = [
        meta(xc="PBE", n_kpt=8, tier="tight", n_basis=100, rel="ZORA"),        # 0
        meta(xc="LDA", n_kpt=8, tier="light", n_basis=100, rel="ZORA"),        # 1
        meta(xc="LDA", n_kpt=8, tier="light", n_basis=50, rel="atomic_ZORA"),  # 2
        meta(xc="LDA", n_kpt=4, tier="really_tight", n_basis=200, rel="ZORA"), # 3
        meta(xc="PBE", n_kpt=2, tier="light", n_basis=10, rel="none"),         # 4
        meta(xc="LDA", n_kpt=8, tier="tight", n_basis=10, rel="ZORA"),         # 5
    ]
    rng = np.random.default_rng(0)
    items = [(vector_fp(rng.uniform(0, 1, 4)), lab) for lab in labels]
    m = sort_by_settings(similarity_matrix(items))
    assert m.ordering == [3, 2, 1, 5, 4, 0]


def test_sort_preserves_off_diagonal_multiset():
    rng = np.random.default_rng(3)
    items = [
        (vector_fp(rng.uniform(0, 1, 6)),
         meta(xc=rng.choice(["LDA", "PBE"]), n_kpt=int(rng.integers(1, 9))))
        for _ in range(8)
    ]
    m = similarity_matrix(items)
    ms = sort_by_settings(m)
    before = sorted(m.values[i, j] for i in range(8) for j in range(8) if i != j)
    after = sorted(ms.values[i, j] for i in range(8) for j in range(8) if i != j)
    assert before == after
    # the permutation really moves the labels with the rows
    for row, original in enumerate(ms.ordering):
        assert ms.labels[row] == m.labels[original]


# --- block_stats -------------------------------------------------------------

def test_block_stats_single_group_identical_items():
    fp = vector_fp([1.0, 2.0])
    m = similarity_matrix([(fp, meta()) for _ in range(3)])
    stats = block_stats(m, ["g", "g", "g"])
    assert stats[("g", "g")] == 1.0


def test_block_stats_two_singletons():
    m = similarity_matrix(
        [(vector_fp([1.0, 0.0]), meta()), (vector_fp([1.0, 1.0]), meta())]
    )
    stats = block_stats(m, ["a", "b"])
    assert stats[("a", "b")] == m.values[0, 1]
    assert ("a", "a") not in stats  # singleton intra block has no off-diagonal


def test_block_stats_hand_fixture():
    values = np.array(
        [
            [1.0, 0.5, 0.2, 0.3],
            [0.5, 1.0, 0.4, 0.6],
            [0.2, 0.4, 1.0, 0.7],
            [0.3, 0.6, 0.7, 1.0],
        ]
    )
    from matscale.spectra import SimilarityMatrix

    m = SimilarityMatrix(values=values, ordering=[0, 1, 2, 3],
                         labels=[meta()] * 4)
    stats = block_stats(m, ["g1", "g1", "g2", "g2"])
    assert stats[("g1", "g1")] == pytest.approx(0.5)
    assert stats[("g2", "g2")] == pytest.approx(0.7)
    assert stats[("g1", "g2")] == pytest.approx((0.2 + 0.3 + 0.4 + 0.6) / 4)
    assert stats[("g2", "g1")] == stats[("g1", "g2")]


def test_block_stats_requires_full_grouping():
    m = similarity_matrix([(vector_fp([1.0]), meta()), (vector_fp([1.0]), meta())])
    with pytest.raises(ValueError):
        block_stats(m, ["only_one"])


# --- fingerprint_set ---------------------------------------------------------

def test_fingerprint_set_shares_normalization():
    weak = Spectrum([0.0, 1.0, 2.0], [0.0, 1.0, 0.0], 0.0)
    strong = Spectrum([0.0, 1.0, 2.0], [0.0, 4.0, 0.0], 0.0)
    fps = fingerprint_set([weak, strong], window=(0, 2), grid=(2, 8), mode="raster")
    # shared h_max comes from the strong spectrum, so the weak raster is shorter
    assert fps[0].to_raster().sum() < fps[1].to_raster().sum()
    assert fps[1].to_raster().sum(axis=1).max() == 8
