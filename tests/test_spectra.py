import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matscale.spectra import (
    MAX_SELF_TERM,
    CalcMetadata,
    FingerprintSet,
    SimilarityMatrix,
    Spectrum,
    _fingerprints,
    bin_heights,
    block_stats,
    check_grid,
    fingerprint_set,
    similarity_matrix,
    sort_by_settings,
    tanimoto,
)


def meta(xc="PBE", n_kpt=8, n_basis=100, tier="tight", rel="ZORA"):
    return CalcMetadata(xc, n_kpt, n_basis, tier, rel)


def vector_set(rows, grid=None):
    """The vector set of rows; its grid defaults to (row length, 1)."""
    data = np.asarray(rows, dtype=float)
    return FingerprintSet((-10.0, 10.0), grid or (data.shape[1], 1), "vector", data)


def vector_fp(data, grid=None):
    """A one-row vector set."""
    return vector_set([data], grid)


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


# finite DOS values whose bin heights (up to 6.25e306) times 64 are past the float64 range
HUGE = Spectrum([-1.0, 0.0, 1.0], [8e307] * 3, 0.0, source="huge.csv")


@pytest.mark.filterwarnings("error")  # numpy's overflow warnings fail the test
@pytest.mark.parametrize("h_max", [None, 1e308])
def test_raster_quantizes_heights_past_the_float_range_over_n_dos(h_max):
    heights = bin_heights(HUGE, (-10.0, 10.0), 256)
    [fp] = fingerprint_set([HUGE], (-10.0, 10.0), (256, 64), h_max=h_max)
    # the bits of the heights and h_max scaled by 2**-7 first, exactly
    scaled = None if h_max is None else h_max * 2.0**-7
    assert fp.data.tolist() == [_quantize_each([heights * 2.0**-7], 64, scaled)[0].tolist()]
    assert fp.data.max() == (64 if h_max is None else 4)  # floor(64 * 6.25e306 / 1e308)


@pytest.mark.filterwarnings("error")
def test_vectors_whose_inner_products_overflow_are_refused():
    small = Spectrum([-1.0, 0.0, 1.0], [1.0] * 3, 0.0, source="small.csv")
    with pytest.raises(ValueError, match="^huge.csv: the vector's inner product with itself"):
        fingerprint_set([small, HUGE], mode="vector")
    a, b = vector_fp([1e200, 1e200]), vector_fp([1e200, 2e200])
    with pytest.raises(ValueError, match="^f1: .* inf, exceeds 8.98847e[+]307"):
        tanimoto(a, b)
    with pytest.raises(ValueError, match="^fingerprint 1: "):
        similarity_matrix(vector_set([[1.0, 2.0], [1e200, 2e200]]), [meta(), meta()])
    # at the bound, <a,a> + <b,b> is finite
    x = math.sqrt(MAX_SELF_TERM)
    while x * x > MAX_SELF_TERM:
        x = math.nextafter(x, 0)
    edge, past = vector_fp([x, 0.0]), vector_fp([0.0, math.nextafter(x, math.inf) * 2])
    assert tanimoto(edge, vector_fp([0.0, x])) == 0.0
    assert similarity_matrix(vector_set([[x, 0.0]] * 2), [meta()] * 2).values.tolist() \
        == [[1, 1], [1, 1]]
    with pytest.raises(ValueError, match="^f2: "):
        tanimoto(edge, past)


@settings(max_examples=200, deadline=None)
@given(xs=st.lists(st.floats(-1e200, 1e200) | st.sampled_from([0.0, 1e160, -1e160, 1e154]),
                   min_size=3, max_size=3),
       ys=st.lists(st.floats(-1e200, 1e200) | st.sampled_from([0.0, 1e160, -1e160, 1e154]),
                   min_size=3, max_size=3))
def test_vector_similarity_is_a_number_or_an_error(xs, ys):
    """Never NaN: each cell is tanimoto's value or both raise ValueError."""
    fps = vector_set([xs, ys])
    a, b = fps
    try:
        value = tanimoto(a, b)
    except ValueError:
        with pytest.raises(ValueError):
            similarity_matrix(fps, [meta(), meta()])
        return
    assert math.isfinite(value)
    assert similarity_matrix(fps, [meta(), meta()]).values[0, 1] == value


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


def _add_at_bin_integrals(x, y, edges):
    """_bin_integrals with each bin's segments summed by np.add.at."""
    inner = x[(x > edges[0]) & (x < edges[-1])]
    pts = np.unique(np.concatenate([edges, inner]))
    vals = np.interp(pts, x, y, left=0.0, right=0.0)
    seg = 0.5 * (vals[:-1] + vals[1:]) * np.diff(pts)
    mids = 0.5 * (pts[:-1] + pts[1:])
    seg[(mids < x[0]) | (mids > x[-1])] = 0.0
    heights = np.zeros(edges.size - 1)
    np.add.at(heights, np.searchsorted(edges, pts[:-1], side="right") - 1, seg)
    return heights


@settings(max_examples=300, deadline=None)
@given(x=st.lists(_tie_value, min_size=2, max_size=12, unique=True).map(sorted),
       y=st.lists(st.floats(0, 1e308) | st.sampled_from([0.0, 1e-300, 5e-324]),
                  min_size=12, max_size=12),
       edges=st.lists(_tie_value, min_size=2, max_size=8, unique=True).map(sorted))
def test_bin_integrals_equal_np_add_at(x, y, edges):
    from matscale import spectra

    x, y, edges = np.array(x), np.array(y[:len(x)]), np.array(edges)
    with np.errstate(over="ignore", invalid="ignore"):
        got = spectra._bin_integrals(x, y, edges)
        want = _add_at_bin_integrals(x, y, edges)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("x, edges, segment_bin", [
    # each segment's midpoint rounds down onto its left edge
    ([0.0, 5e-324], [0.0, 1.0, 2.0], 0),
    ([0.0, 1.0, 1.0 + 2**-52], [0.0, 1.0, 2.0], 1),
])
def test_a_segment_lands_in_the_bin_that_holds_it(x, edges, segment_bin):
    from matscale import spectra

    x, edges = np.array(x), np.array(edges)
    y = np.zeros(x.size)
    y[-1] = 1e300  # only the last segment, one float step wide, has an integral
    heights = spectra._bin_integrals(x, y, edges)
    assert heights[segment_bin] > 0
    assert np.count_nonzero(heights) == 1


# --- one spectrum's fingerprint ----------------------------------------------

def test_flat_zero_dos_gives_all_zero_fingerprint():
    s = Spectrum(np.linspace(-5, 5, 21), np.zeros(21), 0.0)
    fp = fingerprint_set([s], window=(-4, 4), grid=(8, 4), mode="raster", h_max=1.0)
    assert not fp.data.any()
    # a computed maximum of 0 is legal, where a given h_max=0 is not
    assert not fingerprint_set([s], window=(-4, 4), grid=(8, 4), mode="raster").data.any()
    fv = fingerprint_set([s], window=(-4, 4), grid=(8, 4), mode="vector")
    assert np.all(fv.data == 0.0)


def test_identical_spectra_identical_fingerprints():
    s1 = Spectrum([0.0, 1.0, 2.0], [0.5, 1.5, 0.5], 1.0)
    s2 = Spectrum([0.0, 1.0, 2.0], [0.5, 1.5, 0.5], 1.0)
    f1 = fingerprint_set([s1], window=(-1, 1), grid=(4, 4), mode="raster", h_max=2.0)
    f2 = fingerprint_set([s2], window=(-1, 1), grid=(4, 4), mode="raster", h_max=2.0)
    assert np.array_equal(f1.data, f2.data)


def test_triangular_peak_heights_by_hand():
    # dos rises 0 -> 2 over [1, 2] and falls back over [2, 3]; window (0, 4)
    # in four unit bins. Trapezoids: 0, (0+2)/2, (2+0)/2, 0 = (0, 1, 1, 0).
    s = Spectrum([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 2.0, 0.0, 0.0], 0.0)
    fv = fingerprint_set([s], window=(0, 4), grid=(4, 4), mode="vector")
    assert np.allclose(fv.data, [[0.0, 1.0, 1.0, 0.0]])
    fr = fingerprint_set([s], window=(0, 4), grid=(4, 4), mode="raster", h_max=1.0)
    assert fr.to_raster().sum(axis=2).tolist() == [[0, 4, 4, 0]]


def test_fingerprint_window_must_overlap():
    s = Spectrum([0.0, 1.0], [1.0, 1.0], 0.0)
    with pytest.raises(ValueError, match="overlap"):
        fingerprint_set([s], window=(5.0, 6.0), grid=(4, 4), mode="vector")


def test_fingerprint_invariant_under_rigid_shift():
    # dyadic energies and an integer shift keep the float arithmetic exact
    energies = np.arange(0, 33) / 8.0
    dos = np.abs(np.sin(np.arange(33)))
    for shift in (-3.0, 2.0, 17.0):
        a = Spectrum(energies, dos, 1.0)
        b = Spectrum(energies + shift, dos, 1.0 + shift)
        fa = fingerprint_set([a], window=(-1, 3), grid=(16, 8), mode="raster", h_max=0.5)
        fb = fingerprint_set([b], window=(-1, 3), grid=(16, 8), mode="raster", h_max=0.5)
        assert np.array_equal(fa.data, fb.data)


def test_raster_fingerprint_stores_column_heights():
    rng = np.random.default_rng(5)
    s = Spectrum(np.linspace(-10, 10, 200), rng.uniform(0, 3, 200), 0.0)
    fp = fingerprint_set([s], grid=(32, 16), mode="raster", h_max=None)
    assert fp.data.shape == (1, 32) and fp.data.dtype == np.uint8  # min_scalar_type(16)
    assert fp.to_raster().shape == (1, 32, 16)
    assert fp.to_raster().sum(axis=2).tolist() == fp.data.tolist()


@pytest.mark.parametrize("data", [
    np.zeros((4, 3), dtype=bool),          # an old-style bit raster
    np.zeros(4, dtype=bool),
    np.array([0.0, 1.0, 2.0, 3.0]),        # floats, even integral ones
    np.array([0, 1, 2]),                   # wrong length
    np.array([0, 1, 2, 4]),                # taller than n_dos
    np.array([0, -1, 2, 3]),
    np.array([0, 1, 2, 2**40]),            # int64 far above n_dos
])
def test_raster_fingerprint_rejects_bad_heights(data):
    with pytest.raises(ValueError, match="column heights"):
        FingerprintSet((-10.0, 10.0), (4, 3), "raster", data[None])  # as one row


def test_raster_fingerprint_accepts_an_empty_grid():
    fp = FingerprintSet((-10.0, 10.0), (0, 4), "raster", np.zeros((1, 0), dtype=int))
    assert fp.data.shape == (1, 0) and fp.data.dtype == np.uint8


def test_to_raster_needs_raster_mode():
    with pytest.raises(ValueError):
        vector_fp([1.0, 2.0]).to_raster()


@pytest.mark.parametrize("h_max", [float("nan"), float("inf"), -1.0, 0.0])
def test_raster_rejects_bad_h_max(h_max):
    s = Spectrum([0.0, 1.0, 2.0], [0.5, 1.5, 0.5], 1.0)
    with pytest.raises(ValueError, match="h_max"):
        fingerprint_set([s], window=(-1, 1), grid=(4, 4), mode="raster", h_max=h_max)


@pytest.mark.parametrize("window", [
    (float("-inf"), float("inf")), (float("nan"), 1.0), (-1.0, float("inf")), (1.0, -1.0),
])
def test_fingerprint_rejects_bad_window(window):
    s = Spectrum([0.0, 1.0, 2.0], [0.5, 1.5, 0.5], 1.0)
    with pytest.raises(ValueError, match="window"):
        fingerprint_set([s], window=window, grid=(4, 4), mode="vector")


def test_check_grid_bounds_the_bin_edges_and_the_raster_bits():
    check_grid((2**28 - 1, 1))  # 2**28 float64 edges: 2**31 bytes
    check_grid((1, 2**62 - 1))  # two full rasters sum to 2**63 - 2, inside int64
    for grid in ((2**28, 1), (2, 2**61), (0, 4)):
        with pytest.raises(ValueError, match="^grid"):
            check_grid(grid)


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
    [raster] = fingerprint_set([s], grid=(32, 16), mode="raster", h_max=None).to_raster()
    for column in raster:
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


@pytest.mark.parametrize("mode, rows", [
    ("vector", (2, 1)), ("vector", (1, 2)), ("vector", (2, 2)), ("vector", (0, 1)),
    ("raster", (3, 3)), ("raster", (1, 0)),
])
def test_tanimoto_takes_two_one_row_sets(mode, rows):
    # raveled, two rows would compare as one long fingerprint and give a number
    a, b = (FingerprintSet((-10.0, 10.0), (2, 4), mode, np.ones((k, 2), dtype=int))
            for k in rows)
    with pytest.raises(ValueError, match=f"^tanimoto compares two one-row sets, got "
                                         f"{rows[0]} and {rows[1]} rows$"):
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
    m = similarity_matrix(vector_fp([1.0, 2.0]), [meta()])
    assert m.values.tolist() == [[1.0]]
    assert m.ordering == [0]


def test_matrix_identical_pair():
    m = similarity_matrix(vector_set([[1.0, 2.0, 0.0]] * 2), [meta(), meta(xc="LDA")])
    assert np.array_equal(m.values, np.ones((2, 2)))


def test_matrix_matches_pairwise_tanimoto():
    fps = vector_set([[1.0, 0.0, 2.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
    m = similarity_matrix(fps, [meta()] * 3)
    for i in range(3):
        for j in range(3):
            expected = 1.0 if i == j else tanimoto(fps[i], fps[j])
            assert m.values[i, j] == expected


def _pairwise_fill(fps):
    """The per-pair tanimoto fill similarity_matrix used to run, kept as an oracle."""
    n = len(fps)
    values = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            values[i, j] = values[j, i] = tanimoto(fps[i], fps[j])
    return values


@st.composite
def fingerprint_sets(draw):
    n = draw(st.integers(1, 7))
    # n_dos past 255 and 65535 stores heights as uint16 and uint32
    n_e, n_d = draw(st.integers(1, 6)), draw(st.integers(1, 6) | st.sampled_from([256, 70000]))
    if draw(st.booleans()):
        # all-zero columns are likely, all-zero rasters possible
        cols = st.integers(0, n_d) | st.just(0)
        return FingerprintSet((-10.0, 10.0), (n_e, n_d), "raster", np.array(
            [draw(st.lists(cols, min_size=n_e, max_size=n_e)) for _ in range(n)]))
    if draw(st.booleans()):
        vals = st.floats(0, 1e150) | st.just(0.0)
        return vector_set([draw(st.lists(vals, min_size=n_e, max_size=n_e))
                           for _ in range(n)])
    # OpenBLAS's ddot kernel changes with the vector length, so run to ~300 bins;
    # zeroed bins are likely, all-zero vectors possible
    n_e = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.random((n, n_e)) * 10.0 ** rng.integers(-150, 151, (n, 1))
    data[rng.random((n, n_e)) < draw(st.sampled_from([0.0, 0.5, 1.0]))] = 0.0
    return vector_set(data)


@settings(max_examples=150)
@given(fingerprint_sets())
def test_matrix_equals_pairwise_tanimoto_fill(fps):
    labels = [meta(n_kpt=k + 1) for k in range(len(fps))]
    m = similarity_matrix(fps, labels)
    assert (m.values.tobytes(), m.labels, m.ordering) \
        == (_pairwise_fill(fps).tobytes(), labels, list(range(len(fps))))


def test_matrix_refuses_mismatched_labels_and_removed_forms():
    fps = vector_set([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError, match="^got 1 labels for 2 fingerprints$"):
        similarity_matrix(fps, [meta()])
    with pytest.raises(ValueError, match="need at least one"):
        similarity_matrix(vector_set(np.ones((0, 2))), [])
    # a sequence of one-row sets, and (fingerprint, metadata) pairs
    with pytest.raises(TypeError, match="^similarity_matrix takes a FingerprintSet, got list$"):
        similarity_matrix(list(fps), [meta(), meta()])
    with pytest.raises(TypeError, match="labels"):
        similarity_matrix(list(zip(fps, [meta(), meta()])))


def test_set_indexes_fingerprints_like_a_sequence():
    fps = FingerprintSet((-1.0, 1.0), (3, 4), "raster", np.array([[0, 1, 4], [2, 2, 2]]))
    assert len(fps) == 2 and fps.data.dtype == np.uint8
    first, last = fps
    assert (type(first), first.grid, first.mode, first.data.dtype) \
        == (FingerprintSet, (3, 4), "raster", np.uint8)
    assert (first.data.tolist(), last.data.tolist()) == ([[0, 1, 4]], [[2, 2, 2]])
    assert fps[-1].data.tolist() == [[2, 2, 2]] and fps[-2].data.tolist() == [[0, 1, 4]]
    for k in (2, -3):
        with pytest.raises(IndexError):
            fps[k]
    rasters = fps.to_raster()
    assert rasters.shape == (2, 3, 4) and rasters.dtype == bool
    assert rasters.sum(axis=2).tolist() == fps.data.tolist()
    assert [fp.to_raster().tobytes() for fp in fps] == [r.tobytes() for r in rasters]


@pytest.mark.parametrize("data", [
    np.zeros((2, 4), dtype=bool),
    np.array([[0.0, 1.0, 2.0, 3.0]]),      # floats, even integral ones
    np.array([0, 1, 2, 3]),                # one fingerprint, not a set of them
    np.array([[0, 1, 2]]),                 # wrong length
    np.array([[0, 1, 2, 3], [0, 1, 2, 4]]),  # taller than n_dos
    np.array([[0, -1, 2, 3]]),
    np.array([[0, 1, 2, 2**40]]),
])
def test_raster_set_rejects_bad_heights_as_a_fingerprint_does(data):
    with pytest.raises(ValueError, match="^raster data must be 4 integer column heights"):
        FingerprintSet((-10.0, 10.0), (4, 3), "raster", data)


def test_fingerprint_set_builds_no_fingerprint_per_spectrum(monkeypatch):
    calls = []
    post_init = FingerprintSet.__post_init__
    monkeypatch.setattr(FingerprintSet, "__post_init__",
                        lambda fps: calls.append(fps) or post_init(fps))
    spectra = [Spectrum([0.0, 1.0, 2.0], [0.5, 1.5, k], 1.0) for k in range(5)]
    for mode in ("raster", "vector"):
        fps = fingerprint_set(spectra, window=(-1, 1), grid=(4, 4), mode=mode)
        assert (type(fps), len(fps), len(calls), calls[-1] is fps) == (FingerprintSet, 5, 1, True)
        calls.clear()
    fps[4]  # indexing builds one, of one row
    assert [len(fp) for fp in calls] == [1]


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


def test_matrix_sums_minima_in_int64_from_2_to_the_32_raster_bits():
    # n_energy * n_dos = 2**32: a uint32 sum of the minimum 2**32 would wrap to 0
    fps = FingerprintSet((-10.0, 10.0), (1, 2**32), "raster", np.array([[2**32]] * 2))
    fp = fps[0]
    m = similarity_matrix(fps, [meta(), meta(xc="LDA")])
    assert float.hex(m.values[0, 1]) == float.hex(tanimoto(fp, fp)) == float.hex(1.0)


def test_matrix_all_zero_fingerprints_compare_as_one():
    fps = FingerprintSet((-10.0, 10.0), (3, 4), "raster", np.array([[0, 0, 0], [0, 0, 0],
                                                                     [1, 0, 4]]))
    m = similarity_matrix(fps, [meta()] * 3)
    assert m.values.tolist() == [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    mv = similarity_matrix(vector_set([[0.0, 0.0]] * 2), [meta()] * 2)
    assert mv.values.tolist() == [[1.0, 1.0], [1.0, 1.0]]


# --- sort_by_settings -------------------------------------------------------

def test_sort_already_sorted_is_identity():
    fps = vector_set([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    labels = [meta(xc="LDA", n_kpt=2), meta(xc="LDA", n_kpt=4), meta(xc="PBE", n_kpt=2)]
    m = sort_by_settings(similarity_matrix(fps, labels))
    assert m.ordering == [0, 1, 2]


def test_sort_lda_before_pbe():
    fps = vector_set([[1.0, 0.0], [0.0, 1.0]])
    m = sort_by_settings(similarity_matrix(fps, [meta(xc="PBE"), meta(xc="LDA")]))
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
    fps = vector_set([rng.uniform(0, 1, 4) for _ in labels])
    m = sort_by_settings(similarity_matrix(fps, labels))
    assert m.ordering == [3, 2, 1, 5, 4, 0]


def test_sort_preserves_off_diagonal_multiset():
    rng = np.random.default_rng(3)
    items = [
        (rng.uniform(0, 1, 6),
         meta(xc=rng.choice(["LDA", "PBE"]), n_kpt=int(rng.integers(1, 9))))
        for _ in range(8)
    ]
    rows, labels = zip(*items)
    m = similarity_matrix(vector_set(rows), labels)
    ms = sort_by_settings(m)
    before = sorted(m.values[i, j] for i in range(8) for j in range(8) if i != j)
    after = sorted(ms.values[i, j] for i in range(8) for j in range(8) if i != j)
    assert before == after
    # the permutation really moves the labels with the rows
    for row, original in enumerate(ms.ordering):
        assert ms.labels[row] == m.labels[original]


# --- block_stats -------------------------------------------------------------

def test_block_stats_single_group_identical_items():
    m = similarity_matrix(vector_set([[1.0, 2.0]] * 3), [meta()] * 3)
    stats = block_stats(m, ["g", "g", "g"])
    assert stats[("g", "g")] == 1.0


def test_block_stats_two_singletons():
    m = similarity_matrix(vector_set([[1.0, 0.0], [1.0, 1.0]]), [meta(), meta()])
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
    m = similarity_matrix(vector_set([[1.0], [1.0]]), [meta(), meta()])
    with pytest.raises(ValueError):
        block_stats(m, ["only_one"])


# --- fingerprint_set ---------------------------------------------------------

def test_fingerprint_set_shares_normalization():
    weak = Spectrum([0.0, 1.0, 2.0], [0.0, 1.0, 0.0], 0.0)
    strong = Spectrum([0.0, 1.0, 2.0], [0.0, 4.0, 0.0], 0.0)
    fps = fingerprint_set([weak, strong], window=(0, 2), grid=(2, 8), mode="raster")
    # shared h_max comes from the strong spectrum, so the weak raster is shorter
    weak_raster, strong_raster = fps.to_raster()
    assert weak_raster.sum() < strong_raster.sum()
    assert strong_raster.sum(axis=1).max() == 8


def _quantize_each(all_heights, n_dos, h_max):
    """The per-spectrum raster quantization fingerprint_set ran before, kept as an oracle."""
    if h_max is None:
        h_max = float(max(h.max() for h in all_heights))
    if h_max == 0:
        return [np.zeros(h.size, dtype=np.int64) for h in all_heights]
    return [np.minimum((n_dos * np.clip(h, 0.0, h_max) / h_max).astype(np.int64), n_dos)
            for h in all_heights]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 5), n_e=st.integers(1, 8), n_d=st.sampled_from([1, 3, 64, 255, 70000]),
       h_max=st.none() | st.floats(1e-300, 1e300), data=st.data())
def test_set_quantization_equals_the_per_spectrum_loop(n, n_e, n_d, h_max, data):
    heights = st.floats(0, 1e300) | st.sampled_from([0.0, 5e-324, 1.0, 2.5])
    all_heights = [np.array(data.draw(st.lists(heights, min_size=n_e, max_size=n_e)))
                   for _ in range(n)]
    fps = _fingerprints(all_heights, [-1.0, 1.0], [n_e, n_d], "raster", h_max)
    for fp, expected in zip(fps, _quantize_each(all_heights, n_d, h_max)):
        assert (fp.window, fp.grid, fp.data.dtype) == ((-1.0, 1.0), (n_e, n_d),
                                                       np.min_scalar_type(n_d))
        assert fp.data.tolist() == [expected.tolist()]


@settings(max_examples=200, deadline=None)
@given(n_d=st.sampled_from([1, 3, 64, 255, 70000]),
       h_max=st.none() | st.floats(1e300, sys.float_info.max), data=st.data())
def test_quantization_near_the_float_maximum_equals_it_scaled_down(n_d, h_max, data):
    # heights far from subnormal: scaling them by a power of two keeps every bit
    heights = st.floats(1e290, sys.float_info.max) | st.sampled_from([0.0, sys.float_info.max])
    all_heights = [np.array(data.draw(st.lists(heights, min_size=4, max_size=4)))
                   for _ in range(2)]
    fps = _fingerprints(all_heights, [-1.0, 1.0], [4, n_d], "raster", h_max)
    scale = 2.0**-20
    expected = _quantize_each([h * scale for h in all_heights], n_d,
                              None if h_max is None else h_max * scale)
    assert [fp.data.tolist() for fp in fps] == [[e.tolist()] for e in expected]
