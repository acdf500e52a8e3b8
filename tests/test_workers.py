"""The worker rule, split_map and its gather round, similarity's forked ingest and
curate's forked datasets: the same bytes and the same errors as one process, and
no child process left behind."""

import json
import os
import signal
import threading
import time
from pathlib import Path

import pytest

from matscale import BLAS_THREAD_ENV, STAGED, _workers, cli, io
from matscale.spectra import FingerprintSet, fingerprint_set

MIN = io.MIN_SPECTRA_PER_PROCESS
N = 3 * MIN  # enough spectra for three processes


def write_spectra(directory, n):
    """n small spectra; the later a file, the higher its peak, so the largest
    bin height is in the last process's chunk."""
    directory.mkdir()
    for i in range(n):
        energies = [-4.0 + k for k in range(9)]
        dos = [((7 * i + 3 * k) % 11) / 4 * (1 + i / n) for k in range(9)]
        (directory / f"s{i:03d}.csv").write_text(
            "energy,dos\n" + "".join(f"{e!r},{d!r}\n" for e, d in zip(energies, dos)))
        (directory / f"s{i:03d}.json").write_text(json.dumps({
            "fermi_energy": (i % 5) / 10, "xc": ("LDA", "PBE")[i % 2], "n_kpt": 4 + i % 3,
            "n_basis": 50, "settings_tier": "light", "relativistic": "none"}))
    return directory


@pytest.fixture
def spectra_dir(tmp_path):
    return write_spectra(tmp_path / "spectra", N)


@pytest.fixture
def reads(monkeypatch):
    """The spectrum files that this process reads; a child's reads are not seen."""
    calls = []
    read_spectrum = io._read_spectrum

    def counting_read(path):
        calls.append(path)
        return read_spectrum(path)

    monkeypatch.setattr(io, "_read_spectrum", counting_read)
    return calls


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def similarity(capsys, spectra, out, *flags):
    """(exit code, stdout with the output directory masked, stderr, output files)."""
    code = cli.main(["similarity", "--spectra", str(spectra), "--output-dir", str(out), *flags])
    captured = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    assert_no_child_left()
    return code, captured.out.replace(str(out), "OUT"), captured.err, files


@pytest.mark.parametrize("flags", [[], ["--sort"], ["--mode", "vector", "--sort"],
                                   ["--h-max", "0.5"]])
def test_outputs_do_not_depend_on_the_process_count(capsys, tmp_path, spectra_dir, cpus,
                                                    forks, reads, pins, flags):
    runs = []
    for k in (1, 2, 3):
        cpus(k)
        runs.append(similarity(capsys, spectra_dir, tmp_path / f"out{k}", *flags))
    assert runs[0][0] == 0 and runs[0][2] == ""
    assert runs[1] == runs[0] and runs[2] == runs[0]
    assert len(forks) == 0 + 1 + 2
    # this process read only its own chunk of each forked pass: none fell back
    assert len(reads) == N + N // 2 + N // 3
    # pinned to the first CPU for each forked pass, then given its mask back
    assert pins == [{0}, {0, 1}, {0}, {0, 1, 2}]


@pytest.mark.parametrize("mode, h_max", [("raster", None), ("vector", None), ("raster", 0.5)])
def test_fingerprints_are_the_library_fingerprints(spectra_dir, cpus, mode, h_max):
    items = io.read_spectra_dir(spectra_dir)
    window, grid = (-3.0, 3.0), (32, 16)
    want = fingerprint_set([s for s, _ in items], window, grid, mode, h_max)
    for k in (1, 3):
        cpus(k)
        fps, labels = io.read_fingerprint_set(spectra_dir, window, grid, mode, h_max)
        assert_no_child_left()
        assert labels == [m for _, m in items]
        assert [(fp.window, fp.grid, fp.mode, fp.data.dtype, fp.data.tobytes()) for fp in fps] \
            == [(fp.window, fp.grid, fp.mode, fp.data.dtype, fp.data.tobytes()) for fp in want]


@pytest.mark.parametrize("mode", ["raster", "vector"])
def test_the_ingest_builds_no_fingerprint_per_spectrum(capsys, tmp_path, spectra_dir, cpus,
                                                       forks, monkeypatch, mode):
    # every set that any process builds, a forked child's too, logs that process's id
    log = tmp_path / "sets.log"
    post_init = FingerprintSet.__post_init__

    def logging_post_init(fps):
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        post_init(fps)

    monkeypatch.setattr(FingerprintSet, "__post_init__", logging_post_init)
    for k in (1, 3):
        cpus(k)
        log.write_text("")
        fps, labels = io.read_fingerprint_set(spectra_dir, (-3.0, 3.0), (32, 16), mode)
        assert (len(fps), len(labels), log.read_text()) == (N, N, f"{os.getpid()}\n")
        log.write_text("")
        assert similarity(capsys, spectra_dir, tmp_path / f"out{k}", "--mode", mode)[0] == 0
        assert log.read_text() == f"{os.getpid()}\n"
    assert len(forks) == 2 + 2  # two children for the ingest, two for the run, on 3 CPUs


def test_strided_chunks_keep_the_file_order(capsys, tmp_path, spectra_dir, cpus, forks):
    cpus(3)
    code, _, _, files = similarity(capsys, spectra_dir, tmp_path / "out")
    manifest = json.loads(files["similarity_manifest.json"])
    assert (code, len(forks)) == (0, 2)
    # process k holds files k, k + 3, ...: labels merged chunk by chunk would read 4..4, 5..5
    assert [label["n_kpt"] for label in manifest["labels"]] == [4 + i % 3 for i in range(N)]


def _bad_csv(directory, i):
    (directory / f"s{i:03d}.csv").write_text("energy,dos\n0.0,1.0\n1.0,oops\n")


def _bad_sidecar(directory, i):
    (directory / f"s{i:03d}.json").write_text("{not json")


def _outside_the_window(directory, i):
    (directory / f"s{i:03d}.csv").write_text("energy,dos\n50.0,1.0\n51.0,2.0\n")


@pytest.mark.parametrize("damage, named", [
    # a bad CSV in the last child's chunk (file k goes to process k % 3)
    ([(_bad_csv, N - 1)], f"s{N - 1:03d}.csv: bad data row 3"),
    # a bad sidecar in this process's chunk
    ([(_bad_sidecar, 0)], "s000.json: invalid JSON"),
    # a spectrum outside the window in this process's chunk, a bad CSV in a child's:
    # the read error wins over the binning error
    ([(_outside_the_window, 0), (_bad_csv, N - 1)], f"s{N - 1:03d}.csv: bad data row 3"),
    # both in one chunk, whatever the process count: the chunk reads on after the
    # binning error, and the later read error wins
    ([(_outside_the_window, 6), (_bad_csv, N - 6)], f"s{N - 6:03d}.csv: bad data row 3"),
    ([(_outside_the_window, N - 1)], "does not overlap"),
])
def test_errors_are_the_serial_errors(capsys, tmp_path, spectra_dir, cpus, forks, damage,
                                      named):
    for spoil, i in damage:
        spoil(spectra_dir, i)
    runs = []
    for k in (1, 2, 3):
        cpus(k)
        runs.append(similarity(capsys, spectra_dir, tmp_path / f"out{k}"))
    code, stdout, stderr, files = runs[0]
    assert (code, stdout, files) == (1, "", {})
    assert named in stderr and stderr.startswith("matscale: ") and stderr.count("\n") == 1
    assert runs[1] == runs[0] and runs[2] == runs[0]
    assert len(forks) == 3


def _in_each_child(act):
    """A sabotage: act() where a child reads its first spectrum."""
    def sabotage(monkeypatch, parent):
        read = io._read_spectrum

        def read_or_act(path):
            if os.getpid() != parent:
                act()
            return read(path)

        monkeypatch.setattr(io, "_read_spectrum", read_or_act)
    return sabotage


def _results_cut_short(monkeypatch, parent):
    dumps = _workers.pickle.dumps
    monkeypatch.setattr(_workers.pickle, "dumps", lambda obj, protocol: dumps(obj, protocol)[:-9])


@pytest.mark.parametrize("sabotage", [
    _in_each_child(lambda: os.kill(os.getpid(), signal.SIGKILL)),  # a child dies
    _in_each_child(lambda: os._exit(0)),  # a child sends nothing, and exits 0
    _results_cut_short,
], ids=["killed", "silent", "cut-short"])
def test_a_failed_child_falls_back_to_one_process(capsys, tmp_path, spectra_dir, cpus,
                                                  forks, reads, monkeypatch, sabotage):
    cpus(1)
    serial = similarity(capsys, spectra_dir, tmp_path / "serial")
    sabotage(monkeypatch, os.getpid())
    cpus(2)
    assert similarity(capsys, spectra_dir, tmp_path / "forked") == serial
    # one serial pass, then this process's chunk and the fallback's whole pass
    assert (len(forks), len(reads)) == (1, N + N // 2 + N)


@pytest.mark.parametrize("preset", [
    {},
    {"OPENBLAS_NUM_THREADS": "2"},
    {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"},
    {"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": ""},
])
def test_no_fork_unless_the_blas_runs_on_one_thread(capsys, tmp_path, spectra_dir, monkeypatch,
                                                    forks, preset):
    for name in BLAS_THREAD_ENV:
        monkeypatch.delenv(name, raising=False)
    for name, value in preset.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(_workers.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    assert similarity(capsys, spectra_dir, tmp_path / "out")[0] == 0
    assert forks == []


def test_no_fork_while_another_thread_runs(capsys, tmp_path, spectra_dir, cpus, forks):
    cpus(3)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(30,))
    other.start()
    try:
        assert similarity(capsys, spectra_dir, tmp_path / "out")[0] == 0
    finally:
        stop.set()
        other.join(timeout=30)
    assert not other.is_alive()
    assert forks == []


def test_no_fork_below_the_spectra_per_process(capsys, tmp_path, cpus, forks):
    spectra = write_spectra(tmp_path / "spectra", 2 * MIN - 1)
    cpus(2)
    assert similarity(capsys, spectra, tmp_path / "out")[0] == 0
    assert forks == []


@pytest.mark.parametrize("n_items, min_per_process, n_cpus, want", [
    (2 * MIN - 1, MIN, 2, 1), (2 * MIN, MIN, 2, 2), (10 * MIN, MIN, 3, 3), (0, MIN, 4, 1),
    (5, 1, 8, 5),
])
def test_process_workers(cpus, n_items, min_per_process, n_cpus, want):
    cpus(n_cpus)
    assert _workers.process_workers(n_items, min_per_process) == want


def test_fork_map_returns_each_chunk_result_in_order(pins):
    chunks = [[1, 2], [3], [], [4, 5, 6]]
    assert _workers.fork_map(lambda c: [x * x for x in c], chunks) == [[1, 4], [9], [],
                                                                      [16, 25, 36]]
    assert_no_child_left()


@pytest.mark.parametrize("failing", [0, 2])
def test_fork_map_is_none_when_any_chunk_raises(pins, failing):
    def square_or_fail(chunk):
        if chunk == failing:
            raise ValueError("no")
        return chunk * chunk

    assert _workers.fork_map(square_or_fail, [0, 1, 2]) is None
    assert_no_child_left()


@pytest.mark.parametrize("n_items, n_cpus", [(3, 8), (4, 4), (7, 3)])
def test_split_map_keeps_the_item_order(cpus, forks, n_items, n_cpus):
    cpus(n_cpus)
    items = list(range(10, 10 + n_items))
    results = _workers.split_map(lambda chunk: [(x, os.getpid()) for x in chunk], items)
    assert_no_child_left()
    n = min(n_items, n_cpus)
    assert [x for x, _ in results] == items
    assert len(forks) == n - 1
    # item i is computed by process i % n, process 0 being this one
    assert [pid == os.getpid() for _, pid in results] == [i % n == 0 for i in range(n_items)]
    assert len({pid for _, pid in results}) == n


def test_split_map_falls_back_when_a_child_returns_the_wrong_count(cpus, forks):
    cpus(3)
    parent = os.getpid()

    def square_but_drop_one_in_a_child(chunk):
        squares = [(x * x, os.getpid()) for x in chunk]
        return squares if os.getpid() == parent else squares[1:]

    results = _workers.split_map(square_but_drop_one_in_a_child, list(range(7)))
    assert_no_child_left()
    assert len(forks) == 2
    assert results == [(x * x, parent) for x in range(7)]


@pytest.mark.parametrize("n_items, n_cpus", [(2, 2), (5, 3), (7, 3)])
def test_gather_gives_every_value_in_item_order(cpus, forks, n_items, n_cpus):
    items = list(range(10, 10 + n_items))

    def with_every_square(chunk):
        squares = _workers.gather([x * x for x in chunk])
        return [(x, squares, os.getpid()) for x in chunk]

    cpus(1)
    serial = _workers.split_map(with_every_square, items)
    cpus(n_cpus)
    forked = _workers.split_map(with_every_square, items)
    assert_no_child_left()
    assert len(forks) == n_cpus - 1
    assert len({pid for _, _, pid in forked}) == n_cpus  # no fallback ran
    every = [x * x for x in items]
    assert [(x, squares) for x, squares, _ in forked] == [(x, every) for x in items] \
        == [(x, squares) for x, squares, _ in serial]


def test_fork_map_gathers_each_chunks_values_in_chunk_order(pins):
    def tag(chunk):
        return [_workers.gather([len(chunk), *chunk]), os.getpid()]

    results = _workers.fork_map(tag, [[1, 2], [], [3]])
    assert_no_child_left()
    assert [gathered for gathered, _ in results] == [[[2, 1, 2], [0], [1, 3]]] * 3
    assert len({pid for _, pid in results}) == 3


def _fail_in_child(parent, x):
    if os.getpid() != parent:
        raise ValueError(x)


def _killed_in_child(parent, x):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)


def _fail_here(parent, x):
    if os.getpid() == parent:
        raise ValueError(x)


@pytest.mark.parametrize("before, skip_gather", [
    (_fail_in_child, None), (_killed_in_child, None), (_fail_here, None),
    # a result where a gather message belongs: the wrong tag, either way
    (None, "child"), (None, "here"),
])
def test_a_failure_before_the_gather_falls_back_to_one_process(cpus, forks, before,
                                                               skip_gather):
    parent, items = os.getpid(), list(range(6))
    chunks_here = []

    def sum_of_all(chunk):
        here = os.getpid() == parent
        if here:
            chunks_here.append(chunk)
        if len(chunk) < len(items):  # the forked attempt, not the fallback
            if before:
                before(parent, chunk)
            if skip_gather == ("here" if here else "child"):
                return [-1] * len(chunk)
        return [sum(_workers.gather(chunk))] * len(chunk)

    cpus(2)
    assert _workers.split_map(sum_of_all, items) == [15] * 6
    assert_no_child_left()
    assert len(forks) == 1
    # this process's chunk, then the whole list in this process
    assert chunks_here == [items[0::2], items]


def test_a_failure_here_ends_a_child_blocked_on_its_result_write(pins, deadline):
    # 10 MB fills the pipe, and nothing here reads it: the child must see EPIPE
    parent = os.getpid()

    def big_or_fail(chunk):
        if os.getpid() == parent:
            raise ValueError(chunk)
        return bytes(10 << 20)

    assert _workers.fork_map(big_or_fail, [0, 1]) is None
    assert_no_child_left()


def write_table(path, prefix, rows):
    """A structure table; row k is (formula, spacegroup) of rows[k]."""
    path.write_text("entry_id,formula,spacegroup,formation_energy\n" + "".join(
        f"{prefix}{k},{formula},{spacegroup},{-k / 7:.3f}\n"
        for k, (formula, spacegroup) in enumerate(rows)))
    return path


@pytest.fixture
def tables(tmp_path):
    """Two tables that share some identities, in a directory of their own."""
    data = tmp_path / "tables"
    data.mkdir()
    kinds = [("Mg2F4", 136), ("Ti2O4", 136), ("BaTiO3", 221), ("K1Cl1", 225), ("H2O1", 1),
             ("Na1Cl1", 225), ("Si2O4", 152)]
    alpha = write_table(data / "alpha.csv", "a", [kinds[k * 3 % 7] for k in range(40)])
    beta = write_table(data / "beta.csv", "b", [kinds[(k * 5 + 2) % 7] for k in range(5, 25)])
    return alpha, beta


def curate(capsys, out, *argv):
    """(exit code, stdout with the output directory masked, stderr, output files)."""
    code = cli.main(["curate", *argv, "--output-dir", str(out)])
    captured = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    assert_no_child_left()
    return code, captured.out.replace(str(out), "OUT"), captured.err, files


@pytest.mark.parametrize("flags", [
    [], ["--hist", "formation_energy:-6:0:8", "--hist", "band_gap:0:1:2"],
    ["--split", "0.5,0.25,0.25", "--seed", "9"],
])
def test_forked_curate_writes_what_one_process_writes(capsys, tmp_path, tables, cpus, forks,
                                                      flags):
    alpha, beta = tables
    argv = ["--input", str(alpha), "--other", str(beta), *flags]
    cpus(1)
    serial = curate(capsys, tmp_path / "serial", *argv)
    assert forks == []
    cpus(2)
    assert curate(capsys, tmp_path / "forked", *argv) == serial
    assert len(forks) == 1
    code, stdout, stderr, files = serial
    assert (code, stderr) == (0, "")
    summary = json.loads(stdout)
    assert summary["n_common_ids"] > 0 and summary["n_entries"] == 40
    assert summary["outputs"][:2] == ["OUT/alpha_split.csv", "OUT/beta_split.csv"]
    # a single dataset does not fork
    assert curate(capsys, tmp_path / "one", "--input", str(alpha), *flags)[0] == 0
    assert len(forks) == 1


@pytest.mark.parametrize("bad, named", [
    (["alpha"], "alpha"), (["beta"], "beta"), (["alpha", "beta"], "alpha"),
])
def test_forked_curate_errors_are_the_serial_errors(capsys, tmp_path, tables, cpus, forks, bad,
                                                    named):
    paths = dict(zip(["alpha", "beta"], tables))
    for name in bad:
        with open(paths[name], "a") as table:
            table.write("x,MgF2,12,low\n")
    argv = ["--input", str(paths["alpha"]), "--other", str(paths["beta"]),
            "--hist", "formation_energy:-6:0:8"]
    runs = []
    for k in (1, 2):
        cpus(k)
        runs.append(curate(capsys, tmp_path / f"out{k}", *argv))
    assert runs[1] == runs[0]
    code, stdout, stderr, files = runs[0]
    # no file is written before the identity sets are swapped
    assert (code, stdout, files) == (1, "", {})
    assert stderr.startswith(f"matscale: {paths[named]}: row ") and stderr.count("\n") == 1
    assert len(forks) == 1


def test_a_write_error_here_after_the_swap_leaves_the_output_directory_as_it_was(
        capsys, tmp_path, tables, cpus, forks, monkeypatch, deadline):
    # this process fails its first write while the child is inside its own: the
    # child's whole file stays staged, and the run commits none of them
    alpha, beta = tables
    out = tmp_path / "forked"
    out.mkdir()
    (out / "beta_split.csv").write_bytes(b"an older run's\n")
    write = io.atomic_write_text

    waits = []

    def fail_here_write_slowly_in_the_child(path, text):
        if STAGED[Path(path)].name == "alpha_split.csv":  # --input's: this process's
            if not waits:  # the forked attempt: fail once the child's write has begun
                waits.append(time.monotonic())
                while not list(out.glob("beta_split.csv*.tmp")):
                    assert time.monotonic() < waits[0] + 10
                    time.sleep(0.01)

            def failing():
                yield "entry_id"
                raise OSError(28, "No space left on device")

            return write(path, failing())

        def slowly():
            time.sleep(0.3)  # the temp file exists while this waits
            yield from (text,) if isinstance(text, str) else text

        write(path, slowly())

    monkeypatch.setattr(io, "atomic_write_text", fail_here_write_slowly_in_the_child)
    cpus(2)
    code, stdout, stderr, files = curate(capsys, out, "--input", str(alpha),
                                         "--other", str(beta))
    assert len(forks) == 1
    assert (code, stdout) == (1, "")
    named = str(out / "alpha_split.csv")
    assert stderr == f"matscale: [Errno 28] No space left on device: {named!r}\n"
    assert files == {"beta_split.csv": b"an older run's\n"}
