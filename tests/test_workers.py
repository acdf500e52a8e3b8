"""The worker rule, and similarity's forked ingest: the same bytes and the same
errors as one process, and no child process left behind."""

import json
import os
import signal
import threading

import pytest

from matscale import BLAS_THREAD_ENV, _workers, cli, io

MIN = cli.MIN_SPECTRA_PER_PROCESS
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
def pins(monkeypatch):
    """The CPU sets that this process pins itself to; no pin takes effect."""
    calls = []
    monkeypatch.setattr(_workers.os, "sched_setaffinity",
                        lambda pid, cpus: calls.append(set(cpus)), raising=False)
    return calls


@pytest.fixture
def cpus(monkeypatch, pins):
    """cpus(k): the process may use k CPUs, and the BLAS runs on one thread."""
    def set_cpus(k):
        for name in BLAS_THREAD_ENV:
            monkeypatch.setenv(name, "1")
        monkeypatch.setattr(_workers.os, "sched_getaffinity", lambda pid: set(range(k)),
                            raising=False)
    return set_cpus


@pytest.fixture
def serial_reads(monkeypatch):
    """The calls of the one-process path, read_spectra_dir."""
    calls = []
    read_spectra_dir = io.read_spectra_dir

    def counting_read(path):
        calls.append(path)
        return read_spectra_dir(path)

    monkeypatch.setattr(io, "read_spectra_dir", counting_read)
    return calls


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls that the run makes; each still forks."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(_workers.os, "fork", counting_fork)
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
                                                    forks, serial_reads, pins, flags):
    runs = []
    for k in (1, 2, 3):
        cpus(k)
        runs.append(similarity(capsys, spectra_dir, tmp_path / f"out{k}", *flags))
    assert runs[0][0] == 0 and runs[0][2] == ""
    assert runs[1] == runs[0] and runs[2] == runs[0]
    assert len(forks) == 0 + 1 + 2
    assert len(serial_reads) == 1  # the forked passes did not fall back
    # pinned to the first CPU for each forked pass, then given its mask back
    assert pins == [{0}, {0, 1}, {0}, {0, 1, 2}]


def test_contiguous_chunks_keep_the_file_order(capsys, tmp_path, spectra_dir, cpus, forks):
    cpus(3)
    code, _, _, files = similarity(capsys, spectra_dir, tmp_path / "out")
    manifest = json.loads(files["similarity_manifest.json"])
    assert (code, len(forks)) == (0, 2)
    assert [label["n_kpt"] for label in manifest["labels"]] == [4 + i % 3 for i in range(N)]


def _bad_csv(directory, i):
    (directory / f"s{i:03d}.csv").write_text("energy,dos\n0.0,1.0\n1.0,oops\n")


def _bad_sidecar(directory, i):
    (directory / f"s{i:03d}.json").write_text("{not json")


def _outside_the_window(directory, i):
    (directory / f"s{i:03d}.csv").write_text("energy,dos\n50.0,1.0\n51.0,2.0\n")


@pytest.mark.parametrize("damage, named", [
    # a bad CSV in the last child's chunk
    ([(_bad_csv, N - 1)], f"s{N - 1:03d}.csv: bad data row 3"),
    # a bad sidecar in this process's chunk
    ([(_bad_sidecar, 0)], "s000.json: invalid JSON"),
    # a spectrum outside the window in this process's chunk, a bad CSV in a child's:
    # the spectra are all read before any is binned, so the read error wins
    ([(_outside_the_window, 1), (_bad_csv, N - 2)], f"s{N - 2:03d}.csv: bad data row 3"),
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
                                                  forks, serial_reads, monkeypatch, sabotage):
    cpus(1)
    serial = similarity(capsys, spectra_dir, tmp_path / "serial")
    sabotage(monkeypatch, os.getpid())
    cpus(2)
    assert similarity(capsys, spectra_dir, tmp_path / "forked") == serial
    assert (len(forks), len(serial_reads)) == (1, 2)


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
