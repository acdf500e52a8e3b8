"""A run's outputs appear together, or none do: each file-writing command names
its outputs once (cli._stage), every process writes them into the run's one
staging directory, and main() renames them into place only when the run has
succeeded. A run that fails, in one process or forked, leaves the output
directory as it found it."""

import errno
import json
import os
import signal
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from matscale import cli, io, regression

MIN = io.MIN_SPECTRA_PER_PROCESS

# each file-writing command's outputs, in the order main() commits them
OUTPUTS = {
    "curate": ["alpha_split.csv", "beta_split.csv", "alpha_hist_formation_energy.csv",
               "beta_hist_formation_energy.csv"],
    "similarity": ["similarity_matrix.csv", "similarity_manifest.json"],
    "ce-fit": ["fit_trace.csv", "predictions_d1.csv", "predictions_d2.csv",
               "predictions_d3.csv"],
}
NO_SPACE = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
SRC = Path(__file__).resolve().parents[1] / "src"
OLD_MODE = 0o604  # neither umask below gives a new file these bits


@pytest.fixture(scope="module")
def argv(tmp_path_factory):
    """Each command's argv without --output-dir: two tables that share
    identities, 2 * MIN spectra (so that two CPUs fork the ingest), and three
    degrees of a small cluster expansion."""
    data = tmp_path_factory.mktemp("inputs")
    kinds = ["Mg2F4,136", "Ti2O4,136", "BaTiO3,221", "K1Cl1,225", "H2O1,1"]
    for name, rows, stride in (("alpha", 30, 1), ("beta", 12, 2)):
        (data / f"{name}.csv").write_text("entry_id,formula,spacegroup,formation_energy\n"
                                          + "".join(f"{name}{k},{kinds[k * stride % 5]},"
                                                    f"{-k / 7:.3f}\n" for k in range(rows)))
    spectra = data / "spectra"
    spectra.mkdir()
    for i in range(2 * MIN):
        (spectra / f"s{i:03d}.csv").write_text("energy,dos\n" + "".join(
            f"{e - 4.0!r},{(7 * i + 3 * e) % 11 / 4!r}\n" for e in range(9)))
        (spectra / f"s{i:03d}.json").write_text(json.dumps({
            "fermi_energy": i % 5 / 10, "xc": "PBE", "n_kpt": 4 + i % 3, "n_basis": 50,
            "settings_tier": "light", "relativistic": "none"}))
    (data / "configs.csv").write_text("entry_id,occupations,target\n" + "".join(
        f"c{k},{' '.join('1' if k >> j & 1 else '-1' for j in range(4))},{k % 5 - 0.25 * k}\n"
        for k in range(16)))
    (data / "clusters.json").write_text("[[0], [1], [2]]")
    (data / "group.json").write_text(json.dumps([[0, 1, 2, 3]]))
    return {
        "curate": ["curate", "--input", str(data / "alpha.csv"),
                   "--other", str(data / "beta.csv"), "--hist", "formation_energy:-5:0:8"],
        "similarity": ["similarity", "--spectra", str(spectra), "--window=-3,3",
                       "--grid", "16x8"],
        "ce-fit": ["ce-fit", "--configs", str(data / "configs.csv"),
                   "--clusters", str(data / "clusters.json"),
                   "--group", str(data / "group.json"), "--degree", "1,2,3"],
    }


def listing(out):
    """Each file of out: its bytes, or None for a directory, and its mode bits."""
    return {p.name: (None if p.is_dir() else p.read_bytes(), stat.S_IMODE(p.stat().st_mode))
            for p in sorted(out.iterdir())}


def prepare(out, names):
    """An output directory that holds an unrelated file and an older run's
    output for every other name; its listing."""
    out.mkdir()
    (out / "notes.txt").write_text("kept\n")
    for name in names[::2]:
        (out / name).write_text(f"an older {name}\n")
        (out / name).chmod(OLD_MODE)
    return listing(out)


def run(capsys, argv, out):
    """(exit code, stdout, stderr) of main() on argv into out; no child process
    and no staging directory is left."""
    code = cli.main([*argv, "--output-dir", str(out)])
    captured = capsys.readouterr()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert list(out.glob(".matscale-*")) == []
    return code, captured.out, captured.err


def staged(path):
    """Whether path is in a run's staging directory."""
    return Path(path).parent.name.startswith(".matscale-")


def output_of(path):
    """The output that path is written for: the one of its name beside the
    staging directory that holds it, else path."""
    path = Path(path)
    return path.parent.parent / path.name if staged(path) else path


def fault_in_the_write(monkeypatch, target, log, fault=NO_SPACE):
    """Each write of target, in any process, ends with fault after its temp file
    holds a first line; log gets the id of each process that faulted."""
    write = io.atomic_write_text

    def write_or_fault(path, text):
        if output_of(path) != target:
            return write(path, text)

        def faulting():
            yield "a first line\n"
            with open(log, "a") as f:
                f.write(f"{os.getpid()}\n")
            raise fault

        write(path, faulting())

    monkeypatch.setattr(io, "atomic_write_text", write_or_fault)


def fault_in_the_commit(monkeypatch, target, log, phase="commit"):
    """The rename of target's staged file onto it (phase "commit"), or of the
    older target into the staging directory (phase "aside"), fails with EIO,
    as os.replace raises it; log gets the name of each output renamed before
    it, then the id of the process that faulted."""
    replace = os.replace

    def replace_or_fault(src, dst):
        src, dst = Path(src), Path(dst)
        onto = staged(src) and not staged(dst) and src.name == dst.name
        faults = (onto and dst == target if phase == "commit"
                  else src == target and staged(dst))
        if onto or faults:
            with open(log, "a") as f:
                f.write(f"{os.getpid()}\n" if faults else f"{dst.name}\n")
            if faults:
                raise OSError(errno.EIO, os.strerror(errno.EIO), src, None, dst)
        replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_or_fault)


@pytest.mark.parametrize("n_cpus", [1, 2], ids=["one process", "forked"])
@pytest.mark.parametrize("command, k, phase", [
    (c, k, phase) for c, names in OUTPUTS.items() for k in range(len(names))
    for phase in ["write", "commit", "aside"]
    if phase != "aside" or k % 2 == 0])  # prepare() leaves an older names[k] to move aside
def test_a_fault_at_any_output_leaves_the_directory_as_it_was(
        capsys, tmp_path, argv, cpus, forks, monkeypatch, command, k, phase, n_cpus):
    names = OUTPUTS[command]
    out, log = tmp_path / "out", tmp_path / "faults.log"
    before = prepare(out, names)
    target = out / names[k]
    if phase == "write":
        fault_in_the_write(monkeypatch, target, log)
        error = NO_SPACE
    else:
        fault_in_the_commit(monkeypatch, target, log, phase)
        error = OSError(errno.EIO, os.strerror(errno.EIO))
    cpus(n_cpus)
    assert run(capsys, argv[command], out) == (1, "", f"matscale: {error}: {str(target)!r}\n")
    assert listing(out) == before
    assert len(forks) == n_cpus - 1
    *_, last = log.read_text().split()
    assert last == str(os.getpid())  # the redo in this process fails as well
    if phase != "write":  # every earlier output was renamed, then put back
        assert log.read_text().split()[:-1] == names[:k]


def _fails_after_its_first_temp(log, parent):
    """A child that fails its second write, once its first temp file is whole."""
    write = io.atomic_write_text

    def write_then_fail(path, text):
        name = output_of(path).name
        if os.getpid() != parent and name == "beta_hist_formation_energy.csv":
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        write(path, text)
        if name == "beta_split.csv":
            with open(log, "a") as f:  # its temp file, whole
                f.write(f"{path} {os.path.getsize(path)}\n")

    return write_then_fail


def _killed_in_its_first_write(log, parent):
    """A child killed inside its first write, with its temp file part written."""
    write = io.atomic_write_text

    def write_or_die(path, text):
        def dying():
            yield "entry_id"
            os.kill(os.getpid(), signal.SIGKILL)

        child = os.getpid() != parent and output_of(path).name == "beta_split.csv"
        with open(log, "a") as f:
            f.write(f"{path} 0\n")
        write(path, dying() if child else text)

    return write_or_die


@pytest.mark.parametrize("redo", ["commits", "fails its last rename"])
@pytest.mark.parametrize("child", [_fails_after_its_first_temp, _killed_in_its_first_write])
def test_the_redo_rewrites_a_failed_child_s_staged_names(capsys, tmp_path, argv, cpus, forks,
                                                        monkeypatch, child, redo):
    names = OUTPUTS["curate"]
    cpus(1)
    assert run(capsys, argv["curate"], tmp_path / "serial")[0] == 0
    serial = listing(tmp_path / "serial")
    out, log = tmp_path / "out", tmp_path / "temps.log"
    before = prepare(out, names)
    monkeypatch.setattr(io, "atomic_write_text", child(log, os.getpid()))
    if redo != "commits":
        fault_in_the_commit(monkeypatch, out / names[-1], tmp_path / "faults.log")
    cpus(2)
    code, stdout, stderr = run(capsys, argv["curate"], out)
    assert len(forks) == 1
    # beta_split.csv's one staged name, written by the child, then by the redo
    writes = [line.split() for line in log.read_text().splitlines() if "beta_split.csv" in line]
    assert len(writes) == 2 and writes[0][0] == writes[1][0]
    assert not os.path.exists(writes[0][0])
    if redo == "commits":
        assert (code, stderr) == (0, "") and json.loads(stdout)["n_entries"] == 30
        assert {name: data for name, (data, _) in listing(out).items()} == {
            "notes.txt": b"kept\n", **{name: data for name, (data, _) in serial.items()}}
    else:
        assert (code, stdout) == (1, "")
        assert stderr == f"matscale: {OSError(errno.EIO, os.strerror(errno.EIO))}: " \
                         f"{str(out / names[-1])!r}\n"
        assert listing(out) == before


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask 022", "umask 077"])
@pytest.mark.parametrize("n_cpus", [1, 2], ids=["one process", "forked"])
@pytest.mark.parametrize("command", OUTPUTS)
def test_outputs_get_the_mode_bits_that_open_leaves(capsys, tmp_path, argv, cpus, forks,
                                                    command, n_cpus, umask):
    # open(path, "w"): a new file gets 0o666 less the umask, a replaced one keeps its bits
    names, out = OUTPUTS[command], tmp_path / "out"
    cpus(n_cpus)
    old_umask = os.umask(umask)
    try:
        assert run(capsys, argv[command], out)[0] == 0
        first = listing(out)
        assert {mode for _, mode in first.values()} == {0o666 & ~umask}
        for name in names[1:]:
            (out / name).chmod(OLD_MODE)
        (out / names[0]).unlink()
        assert run(capsys, argv[command], out)[0] == 0
    finally:
        os.umask(old_umask)
    assert listing(out) == {name: (data, OLD_MODE if name in names[1:] else mode)
                            for name, (data, mode) in first.items()}
    assert len(forks) == 2 * (n_cpus - 1)


@pytest.mark.parametrize("command, name", [
    ("curate", "beta_split.csv"), ("similarity", "similarity_manifest.json"),
    ("ce-fit", "predictions_d2.csv"),
    ("ce-fit", ".matscale-*"),  # the staging directory, which out cannot take
])
def test_an_output_that_is_a_directory_is_refused_before_any_input_is_read(
        capsys, tmp_path, argv, monkeypatch, command, name):
    for reader in ("read_structures", "read_fingerprint_set", "read_ce_configs"):
        monkeypatch.setattr(io, reader, lambda *args: pytest.fail("an input was read"))
    out = tmp_path / "out"
    prepare(out, OUTPUTS[command])
    if name == ".matscale-*":  # injected: as root, a chmod of out would refuse nothing
        mkdir = os.mkdir

        def refused(path, *args, **kwargs):
            if Path(path).name.startswith(".matscale-"):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
            mkdir(path, *args, **kwargs)

        monkeypatch.setattr(os, "mkdir", refused)
        error = PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(out))
    else:
        (out / name).unlink(missing_ok=True)
        (out / name).mkdir()
        error = f"{out / name} is a directory"
    before = listing(out)
    assert run(capsys, argv[command], out) == (2, "", f"matscale: --output-dir: {error}\n")
    assert listing(out) == before


def test_staging_ends_with_the_run(capsys, tmp_path, argv, monkeypatch):
    # one process runs failed commands, then a good one, then writes as a library
    names, out = OUTPUTS["ce-fit"], tmp_path / "out"
    fault_in_the_write(monkeypatch, out / names[2], tmp_path / "faults.log")
    assert run(capsys, argv["ce-fit"], out)[0] == 1
    monkeypatch.undo()

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(regression, "compare_feature_spaces", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.main([*argv["ce-fit"], "--output-dir", str(out)])
    assert list(out.iterdir()) == []
    monkeypatch.undo()
    assert run(capsys, argv["ce-fit"], out)[0] == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(names)
    io.write_trace_csv(out / names[0], {})
    assert (out / names[0]).read_text() == "degree,n_features,rmse\n"
    assert sorted(p.name for p in out.iterdir()) == sorted(names)


def test_a_process_leaves_only_its_outputs(tmp_path, argv):
    # `python -m matscale.cli` ends through cli.run()'s os._exit: a failed run, then
    # a good one, each leave out with no staging directory
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    names, out = OUTPUTS["ce-fit"], tmp_path / "out"
    before = prepare(out, names)
    good = argv["ce-fit"]
    bad = tmp_path / "configs.csv"  # read once the outputs are staged
    bad.write_text(Path(good[2]).read_text() + "c16,1 -1 x 1,0.5\n")
    for configs, code in ((bad, 1), (good[2], 0)):
        result = subprocess.run([sys.executable, "-m", "matscale.cli", *good[:2], str(configs),
                                 *good[3:], "--output-dir", str(out)],
                                env=env, capture_output=True, text=True)
        assert result.returncode == code, result.stderr
        if code:
            assert result.stderr.startswith(f"matscale: {bad}: line 18: ")
            assert listing(out) == before
    assert sorted(p.name for p in out.iterdir()) == sorted(["notes.txt", *names])
