"""What the package and the command line load, and how the CLI picks BLAS threads.

Each import-set check runs in a fresh interpreter and reads ``sys.modules``
at exit, so modules an earlier test imported cannot hide a regression.
"""

import errno
import gc
import importlib.util
import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

import matscale
from matscale import cli
from test_workers import MIN, assert_no_child_left, write_spectra, write_table

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# run_demo.commands(data, out): every subcommand on the demo data, as the demo runs them
_spec = importlib.util.spec_from_file_location("run_demo", ROOT / "scripts" / "run_demo.py")
run_demo = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_demo)

# the public names the package re-exports
PUBLIC = {
    "curation": ["Structure", "StructureTable", "canonical_formula", "dataset_overlap",
                 "grouped_split", "property_histogram", "structure_id"],
    "lattice": ["Cluster", "SymmetryGroup", "correlation", "correlation_matrix", "orbit"],
    "polyfeatures": ["enumerate_monomials", "feature_count"],
    "regression": ["compare_feature_spaces", "omp_fit", "plateau_detect", "rmse"],
    "spectra": ["CalcMetadata", "Spectrum", "block_stats", "similarity_matrix",
                "sort_by_settings", "tanimoto"],
}

# runs the CLI as `python -m matscale.cli` does, through cli.run()
RUN_CLI = "import runpy; runpy.run_module('matscale.cli', run_name='__main__', alter_sys=True)"
NOT_CURATE = {"matscale.lattice", "matscale.polyfeatures", "matscale.regression"}
# np.unique and np.union1d import numpy.ma on first use where numpy loads it lazily
NUMPY_MA = {"numpy.ma"}
# the split shuffles by curation's own PCG64, so no command imports numpy.random
NUMPY_RANDOM = {"numpy.random"}


def _env():
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


SCRIPT = shutil.which("matscale")
# how a contract row runs, unless in this process by cli.main: as `python -m matscale.cli`
# or as the installed console script, both of which end through cli.run()
COMMAND = {"module": [sys.executable, "-m", "matscale.cli"], "script": [SCRIPT]}
COMPLEXITY = ["complexity", "--nn", "2,3,1"]
NO_SPECTRA = ["similarity", "--spectra", "/nonexistent", "--grid"]
# name: (argv, exit code, what the one stderr line of a failure holds, the stream that
# cannot take its text: None or (stdout or stderr, /dev/full or pipe, unbuffered))
CONTRACT = {
    "--help": (["--help"], 0, None, None),
    "curate --help": (["curate", "--help"], 0, None, None),
    "complexity": (COMPLEXITY, 0, None, None),
    "estimate training": (["estimate", "training", "--steps", "2000000", "--t-batch", "0.0010",
                           "--t-grad", "0.0023"], 0, None, None),
    "--t-batch nan": (["estimate", "training", "--steps", "10", "--t-batch", "nan",
                       "--t-grad", "0.1"], 2, "--t-batch", None),
    "--grid 0x4": (NO_SPECTRA + ["0x4"], 2, "--grid", None),
    # a flag that argparse itself refuses is one line too, not a usage block
    # and reads as a checked one does: "--seed: ...", not argparse's "argument --seed: ..."
    "--seed abc": (["curate", "--input", "x", "--seed", "abc"], 2,
                   "matscale: --seed: value must be an integer", None),
    # raster bits past the int64 similarity sums
    "--grid 4x2**70": (NO_SPECTRA + ["4x1180591620717411303424"], 2, "--grid", None),
    # a byte count past the 64-bit integer range, named by its flag and not printed
    "--mb-per-run 1e300": (["estimate", "workflow", "--structures", "1", "--settings", "1",
                            "--files-per-run", "1", "--mb-per-run", "1e300"], 2,
                           "--mb-per-run", None),
    "no --input": (["curate"], 2, "--input", None),
}
for target, code in (("/dev/full", errno.ENOSPC), ("pipe", errno.EPIPE)):  # a closed pipe
    for unbuffered in (False, True):
        how = f"to {target}, {'un' if unbuffered else ''}buffered"
        # the result is one error line, through run()'s flush and os._exit
        CONTRACT[f"stdout {how}"] = (COMPLEXITY, 1, f"stdout: [Errno {code}] "
                                     f"{os.strerror(code)}", ("stdout", target, unbuffered))
        # help text too, which argparse would write itself and drop unreported
        for argv in (["--help"], ["curate", "--help"]):
            CONTRACT[f"{' '.join(argv)} {how}"] = (argv, 1, f"stdout: [Errno {code}] "
                                                   f"{os.strerror(code)}",
                                                   ("stdout", target, unbuffered))
        # an error line that stderr cannot take leaves the code as it is
        CONTRACT[f"stderr {how}"] = (["curate", "--input", "/nonexistent"], 2, None,
                                     ("stderr", target, unbuffered))


def _contract_cases():
    """(variant, row) for every row: as a `module` and a `script` process, and by
    `main` in this process unless the row needs a stream that cannot take its text."""
    for row, (_, _, _, stream) in CONTRACT.items():
        marks = [pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
                 ] if stream and stream[1] == "/dev/full" else []
        for variant in ["module", "script"] + ([] if stream else ["main"]):
            yield pytest.param(variant, row, marks=marks, id=f"{variant}: {row}")


def modules_at_exit(tmp_path, body, *argv):
    """sys.modules at the exit of a fresh interpreter that runs body."""
    dump = tmp_path / "modules.json"
    code = ("import atexit, json, sys\n"
            f"atexit.register(lambda: open({str(dump)!r}, 'w').write("
            "json.dumps(sorted(sys.modules))))\n" + body)
    result = subprocess.run([sys.executable, "-c", code, *argv], env=_env(), cwd=tmp_path,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return set(json.loads(dump.read_text()))


@pytest.mark.parametrize("variant, row", _contract_cases())
def test_every_run_returns_its_code_with_at_most_one_error_line(capsys, variant, row):
    argv, code, text, stream = CONTRACT[row]
    if variant == "main":
        returned = cli.main(argv)  # a SystemExit would fail the test
        out, err = capsys.readouterr()
    else:
        if variant == "script" and SCRIPT is None:
            pytest.skip("no matscale console script on PATH")
        env = {name: value for name, value in _env().items() if name != "PYTHONUNBUFFERED"}
        fds = {}
        if stream:
            name, target, unbuffered = stream
            if unbuffered:
                env["PYTHONUNBUFFERED"] = "1"
            if target == "pipe":
                read_end, fds[name] = os.pipe()
                os.close(read_end)
            else:
                fds[name] = os.open(target, os.O_WRONLY)
        try:
            result = subprocess.run(COMMAND[variant] + argv, env=env, text=True,
                                    stdout=fds.get("stdout", subprocess.PIPE),
                                    stderr=fds.get("stderr", subprocess.PIPE))
        finally:
            for fd in fds.values():
                os.close(fd)
        returned, out, err = result.returncode, result.stdout, result.stderr
    check_contract(argv, returned, out, err, code, text)


def check_contract(argv, returned, out, err, code, text=""):
    """A run of argv returned code. On 0 it printed no error, and JSON or the
    help; else nothing on stdout (None: the stream could not take it) and, unless
    stderr could not take it either, one line that starts `matscale: ` and holds
    text."""
    assert returned == code
    if code == 0:
        assert err == ""
        if "--help" in argv:
            assert out.startswith(f"usage: matscale {' '.join(argv[:-1])}")
        else:
            json.loads(out)
        return
    assert out in ("", None)
    if err is not None:
        assert err.startswith("matscale: ") and err.count("\n") == 1 and err.endswith("\n")
        assert text in err


# what a mutation does to an input file's bytes, at a seeded offset
MUTATIONS = [("flip", None), ("delete", None), ("truncate", None), ("insert", b","),
             ("insert", b'"'), ("insert", b"\n"), ("insert", b"\x00"), ("insert", b"\xff"),
             ("bom", b"\xef\xbb\xbf"), ("number", b"nan"), ("number", b"1e999"),
             ("number", b"123456789012345678901234")]
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:e-?\d+)?")
SWEEP = [(command, seed) for command in ("curate", "ce-fit", "similarity")
         for seed in range(2 * len(MUTATIONS))]


def mutate(data, mutation, rng):
    """data with one of MUTATIONS, placed by rng."""
    kind, insert = mutation
    at = rng.randrange(len(data))
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ 1 << rng.randrange(8)]) + data[at + 1:]
    if kind == "delete":
        return data[:at] + data[at + rng.randint(1, 8):]
    if kind == "truncate":
        return data[:at]
    if kind == "number":  # in place of a number of the file
        number = rng.choice(list(NUMBER.finditer(data)))
        return data[:number.start()] + insert + data[number.end():]
    return insert + data if kind == "bom" else data[:at] + insert + data[at:]


@pytest.fixture(scope="module")
def sweep_inputs(tmp_path_factory):
    """command: (its argv without --output-dir, the input files that a case may
    mutate), with inputs that two CPUs split over two processes."""
    data = tmp_path_factory.mktemp("sweep")
    kinds = [("Mg2F4", 136), ("Ti2O4", 136), ("BaTiO3", 221), ("K1Cl1", 225), ("H2O1", 1)]
    alpha = write_table(data / "alpha.csv", "a", [kinds[k * 3 % 5] for k in range(30)])
    beta = write_table(data / "beta.csv", "b", [kinds[(k * 2 + 1) % 5] for k in range(12)])
    spectra = write_spectra(data / "spectra", 2 * MIN)
    (data / "configs.csv").write_text("entry_id,occupations,target\n" + "".join(
        f"c{k},{' '.join('1' if k >> j & 1 else '-1' for j in range(4))},{k % 5 - 0.25 * k}\n"
        for k in range(16)))
    (data / "clusters.json").write_text("[[0], [1], [2], [0, 1]]")
    (data / "group.json").write_text(json.dumps([[(i + s) % 4 for i in range(4)]
                                                 for s in range(4)]))
    return {
        "curate": (["curate", "--input", str(alpha), "--other", str(beta),
                    "--hist", "formation_energy:-6:0:8"], [alpha, beta]),
        "ce-fit": (["ce-fit", "--configs", str(data / "configs.csv"),
                    "--clusters", str(data / "clusters.json"),
                    "--group", str(data / "group.json"), "--degree", "1,2"],
                   [data / "configs.csv", data / "clusters.json", data / "group.json"]),
        "similarity": (["similarity", "--spectra", str(spectra), "--window=-3,3",
                        "--grid", "16x8"], sorted(spectra.iterdir())),
    }


@pytest.mark.parametrize("command, seed", SWEEP, ids=[f"{c}-{s}" for c, s in SWEEP])
def test_a_mutated_input_keeps_the_contract_in_one_process_and_forked(
        capsys, tmp_path, sweep_inputs, cpus, forks, command, seed):
    argv, files = sweep_inputs[command]
    rng = random.Random(seed)
    target = rng.choice(files)
    original = target.read_bytes()
    target.write_bytes(mutate(original, MUTATIONS[seed % len(MUTATIONS)], rng))
    runs = []
    try:
        for k in (1, 2):
            cpus(k)
            # an exception that escapes main() fails the test
            returned = cli.main([*argv, "--output-dir", str(tmp_path / "out")])
            out, err = capsys.readouterr()
            assert_no_child_left()
            assert returned in (0, 1, 2)
            check_contract(argv, returned, out, err, returned)
            assert returned != 1 or str(target) in err  # a module error names the file
            runs.append((returned, out, err))
    finally:
        target.write_bytes(original)
    assert runs[1] == runs[0]
    assert runs[0][0] != 0 or len(forks) == 1  # a run that succeeds forked on two CPUs


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    data = tmp_path_factory.mktemp("demo")
    subprocess.run([sys.executable, str(ROOT / "scripts" / "make_demo_data.py"),
                    "--out", str(data)], env=_env(), check=True, capture_output=True)
    return data


@pytest.mark.parametrize("statement", ["import matscale", "import matscale.cli"])
def test_importing_the_package_or_the_cli_loads_no_numpy(tmp_path, statement):
    loaded = modules_at_exit(tmp_path, statement)
    assert "numpy" not in loaded
    assert {m for m in loaded if m.startswith("matscale")} == {
        "matscale", *statement.split()[1:]}


@pytest.fixture(scope="module")
def numpy_loads(tmp_path_factory):
    """The modules that a bare `import numpy` loads."""
    return modules_at_exit(tmp_path_factory.mktemp("numpy"), "import numpy")


@pytest.mark.parametrize("command, absent, present", [
    ("curate", NOT_CURATE | {"matscale.spectra"} | NUMPY_MA | NUMPY_RANDOM,
     {"numpy", "matscale.structure_io", "matscale._workers"}),
    ("similarity", NOT_CURATE | {"matscale.structure_io", "matscale.curation"} | NUMPY_MA
     | NUMPY_RANDOM, {"numpy", "matscale.spectra", "matscale._workers"}),
    ("ce-fit", {"matscale.structure_io", "matscale.curation", "matscale.spectra"} | NUMPY_MA
     | NUMPY_RANDOM, {"numpy", "matscale.regression", "matscale._workers"}),
    ("complexity", {"numpy"}, {"matscale.complexity"}),
    ("estimate workflow", {"numpy"}, {"matscale.costs"}),
    ("estimate training", {"numpy"}, {"matscale.costs"}),
    ("estimate nas", {"numpy"}, {"matscale.costs"}),
])
def test_each_subcommand_loads_only_what_it_runs(demo, numpy_loads, tmp_path, command,
                                                 absent, present):
    loaded = modules_at_exit(tmp_path, RUN_CLI, *run_demo.commands(demo, tmp_path)[command])
    # numpy 1.x imports numpy.ma and numpy.random with numpy itself
    assert not (absent - ((NUMPY_MA | NUMPY_RANDOM) & numpy_loads)) & loaded
    assert present <= loaded


@pytest.mark.parametrize("build", [
    "SymmetryGroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]])",
    "SymmetryGroup.generate([[1, 2, 0], [0, 2, 1]])",
])
def test_symmetry_groups_load_no_numpy_ma(numpy_loads, tmp_path, build):
    loaded = modules_at_exit(tmp_path, f"from matscale.lattice import SymmetryGroup\n{build}")
    assert not (NUMPY_MA - numpy_loads) & loaded


def test_package_names_resolve_to_their_submodule_objects():
    assert sorted(matscale.__all__) == sorted(n for names in PUBLIC.values() for n in names)
    for module, names in PUBLIC.items():
        submodule = __import__(f"matscale.{module}", fromlist=["_"])
        for name in names:
            assert getattr(matscale, name) is getattr(submodule, name)


def test_star_import_and_dir_list_the_public_names():
    namespace = {}
    exec("from matscale import *", namespace)
    assert set(matscale.__all__) <= set(namespace)
    assert set(matscale.__all__) <= set(dir(matscale))
    assert "__version__" in dir(matscale)


def test_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        matscale.no_such_name
    assert not hasattr(matscale, "numpy")


@pytest.mark.parametrize("preset", [
    {},
    {"OPENBLAS_NUM_THREADS": "2"},
    {"OMP_NUM_THREADS": "3"},
    {"MKL_NUM_THREADS": "4"},
    {"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "2"},
])
def test_run_sets_one_blas_thread_only_when_the_caller_set_none(monkeypatch, preset):
    seen, exits = {}, []

    def fake_main():
        seen.update({name: os.environ.get(name) for name in cli.BLAS_THREAD_ENV})
        return 0

    monkeypatch.setattr(cli, "main", fake_main)
    # keep pytest's collector on, its atexit handlers registered and its process alive
    monkeypatch.setattr(cli.gc, "disable", lambda: None)
    monkeypatch.setattr(cli.atexit, "_run_exitfuncs", lambda: None)
    monkeypatch.setattr(cli.os, "_exit", exits.append)
    with mock.patch.dict(os.environ):
        for name in cli.BLAS_THREAD_ENV:
            os.environ.pop(name, None)
        os.environ.update(preset)
        cli.run()
    assert exits == [0]
    if preset:
        assert seen == {name: preset.get(name) for name in cli.BLAS_THREAD_ENV}
    else:
        assert seen == dict.fromkeys(cli.BLAS_THREAD_ENV, "1")


def test_run_exits_with_mains_code_after_the_atexit_handlers_and_a_flush(monkeypatch):
    calls = []

    def failing_flush():
        calls.append("stdout")
        raise OSError(28, "No space left on device")  # main() has reported it

    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
    monkeypatch.setattr(cli.gc, "disable", lambda: calls.append("disable"))
    monkeypatch.setattr(cli.atexit, "_run_exitfuncs", lambda: calls.append("atexit"))
    monkeypatch.setattr(cli.sys, "stdout", SimpleNamespace(flush=failing_flush))
    monkeypatch.setattr(cli.sys, "stderr", SimpleNamespace(flush=lambda: calls.append("stderr")))
    monkeypatch.setattr(cli.os, "_exit", lambda code: calls.append(("_exit", code)))
    with mock.patch.dict(os.environ):
        cli.run()
    assert calls == ["disable", "main", "atexit", "stdout", "stderr", ("_exit", 3)]


def test_main_never_freezes_the_heap(demo, tmp_path, monkeypatch, capsys):
    # nor switches the collector off: in-process callers keep theirs (cli's own gc
    # calls are spied on; structure_io's parse pauses the collector and restores it)
    calls = []
    monkeypatch.setattr(cli, "gc", SimpleNamespace(
        disable=lambda: calls.append("disable"), freeze=lambda: calls.append("freeze")))
    for argv in run_demo.commands(demo, tmp_path).values():
        assert cli.main(argv) == 0
    assert cli.main(["curate", "--input", str(tmp_path / "absent.csv")]) == 2
    assert calls == []
    assert gc.isenabled()
    capsys.readouterr()


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_cli_process_writes_what_main_writes(demo, tmp_path, capsys):
    # `python -m matscale.cli` goes through run(), which ends the process with os._exit;
    # stdout to a pipe is block-buffered, so it must be flushed before that
    env = {name: value for name, value in _env().items() if name != "PYTHONUNBUFFERED"}
    process, in_process = tmp_path / "process", tmp_path / "in_process"
    argv = run_demo.commands(demo, process)["curate"]
    result = subprocess.run([sys.executable, "-m", "matscale.cli", *argv], env=env,
                            capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "")
    assert cli.main(run_demo.commands(demo, in_process)["curate"]) == 0
    out = capsys.readouterr().out
    assert result.stdout == out.replace(str(in_process), str(process))
    assert _files(process / "curate") == _files(in_process / "curate")

    bad = tmp_path / "bad.csv"  # a module error: exit 1 and one line naming the file
    bad.write_text("entry_id,formula,spacegroup\na,MgF2,12\nb,MgF2,x\n")
    argv = ["curate", "--input", str(bad), "--output-dir", str(tmp_path / "bad_out")]
    result = subprocess.run([sys.executable, "-m", "matscale.cli", *argv], env=env,
                            capture_output=True, text=True)
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert (result.returncode, result.stdout, result.stderr) == (1, "", captured.err)
    assert captured.err.startswith(f"matscale: {bad}: row 2: ")
    assert captured.err.count("\n") == 1


def test_main_leaves_the_environment_unchanged(demo, tmp_path, capsys):
    # with none of the variables set, where run() would set them
    with mock.patch.dict(os.environ):
        for name in cli.BLAS_THREAD_ENV:
            os.environ.pop(name, None)
        before = dict(os.environ)
        for argv in run_demo.commands(demo, tmp_path).values():
            assert cli.main(argv) == 0
            assert dict(os.environ) == before
    capsys.readouterr()
