"""Output invariance: runs of matscale that must write the same bytes.

Every run is one process, started by scripts/output_digests.py's runner in a
directory of its own and given only relative paths, so that stdout compares
too. A run is a command of COMMANDS under a variant of VARIANTS, written
"command@variant". GROUPS is the table: each row names runs that must digest
alike over one part of their digests, either stdout and every file (part
"") or the files under one path. Each distinct run is started once, however
many rows name it. A row whose variant cannot run here is skipped with the
reason (pytest -rs prints it).

The data: scripts/make_demo_data.py's demo data; 192 spectra of
perfbench/generate.py, 64 per process on three CPUs; and the small tables of
LOCALE_FILES, whose non-ASCII entry_id shows whether a run depends on the
locale.
"""

import csv
import importlib.util
import io
import json
import math
import os
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


output_digests = _load(ROOT / "scripts" / "output_digests.py")
compare_digests = _load(ROOT / "scripts" / "compare_digests.py")
run_demo = _load(ROOT / "scripts" / "run_demo.py")
generate = _load(ROOT / "perfbench" / "generate.py")

# every run works in runs/<run>/ under one directory that holds the data
DEMO, MANY, LOCALE = "../../demo", "../../many", "../../locale"
CE = ["ce-fit", "--configs", f"{DEMO}/configs.csv", "--clusters", f"{DEMO}/clusters.json",
      "--group", f"{DEMO}/group.json"]
CURATE = ["--split", "0.8,0.1,0.1", "--seed", "7", "--hist", "formation_energy:-6:2:16",
          "--output-dir", "out/curate"]
CE_DEMO = ["--max-features", "20", "--plateau-window", "3", "--plateau-eps", "1e-4",
           "--output-dir", "out/ce"]
# matscale's argv; curate, raster, vector and ce-fit are run_demo.py's commands
DEMO_COMMANDS = run_demo.commands(DEMO, "out")
COMMANDS = {
    "curate": DEMO_COMMANDS["curate"],
    "curate-json": ["curate", "--input", f"{DEMO}/json/alpha.json",
                    "--other", f"{DEMO}/json/beta.json", *CURATE],
    "raster": DEMO_COMMANDS["similarity"],
    "vector": DEMO_COMMANDS["similarity vector"],
    "ce-fit": DEMO_COMMANDS["ce-fit"],
    "ce-fit-d1": [*CE, "--degree", "1", *CE_DEMO],
    "ce-fit-d3": [*CE, "--degree", "3", *CE_DEMO],
    "many-raster": ["similarity", "--spectra", MANY, "--mode", "raster", "--sort",
                    "--output-dir", "raster"],
    "many-vector": ["similarity", "--spectra", MANY, "--mode", "vector", "--sort",
                    "--output-dir", "vector"],
    "many-ce-fit": [*CE, "--degree", "1,2,3,4", "--output-dir", "ce"],
    "locale-curate": ["curate", "--input", f"{LOCALE}/s.csv", "--output-dir", "out"],
    "locale-ce-fit": ["ce-fit", "--configs", f"{LOCALE}/c.csv",
                      "--clusters", f"{LOCALE}/clusters.json", "--group", f"{LOCALE}/group.json",
                      "--output-dir", "out"],
}
LOCALE_FILES = {
    "s.csv": "entry_id,formula,spacegroup\nü1,Mg2F4,136\nb2,BaTiO3,221\n",
    "c.csv": "entry_id,occupations,target\nü1,1 -1 1 -1,0.5\nc2,1 1 1 1,1.5\nc3,-1 -1 1 1,0.25\n",
    "clusters.json": "[[0], [0, 1]]",
    "group.json": "[[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]]",
}


def _one_cpu_skip():
    if not hasattr(os, "sched_setaffinity"):
        return "os.sched_setaffinity does not exist here"
    if len(os.sched_getaffinity(0)) < 2:
        return "one CPU in the affinity mask: the default run does not fork either"
    return None


def _kernel_skip():
    """None when numpy's BLAS is an OpenBLAS that picks its kernel at run time."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:
        return f"numpy {np.__version__} has no show_config(mode=...) to name its BLAS build"
    configuration = blas.get("openblas configuration") or ""
    if "DYNAMIC_ARCH" not in configuration:
        return (f"numpy's BLAS ({blas.get('name')}: {configuration!r}) "
                "is not a DYNAMIC_ARCH OpenBLAS")
    return None


SCRIPT = shutil.which("matscale")
# name: (environment added, pinned to one CPU, reason to skip or None)
VARIANTS = {
    "default": ({}, False, None),
    # the installed console script, which enters through cli.run() as
    # python -m matscale.cli does; run_demo.py calls cli.main() in its process
    "script": ({}, False, None if SCRIPT else "no matscale console script on PATH"),
    "blas1": ({"OPENBLAS_NUM_THREADS": "1"}, False, None),
    "blas3": ({"OPENBLAS_NUM_THREADS": "3"}, False, None),
    "one-cpu": ({}, True, _one_cpu_skip()),
    # an ASCII locale without UTF-8 mode
    "ascii": ({"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}, False, None),
    "utf8": ({"PYTHONUTF8": "1"}, False, None),
    # OPENBLAS_VERBOSE=2 makes OpenBLAS name the kernel it loads on stderr
    "prescott": ({"OPENBLAS_CORETYPE": "Prescott", "OPENBLAS_VERBOSE": "2"}, False,
                 _kernel_skip()),
}
ALL_CPUS = ["many-raster", "many-vector", "many-ce-fit"]
# (row, part, runs that must digest alike over that part)
GROUPS = [
    # the checks of CI's demo step; run_demo.py's in-process curate is one
    # process (it sets no BLAS thread variable), the CLI's forks one per dataset
    ("curate rerun", "out/curate/", ["run_demo@default", "curate@default"]),
    ("installed script: curate", "out/curate/", ["run_demo@default", "curate@script"]),
    ("installed script: raster similarity", "out/similarity/",
     ["run_demo@default", "raster@script"]),
    ("installed script: vector similarity", "out/similarity_vector/",
     ["run_demo@default", "vector@script"]),
    ("installed script: ce-fit", "out/ce/", ["run_demo@default", "ce-fit@script"]),
    ("JSON twins", "out/curate/", ["run_demo@default", "curate-json@default"]),
    ("BLAS threads 1 vs 3: vector similarity", "", ["vector@blas1", "vector@blas3"]),
    # one BLAS thread: the degrees are fitted in forked processes; three: in one
    ("BLAS threads 1 vs 3: ce-fit", "", ["ce-fit@blas1", "ce-fit@blas3"]),
    # one CPU in the affinity mask: one process, no fork
    ("one CPU: ce-fit", "", ["ce-fit@blas1", "ce-fit@one-cpu"]),
    # each degree alone writes the bytes the --degree 1,2,3 run wrote for it
    ("degree 1 alone", "out/ce/predictions_d1.csv", ["ce-fit@blas1", "ce-fit-d1@default"]),
    ("degree 3 alone", "out/ce/predictions_d3.csv", ["ce-fit@blas1", "ce-fit-d3@default"]),
    ("ASCII locale: curate", "", ["curate@default", "curate@ascii"]),
    ("ASCII locale: ce-fit", "", ["ce-fit@blas1", "ce-fit@ascii"]),
    # by default similarity reads and bins its spectra, ce-fit fits its four
    # degrees, and curate curates its two datasets, in forked processes; on
    # one CPU, or with three BLAS threads, in one
    *((f"192 spectra, forked vs one CPU vs 3 BLAS threads: {command}", "",
       [f"{command}@{variant}" for variant in ("default", "one-cpu", "blas3")])
      for command in ALL_CPUS),
    ("forked vs one CPU vs 3 BLAS threads: curate", "",
     ["curate@default", "curate@one-cpu", "curate@blas3"]),
    # an ASCII locale against UTF-8 mode
    ("locale: curate", "", ["locale-curate@utf8", "locale-curate@ascii"]),
    ("locale: ce-fit", "", ["locale-ce-fit@utf8", "locale-ce-fit@ascii"]),
    # what the BLAS kernel must not change at all; KERNEL_BOUNDS has the rest
    ("BLAS kernel: curate", "", ["curate@default", "curate@prescott"]),
    ("BLAS kernel: raster similarity", "out/similarity/", ["run_demo@default", "raster@prescott"]),
]
# the default kernel's run, the Prescott run, and how far their numbers may differ
KERNEL_BOUNDS = {
    "vector similarity cells within 1e-12 absolute":
        ("vector@blas1", "vector@prescott", lambda a, b: abs(a - b) <= 1e-12),
    "ce-fit RMSEs and predictions within 1e-12 relative":
        ("ce-fit@blas1", "ce-fit@prescott", lambda a, b: math.isclose(a, b, rel_tol=1e-12)),
}
RUNS = sorted({run for _, _, runs in GROUPS for run in runs}
              | {run for bound in KERNEL_BOUNDS.values() for run in bound[:2]})


def _skip(runs):
    for run in runs:
        reason = VARIANTS[run.split("@")[1]][2]
        if reason:
            pytest.skip(reason)


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """The data under demo/, many/ and locale/; each run's directory under runs/."""
    root = tmp_path_factory.mktemp("invariance")
    make_demo_data = [sys.executable, str(ROOT / "scripts" / "make_demo_data.py"), "--out", "demo"]
    [made] = output_digests.run_many([(make_demo_data, root)])
    assert made.returncode == 0, made.stderr
    generate.make_spectra(root / "many", np.random.default_rng(3), 192, 200)
    (root / "locale").mkdir()
    for name, text in LOCALE_FILES.items():
        (root / "locale" / name).write_text(text, encoding="utf-8")
    return root


@pytest.fixture(scope="module")
def outputs(root):
    """The Output of every run that can run here, by run name."""
    jobs = {}
    for run in RUNS:
        command, variant = run.split("@")
        env, one_cpu, skip = VARIANTS[variant]
        if skip:
            continue
        if command == "run_demo":
            argv = [sys.executable, str(ROOT / "scripts" / "run_demo.py"),
                    "--data", DEMO, "--out", "out"]
        elif variant == "script":
            argv = [SCRIPT, *COMMANDS[command]]
        else:
            argv = output_digests.cli(*COMMANDS[command])
        jobs[run] = (argv, root / "runs" / run, env, one_cpu)
    outputs = dict(zip(jobs, output_digests.run_many(jobs.values())))
    for run, output in outputs.items():
        assert output.returncode == 0, f"{run}: {output.stderr}"
    return outputs


@pytest.mark.parametrize("row, part, runs", GROUPS, ids=[row[0] for row in GROUPS])
def test_runs_digest_alike(outputs, row, part, runs):
    _skip(runs)
    views = {}
    for run in runs:
        digests = outputs[run].digests()
        everything = {"stdout": digests["stdout"], **digests["files"]}
        views[run] = {path: sha for path, sha in everything.items() if path.startswith(part)}
    first, *others = runs
    assert views[first], f"{first} wrote nothing under {part!r}"
    for other in others:
        differ = sorted(path for path in views[first].keys() | views[other].keys()
                        if views[first].get(path) != views[other].get(path))
        assert not differ, f"{row}: {', '.join(differ)} differ between {first} and {other}"


def test_a_non_ascii_entry_id_is_written_as_utf8(root, outputs):
    split = root / "runs" / "locale-curate@utf8" / "out" / "s_split.csv"
    assert "ü1".encode() in split.read_bytes()


def _values(data: bytes, path: str):
    """(place, value) of each value of a JSON document or a CSV file, a CSV
    cell read as an int, else as a float, else as text."""
    if path == "stdout" or path.endswith(".json"):
        def walk(value, place):
            if isinstance(value, (dict, list)):
                items = value.items() if isinstance(value, dict) else enumerate(value)
                for key, item in items:
                    yield from walk(item, f"{place}/{key}")
            else:
                yield place, value
        return list(walk(json.loads(data), ""))

    def cell(text):
        for kind in (int, float):
            try:
                return kind(text)
            except ValueError:
                pass
        return text
    return [(f"row {i + 1} column {j + 1}", cell(text))
            for i, row in enumerate(csv.reader(io.StringIO(data.decode())))
            for j, text in enumerate(row)]


@pytest.mark.parametrize("default, prescott, close", KERNEL_BOUNDS.values(),
                         ids=KERNEL_BOUNDS.keys())
def test_the_blas_kernel_moves_only_low_bits(root, outputs, default, prescott, close):
    # byte identity holds per BLAS kernel; across kernels, floats may differ
    # within the bound, and integers (n_features per degree) and text may not
    _skip([prescott])
    assert re.search(r"^Core: ", outputs[prescott].stderr, re.M), outputs[prescott].stderr
    assert outputs[default].files.keys() == outputs[prescott].files.keys()
    for path in ["stdout", *outputs[default].files]:
        values = []
        for run in (default, prescott):
            data = (outputs[run].stdout if path == "stdout"
                    else (root / "runs" / run / path).read_bytes())
            values.append(_values(data, path))
        assert [place for place, _ in values[0]] == [place for place, _ in values[1]], path
        apart = [(place, a, b) for (place, a), (_, b) in zip(*values)
                 if a != b and not (type(a) is type(b) is float and close(a, b))]
        assert not apart, f"{path}: {apart[:5]}"


def test_the_digest_comparison_allows_added_runs_only(tmp_path, capsys):
    # CI's check of a change against its merge base, on digests made up here
    run = {"returncode": 0, "stdout": "s", "files": {"out/a.csv": "a", "out/b.csv": "b"}}
    base = {"curate/seed1": run, "demo/data": {**run, "files": {}}}
    changes = {
        "alike, and one run added": ({**base, "new/seed1": run}, []),
        "a file differs, one is added": (
            {**base, "curate/seed1": {**run, "files": {"out/a.csv": "x", "out/b.csv": "b",
                                                       "out/c.csv": "c"}}},
            ["curate/seed1: differs in file out/a.csv, file out/c.csv"]),
        "the code and stdout differ": (
            {**base, "demo/data": {**run, "returncode": 1, "stdout": "t", "files": {}}},
            ["demo/data: differs in returncode, stdout"]),
        "a base run is missing": ({"demo/data": base["demo/data"]},
                                  ["curate/seed1: missing in the change"]),
    }
    (tmp_path / "base.json").write_text(json.dumps(base))
    for name, (change, lines) in changes.items():
        (tmp_path / "change.json").write_text(json.dumps(change))
        code = compare_digests.main([str(tmp_path / "base.json"), str(tmp_path / "change.json")])
        assert (code, capsys.readouterr().err.splitlines()) == (1 if lines else 0, lines), name
