import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matscale
from matscale import io, regression
from matscale.cli import main
from matscale.costs import NasSpec, TrainingSpec, WorkflowSpec
from matscale.curation import histogram_edges
from test_startup import demo, run_demo  # noqa: F401 (demo is a fixture)


def run_cli(capsys, *argv):
    """(exit code, stdout, stderr) of main(argv)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_structures(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["entry_id", "formula", "spacegroup", "formation_energy"])
        writer.writerows(rows)


@pytest.fixture
def curate_inputs(tmp_path):
    a = tmp_path / "alpha.csv"
    b = tmp_path / "beta.csv"
    write_structures(a, [
        ["a1", "Mg2F4", 136, -2.5],
        ["a2", "Mg2F4", 136, -2.4],
        ["a3", "BaTiO3", 221, -3.0],
        ["a4", "H2O1", 1, -0.5],
        ["a5", "K1Cl1", 225, -2.2],
    ])
    write_structures(b, [
        ["b1", "Mg2F4", 136, -2.6],
        ["b2", "Ti2O4", 136, -3.3],
        ["b3", "K1Cl1", 225, -2.1],
    ])
    return a, b


def test_curate_end_to_end(curate_inputs, tmp_path, capsys):
    a, b = curate_inputs
    out = tmp_path / "out"
    code, stdout, _ = run_cli(
        capsys, "curate", "--input", str(a), "--other", str(b),
        "--split", "0.6,0.2,0.2", "--seed", "11",
        "--hist", "formation_energy:-4:0:4", "--output-dir", str(out),
    )
    assert code == 0
    summary = json.loads(stdout)
    assert summary["n_common_ids"] == 2  # Mg2F4_136 and K1Cl1_225
    assert (out / "alpha_split.csv").exists()
    assert (out / "beta_split.csv").exists()
    assert (out / "alpha_hist_formation_energy.csv").exists()

    # shared identities land in the same split on both sides
    def split_of(path):
        with open(path, newline="") as fh:
            return {row["structure_id"]: row["split"] for row in csv.DictReader(fh)}

    split_a = split_of(out / "alpha_split.csv")
    split_b = split_of(out / "beta_split.csv")
    for shared in ("Mg2F4_136", "K1Cl1_225"):
        assert split_a[shared] == split_b[shared]


def test_curate_does_not_mutate_inputs(curate_inputs, tmp_path, capsys):
    a, b = curate_inputs
    before = (a.read_bytes(), b.read_bytes())
    code, _, _ = run_cli(
        capsys, "curate", "--input", str(a), "--other", str(b),
        "--output-dir", str(tmp_path / "out"),
    )
    assert code == 0
    assert (a.read_bytes(), b.read_bytes()) == before


def test_curate_outputs_are_deterministic(curate_inputs, tmp_path, capsys):
    a, b = curate_inputs
    outputs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code, _, _ = run_cli(
            capsys, "curate", "--input", str(a), "--other", str(b),
            "--seed", "5", "--output-dir", str(out),
        )
        assert code == 0
        outputs.append((out / "alpha_split.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_curate_missing_input_is_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, stderr = run_cli(
        capsys, "curate", "--input", str(tmp_path / "absent.csv"),
        "--output-dir", str(out),
    )
    assert code == 2
    assert "not found" in stderr
    assert not out.exists() or not list(out.iterdir())  # no partial outputs


@pytest.mark.parametrize("name, text, where", [
    ("bad.json", '[{"entry_id": "a", "formula": "MgF2", "spacegroup": null}]', "row 1"),
    ("bad.csv", "entry_id,formula,spacegroup\na,MgF2\n", "row 1"),
    ("bad.csv", "entry_id,formula,spacegroup\na,MgF2,12,3\n", "row 1"),
    ("bad.json", '[{"formula": "MgF2", "spacegroup": 12}]', "row 1"),
    ("bad.csv", "entry_id,formula,spacegroup\na,H1,1\nb,MgF2,x\n", "row 2"),
    ("bad.json", '[{"entry_id": "a", "composition": {"Mg": 2.5, "F": true}, '
     '"spacegroup": 12.7}]', "row 1"),
    ("bad.csv", "entry_id,formula,spacegroup,formation_energy\na,MgF2,12,low\n", "row 1"),
    ("bad.csv", "entry_id,formula,spacegroup,formation_energy\na,MgF2,12,nan\n", "row 1"),
])
def test_curate_bad_row_exits_one_naming_file_and_row(tmp_path, capsys, name, text,
                                                       where):
    bad = tmp_path / name
    bad.write_text(text)
    out = tmp_path / "out"
    code, stdout, stderr = run_cli(
        capsys, "curate", "--input", str(bad), "--hist", "formation_energy:-4:0:4",
        "--output-dir", str(out),
    )
    assert (code, stdout) == (1, "")
    assert stderr.startswith(f"matscale: {bad}: {where}: ")
    assert "Traceback" not in stderr
    assert not list(out.iterdir())


@pytest.mark.filterwarnings("error")  # numpy's overflow warnings fail the test
@pytest.mark.parametrize("hist", ["e:0:nan:4", "e:-inf:0:4", "e:1:0:4", "e:1:1:4",
                                  "e:0:1:0", "e:0:1:-2",
                                  # the property name goes into an output file name
                                  "a/b:0:1:2", "/:0:1:2", "../e:0:1:2",
                                  # the bin width overflows / underflows
                                  "formation_energy:-1e308:1e308:4",
                                  "formation_energy:0:5e-324:4",
                                  # text that is not property:lo:hi:nbins
                                  "e:0:1", "e:0:1:2:3", "e:0:x:4", "e:0:1:2.5", "e:0:1:1_0",
                                  # 10**12 + 1 float64 edges are over 2**31 bytes
                                  "formation_energy:0:1:1000000000000"])
def test_curate_bad_hist_exits_two_before_reading(curate_inputs, tmp_path, capsys, hist):
    a, _ = curate_inputs
    out = tmp_path / "out"
    code, stdout, stderr = run_cli(
        capsys, "curate", "--input", str(a), "--hist", hist, "--output-dir", str(out),
    )
    assert (code, stdout) == (2, "")
    assert "--hist" in stderr
    assert stderr.startswith("matscale: ") and stderr.count("\n") == 1
    assert not out.exists()  # no <stem>_split.csv either


@pytest.mark.parametrize("other_stem, hists, flag", [
    ("alpha", [], "--other"),
    (None, ["formation_energy:-6:2:4", "formation_energy:0:1:2"], "--hist"),
    (None, ["e:0:1:2", "formation_energy:0:1:2", "e:-1:0:3"], "--hist"),
    # --other's split file is --input's histogram file: alpha_hist_y_split.csv
    ("alpha_hist_y", ["y_split:0:1:4"], "--other"),
])
def test_curate_colliding_outputs_exit_two_before_reading(curate_inputs, tmp_path, capsys,
                                                          other_stem, hists, flag):
    # outputs are named by input stem and property: a repeat would overwrite one
    a, b = curate_inputs
    if other_stem is not None:
        (tmp_path / "b").mkdir()
        b = b.rename(tmp_path / "b" / f"{other_stem}.csv")
    out = tmp_path / "out"
    code, stdout, stderr = run_cli(
        capsys, "curate", "--input", str(a), "--other", str(b),
        *(arg for hist in hists for arg in ("--hist", hist)), "--output-dir", str(out),
    )
    assert (code, stdout) == (2, "")
    assert flag in stderr
    assert stderr.startswith(f"matscale: {out}{os.sep}") and stderr.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("split", ["0.5,0.5,nan", "nan,0.5,0.5", "0.5,inf,0",
                                   "0.5,0.6,-0.1", "0.5,0.6,0.1",
                                   "0.8,x,0.1", "0.8,0.1,", "0.8,0_1,0.1"])
def test_curate_non_finite_split_exits_two(curate_inputs, tmp_path, capsys, split):
    a, _ = curate_inputs
    out = tmp_path / "out"
    code, stdout, stderr = run_cli(
        capsys, "curate", "--input", str(a), "--split", split, "--output-dir", str(out),
    )
    assert (code, stdout) == (2, "")
    assert "--split" in stderr
    assert not out.exists()


def test_curate_negative_seed_exits_two_before_reading(curate_inputs, tmp_path, capsys):
    a, _ = curate_inputs
    out = tmp_path / "out"
    code, stdout, stderr = run_cli(
        capsys, "curate", "--input", str(a), "--seed", "-1", "--output-dir", str(out),
    )
    assert (code, stdout) == (2, "")
    assert "--seed: seed must be >= 0" in stderr
    assert not out.exists()


@pytest.fixture
def spectra_dir(tmp_path):
    sdir = tmp_path / "spectra"
    sdir.mkdir()
    cases = [
        ("calc_a", "LDA", 4, 40, "light", "ZORA", 1.0),
        ("calc_b", "PBE", 4, 40, "light", "ZORA", 2.0),
        ("calc_c", "LDA", 8, 80, "tight", "atomic_ZORA", 1.0),
    ]
    for name, xc, nk, nb, tier, rel, peak in cases:
        (sdir / f"{name}.csv").write_text(
            "energy,dos\n-2.0,0.0\n0.0,%s\n2.0,0.0\n" % peak
        )
        (sdir / f"{name}.json").write_text(json.dumps({
            "fermi_energy": 0.0, "xc": xc, "n_kpt": nk, "n_basis": nb,
            "settings_tier": tier, "relativistic": rel,
        }))
    return sdir


def test_similarity_end_to_end(spectra_dir, tmp_path, capsys):
    out = tmp_path / "simout"
    code, stdout, _ = run_cli(
        capsys, "similarity", "--spectra", str(spectra_dir),
        "--window", "-3,3", "--grid", "8x4", "--sort",
        "--output-dir", str(out),
    )
    assert code == 0
    summary = json.loads(stdout)
    assert summary["n_spectra"] == 3
    manifest = json.loads((out / "similarity_manifest.json").read_text())
    # sorted: both LDA entries first (kpt 4 then 8), PBE last
    assert [lab["xc"] for lab in manifest["labels"]] == ["LDA", "LDA", "PBE"]
    rows = (out / "similarity_matrix.csv").read_text().splitlines()
    matrix = [[float(v) for v in row.split(",")] for row in rows]
    for i in range(3):
        assert matrix[i][i] == 1.0
        for j in range(3):
            assert matrix[i][j] == matrix[j][i]


def test_similarity_threads_flag_same_output(spectra_dir, tmp_path, capsys):
    outputs = []
    for name, flags in (("t1", []), ("t4", ["--threads", "4"])):
        out = tmp_path / name
        code, _, _ = run_cli(
            capsys, *flags, "similarity", "--spectra", str(spectra_dir),
            "--window", "-3,3", "--grid", "8x4", "--output-dir", str(out),
        )
        assert code == 0
        outputs.append((out / "similarity_matrix.csv").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("mode", ["raster", "vector"])
def test_similarity_overflowing_dos_fails_before_writing(tmp_path, capsys, mode):
    sdir = tmp_path / "spectra"
    sdir.mkdir()
    for name in ("calc_a", "calc_b"):
        (sdir / f"{name}.csv").write_text(
            "energy,dos\n-2,0\n-0.5,1e308\n0,1e308\n0.5,1e308\n2,0\n")
        (sdir / f"{name}.json").write_text(json.dumps({
            "fermi_energy": 0.0, "xc": "LDA", "n_kpt": 4, "n_basis": 40,
            "settings_tier": "light", "relativistic": "ZORA",
        }))
    out = tmp_path / "simout"
    code, stdout, stderr = run_cli(
        capsys, "similarity", "--spectra", str(sdir), "--window", "-1,1",
        "--mode", mode, "--output-dir", str(out),
    )
    assert (code, stdout) == (1, "")
    assert stderr.startswith(f"matscale: {sdir / 'calc_a.csv'}: ")
    assert "overflows" in stderr
    assert not (out / "similarity_matrix.csv").exists()


NEAR_MAX = "-1,8e307\n0,8e307\n1,8e307\n"  # DOS near the float maximum
FAR_ENERGIES = "-1e308,1\n0,2\n1e308,1\n"  # shifted by a Fermi energy of -1e308


@pytest.mark.filterwarnings("error")  # numpy's overflow warnings fail the test
@pytest.mark.parametrize("rows, fermi, flags, error", [
    # bin heights up to 6.25e306: n_dos times one is past the float64 range
    (NEAR_MAX, 0.0, [], None),
    (NEAR_MAX, 0.0, ["--h-max", "1e308"], None),
    # the vectors' inner products with themselves overflow
    (NEAR_MAX, 0.0, ["--mode", "vector"], "the vector's inner product with itself, inf, "
     "exceeds 8.98847e+307, so its similarities overflow float64"),
    # the last energy minus the Fermi energy overflows, in either mode
    (FAR_ENERGIES, -1e308, ["--window=-1,1"],
     "an energy minus the Fermi energy -1e+308 overflows float64"),
    (FAR_ENERGIES, -1e308, ["--window=-1,1", "--mode", "vector"],
     "an energy minus the Fermi energy -1e+308 overflows float64"),
])
def test_similarity_dos_near_the_float_maximum(tmp_path, capsys, rows, fermi, flags, error):
    sdir = tmp_path / "spectra"
    sdir.mkdir()
    for name in ("calc_a", "calc_b"):
        (sdir / f"{name}.csv").write_text("energy,dos\n" + rows)
        (sdir / f"{name}.json").write_text(json.dumps({
            "fermi_energy": fermi, "xc": "LDA", "n_kpt": 4, "n_basis": 40,
            "settings_tier": "light", "relativistic": "ZORA",
        }))
    out = tmp_path / "simout"
    result = run_cli(capsys, "similarity", "--spectra", str(sdir), "--output-dir", str(out),
                     *flags)
    if error is None:
        assert result[0::2] == (0, "")
        assert (out / "similarity_matrix.csv").read_text() == "1,1\n1,1\n"
    else:
        assert result == (1, "", f"matscale: {sdir / 'calc_a.csv'}: {error}\n")
        assert list(out.iterdir()) == []


@pytest.fixture
def ce_inputs(tmp_path):
    """Targets equal the product of the two single-site correlations."""
    configs = tmp_path / "configs.csv"
    rows = []
    idx = 0
    for s0 in (1, -1):
        for s1 in (1, -1):
            occ = [s0, s1, 1, 1, 1, 1]
            rows.append((f"c{idx}", " ".join(str(v) for v in occ), s0 * s1))
            idx += 1
    with open(configs, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["entry_id", "occupations", "target"])
        writer.writerows(rows)
    clusters = tmp_path / "clusters.json"
    clusters.write_text("[[0], [1]]")
    group = tmp_path / "group.json"
    group.write_text(json.dumps([list(range(6))]))
    return configs, clusters, group


def test_ce_fit_planted_quadratic(ce_inputs, tmp_path, capsys):
    configs, clusters, group = ce_inputs
    out = tmp_path / "ceout"
    code, stdout, _ = run_cli(
        capsys, "ce-fit", "--configs", str(configs), "--clusters", str(clusters),
        "--group", str(group), "--degree", "1,2", "--output-dir", str(out),
    )
    assert code == 0
    summary = json.loads(stdout)
    assert summary["degrees"]["2"]["rmse"] < 1e-8
    assert summary["degrees"]["1"]["rmse"] > 0.5

    with open(out / "fit_trace.csv", newline="") as fh:
        trace_rows = list(csv.DictReader(fh))
    finals = {}
    for row in trace_rows:
        finals[row["degree"]] = float(row["rmse"])  # last row per degree wins
    assert finals["2"] < 1e-8

    with open(out / "predictions_d2.csv", newline="") as fh:
        preds = list(csv.DictReader(fh))
    assert len(preds) == 4
    for row in preds:
        assert abs(float(row["target"]) - float(row["predicted"])) < 1e-8


def test_complexity_subcommands(capsys):
    code, stdout, _ = run_cli(capsys, "complexity", "--nn", "2,3,1")
    assert code == 0
    assert json.loads(stdout) == {
        "model": "nn", "layer_widths": [2, 3, 1],
        "weights": 9, "biases": 4, "parameters": 13,
    }
    code, stdout, _ = run_cli(capsys, "complexity", "--rf", "3,5")
    assert json.loads(stdout)["splits"] == 6
    code, stdout, _ = run_cli(capsys, "complexity", "--sisso", "rung=2,dim=3,bias")
    assert json.loads(stdout) == {"model": "sisso", "rung": 2, "dimension": 4}


def test_estimate_workflow_reference_numbers(capsys):
    code, stdout, _ = run_cli(
        capsys, "estimate", "workflow", "--structures", "30000",
        "--settings", "9", "--files-per-run", "41", "--mb-per-run", "30",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["runs"] == 270_000
    assert payload["files"] == 11_070_000
    assert payload["storage"] == "8.1 TB"


def test_estimate_training_and_nas(capsys):
    code, stdout, _ = run_cli(
        capsys, "estimate", "training", "--steps", "2000000",
        "--t-batch", "0.0010", "--t-grad", "0.0023",
    )
    assert code == 0
    assert json.loads(stdout)["seconds"] == pytest.approx(6600.0, abs=1e-9)

    code, stdout, _ = run_cli(
        capsys, "estimate", "nas", "--archs", "2000", "--hours", "20",
        "--price", "3",
    )
    assert json.loads(stdout) == {"gpu_hours": 40000.0, "cost": 120000.0}


def test_estimate_workflow_binary_units(capsys):
    code, stdout, _ = run_cli(
        capsys, "estimate", "workflow", "--structures", "1", "--settings", "1",
        "--files-per-run", "1", "--mb-per-run", "1048.576", "--binary",
    )
    assert code == 0
    assert json.loads(stdout)["storage"] == "1000 MiB"


def test_estimate_human_format(capsys):
    code, stdout, _ = run_cli(
        capsys, "estimate", "workflow", "--structures", "30000",
        "--settings", "9", "--files-per-run", "41", "--mb-per-run", "30",
        "--format", "human",
    )
    assert code == 0
    assert "storage: 8.1 TB" in stdout


def test_bad_flags_exit_code_two(tmp_path, capsys):
    assert main(["curate"]) == 2  # --input is required
    assert capsys.readouterr() == ("", "matscale: the following arguments are required: "
                                       "--input\n")

    a = tmp_path / "a.csv"
    write_structures(a, [["x", "H1", 1, 0.0]])
    code, _, stderr = run_cli(
        capsys, "curate", "--input", str(a), "--split", "0.5,0.5",
        "--output-dir", str(tmp_path / "o"),
    )
    assert code == 2
    assert "three" in stderr
    assert stderr.startswith("matscale: --split: ") and stderr.count("\n") == 1


def test_module_error_exit_code_one(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("entry_id,formula,spacegroup\nx,NotAnElement5,1\n")
    code, _, stderr = run_cli(
        capsys, "curate", "--input", str(bad), "--output-dir", str(tmp_path / "o"),
    )
    assert code == 1
    assert stderr.startswith(f"matscale: {bad}: row 1: ") and stderr.count("\n") == 1


@pytest.mark.parametrize("flags, message", [
    (["--tol", "nan"], "--tol"),
    (["--tol=-1e-9"], "--tol"),
    (["--tol", "inf"], "--tol"),
    (["--plateau-window", "2", "--plateau-eps", "nan"], "--plateau-eps"),
    (["--plateau-window", "2", "--plateau-eps=-0.1"], "--plateau-eps"),
    (["--degree", "0"], "--degree"),
    (["--degree=1,-2"], "--degree"),
    (["--max-features", "-1"], "--max-features"),
    (["--plateau-window", "0"], "--plateau-window"),
    # text that the file rule does not read as integers or numbers
    (["--degree", "1,x"], "--degree"),
    (["--degree", "1,,2"], "--degree"),
    (["--degree", "\u0661,\u0662"], "--degree"),  # Arabic-Indic 1,2
    (["--max-features", "2_0"], "--max-features"),
    (["--tol", "1e-1_2"], "--tol"),
    (["--plateau-window", "x"], "--plateau-window"),
])
def test_ce_fit_bad_flags_exit_two_before_reading(ce_inputs, tmp_path, capsys,
                                                  flags, message):
    configs, clusters, group = ce_inputs
    configs.write_text("entry_id,occupations,target\nbroken\n")  # never read
    out = tmp_path / "ceout"
    code, stdout, stderr = run_cli(
        capsys, "ce-fit", "--configs", str(configs), "--clusters", str(clusters),
        "--group", str(group), "--output-dir", str(out), *flags,
    )
    assert (code, stdout) == (2, "")
    assert message in stderr
    assert not out.exists()


HUGE_TARGETS = ("entry_id,occupations,target\n"
                "c0,1 1 1 1 1 1,{}\nc1,-1 1 1 1 1 1,{}\nc2,1 -1 1 1 1 1,{}\n")
SPREAD = ("targets: the sum of squared deviations from their mean (inf) must be at most half "
          "the largest float64")


# (the file of ce_inputs that is written, its text, what the error line holds)
CE_BAD_INPUTS = [
    ("configs", "entry_id,occupations,target\nc0,1 1 1 1 1 1,0\nc1,1 1\n",
     "line 3: expected 3 columns"),
    ("configs", "entry_id,occupations,target\nc0,1 1 1 1 1 1,0\nc1,2 -1 1 1 1 1,0\n",
     "line 3: bad occupations or target"),
    ("group", "[[0, 1, 2, 3, 4, 5], 1]", "entry 1 is not a list of integers"),
    ("clusters", "[[0], 1]", "entry 1 is not a list of integers"),
    ("clusters", "[[0], [2, 1]]", "entry 1: sites must be strictly ascending"),
    ("group", "[[0, 1, 2, 3, 4, 5], [1, 0, 2, 3]]",
     "permutation 1 has 4 entries but permutation 0 has 6"),
    ("group", "[[1, 0, 2, 3, 4, 5]]", "identity"),
    ("configs", "entry_id,occupations,target\nc0,1 1 1 1 1 1,0\udcff\n",
     "can't decode byte 0xff"),
    ("clusters", "[]", "no clusters"),
    ("group", f"[[0, 1, 2, 3, 4, 5], [1, 0, 2, 3, 4, {2**63}]]",
     "permutation 1 holds an index outside the int64 range"),
    ("configs", "entry_id,occupations,target\nc0,1 1 1 1,0\n",
     "configurations have 4 sites but the group in"),
    ("clusters", "[[0], [0, 6]]", "entry 1: cluster touches site 6 but the group acts on 6 sites"),
    # finite targets whose squared deviations overflow: refused before any fit
    ("configs", HUGE_TARGETS.format(1e308, -1e308, 1e308), SPREAD),
    ("configs", HUGE_TARGETS.format(1e200, -1e200, 3), SPREAD),
]


@pytest.mark.parametrize("target, text, message", CE_BAD_INPUTS)
@pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy's overflow warnings fail it
def test_ce_fit_bad_input_names_file(ce_inputs, tmp_path, capsys,
                                     target, text, message):
    paths = dict(zip(("configs", "clusters", "group"), ce_inputs))
    paths[target].write_text(text, errors="surrogateescape")  # "\udcff" -> byte 0xff
    code, stdout, stderr = run_cli(
        capsys, "ce-fit", "--configs", str(paths["configs"]),
        "--clusters", str(paths["clusters"]), "--group", str(paths["group"]),
        "--output-dir", str(tmp_path / "ceout"),
    )
    assert (code, stdout) == (1, "")
    assert stderr.startswith(f"matscale: {paths[target]}: ") and stderr.count("\n") == 1
    assert message in stderr
    assert list((tmp_path / "ceout").iterdir()) == []


@pytest.mark.parametrize("target, text, message", CE_BAD_INPUTS)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_read_ce_inputs_raises_the_error_that_ce_fit_prints(ce_inputs, tmp_path, capsys,
                                                            target, text, message):
    paths = dict(zip(("configs", "clusters", "group"), ce_inputs))
    paths[target].write_text(text, errors="surrogateescape")
    code, _, stderr = run_cli(capsys, "ce-fit", "--configs", str(paths["configs"]),
                              "--clusters", str(paths["clusters"]),
                              "--group", str(paths["group"]), "--output-dir", str(tmp_path))
    with pytest.raises(ValueError) as exc:
        io.read_ce_inputs(paths["configs"], paths["clusters"], paths["group"])
    assert (code, stderr) == (1, f"matscale: {exc.value}\n")
    assert message in str(exc.value)


def test_read_ce_inputs_returns_what_ce_fit_fits(demo, tmp_path, capsys, monkeypatch):
    fitted, named = [], []
    fit, write = regression.compare_feature_spaces, io.write_predictions_csv
    monkeypatch.setattr(regression, "compare_feature_spaces",
                        lambda *args, **kw: fitted.append(args) or fit(*args, **kw))
    monkeypatch.setattr(io, "write_predictions_csv",
                        lambda path, ids, *rest: named.append(ids) or write(path, ids, *rest))
    argv = run_demo.commands(demo, tmp_path)["ce-fit"]
    assert main(argv) == 0
    capsys.readouterr()
    files = [demo / "configs.csv", demo / "clusters.json", demo / "group.json"]
    ids, occupations, targets, clusters, group = io.read_ce_inputs(*files)
    with open(files[0], newline="", encoding="utf-8") as fh:
        assert ids == [row[0] for row in list(csv.reader(fh))[1:]]
    assert named == [ids] * 3  # --degree 1,2,3
    [(cli_occupations, cli_targets, cli_clusters, cli_group, _)] = fitted
    for ours, theirs in ((occupations, cli_occupations), (targets, cli_targets)):
        assert (ours.dtype, ours.shape, ours.tobytes()) == (theirs.dtype, theirs.shape,
                                                           theirs.tobytes())
    sites = [tuple(c) for c in json.loads(files[1].read_text())]
    assert [c.sites for c in clusters] == [c.sites for c in cli_clusters] == sites
    permutations = json.loads(files[2].read_text())
    assert group.permutations.tolist() == cli_group.permutations.tolist() == permutations


def test_ce_fit_refuses_an_oversized_expansion_before_building_it(ce_inputs, tmp_path,
                                                                   capsys, monkeypatch):
    from matscale import polyfeatures, regression

    def no_expansion(*args):
        raise AssertionError("the expansion was built")

    monkeypatch.setattr(polyfeatures, "enumerate_monomials", no_expansion)
    monkeypatch.setattr(regression, "enumerate_monomials", no_expansion)
    configs, clusters, group = ce_inputs
    out = tmp_path / "ceout"
    code, stdout, stderr = run_cli(
        capsys, "ce-fit", "--configs", str(configs), "--clusters", str(clusters),
        "--group", str(group), "--degree", "1,20000", "--output-dir", str(out),
    )
    q = polyfeatures.feature_count(2, 20000)  # 2 clusters, 4 configs
    assert (code, stdout) == (2, "")
    assert stderr == (f"matscale: --degree: the degree-20000 expansion of 2 base features "
                      f"has {q} columns; at 4 rows that is {4 * q * 8} bytes, over the "
                      f"2147483648-byte limit\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("target, text", [
    ("group", "[[1, 0, 2, 3, 4, 5]]"),  # no identity
    ("clusters", "[[0], [0, 6]]"),  # a site outside the group's six
])
def test_ce_fit_checks_its_three_files_before_the_expansion_size(ce_inputs, tmp_path, capsys,
                                                                  target, text):
    # io.read_ce_inputs checks every file before the --degree expansion is sized
    paths = dict(zip(("configs", "clusters", "group"), ce_inputs))
    paths[target].write_text(text)
    code, stdout, stderr = run_cli(
        capsys, "ce-fit", "--configs", str(paths["configs"]),
        "--clusters", str(paths["clusters"]), "--group", str(paths["group"]),
        "--degree", "1,20000", "--output-dir", str(tmp_path / "ceout"),
    )
    assert (code, stdout) == (1, "")
    assert stderr.startswith(f"matscale: {paths[target]}: ") and stderr.count("\n") == 1


@pytest.mark.parametrize("command, target", [
    ("curate", "input"), ("ce-fit", "clusters"), ("similarity", "sidecar"),
])
def test_deeply_nested_json_exits_one_naming_file(ce_inputs, spectra_dir, tmp_path, capsys,
                                                  command, target):
    nested = "[" * 200_000
    if command == "curate":
        bad = tmp_path / "deep.json"
        bad.write_text(nested)
        argv = ["curate", "--input", str(bad)]
    elif command == "ce-fit":
        configs, bad, group = ce_inputs
        bad.write_text(nested)
        argv = ["ce-fit", "--configs", str(configs), "--clusters", str(bad), "--group", str(group)]
    else:
        bad = spectra_dir / "calc_b.json"
        bad.write_text(nested)
        argv = ["similarity", "--spectra", str(spectra_dir)]
    code, stdout, stderr = run_cli(capsys, *argv, "--output-dir", str(tmp_path / "out"))
    assert (code, stdout) == (1, "")
    assert stderr == f"matscale: {bad}: invalid JSON: nesting too deep\n"


@pytest.mark.parametrize("flags, message", [
    (["--h-max", "nan"], "--h-max"),
    (["--h-max", "inf"], "--h-max"),
    (["--h-max=-1"], "--h-max"),
    (["--window=-inf,inf"], "--window"),
    (["--window", "5,1"], "--window"),
    (["--window", "nan,1"], "--window"),
    (["--grid", "0x4"], "--grid"),
    (["--grid", "8x0"], "--grid"),
    (["--grid", "0X4"], "--grid: grid dimensions must be >= 1"),  # read as 0x4
    (["--h-max", "0"], "--h-max"),
    # text that is not lo,hi or NExND of plain ASCII numbers
    (["--window", "1"], "--window"),
    (["--window", "1,2,3"], "--window"),
    (["--window=-1,x"], "--window"),
    (["--window=-1_0,1_0"], "--window"),
    (["--grid", "256"], "--grid"),
    (["--grid", "8x4x2"], "--grid"),
    (["--grid", "8xy"], "--grid"),
    (["--grid", "2_56x6_4", "--window=-1_0,1_0"], "--grid"),
    (["--grid", "8x4.0"], "--grid"),
    (["--h-max", "1_0"], "--h-max"),
    # a grid too large: its bin edges over 2**31 bytes, or two rasters' bits over int64
    (["--grid", "1000000000000x4"], "--grid"),
    (["--grid", "4x1180591620717411303424"], "--grid"),
    (["--grid", "2x2305843009213693952"], "--grid"),  # 2**62 bits
])
def test_similarity_bad_flags_exit_two_before_reading(tmp_path, capsys, flags,
                                                      message):
    out = tmp_path / "simout"
    code, stdout, stderr = run_cli(
        capsys, "similarity", "--spectra", str(tmp_path / "missing"),
        "--output-dir", str(out), *flags,
    )
    assert (code, stdout) == (2, "")
    assert message in stderr  # the flag, not the missing input, is reported
    assert stderr.startswith("matscale: ") and stderr.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["estimate", "training", "--steps", "10", "--t-batch", "nan",
      "--t-grad", "0.1"], "--t-batch"),
    (["estimate", "training", "--steps", "10", "--t-batch", "0.1",
      "--t-grad", "inf"], "--t-grad"),
    (["estimate", "nas", "--archs", "10", "--hours", "inf", "--price", "3"],
     "--hours"),
    (["estimate", "nas", "--archs", "10", "--hours", "2", "--price", "nan"],
     "--price"),
    (["estimate", "workflow", "--structures", "1", "--settings", "1",
      "--files-per-run", "1", "--mb-per-run", "inf"], "--mb-per-run"),
    (["complexity", "--sisso", "rung=x,dim=2"], "'rung=x'"),
    (["complexity", "--sisso", "rung=1,dim=2.5"], "'dim=2.5'"),
    # out of range: each names the flag, not the spec field it fills
    (["estimate", "workflow", "--structures", "0", "--settings", "1",
      "--files-per-run", "1", "--mb-per-run", "1"], "--structures"),
    (["estimate", "workflow", "--structures", "1", "--settings", "1",
      "--files-per-run", "1", "--mb-per-run", "1e-7"], "--mb-per-run"),  # 0 bytes
    (["estimate", "workflow", "--structures", "1", "--settings", "1",
      "--files-per-run", "1", "--mb-per-run", "1e303"], "--mb-per-run"),  # inf bytes
    (["estimate", "training", "--steps", "0", "--t-batch", "0.1",
      "--t-grad", "0.1"], "--steps"),
    (["estimate", "nas", "--archs", "-1", "--hours", "2", "--price", "3"], "--archs"),
    # a count too large for a float: named by its flag, not printed
    (["estimate", "training", "--steps", "1" + "0" * 400, "--t-batch", "0.1",
      "--t-grad", "0.1"], "--steps"),
    (["estimate", "nas", "--archs", "1" + "0" * 400, "--hours", "2", "--price", "3"],
     "--archs"),
    (["estimate", "workflow", "--structures", "1" + "0" * 400, "--settings", "1",
      "--files-per-run", "1", "--mb-per-run", "1"], "--structures"),
    (["complexity", "--nn", "2"], "--nn"),
    (["complexity", "--rf", "0"], "--rf"),
    (["complexity", "--sisso", "rung=-1,dim=1"], "--sisso"),
    # text that the file rule does not read: digit separators, non-ASCII digits
    (["curate", "--input", "x", "--seed", "abc"], "--seed"),
    (["curate", "--input", "x", "--seed", "0_7"], "--seed"),
    (["curate", "--input", "x", "--seed", "\uff17"], "--seed"),  # fullwidth 7
    (["estimate", "training", "--steps", "2_000_000", "--t-batch", "0.001",
      "--t-grad", "0.002"], "--steps"),
    (["estimate", "training", "--steps", "10", "--t-batch", "1_0",
      "--t-grad", "0.002"], "--t-batch"),
    (["estimate", "workflow", "--structures", "1.5", "--settings", "1",
      "--files-per-run", "1", "--mb-per-run", "1"], "--structures"),
    (["ce-fit", "--configs", "c", "--clusters", "k", "--group", "g",
      "--max-features", "2_0"], "--max-features"),
    (["ce-fit", "--configs", "c", "--clusters", "k", "--group", "g",
      "--degree", "\u0661,\u0662"], "--degree"),
    (["complexity", "--nn", "2,x"], "--nn"),
    (["complexity", "--nn", "2,3_0"], "--nn"),
    (["complexity", "--rf", "3,"], "--rf"),
    (["complexity", "--sisso", "rung=1"], "--sisso"),
    (["complexity", "--sisso", "rung=1,dim=2,cubic"], "--sisso"),
    (["--threads", "two", "complexity", "--nn", "2,3"], "--threads"),
    # errors that argparse finds itself
    (["curate"], "--input"),
    (["curate", "--input"], "--input"),
    (["curate", "--input", "x", "--no-such-flag"], "--no-such-flag"),
    (["complexity"], "--nn"),
    (["complexity", "--nn", "2,3", "--rf", "3"], "--rf"),
    (["similarity", "--spectra", "s", "--mode", "bitmap"], "--mode"),
    # a workflow count past 2**63 - 1: named by its flag, not printed
    (["estimate", "workflow", "--structures", "1", "--settings", "1",
      "--files-per-run", "1", "--mb-per-run", "1e300"], "--mb-per-run"),
    (["estimate", "workflow", "--structures", "1" + "0" * 30, "--settings", "1",
      "--files-per-run", "1", "--mb-per-run", "1"], "--structures"),
    # an output directory that is a file, or under one (this file)
    (["curate", "--input", __file__, "--output-dir", __file__],
     "--output-dir: [Errno 17] File exists"),
    (["curate", "--input", __file__, "--output-dir", os.path.join(__file__, "x")],
     "--output-dir: [Errno 20] Not a directory"),
])
def test_non_finite_or_non_integer_flags_exit_two(capsys, argv, message):
    code, stdout, stderr = run_cli(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert message in stderr
    assert stderr.startswith("matscale: ") and stderr.count("\n") == 1
    assert len(stderr) < 200


def _fingerprint(**settings):
    from matscale.spectra import Spectrum, fingerprint_set

    spectrum = Spectrum([-2.0, 0.0, 2.0], [0.5, 1.5, 0.5], 0.0)
    return fingerprint_set([spectrum], **{"window": (-1.0, 1.0), **settings})


def _ce_fit(**options):
    import numpy as np

    from matscale.lattice import Cluster, SymmetryGroup
    from matscale.regression import compare_feature_spaces

    configs = np.random.default_rng(0).choice([-1, 1], (40, 6))
    return compare_feature_spaces(configs, configs[:, 0] * configs[:, 1],
                                  [Cluster((0,)), Cluster((1,))], SymmetryGroup.cyclic(6),
                                  **{"degrees": [1, 2], **options})


def _plateau(window, eps):
    from matscale.regression import FitTrace, TracePoint, plateau_detect

    return plateau_detect(FitTrace([TracePoint(0, 1.0, None), TracePoint(1, 0.5, None)]),
                          window, eps)


nan, inf = float("nan"), float("inf")


# Each value that a bad-flag test above rejects, fed to the library function or
# spec that consumes it: the library applies the same rule and names the quantity.
@pytest.mark.parametrize("call, quantity", [
    # test_similarity_bad_flags_exit_two_before_reading
    *[(lambda h=h: _fingerprint(h_max=h), "h_max") for h in (nan, inf, -1.0, 0.0)],
    *[(lambda w=w: _fingerprint(window=w), "window")
      for w in ((-inf, inf), (5.0, 1.0), (nan, 1.0))],
    *[(lambda g=g: _fingerprint(grid=g), "grid")
      for g in ((0, 4), (8, 0), (10**12, 4), (4, 2**70), (2, 2**61))],
    # test_curate_bad_hist_exits_two_before_reading
    (lambda: histogram_edges(0.0, 1.0, 10**12), "nbins"),
    # test_ce_fit_bad_flags_exit_two_before_reading
    *[(lambda t=t: _ce_fit(tol=t), "tol") for t in (nan, -1e-9, inf)],
    *[(lambda e=e: _plateau(2, e), "eps") for e in (nan, -0.1)],
    *[(lambda d=d: _ce_fit(degrees=d), "degree") for d in ([0], [1, -2], [2, -1])],
    (lambda: _ce_fit(max_features=-1), "max_features"),
    (lambda: _plateau(0, 0.0), "window"),
    # the estimate rows of test_non_finite_or_non_integer_flags_exit_two
    (lambda: TrainingSpec(10, nan, 0.1), "t_batch"),
    (lambda: TrainingSpec(10, 0.1, inf), "t_grad"),
    (lambda: NasSpec(10, inf, 3.0), "hours_per_architecture"),
    (lambda: NasSpec(0, inf, 3.0), "hours_per_architecture"),
    (lambda: NasSpec(10, 2.0, nan), "price_per_gpu_hour"),
    (lambda: WorkflowSpec(1, 1, 1, inf), "bytes_per_run"),  # --mb-per-run inf, 1e303
    (lambda: WorkflowSpec(0, 1, 1, 1), "n_structures"),
    (lambda: WorkflowSpec(1, 1, 1, 0), "bytes_per_run"),  # --mb-per-run 1e-7
    (lambda: TrainingSpec(0, 0.1, 0.1), "n_steps"),
    (lambda: NasSpec(-1, 2.0, 3.0), "n_architectures"),
    (lambda: TrainingSpec(10**400, 0.1, 0.1), "n_steps"),
    (lambda: NasSpec(10**400, 2.0, 3.0), "n_architectures"),
    (lambda: WorkflowSpec(10**400, 1, 1, 1), "n_structures"),
    (lambda: WorkflowSpec(-10**400, 1, 1, 1), "n_structures"),
    (lambda: WorkflowSpec(1, 1, 1, round(1e300 * 10**6)), "bytes_per_run"),  # --mb-per-run 1e300
    (lambda: WorkflowSpec(10**30, 1, 1, 1), "n_structures"),
])
def test_the_library_rejects_each_bad_flag_value_by_name(call, quantity):
    with pytest.raises(ValueError, match=f"^{quantity} "):
        call()


def test_stdout_is_strict_json_even_on_overflow(capsys):
    # finite inputs whose product overflows must not print Infinity
    code, stdout, stderr = run_cli(
        capsys, "estimate", "training", "--steps", "10", "--t-batch", "1e308",
        "--t-grad", "1e308",
    )
    assert (code, stdout) == (1, "")
    assert "training time overflows" in stderr


@pytest.mark.parametrize("fmt", ["json", "human"])
@pytest.mark.parametrize("argv, message", [
    (["training", "--steps", "1", "--t-batch", "1e308", "--t-grad", "1e308"],
     "training time"),
    (["nas", "--archs", "2", "--hours", "1e308", "--price", "1"], "GPU hours"),
    (["nas", "--archs", "1", "--hours", "1e308", "--price", "1e308"], "NAS cost"),
])
def test_estimate_overflow_exits_one_naming_the_quantity(capsys, argv, message, fmt):
    # human output must not print "inf" either
    code, stdout, stderr = run_cli(capsys, "estimate", *argv, "--format", fmt)
    assert (code, stdout) == (1, "")
    assert f"{message} overflows" in stderr


def test_importing_the_cli_does_not_load_the_structure_decoder():
    # commands that read no structure table must not pay to compile it
    src = Path(matscale.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = "import sys, matscale.cli; print(sorted(m for m in sys.modules if 'structure_io' in m))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "[]"

