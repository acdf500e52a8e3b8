import json

import numpy as np
import pytest

from matscale import io
from matscale.curation import grouped_split
from matscale.spectra import similarity_matrix, Fingerprint, CalcMetadata


STRUCTURES_CSV = """entry_id,formula,spacegroup,formation_energy,bandgap
s1,Mg2F4,136,-2.5,7.1
s2,BaTiO3,221,-3.1,
s3,Mg2F4,136,-2.4,7.0
"""


def test_read_structures_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(STRUCTURES_CSV)
    entries = io.read_structures(path)
    assert [e.entry_id for e in entries] == ["s1", "s2", "s3"]
    assert entries[0].composition == {"Mg": 2, "F": 4}
    assert entries[0].properties == {"formation_energy": -2.5, "bandgap": 7.1}
    assert "bandgap" not in entries[1].properties  # empty cell -> missing
    assert entries[0].source == "data"


def test_read_structures_json(tmp_path):
    path = tmp_path / "data.json"
    records = [
        {"entry_id": "j1", "formula": "Mg2F4", "spacegroup": 136,
         "properties": {"formation_energy": -2.5}},
        {"entry_id": "j2", "composition": {"Ba": 1, "Ti": 1, "O": 3},
         "spacegroup": 221, "source": "MP"},
    ]
    path.write_text(json.dumps(records))
    entries = io.read_structures(path)
    assert entries[0].composition == {"Mg": 2, "F": 4}
    assert entries[1].composition == {"Ba": 1, "Ti": 1, "O": 3}
    assert entries[1].source == "MP"


def test_duplicate_entry_ids_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("entry_id,formula,spacegroup\nx,H1,1\nx,H2,1\n")
    with pytest.raises(ValueError, match="duplicate"):
        io.read_structures(path)


def test_split_csv_round_trip(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text(STRUCTURES_CSV)
    entries = io.read_structures(path)
    split = grouped_split(entries, (1.0, 0.0, 0.0), seed=0)
    out = tmp_path / "split.csv"
    io.write_split_csv(out, entries, split)
    lines = out.read_text().splitlines()
    assert lines[0] == "entry_id,structure_id,split"
    assert lines[1] == "s1,Mg2F4_136,train"
    assert len(lines) == 4


def test_spectra_dir_round_trip(tmp_path):
    sdir = tmp_path / "spectra"
    sdir.mkdir()
    (sdir / "calc_a.csv").write_text("energy,dos\n-1.0,0.0\n0.0,2.0\n1.0,0.0\n")
    (sdir / "calc_a.json").write_text(json.dumps({
        "fermi_energy": 0.0, "xc": "LDA", "n_kpt": 4, "n_basis": 40,
        "settings_tier": "light", "relativistic": "ZORA",
    }))
    items = io.read_spectra_dir(sdir)
    assert len(items) == 1
    spectrum, metadata = items[0]
    assert spectrum.dos.tolist() == [0.0, 2.0, 0.0]
    assert metadata.xc == "LDA"


def test_spectra_dir_requires_sidecar(tmp_path):
    sdir = tmp_path / "spectra"
    sdir.mkdir()
    (sdir / "calc.csv").write_text("0.0,1.0\n1.0,1.0\n")
    with pytest.raises(ValueError, match="sidecar"):
        io.read_spectra_dir(sdir)


def test_matrix_outputs(tmp_path):
    fp = Fingerprint(window=(-10.0, 10.0), grid=(2, 1), mode="vector",
                     data=np.array([1.0, 0.0]))
    md = CalcMetadata("LDA", 2, 10, "light", "ZORA")
    m = similarity_matrix([(fp, md), (fp, md)])
    csv_path = tmp_path / "matrix.csv"
    manifest_path = tmp_path / "manifest.json"
    io.write_matrix(csv_path, manifest_path, m)
    rows = [line.split(",") for line in csv_path.read_text().splitlines()]
    assert [[float(v) for v in row] for row in rows] == [[1.0, 1.0], [1.0, 1.0]]
    manifest = json.loads(manifest_path.read_text())
    assert manifest["n"] == 2
    assert manifest["ordering"] == [0, 1]
    assert manifest["labels"][0]["xc"] == "LDA"


def test_ce_configs_round_trip(tmp_path):
    path = tmp_path / "configs.csv"
    path.write_text(
        "entry_id,occupations,target\n"
        'c1,1 -1 1,0.5\n'
        'c2,-1 -1 1,1.5\n'
    )
    ids, occupations, targets = io.read_ce_configs(path)
    assert ids == ["c1", "c2"]
    assert occupations.tolist() == [[1, -1, 1], [-1, -1, 1]]
    assert targets.tolist() == [0.5, 1.5]


def test_ce_configs_inconsistent_lengths_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("entry_id,occupations,target\nc1,1 -1,0\nc2,1,0\n")
    with pytest.raises(ValueError, match="inconsistent"):
        io.read_ce_configs(path)


@pytest.mark.parametrize("row, message", [
    ("c2,1 -1 1", "line 3: expected 3 columns"),           # target missing
    ("c2", "line 3: expected 3 columns"),
    ("c2,1 x 1,0.5", "line 3: bad occupations or target"),
    ("c2,1 -1 1,high", "line 3: bad occupations or target"),
])
def test_ce_configs_bad_row_names_file_and_line(tmp_path, row, message):
    path = tmp_path / "configs.csv"
    path.write_text(f"entry_id,occupations,target\nc1,1 -1 1,0.5\n{row}\n")
    with pytest.raises(ValueError, match=message) as exc:
        io.read_ce_configs(path)
    assert str(exc.value).startswith(f"{path}: ")


def test_index_lists(tmp_path):
    path = tmp_path / "clusters.json"
    path.write_text("[[], [0], [0, 1]]")
    assert io.read_index_lists(path) == [[], [0], [0, 1]]


@pytest.mark.parametrize("text, message", [
    ("[[0, 1, 2, 3], 1]", "entry 1 is not a list of integers"),
    ('[[0], [1, "2"]]', "entry 1 is not a list of integers"),
    ("[[0.5]]", "entry 0 is not a list of integers"),
    ("[[true]]", "entry 0 is not a list of integers"),
    ("[[0], null]", "entry 1 is not a list of integers"),
    ("[[0], [1]", "invalid JSON"),
    ('{"0": [0]}', "expected a JSON list"),
])
def test_index_lists_bad_entry_names_file(tmp_path, text, message):
    path = tmp_path / "group.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=message) as exc:
        io.read_index_lists(path)
    assert str(exc.value).startswith(f"{path}: ")


def test_atomic_write_replaces_whole_file(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old")
    io.atomic_write_text(target, "new contents")
    assert target.read_text() == "new contents"
    assert list(tmp_path.iterdir()) == [target]  # no stray temp files
