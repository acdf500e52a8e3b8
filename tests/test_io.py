import csv
import json
import os
import re
import stat
import tempfile
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matscale import curation, io
from matscale.curation import Structure, grouped_split, parse_formula
from matscale.spectra import similarity_matrix, Fingerprint, CalcMetadata, SimilarityMatrix


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


@pytest.mark.parametrize("reader, text, expected", [
    ("structures", "\ufeff" + STRUCTURES_CSV, ["s1", "s2", "s3"]),
    ("spectrum", "\ufeff-1.0,0.5\n0.0,1.0\n1.0,2.0\n", [-1.0, 0.0, 1.0]),
    ("spectrum", "\ufeffenergy,dos\n0.0,1.0\n1.0,2.0\n", [0.0, 1.0]),
    ("structures json", '\ufeff[{"entry_id": "j1", "formula": "MgF2", "spacegroup": 12}]',
     ["j1"]),
    ("index lists", "\ufeff[[], [0], [0, 1]]", [[], [0], [0, 1]]),
    ("sidecar", '\ufeff{"fermi_energy": 0.5, "xc": "LDA", "n_kpt": 4, "n_basis": 40, '
     '"settings_tier": "light", "relativistic": "ZORA"}', (0.5, "LDA")),
])
def test_leading_byte_order_mark_is_skipped(tmp_path, reader, text, expected):
    path = tmp_path / ("t.csv" if reader in ("structures", "spectrum") else "t.json")
    path.write_bytes(text.encode())
    if reader.startswith("structures"):
        assert [e.entry_id for e in io.read_structures(path)] == expected
    elif reader == "spectrum":
        assert io._read_two_column_csv(path)[0].tolist() == expected
    elif reader == "index lists":
        assert io.read_index_lists(path) == expected
    else:
        fermi_energy, metadata = io._read_sidecar(path)
        assert (fermi_energy, metadata.xc) == expected


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


# cells csv.writer writes as they are, and cells it quotes (which of them differs
# across Python versions) or rejects before Python 3.11 (NUL)
_plain_chars = ["\u00e9", "\u2028", "a", "7", " "]
_plain_id = st.text(st.sampled_from(_plain_chars), max_size=4)
_any_id = st.text(st.sampled_from(_plain_chars + [",", '"', "\r", "\n", "\0"]), max_size=4)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), ids=st.one_of(st.lists(_plain_id, min_size=1, max_size=6),
                                     st.lists(_any_id, min_size=1, max_size=6)))
def test_split_writer_writes_the_bytes_csv_writer_writes(data, ids):
    formulas = st.sampled_from([{"Mg": 2, "F": 4}, {"Ba": 1, "Ti": 1, "O": 3}, {"H": 1}])
    entries = [Structure(eid, data.draw(formulas), data.draw(st.integers(1, 230)))
               for eid in ids]
    split = curation.SplitAssignment(
        {eid: data.draw(st.sampled_from(curation.SPLIT_NAMES)) for eid in ids},
        seed=0, fractions=(0.8, 0.1, 0.1))
    rows = [(e.entry_id, e.identity, split.assignment[e.entry_id]) for e in entries]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "split.csv"
        try:
            buf = StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["entry_id", "structure_id", "split"])
            writer.writerows(rows)
        except csv.Error:  # NUL before Python 3.11
            with pytest.raises(csv.Error):
                io.write_split_csv(path, entries, split)
            return
        io.write_split_csv(path, entries, split)
        assert path.read_bytes() == buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("n", [2**14 - 1, 2**14])  # with the header: one block, and one more
def test_split_writer_joins_lines_across_blocks(tmp_path, n):
    entries = curation.StructureTable.of([Structure(f"e{k}", {"H": 1}, 1 + k % 230)
                                          for k in range(n)])
    split = grouped_split(entries, (0.8, 0.1, 0.1), seed=1)
    path = tmp_path / "split.csv"
    io.write_split_csv(path, entries, split)
    buf = StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [("entry_id", "structure_id", "split")]
        + [(e, i, split.assignment[e]) for e, i in zip(entries.entry_ids, entries.identities)])
    assert path.read_bytes() == buf.getvalue().encode("utf-8")


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
    ("c2,1 -1 1,0.5\udcff", "can't decode byte 0xff"),
    ("c2,1 -1 1," + "1" * 200_000, "field larger than field limit"),
    ("c2,1 -1 1,1_5", "line 3: bad occupations or target"),       # float reads 15.0
    ("c2,\u0661 -1 1,0.5", "line 3: bad occupations or target"),  # int reads Arabic-Indic 1
    ("c2,1 -1 1,nan", "line 3: bad occupations or target"),
    ("c2,2 -1,0.5", "line 3: bad occupations or target"),         # not +/-1
    ("c2,0 1,0.5", "line 3: bad occupations or target"),
])
def test_ce_configs_bad_row_names_file_and_line(tmp_path, row, message):
    path = tmp_path / "configs.csv"
    # surrogateescape writes "\udcff" as the undecodable byte 0xff
    path.write_text(f"entry_id,occupations,target\nc1,1 -1 1,0.5\n{row}\n",
                    encoding="utf-8", errors="surrogateescape")
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
    ("[[0]]\udcff", "can't decode byte 0xff"),
    ("[" * 200_000, "invalid JSON: nesting too deep"),
])
def test_index_lists_bad_entry_names_file(tmp_path, text, message):
    path = tmp_path / "group.json"
    path.write_text(text, errors="surrogateescape")
    with pytest.raises(ValueError, match=message) as exc:
        io.read_index_lists(path)
    assert str(exc.value).startswith(f"{path}: ")


def test_atomic_write_replaces_whole_file(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old")
    io.atomic_write_text(target, "new contents")
    assert target.read_text() == "new contents"
    assert list(tmp_path.iterdir()) == [target]  # no stray temp files


@pytest.mark.parametrize("umask, existing, mode", [
    (0o022, None, 0o644), (0o077, None, 0o600), (0o022, 0o640, 0o640), (0o077, 0o664, 0o664),
])
def test_atomic_write_leaves_the_mode_that_open_leaves(tmp_path, umask, existing, mode):
    # open(path, "w") gives a new file 0o666 less the umask and keeps an old file's bits
    target = tmp_path / "out.txt"
    if existing is not None:
        target.write_text("old")
        target.chmod(existing)
    old_umask = os.umask(umask)
    try:
        io.atomic_write_text(target, "new contents")
    finally:
        os.umask(old_umask)
    assert stat.S_IMODE(target.stat().st_mode) == mode
    assert list(tmp_path.iterdir()) == [target]


def test_atomic_write_takes_lines_and_cleans_up_on_error(tmp_path):
    target = tmp_path / "out.txt"
    io.atomic_write_text(target, (f"{k}\n" for k in range(3)))
    assert target.read_text() == "0\n1\n2\n"

    def failing():
        yield "partial\n"
        raise RuntimeError("formatting failed")

    with pytest.raises(RuntimeError, match="formatting failed"):
        io.atomic_write_text(target, failing())
    assert target.read_text() == "0\n1\n2\n"  # the old file stays whole
    assert list(tmp_path.iterdir()) == [target]


# --- structure rows: one decoder, errors name the file and the row ----------

HEADER = "entry_id,formula,spacegroup,bandgap\n"


@pytest.mark.parametrize("name, text, row, message", [
    # JSON null spacegroup
    ("t.json", '[{"entry_id": "a", "formula": "MgF2", "spacegroup": null}]',
     1, "no value for 'spacegroup'"),
    # CSV rows shorter and longer than the header
    ("t.csv", "entry_id,formula,spacegroup\na,MgF2\n", 1, "no value for 'spacegroup'"),
    ("t.csv", HEADER + "a,MgF2,12\n", 1, "property 'bandgap' must be a number, got None"),
    ("t.csv", HEADER + "a,MgF2,12,1.0\nb,MgF2,12,1.0,7,8\n", 2,
     "2 more field(s) than the header"),
    # a missing required key
    ("t.json", '[{"formula": "MgF2", "spacegroup": 12}]', 1, "no value for 'entry_id'"),
    ("t.json", '[{"entry_id": "a", "spacegroup": 12}]', 1, "no value for 'formula'"),
    ("t.json", '[{"entry_id": "a", "formula": "MgF2"}]', 1, "no value for 'spacegroup'"),
    # a spacegroup that is not an integer
    ("t.csv", HEADER + "a,MgF2,x,1.0\n", 1, "spacegroup must be an integer, got 'x'"),
    ("t.json", '[{"entry_id": "a", "formula": "MgF2", "spacegroup": "x"}]',
     1, "spacegroup must be an integer, got 'x'"),
    ("t.csv", HEADER + "a,MgF2,12.7,1.0\n", 1, "spacegroup must be an integer, got '12.7'"),
    ("t.json", '[{"entry_id": "a", "formula": "MgF2", "spacegroup": 12.7}]',
     1, "spacegroup must be an integer, got 12.7"),
    ("t.json", '[{"entry_id": "a", "formula": "MgF2", "spacegroup": true}]',
     1, "spacegroup must be an integer, got True"),
    # non-integral or boolean composition counts
    ("t.json", '[{"entry_id": "a", "composition": {"Mg": 2.5, "F": 1}, "spacegroup": 12}]',
     1, "count of 'Mg' must be an integer, got 2.5"),
    ("t.json", '[{"entry_id": "a", "composition": {"Mg": 2, "F": true}, "spacegroup": 12}]',
     1, "count of 'F' must be an integer, got True"),
    # a property value that is not a number
    ("t.csv", HEADER + "a,MgF2,12,high\n", 1, "property 'bandgap' must be a number, got 'high'"),
    ("t.json", '[{"entry_id": "a", "formula": "MgF2", "spacegroup": 12, '
     '"properties": {"bandgap": "high"}}]', 1, "property 'bandgap' must be a number"),
    ("t.json", '[{"entry_id": "a", "formula": "MgF2", "spacegroup": 12, '
     '"properties": {"bandgap": true}}]', 1, "property 'bandgap' must be a number"),
    # a non-finite property value
    ("t.csv", HEADER + "a,MgF2,12,nan\n", 1, "property 'bandgap' must be finite"),
    ("t.csv", HEADER + "a,MgF2,12,-inf\n", 1, "property 'bandgap' must be finite"),
    ("t.json", '[{"entry_id": "a", "formula": "MgF2", "spacegroup": 12, '
     '"properties": {"bandgap": 1e400}}]', 1, "property 'bandgap' must be finite"),
    # other shapes a row can take
    ("t.json", '[{"entry_id": "a", "formula": "MgF2", "spacegroup": 12}, 5]',
     2, "expected an object"),
    ("t.json", '[{"entry_id": 5, "formula": "MgF2", "spacegroup": 12}]',
     1, "entry_id must be a string"),
    ("t.json", '[{"entry_id": "a", "formula": 5, "spacegroup": 12}]',
     1, "cannot parse formula string: 5"),
    ("t.csv", HEADER + "a,MgF2,12,1\na,MgF2,12,1\n", 2, "duplicate entry_id 'a'"),
    # several bad cells: the first bad row wins, then the first check of that row
    ("t.csv", HEADER + "a,MgF2,12,1\nb,Xx2,0,high\nc,Mg0,x,1\n", 2, "unknown element symbol: 'Xx'"),
    ("t.csv", HEADER + "a,MgF2,x,high\n", 1, "spacegroup must be an integer, got 'x'"),
    ("t.csv", HEADER + "a,MgF2,0,high\n", 1, "property 'bandgap' must be a number, got 'high'"),
    ("t.csv", HEADER + "a,MgF2,0,nan\n", 1, "spacegroup must be an integer in [1, 230], got 0"),
    ("t.csv", HEADER + 'a,"Mg\nF",12,1\n', 1, "cannot parse formula string: 'Mg\\nF'"),
    ("t.json", '[{"entry_id": "a", "formula": "MgF2", "spacegroup": 12, '
     '"properties": {"gap": 1.0, "e": 2.0}}, {"entry_id": "b", "formula": "MgF2", '
     '"spacegroup": 12, "properties": {"e": "x", "gap": "y"}}]', 2,
     "property 'e' must be a number, got 'x'"),
    ("t.json", '[{"entry_id": "a", "composition": {"Xx": 1}, "spacegroup": 0}]', 1,
     "unknown element symbol: 'Xx'"),
    ("t.json", '[{"entry_id": "a", "composition": {"Xx": 1}, "spacegroup": 12, '
     '"properties": {"e": "x"}}]', 1, "property 'e' must be a number, got 'x'"),
    # an empty string is a CSV's missing cell, but a bad JSON value
    ("t.json", '[{"entry_id": "a", "formula": "MgF2", "spacegroup": 12, '
     '"properties": {"e": ""}}]', 1, "property 'e' must be a number, got ''"),
    # digit separators and non-ASCII digits, which int() and float() would read
    ("t.csv", HEADER + "a,MgF2,12,1\nb,MgF2,1_36,1\n", 2,
     "spacegroup must be an integer, got '1_36'"),
    ("t.csv", HEADER + "a,MgF2,\u0661\u0663\u0666,1\n", 1,
     "spacegroup must be an integer, got '\u0661\u0663\u0666'"),
    ("t.json", '[{"entry_id": "a", "formula": "MgF2", "spacegroup": "1_36"}]', 1,
     "spacegroup must be an integer, got '1_36'"),
    ("t.json", '[{"entry_id": "a", "composition": {"Mg": "1_0", "F": 2}, "spacegroup": 12}]',
     1, "count of 'Mg' must be an integer, got '1_0'"),
    ("t.csv", HEADER + "a,MgF2,12,1\nb,MgF2,12,1_0.5\n", 2,
     "property 'bandgap' must be a number, got '1_0.5'"),
    ("t.csv", HEADER + "a,MgF2,12,\u0661.5\n", 1,
     "property 'bandgap' must be a number, got '\u0661.5'"),
    ("t.json", '[{"entry_id": "a", "formula": "MgF2", "spacegroup": 12, '
     '"properties": {"e": 1.5}}, {"entry_id": "b", "formula": "MgF2", "spacegroup": 12, '
     '"properties": {"e": "1_0.5"}}]', 2, "property 'e' must be a number, got '1_0.5'"),
    # a JSON source is a string; only null and "" take the file stem
    ("t.json", '[{"entry_id": "a", "formula": "MgF2", "spacegroup": 12, "source": 5}]', 1,
     "source must be a string, got 5"),
    ("t.json", '[{"entry_id": "a", "formula": "MgF2", "spacegroup": 12, "source": "MP"}, '
     '{"entry_id": "b", "formula": "MgF2", "spacegroup": 12, "source": 0}]', 2,
     "source must be a string, got 0"),
    ("t.json", '[{"entry_id": "a", "formula": "MgF2", "spacegroup": 12, "source": false}]', 1,
     "source must be a string, got False"),
    ("t.json", '[{"entry_id": "a", "formula": "MgF2", "spacegroup": 12, "source": []}]', 1,
     "source must be a string, got []"),
])
def test_bad_structure_row_names_file_and_row(tmp_path, name, text, row, message):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        io.read_structures(path)
    assert str(exc.value).startswith(f"{path}: row {row}: ")
    assert message in str(exc.value)


@pytest.mark.parametrize("name, text, message", [
    ("t.json", "[{", "invalid JSON"),
    ("t.json", '{"entry_id": "a"}', "expected a JSON array"),
    ("t.json", "[]", "no data rows"),
    ("t.csv", "entry_id,formula,spacegroup,x,x\n", "duplicate column names"),
    ("t.csv", b"entry_id,formula,spacegroup\na,MgF2,\xff\n", "can't decode"),
    ("t.json", b'[{"entry_id": "a"}]\xff', "can't decode"),
    ("t.csv", "entry_id,formula,spacegroup\na,MgF2," + "1" * 200_000 + "\n",
     "field larger than field limit"),
    ("t.json", "[" * 200_000, "invalid JSON: nesting too deep"),
])
def test_bad_structure_file_names_file(tmp_path, name, text, message):
    path = tmp_path / name
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(ValueError, match=message) as exc:
        io.read_structures(path)
    assert str(exc.value).startswith(f"{path}: ")


def _seed_structures_from_csv(path):
    """The reader before the shared row decoder; an oracle for valid input."""
    entries = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        prop_cols = [c for c in reader.fieldnames
                     if c not in {"entry_id", "formula", "spacegroup", "source"}]
        for row in reader:
            props = {c: float(row[c]) for c in prop_cols if row[c] not in (None, "")}
            entries.append(Structure(
                entry_id=row["entry_id"],
                composition=parse_formula(row["formula"]),
                spacegroup=int(row["spacegroup"]),
                properties=props,
                source=row.get("source") or path.stem,
            ))
    return entries


def _seed_structures_from_json(path):
    """The JSON reader before the shared row decoder; an oracle for valid input."""
    entries = []
    for rec in json.loads(path.read_text()):
        if "composition" in rec:
            composition = {str(k): int(v) for k, v in rec["composition"].items()}
        else:
            composition = parse_formula(rec["formula"])
        entries.append(Structure(
            entry_id=rec["entry_id"],
            composition=composition,
            spacegroup=int(rec["spacegroup"]),
            properties={k: float(v) for k, v in rec.get("properties", {}).items()},
            source=rec.get("source") or path.stem,
        ))
    return entries


_finite = st.floats(allow_nan=False, allow_infinity=False)
_row = st.tuples(
    st.dictionaries(st.sampled_from(["H", "O", "Mg", "F", "Ba", "Ti", "Kr"]),
                    st.integers(1, 12), min_size=1, max_size=4),
    st.integers(1, 230),
    st.dictionaries(st.sampled_from(["e_form", "gap"]), _finite, max_size=2),
    st.sampled_from([None, "MP", "OQMD"]),
    st.booleans(),  # JSON form: composition map (True) or formula string
)


def _formula(composition):
    return "".join(f"{sym}{n}" for sym, n in composition.items())


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(_row, min_size=1, max_size=8))
def test_csv_and_json_forms_decode_to_equal_structures(rows):
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, json_path = Path(tmp) / "t.csv", Path(tmp) / "t.json"
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["entry_id", "formula", "spacegroup", "source", "e_form", "gap"])
            for k, (comp, sg, props, source, _) in enumerate(rows):
                writer.writerow([f"r{k}", _formula(comp), sg, source or "",
                                 *(repr(props[c]) if c in props else ""
                                   for c in ("e_form", "gap"))])
        records = []
        for k, (comp, sg, props, source, as_map) in enumerate(rows):
            rec = {"entry_id": f"r{k}", "spacegroup": sg, "properties": props}
            rec.update({"composition": comp} if as_map else {"formula": _formula(comp)})
            if source is not None:
                rec["source"] = source
            records.append(rec)
        json_path.write_text(json.dumps(records))

        from_csv = io.read_structures(csv_path)
        assert from_csv == io.read_structures(json_path)
        assert from_csv == _seed_structures_from_csv(csv_path)
        assert from_csv == _seed_structures_from_json(json_path)


@pytest.mark.parametrize("formulas_b, scalar", [
    # clean formulas, in any token order: no scalar canonical_formula call
    (["F4Mg2", "KCl"], []),
    # a repeated symbol or a leading-zero count: one call per distinct string
    (["H2OH", "Mg01F2", "H2OH", "F4Mg2", "Mg0001", "OHH"], ["H2OH", "Mg01F2", "Mg0001", "OHH"]),
])
def test_curate_path_makes_scalar_calls_only_for_unclean_formulas(tmp_path, monkeypatch,
                                                                  formulas_b, scalar):
    # a has Mg2F4 (twice) and BaTiO3; every b has F4Mg2, the composition of Mg2F4
    calls = []
    original = curation.canonical_formula
    monkeypatch.setattr(curation, "canonical_formula",
                        lambda comp: calls.append(comp) or original(comp))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text(STRUCTURES_CSV)
    b.write_text("entry_id,formula,spacegroup\n"
                 + "".join(f"b{k},{f},136\n" for k, f in enumerate(formulas_b)))
    entries_a, entries_b = io.read_structures(a), io.read_structures(b)
    _, _, shared = curation.dataset_overlap(entries_a, entries_b)
    for path, entries in ((a, entries_a), (b, entries_b)):
        split = grouped_split(entries, (0.5, 0.25, 0.25), seed=3, shared_ids=shared)
        io.write_split_csv(tmp_path / f"{path.stem}_split.csv", entries, split)
    assert shared == {"Mg2F4_136"}
    assert calls == [parse_formula(f) for f in scalar]
    assert entries_b.identities == tuple(
        f"{original(parse_formula(f))}_136" for f in formulas_b)


# --- the per-row structure decoder, kept as the oracle of the columnar one ---

def _oracle_read_structures(path):
    """read_structures as it was: one _structure_from_row call per row."""
    path = Path(path)
    rows = _oracle_json_rows(path) if path.suffix == ".json" else _oracle_csv_rows(path)
    entries, seen = [], set()
    for k, row in enumerate(rows, 1):
        try:
            entry = _structure_from_row(row, path.stem)
            if entry.entry_id in seen:
                raise ValueError(f"duplicate entry_id {entry.entry_id!r}")
        except ValueError as exc:
            raise ValueError(f"{path}: row {k}: {exc}") from None
        seen.add(entry.entry_id)
        entries.append(entry)
    if not entries:
        raise ValueError(f"{path}: no data rows")
    return entries


def _oracle_csv_rows(path):
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        prop_cols = [c for c in reader.fieldnames
                     if c not in {"entry_id", "formula", "spacegroup", "source"}]
        for row in reader:
            row["properties"] = {c: v for c in prop_cols if (v := row.pop(c)) != ""}
            yield row


def _oracle_json_rows(path):
    return json.loads(path.read_text())


def _structure_from_row(row, default_source):
    if not isinstance(row, dict):
        raise ValueError(f"expected an object, got {row!r}")
    if None in row:  # csv.DictReader files fields beyond the header under None
        raise ValueError(f"{len(row[None])} more field(s) than the header")
    entry_id = _required(row, "entry_id")
    if not isinstance(entry_id, str):
        raise ValueError(f"entry_id must be a string, got {entry_id!r}")
    if "composition" in row:
        counts = row["composition"]
        if not isinstance(counts, dict):
            raise ValueError(f"composition must be an object, got {counts!r}")
        composition = {sym: _integer(n, f"count of {sym!r}") for sym, n in counts.items()}
    else:
        composition = parse_formula(_required(row, "formula"))
    props = row.get("properties", {})
    if not isinstance(props, dict):
        raise ValueError(f"properties must be an object, got {props!r}")
    spacegroup = _integer(_required(row, "spacegroup"), "spacegroup")
    properties = {name: _number(v, f"property {name!r}") for name, v in props.items()}
    source = row.get("source")
    if source in (None, ""):
        source = default_source
    elif not isinstance(source, str):
        raise ValueError(f"source must be a string, got {source!r}")
    return Structure(entry_id=entry_id, composition=composition, spacegroup=spacegroup,
                     properties=properties, source=source)


def _required(row, key):
    value = row.get(key)
    if value is None:
        raise ValueError(f"no value for {key!r}")
    return value


def _integer(value, what):
    if isinstance(value, str):
        try:
            if value.isascii() and "_" not in value:  # not "1_36" or "\u0661\u0663\u0666"
                return int(value)
        except ValueError:
            pass
    elif isinstance(value, float) and value.is_integer():
        return int(value)
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _number(value, what):
    if not (isinstance(value, bool)
            or isinstance(value, str) and not (value.isascii() and "_" not in value)):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"{what} must be a number, got {value!r}")


def _decoded(read, path):
    """Structures, identities and property values, or the error message."""
    try:
        entries = read(path)
    except ValueError as exc:
        return str(exc)
    table = curation.StructureTable.of(entries)
    properties = {name: [None if np.isnan(v) else v for v in column.tolist()]
                  for name, column in table.properties.items()}
    return (list(entries), list(table.identities),
            {name: column for name, column in properties.items() if any(v is not None for v in column)})


def _read_table(path):
    table = io.read_structures(path)
    assert isinstance(table, curation.StructureTable)
    return table


_SYMBOLS = ["H", "O", "Mg", "F", "Ba", "Ti", "Kr", "He"]
_tokens = st.lists(st.tuples(st.sampled_from(_SYMBOLS), st.integers(1, 12), st.booleans()),
                   min_size=1, max_size=4)
_good_formula = _tokens.map(lambda ts: "".join(s + ("" if n == 1 and bare else str(n))
                                               for s, n, bare in ts))
_bad_formula = st.sampled_from(["", "Xx2", "Mg0", "2Mg", "mg", "Mg2F4 ", "Mg\nF", "H0H1",
                                "Mg2Xx1Qq1", "Qq1Xx1", "Mg" + "9" * 5000, "Mg-1"])
_sg_text = st.integers(1, 230).map(str)
_prop_text = st.one_of(st.floats(-1e6, 1e6).map(repr), st.just(""))
_odd_prop_text = st.sampled_from(["high", "nan", "inf", "-inf", "1e400", " 1.5", "1_0",
                                  "\u0661.5", "\u0661\u0662"])
_ids = st.integers(0, 9).map(lambda i: f"e{i}")  # repeats make duplicate entry_ids
_source = st.sampled_from(["", "MP"])
# a row is clean, or wild: any field may be bad, and several may be
_csv_row = st.one_of(
    st.tuples(_ids, _good_formula, _sg_text, _prop_text, _prop_text, _source, st.just(0)),
    st.tuples(
        _ids,
        st.one_of(_good_formula, _good_formula, _bad_formula),
        st.one_of(_sg_text, st.sampled_from(["0", "231", "-3", "x", "12.7", " 12", "1_2",
                                             "\u0661\u0662", ""])),
        st.one_of(_prop_text, _odd_prop_text),
        st.one_of(_prop_text, _odd_prop_text),
        _source,
        # extra fields (> 0) or missing cells (< 0)
        st.sampled_from([0, 0, 0, 0, 1, 2, -1, -3]),
    ),
)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(_csv_row, max_size=8), with_source=st.booleans(),
       blank_line=st.booleans())
def test_columnar_decoder_matches_row_decoder_on_csv(rows, with_source, blank_line):
    header = ["entry_id", "formula", "spacegroup", "e_form", "gap"] + (["source"] if with_source else [])
    lines = []
    for entry_id, formula, sg, e_form, gap, source, shape in rows:
        cells = [entry_id, formula, sg, e_form, gap] + ([source] if with_source else [])
        cells = cells + ["7"] * shape if shape > 0 else cells[:len(cells) + shape]
        lines.append(cells)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for k, cells in enumerate(lines):
                if blank_line and k == 1:
                    fh.write("\n")
                writer.writerow(cells)
        assert _decoded(_read_table, path) == _decoded(_oracle_read_structures, path)


@pytest.mark.parametrize("cell", ["", " 1.5", "1.5 ", "-0.0", "5e-324", "1e400", "-1e400",
                                  "inf", "-inf", "nan", "NaN", "1_0", "\u0661\u0662",
                                  "\u0661.5", "high"])
def test_property_cell_decodes_as_the_row_decoder_does(tmp_path, cell):
    # in a column that also holds a missing cell and a plain one
    path = tmp_path / "t.csv"
    path.write_text("entry_id,formula,spacegroup,gap\n"
                    f"a,MgF2,12,\nb,MgF2,12,{cell}\nc,KCl,225,2.5\n", encoding="utf-8")
    expected = _decoded(_oracle_read_structures, path)
    assert _decoded(_read_table, path) == expected
    if not isinstance(expected, str):  # the column's bits, NaN included
        oracle = curation.StructureTable.of(_oracle_read_structures(path))
        assert (io.read_structures(path).properties["gap"].tobytes()
                == oracle.properties["gap"].tobytes())


_missing = object()


def _record(values):
    return st.fixed_dictionaries(values).map(
        lambda rec: {k: v for k, v in rec.items() if v is not _missing})


_clean_properties = st.dictionaries(st.sampled_from(["e_form", "gap", "u"]),
                                    st.floats(-1e6, 1e6), max_size=3)
_clean_record = _record({
    "entry_id": _ids,
    "formula": _good_formula,
    "composition": st.one_of(st.just(_missing), st.dictionaries(
        st.sampled_from(_SYMBOLS), st.integers(1, 9), min_size=1, max_size=4)),
    "spacegroup": st.integers(1, 230),
    "properties": st.one_of(st.just(_missing), _clean_properties),
    "source": st.sampled_from([_missing, None, "", "MP"]),
})
_count = st.one_of(st.integers(1, 9),
                   st.sampled_from([2.0, "2", "1_0", 2.5, True, 0, -1, None, [1]]))
_wild_record = _record({
    "entry_id": st.one_of(_ids, st.sampled_from([_missing, None, 5, ["e1"]])),
    "formula": st.one_of(_good_formula, _good_formula, _bad_formula,
                         st.sampled_from([_missing, None, 5, ["Mg"]])),
    "composition": st.one_of(
        st.just(_missing),
        st.dictionaries(st.sampled_from(_SYMBOLS + ["Xx", "mg"]), _count, max_size=3),
        st.sampled_from([5, None, "Mg2", []])),
    "spacegroup": st.one_of(st.integers(1, 230), st.sampled_from(
        [_missing, None, 12.0, 12.7, True, "12", "x", "1_2", 0, 231, float("inf"), [12]])),
    "properties": st.one_of(
        st.just(_missing),
        st.dictionaries(st.sampled_from(["e_form", "gap", "u"]),
                        st.one_of(st.floats(-1e6, 1e6), st.sampled_from(
                            [None, True, "1.5", "high", "1_0.5", [1.0], float("nan"), float("inf"),
                             10**400])),
                        max_size=3),
        st.sampled_from([5, None, []])),
    "source": st.sampled_from([_missing, None, "", "MP", 5, 0, False, []]),
})
_json_record = st.one_of(_clean_record, _clean_record, _clean_record, _wild_record,
                         st.sampled_from([5, "x", None, []]))


@settings(max_examples=300, deadline=None)
@given(records=st.lists(_json_record, max_size=8))
def test_columnar_decoder_matches_row_decoder_on_json(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.json"
        path.write_text(json.dumps(records))
        assert _decoded(_read_table, path) == _decoded(_oracle_read_structures, path)


_CLEAN_JSON = ('[{"entry_id": "a", "composition": {"Mg": 1, "F": 2}, "spacegroup": 12}, '
               '{"entry_id": "b", "formula": "BaTiO3", "spacegroup": 221, '
               '"properties": {"gap": 1.5}}]')


@pytest.mark.parametrize("name, clean, text", [
    # a JSON spacegroup 12.0
    ("t.json", _CLEAN_JSON, _CLEAN_JSON.replace('"spacegroup": 12}', '"spacegroup": 12.0}')),
    # JSON composition counts 2.0 and "2"
    ("t.json", _CLEAN_JSON, _CLEAN_JSON.replace('"F": 2', '"F": 2.0')),
    ("t.json", _CLEAN_JSON, _CLEAN_JSON.replace('"F": 2', '"F": "2"')),
    # a CSV row that lacks only its trailing source cell
    ("t.csv", "entry_id,formula,spacegroup,gap,source\na,MgF2,12,,\nb,BaTiO3,221,1.5,MP\n",
     "entry_id,formula,spacegroup,gap,source\na,MgF2,12,\nb,BaTiO3,221,1.5,MP\n"),
])
def test_valid_file_only_the_row_path_takes(tmp_path, monkeypatch, name, clean, text):
    from matscale import structure_io

    rows = []
    decode = structure_io._structure_from_row
    monkeypatch.setattr(structure_io, "_structure_from_row",
                        lambda row, source: rows.append(row) or decode(row, source))
    (tmp_path / "clean").mkdir()  # the same file name, so the same default source
    clean_path, path = tmp_path / "clean" / name, tmp_path / name
    clean_path.write_text(clean)
    path.write_text(text)
    expected = io.read_structures(clean_path)
    # the column pass took the clean CSV; a JSON array is decoded row by row
    assert rows == ([] if name == "t.csv" else json.loads(clean))
    rows.clear()
    table = io.read_structures(path)
    assert len(rows) == 2  # the row path decoded the other
    assert isinstance(table, curation.StructureTable)
    assert table == expected
    assert table.identities == expected.identities


def test_structure_table_is_a_read_only_sequence(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(STRUCTURES_CSV)
    table = io.read_structures(path)
    oracle = _oracle_read_structures(path)
    assert isinstance(table, curation.StructureTable)
    assert len(table) == 3 and table == oracle and oracle == table
    assert table[-1] == oracle[-1] and table[1:] == oracle[1:]
    assert table != oracle[:2] and table != "abc"
    with pytest.raises(IndexError):
        table[3]
    assert table.entry_ids == ("s1", "s2", "s3")
    assert table.identities == ("Mg2F4_136", "Ba1Ti1O3_221", "Mg2F4_136")
    assert np.isnan(table.properties["bandgap"][1])
    assert curation.StructureTable.of(table) is table
    assert curation.StructureTable.of(oracle) == table
    with pytest.raises(ValueError, match="read-only"):
        table.properties["bandgap"][0] = 1.0
    with pytest.raises(AttributeError, match="read-only"):
        table.entry_ids = ()


# --- spectra directories: errors name the file ------------------------------

SIDECAR = {"fermi_energy": 0.0, "xc": "LDA", "n_kpt": 4, "n_basis": 40,
           "settings_tier": "light", "relativistic": "ZORA"}


@pytest.mark.parametrize("csv_text, sidecar, where, message", [
    ("0,1\n1,1\n", {k: v for k, v in SIDECAR.items() if k != "xc"},
     "calc.json", "missing key 'xc'"),
    ("0,1\n1,1\n", {**SIDECAR, "n_kpt": "x"}, "calc.json", "n_kpt must be an integer, got 'x'"),
    ("0,1\n1,1\n", {**SIDECAR, "n_kpt": None}, "calc.json",
     "n_kpt must be an integer, got None"),
    ("0,1\n1,1\n", {**SIDECAR, "relativistic": "full"}, "calc.json", "relativistic"),
    ("0,1\n1,1\n", [1, 2], "calc.json", "expected a JSON object, got list"),
    ("1,1\n0,1\n", SIDECAR, "calc.csv", "strictly ascending"),
    ("0,1\n1,-1\n", SIDECAR, "calc.csv", "non-negative"),
    ("0,1\n1,1\n", {**SIDECAR, "fermi_energy": float("nan")}, "calc.csv", "non-finite"),
    ("energy,dos\n0.0,1.0\n1.0\n", SIDECAR, "calc.csv", "bad data row 3: '1.0'"),
    ("energy,dos\n0.0,1.0\n0.0,x\n", SIDECAR, "calc.csv", "bad data row 3: '0.0,x'"),
    ("energy,dos\n", SIDECAR, "calc.csv", "no numeric rows"),
    ("energy,dos\n0,1\n1,1\udcff\n", SIDECAR, "calc.csv", "can't decode byte 0xff"),
    ("0,1\n1,1\n", {**SIDECAR, "n_kpt": 4.5}, "calc.json", "n_kpt must be an integer, got 4.5"),
    ("0,1\n1,1\n", {**SIDECAR, "n_basis": True}, "calc.json",
     "n_basis must be an integer, got True"),
    ("0,1\n1,1\n", "[" * 200_000, "calc.json", "invalid JSON: nesting too deep"),
    ("0,1\n1,1\n", "[{", "calc.json", "invalid JSON"),
    # text that float(), int() or str() would misread
    ("0,1\n1,1\n", {**SIDECAR, "fermi_energy": "0_5"}, "calc.json",
     "fermi_energy must be a number, got '0_5'"),
    ("0,1\n1,1\n", {**SIDECAR, "fermi_energy": True}, "calc.json",
     "fermi_energy must be a number, got True"),
    ("0,1\n1,1\n", {**SIDECAR, "n_kpt": "1_2"}, "calc.json",
     "n_kpt must be an integer, got '1_2'"),
    ("0,1\n1,1\n", {**SIDECAR, "n_basis": "\u0664"}, "calc.json",
     "n_basis must be an integer, got '\u0664'"),
    ("0,1\n1,1\n", {**SIDECAR, "xc": None}, "calc.json", "xc must be a string, got None"),
    ("0,1\n1,1\n", {**SIDECAR, "settings_tier": ["light"]}, "calc.json",
     r"settings_tier must be a string, got \['light'\]"),
    ("0,1\n1,1\n", '"x"', "calc.json", "expected a JSON object, got str"),
    ("0,1\n1,1\n", 5, "calc.json", "expected a JSON object, got int"),
])
def test_spectra_dir_bad_file_is_named(tmp_path, csv_text, sidecar, where, message):
    (tmp_path / "calc.csv").write_text(csv_text, errors="surrogateescape")
    # a string sidecar is the file's text; anything else is written as JSON
    (tmp_path / "calc.json").write_text(sidecar if isinstance(sidecar, str) else json.dumps(sidecar))
    with pytest.raises(ValueError, match=message) as exc:
        io.read_spectra_dir(tmp_path)
    assert str(exc.value).startswith(f"{tmp_path / where}: ")


# --- spectrum CSV: one np.loadtxt parse, gated against the row loop ---------

def _loop_read_two_column_csv(path):
    """The csv.reader + float() row loop the reader replaced; an oracle."""
    rows = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for i, row in enumerate(csv.reader(fh)):
            if not row:
                continue
            try:
                rows.append((float(row[0]), float(row[1])))
            except ValueError:
                if i == 0:
                    continue  # header line
                raise ValueError(f"{path}: bad data row {i + 1}: {row!r}") from None
    if not rows:
        raise ValueError(f"{path}: no numeric rows")
    arr = np.array(rows)
    return arr[:, 0], arr[:, 1]


def _outcome(read, path):
    """Bit patterns of the two columns, or the error with its row number."""
    try:
        energies, dos = read(path)
    except ValueError as exc:
        message = str(exc)
        assert message.startswith(f"{path}: ")
        return "error", re.sub(r"(bad data row \d+): .*", r"\1", message)
    return energies.view(np.uint64).tolist(), dos.view(np.uint64).tolist()


_value = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -2.225073858507201e-308, 1e308, -1e308]),
)
_field = st.tuples(
    _value,
    st.booleans(),                       # quoted
    st.sampled_from(["", " ", "  "]),    # before the field
    st.sampled_from(["", " ", "\t"]),    # after the field
)
_extra = st.sampled_from(["x", "", "3.5", "a b", '"q,r"'])
_data_line = st.builds(
    lambda a, b, extras: ",".join(
        [pre + (f'"{v!r}"' if quoted else repr(v)) + post
         for v, quoted, pre, post in (a, b)] + extras),
    _field, _field, st.lists(_extra, max_size=2))
# lines both readers reject; a one-field numeric line made the loop raise
# IndexError, so that case is pinned in test_spectra_dir_bad_file_is_named
_bad_line = st.sampled_from(
    ["0.0,x", "1.0,", ",1.0", " ", '"1,0",2', "nan(1),2", "#1,2", "1 2,3", ' "1",2'])


@settings(max_examples=300, deadline=None)
@given(
    # first lines for each branch of the header check: refused without numpy,
    # refused or read by np.loadtxt
    header=st.sampled_from([None, "energy,dos", "E (eV),DOS (states/eV),note", "energy",
                            "nan,1", "-Infinity,2", " 1e5 ,3", '"energy",dos', "1.0,x",
                            " energy,dos"]),
    body=st.lists(st.one_of(_data_line, _data_line, st.just(""), _bad_line), max_size=8),
    leading_blank=st.booleans(),
    newline=st.sampled_from(["\n", "\r\n"]),
    final_newline=st.booleans(),
    bom=st.booleans(),
)
def test_spectrum_csv_reader_matches_row_loop(header, body, leading_blank, newline,
                                              final_newline, bom):
    lines = ([""] if leading_blank else []) + ([header] if header else []) + body
    text = ("\ufeff" if bom else "") + newline.join(lines) + (newline if final_newline else "")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "calc.csv"
        path.write_bytes(text.encode())
        assert _outcome(io._read_two_column_csv, path) == \
            _outcome(_loop_read_two_column_csv, path)


def _loadtxt_reads(line):
    try:
        np.loadtxt([line], **io._SPECTRUM_ROW)
    except ValueError:
        return False
    return True


# text near the header check's edges: number characters, whitespace numpy strips,
# quotes, other letters and non-ASCII digits
_line_chars = st.sampled_from(list('0123456789+-.eEinftyaINFTYAx,"_ \t\r\x0b\x1c\xa0\u3000\u0661'))


@settings(max_examples=500, deadline=None)
@given(line=st.text(_line_chars, min_size=1, max_size=12) | _data_line | _bad_line)
def test_data_row_check_agrees_with_loadtxt(line):
    assert io._is_data_row(line) == _loadtxt_reads(line)


def test_spectrum_csv_header_costs_no_loadtxt_call(tmp_path, monkeypatch):
    path = tmp_path / "calc.csv"
    path.write_text("energy,dos\n0.0,1.0\n1.0,2.0\n")
    calls, loadtxt = [], np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(a) or loadtxt(*a, **k))
    energies, dos = io._read_two_column_csv(path)
    assert (energies.tolist(), dos.tolist()) == ([0.0, 1.0], [1.0, 2.0])
    assert len(calls) == 1  # the body's parse; the header needs no probe


@st.composite
def _matrices(draw):
    """A drawn square matrix, often mirrored from its upper triangle; a mirrored
    one may get one lower cell that misses bitwise symmetry."""
    n = draw(st.integers(1, 7))
    dtype = draw(st.sampled_from([np.float64, np.float64, np.float32, np.int64]))
    cells = {np.float64: _value, np.float32: st.floats(width=32),
             np.int64: st.integers(-2**63, 2**63 - 1)}[dtype]
    values = np.array(draw(st.lists(cells, min_size=n * n, max_size=n * n)),
                      dtype=dtype).reshape(n, n)
    if draw(st.booleans()):
        return values
    values = np.where(np.triu(np.ones((n, n), dtype=bool)), values, values.T)
    miss = draw(st.sampled_from([None, None, "-0.0", "ulp", "nan"]))
    if n > 1 and miss is not None:
        j = draw(st.integers(0, n - 2))
        i = draw(st.integers(j + 1, n - 1))
        if miss == "-0.0":
            values[j, i], values[i, j] = 0, -0.0
        elif dtype is np.int64:
            values[i, j] = values[j, i] ^ 1
        elif miss == "ulp":
            values[i, j] = np.nextafter(values[j, i], dtype(np.inf))
        else:
            values[i, j] = np.nan
    return values


@settings(max_examples=200, deadline=None)
@given(values=_matrices())
def test_write_matrix_bytes_match_per_value_format(values):
    n = len(values)
    md = CalcMetadata("LDA", 2, 10, "light", "ZORA")
    m = SimilarityMatrix(values=values, ordering=list(range(n)), labels=[md] * n)
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "matrix.csv"
        io.write_matrix(csv_path, Path(tmp) / "manifest.json", m)
        expected = "\n".join(",".join(f"{v:.17g}" for v in row) for row in values) + "\n"
        assert csv_path.read_bytes() == expected.encode()


# --- one rule turns number text into values, in every reader ----------------

_finite = st.floats(allow_nan=False, allow_infinity=False)
_number_text = st.one_of(_finite.map(repr), _finite.map("{:e}".format),
                         st.integers(-10**20, 10**20).map(str))
_integer_text = st.integers(1, 230).map(str)  # a valid spacegroup and n_kpt
_ZEROS = "\u0660\uff10\u0966"  # Arabic-Indic, fullwidth and Devanagari zero


def _four_readings(folder, text, integral):
    """Each reader's value of text, or the ValueError it raised, which must
    name the file: a structure CSV cell, a structure JSON string, a CE target
    and a sidecar value. The structure field and the sidecar key are the
    spacegroup and n_kpt when integral, else a property and fermi_energy."""
    field, key = ("spacegroup", "n_kpt") if integral else ("x", "fermi_energy")
    row = {"entry_id": "s1", "formula": "Mg2F4", "spacegroup": "136", field: text}
    (folder / "t.csv").write_text(",".join(row) + "\n" + ",".join(row.values()) + "\n",
                                  encoding="utf-8")
    record = {"entry_id": "s1", "formula": "Mg2F4", "spacegroup": 136, "properties": {}}
    if integral:
        record["spacegroup"] = text
    else:
        record["properties"]["x"] = text
    (folder / "t.json").write_text(json.dumps([record]))
    (folder / "c.csv").write_text(f"entry_id,occupations,target\nc1,1 -1,{text}\n",
                                  encoding="utf-8")
    (folder / "spectra").mkdir()
    (folder / "spectra" / "s.csv").write_text("0,1\n1,1\n")
    (folder / "spectra" / "s.json").write_text(json.dumps({**SIDECAR, key: text}))

    def structure(path):
        entry = io.read_structures(path)[0]
        return entry.spacegroup if integral else entry.properties["x"]

    def sidecar(path):
        spectrum, metadata = io.read_spectra_dir(path)[0]
        return metadata.n_kpt if integral else spectrum.fermi_energy

    readings = []
    for read, path, named in [
        (structure, folder / "t.csv", folder / "t.csv"),
        (structure, folder / "t.json", folder / "t.json"),
        (lambda path: io.read_ce_configs(path)[2][0], folder / "c.csv", folder / "c.csv"),
        (sidecar, folder / "spectra", folder / "spectra" / "s.json"),
    ]:
        try:
            readings.append(read(path))
        except ValueError as exc:
            assert str(exc).startswith(f"{named}: ")
            readings.append(exc)
    return readings


@settings(max_examples=100, deadline=None)
@given(integral=st.booleans(), pad=st.sampled_from(["", " "]), data=st.data())
def test_number_text_reads_as_int_and_float_read_it_in_every_reader(integral, pad, data):
    text = pad + data.draw(_integer_text if integral else _number_text) + pad
    with tempfile.TemporaryDirectory() as folder:
        readings = _four_readings(Path(folder), text, integral)
    value = int(text) if integral else float(text)
    assert readings == [value, value, float(text), value]


@settings(max_examples=100, deadline=None)
@given(integral=st.booleans(), separate=st.booleans(), data=st.data())
def test_separated_or_non_ascii_number_text_is_an_error_in_every_reader(
        integral, separate, data):
    text = data.draw(_integer_text if integral else _number_text)
    pairs = [k for k in range(1, len(text)) if text[k - 1].isdigit() and text[k].isdigit()]
    if separate and pairs:
        k = data.draw(st.sampled_from(pairs))
        text = text[:k] + "_" + text[k:]
    else:
        zero = ord(data.draw(st.sampled_from(_ZEROS)))
        text = "".join(chr(zero + int(c)) if c.isdigit() else c for c in text)
    float(text)  # Python reads it as a number
    with tempfile.TemporaryDirectory() as folder:
        readings = _four_readings(Path(folder), text, integral)
    assert all(isinstance(r, ValueError) for r in readings), readings
