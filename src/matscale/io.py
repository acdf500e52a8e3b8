"""File formats: structure tables, spectra directories, CE inputs, and the
CSV/JSON outputs the CLI emits. All writers go through an atomic
temp-file-and-rename so interrupted jobs never leave partial outputs."""

from __future__ import annotations

import csv
import io as _io
import json
import os
import tempfile
from pathlib import Path
from typing import Sequence

import numpy as np

from .curation import Histogram, SplitAssignment, Structure, parse_formula, structure_id
from .spectra import CalcMetadata, SimilarityMatrix, Spectrum

_RESERVED_COLUMNS = {"entry_id", "formula", "spacegroup", "source"}


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_structures(path) -> list[Structure]:
    path = Path(path)
    if path.suffix.lower() == ".json":
        return _structures_from_json(path)
    return _structures_from_csv(path)


def _structures_from_csv(path: Path) -> list[Structure]:
    entries = []
    seen = set()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty CSV")
        missing = {"entry_id", "formula", "spacegroup"} - set(reader.fieldnames)
        if missing:
            raise ValueError(f"{path}: missing required columns {sorted(missing)}")
        prop_cols = [c for c in reader.fieldnames if c not in _RESERVED_COLUMNS]
        for row in reader:
            eid = row["entry_id"]
            if eid in seen:
                raise ValueError(f"{path}: duplicate entry_id {eid!r}")
            seen.add(eid)
            props = {
                c: float(row[c]) for c in prop_cols if row[c] not in (None, "")
            }
            entries.append(
                Structure(
                    entry_id=eid,
                    composition=parse_formula(row["formula"]),
                    spacegroup=int(row["spacegroup"]),
                    properties=props,
                    source=row.get("source") or path.stem,
                )
            )
    if not entries:
        raise ValueError(f"{path}: no data rows")
    return entries


def _structures_from_json(path: Path) -> list[Structure]:
    with open(path) as fh:
        records = json.load(fh)
    if not isinstance(records, list) or not records:
        raise ValueError(f"{path}: expected a non-empty JSON array")
    entries = []
    seen = set()
    for rec in records:
        eid = rec["entry_id"]
        if eid in seen:
            raise ValueError(f"{path}: duplicate entry_id {eid!r}")
        seen.add(eid)
        if "composition" in rec:
            composition = {str(k): int(v) for k, v in rec["composition"].items()}
        else:
            composition = parse_formula(rec["formula"])
        entries.append(
            Structure(
                entry_id=eid,
                composition=composition,
                spacegroup=int(rec["spacegroup"]),
                properties={k: float(v) for k, v in rec.get("properties", {}).items()},
                source=rec.get("source") or path.stem,
            )
        )
    return entries


def write_split_csv(path, entries: Sequence[Structure], split: SplitAssignment) -> None:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["entry_id", "structure_id", "split"])
    for e in entries:
        writer.writerow([e.entry_id, structure_id(e), split.assignment[e.entry_id]])
    atomic_write_text(path, buf.getvalue())


def write_histogram_csv(path, hist: Histogram) -> None:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["bin_lo", "bin_hi", "count"])
    for lo, hi, count in zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts):
        writer.writerow([f"{lo:.17g}", f"{hi:.17g}", int(count)])
    atomic_write_text(path, buf.getvalue())


def read_spectra_dir(path) -> list[tuple[Spectrum, CalcMetadata]]:
    """Read NAME.csv (energy, dos) + NAME.json sidecar pairs, sorted by name."""
    path = Path(path)
    csv_files = sorted(path.glob("*.csv"))
    if not csv_files:
        raise ValueError(f"{path}: no spectrum CSV files found")
    out = []
    for csv_path in csv_files:
        sidecar = csv_path.with_suffix(".json")
        if not sidecar.exists():
            raise ValueError(f"missing metadata sidecar for {csv_path.name}")
        with open(sidecar) as fh:
            meta = json.load(fh)
        energies, dos = _read_two_column_csv(csv_path)
        spectrum = Spectrum(
            energies=energies, dos=dos, fermi_energy=float(meta["fermi_energy"])
        )
        metadata = CalcMetadata(
            xc=str(meta["xc"]),
            n_kpt=int(meta["n_kpt"]),
            n_basis=int(meta["n_basis"]),
            settings_tier=str(meta["settings_tier"]),
            relativistic=str(meta["relativistic"]),
        )
        out.append((spectrum, metadata))
    return out


def _read_two_column_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    rows = []
    with open(path, newline="") as fh:
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


def write_matrix(path_csv, path_manifest, m: SimilarityMatrix) -> None:
    lines = [",".join(f"{v:.17g}" for v in row) for row in m.values]
    atomic_write_text(path_csv, "\n".join(lines) + "\n")
    manifest = {
        "n": m.n,
        "ordering": m.ordering,
        "labels": [
            {
                "xc": md.xc,
                "n_kpt": md.n_kpt,
                "n_basis": md.n_basis,
                "settings_tier": md.settings_tier,
                "relativistic": md.relativistic,
            }
            for md in m.labels
        ],
    }
    atomic_write_text(path_manifest, json.dumps(manifest, indent=2) + "\n")


def read_ce_configs(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """CE training CSV: entry_id, whitespace-separated +/-1 occupations, target.

    A malformed row raises ValueError naming the file and the row's line.
    """
    ids, occupations, targets = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty CSV")
        for row in reader:
            if not row:
                continue
            where = f"{path}: line {reader.line_num}"
            if len(row) != 3:
                raise ValueError(
                    f"{where}: expected 3 columns (entry_id, occupations, "
                    f"target), got {len(row)}: {row!r}"
                )
            try:
                occupation = [int(tok) for tok in row[1].split()]
                target = float(row[2])
            except ValueError:
                raise ValueError(
                    f"{where}: bad occupations or target: {row!r}"
                ) from None
            ids.append(row[0])
            occupations.append(occupation)
            targets.append(target)
    if not ids:
        raise ValueError(f"{path}: no data rows")
    lengths = {len(o) for o in occupations}
    if len(lengths) != 1:
        raise ValueError(f"{path}: inconsistent occupation lengths {sorted(lengths)}")
    return ids, np.array(occupations, dtype=int), np.array(targets, dtype=float)


def read_index_lists(path) -> list[list[int]]:
    """JSON list of index lists (clusters or group permutations).

    Every entry must be a list of JSON integers; anything else raises
    ValueError naming the file and the entry.
    """
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON list of index lists")
    for k, sub in enumerate(data):
        if not isinstance(sub, list) or not all(
            type(i) is int for i in sub  # bool is an int subclass; reject it
        ):
            raise ValueError(f"{path}: entry {k} is not a list of integers: {sub!r}")
    return data


def write_trace_csv(path, traces: dict) -> None:
    """FitTrace table: one row per (degree, n_features, rmse)."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["degree", "n_features", "rmse"])
    for degree in sorted(traces):
        for pt in traces[degree].points:
            writer.writerow([degree, pt.n_features, f"{pt.rmse:.17g}"])
    atomic_write_text(path, buf.getvalue())


def write_predictions_csv(path, ids: Sequence[str], targets, predicted) -> None:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["entry_id", "target", "predicted"])
    for eid, t, p in zip(ids, targets, predicted):
        writer.writerow([eid, f"{t:.17g}", f"{p:.17g}"])
    atomic_write_text(path, buf.getvalue())
