"""The structure table reader behind ``io.read_structures``.

``_structure_from_row`` alone defines a valid structure row and the order
of its checks. A file is decoded in one of two ways:

- The column pass takes a clean CSV whole. Its rows are transposed to
  columns of text; each distinct formula string is parsed once,
  spacegroups go through ``int`` and one range check, and each property
  becomes a float64 column with NaN where a row lacks it. It takes only
  cells that the row decoder takes to the same value, and gives up on the
  first other cell without saying why.
- The row path decodes every JSON array, and every CSV the column pass
  gives up on. The file's rows go through ``_structure_from_row`` in
  order, and the first bad row raises ``<file>: row K: ...``. A valid CSV
  with a cell the column pass does not take (a row without its trailing
  ``source`` cell) is decoded here, at per-row speed.
"""

from __future__ import annotations

import csv
import gc
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .curation import Structure, StructureTable, canonical_formulas, parse_formula
from .io import _integer, _load_json, _number, _plain, _string

_RESERVED_COLUMNS = {"entry_id", "formula", "spacegroup", "source"}


def read_structure_table(path: Path) -> StructureTable:
    if path.suffix.lower() == ".json":
        return _decode_rows(path, _json_records(path))
    header, columns = _csv_columns(path)
    fields = _csv_fields(header, columns, path.stem)
    if fields is not None:
        try:
            return _table(*fields)
        except ValueError:  # a cell the column pass does not take
            pass
    return _decode_rows(path, _csv_rows(header, columns))


# --- reading a file ----------------------------------------------------------

def _csv_columns(path: Path) -> tuple[list[str], list[tuple]]:
    """The header and the columns of a structure CSV; a blank line is not a row.

    A row shorter than the longest row is padded with None, which no CSV
    cell can be.
    """
    # The collector tracks every row list, and the passes that reading a
    # large file triggers would take most of the parse.
    collecting = gc.isenabled()
    gc.disable()
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty CSV")
            if len(set(header)) != len(header):
                raise ValueError(f"{path}: duplicate column names in {header}")
            missing = {"entry_id", "formula", "spacegroup"} - set(header)
            if missing:
                raise ValueError(f"{path}: missing required columns {sorted(missing)}")
            rows = list(reader)
        if not all(rows):
            rows = [row for row in rows if row]
        return header, list(zip_longest(*rows))
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    finally:
        if collecting:
            gc.enable()


def _csv_rows(header: list[str], columns: list[tuple]):
    """The CSV's rows as ``csv.DictReader`` gives them, properties nested:
    a field the row lacks is None, and fields past the header are listed
    under the key None."""
    width = len(header)
    prop_names = [name for name in header if name not in _RESERVED_COLUMNS]
    for cells in zip(*columns):
        row = dict.fromkeys(header)
        row.update(zip(header, cells))
        extra = [cell for cell in cells[width:] if cell is not None]
        if extra:
            row[None] = extra
        row["properties"] = {name: v for name in prop_names if (v := row.pop(name)) != ""}
        yield row


def _json_records(path: Path) -> list:
    records = _load_json(path)
    if not isinstance(records, list):
        raise ValueError(f"{path}: expected a JSON array of objects")
    return records


# --- the column pass ---------------------------------------------------------

def _csv_fields(header: list[str], columns: list[tuple], default_source: str):
    """``_table``'s arguments for a CSV, or None if a row does not have
    exactly the header's fields."""
    # a short row's missing cells are None, and the last column holds them
    if not columns or len(columns) != len(header) or None in columns[-1]:
        return None
    cells = dict(zip(header, columns))
    properties = {name: cells[name] for name in header if name not in _RESERVED_COLUMNS}
    sources = cells.get("source")
    return (cells["entry_id"], cells["formula"], cells["spacegroup"], properties,
            [v or default_source for v in sources] if sources is not None
            else [default_source] * len(columns[0]))


def _table(entry_ids, formulas, spacegroups, properties: dict, sources) -> StructureTable:
    """The table of a CSV whose every cell the column pass takes; ValueError
    on a cell it does not take. A property column holds "" where a row lacks
    the property."""
    if len(set(entry_ids)) != len(entry_ids):
        raise ValueError
    formula_of = canonical_formulas(dict.fromkeys(formulas))
    if not _plain("".join(spacegroups)):
        raise ValueError  # "1_36": the row path
    spacegroups = list(map(int, spacegroups))
    if not 1 <= min(spacegroups) <= max(spacegroups) <= 230:
        raise ValueError
    return StructureTable(
        entry_ids=tuple(entry_ids),
        identities=tuple(map("{}_{}".format, map(formula_of.__getitem__, formulas),
                             spacegroups)),
        spacegroups=np.array(spacegroups, dtype=int),
        properties={name: _property_column(column) for name, column in properties.items()},
        sources=tuple(sources),
    )


def _property_column(cells: tuple) -> np.ndarray:
    """float64 column of one property, NaN where a cell is ""."""
    if not _plain("".join(cells)):
        raise ValueError  # "1_0.5": the row path
    # one float() per cell, "" read as "nan"; every other cell must be finite
    column = np.fromiter(map(float, map({"": "nan"}.get, cells, cells)),
                         dtype=float, count=len(cells))
    if len(cells) - np.isfinite(column).sum() != cells.count(""):
        raise ValueError
    return column


# --- the row path ------------------------------------------------------------

def _decode_rows(path: Path, rows) -> StructureTable:
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
    return StructureTable.of(entries)


def _structure_from_row(row, default_source: str) -> Structure:
    """The one decoder of a structure row (a CSV row or a JSON object)."""
    if not isinstance(row, dict):
        raise ValueError(f"expected an object, got {row!r}")
    if None in row:  # fields beyond the header
        raise ValueError(f"{len(row[None])} more field(s) than the header")
    entry_id = _string(_required(row, "entry_id"), "entry_id")
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
    source = row.get("source")
    if source is None or source == "":  # absent, a JSON null or a CSV's empty cell
        source = default_source
    return Structure(
        entry_id=entry_id,
        composition=composition,
        spacegroup=_integer(_required(row, "spacegroup"), "spacegroup"),
        properties={name: _number(v, f"property {name!r}") for name, v in props.items()},
        source=_string(source, "source"),
    )


def _required(row: dict, key: str):
    # None is a JSON null or a CSV field the row lacks
    value = row.get(key)
    if value is None:
        raise ValueError(f"no value for {key!r}")
    return value
