"""The structure table reader behind ``io.read_structures``.

A CSV file (``csv.reader``) or a JSON array of records becomes the same raw
columns, which one decoder checks and converts column by column: each
distinct formula string is parsed once and each distinct element-count
multiset canonicalised once, spacegroups go through ``int`` and one range
check, and each property becomes a float64 column with NaN where a row
lacks it. The first bad row is reported, with the first failing check of
that row, in the order ``_NOT_OBJECT`` ... ``_DUPLICATE_ID`` below.
"""

from __future__ import annotations

import bisect
import csv
import json
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .curation import StructureTable, canonical_formula, canonical_formulas, parse_formula

_RESERVED_COLUMNS = {"entry_id", "formula", "spacegroup", "source"}


def read_structure_table(path: Path) -> StructureTable:
    cells = _json_cells(path) if path.suffix.lower() == ".json" else _csv_cells(path)
    return _decode_structures(path, cells)


# The checks of a structure row, in the order a row is checked.
(_NOT_OBJECT, _EXTRA_FIELDS, _NO_ENTRY_ID, _ENTRY_ID_TYPE, _FORMULA, _PROPERTIES_TYPE,
 _NO_SPACEGROUP, _SPACEGROUP_TYPE, _PROPERTY_TYPE, _COMPOSITION, _SPACEGROUP_RANGE,
 _PROPERTY_FINITE, _DUPLICATE_ID) = range(13)


class _FirstError:
    """The error a structure file reports: the failing check with the lowest
    (row, check, rank) key, rank being a property's position within its row.

    Checks run column by column, and each keeps only its first failure.
    ``rows(check)`` is how many leading rows a check must still look at.
    """

    def __init__(self, n_rows: int):
        self.n_rows = n_rows
        self.key = None
        self.message = ""

    def add(self, row: int, check: int, message: str, rank: int = 0) -> None:
        if self.key is None or (row, check, rank) < self.key:
            self.key, self.message = (row, check, rank), message

    def rows(self, check: int) -> int:
        if self.key is None:
            return self.n_rows
        row, first, _ = self.key
        return row + (check <= first)


class _Cells:
    """A structure file's raw cells, one sequence per field, row-aligned."""

    def __init__(self, entry_ids: Sequence, compositions: Sequence, spacegroups: Sequence,
                 properties: dict, sources: Sequence, rank: Callable[[int, str], int],
                 errors: _FirstError):
        self.entry_ids = entry_ids
        self.compositions = compositions  # a formula cell, or (symbol, count) pairs of a JSON map
        self.spacegroups = spacegroups
        self.properties = properties  # name -> (rows that carry it, ascending; their cells)
        self.sources = sources
        self.rank = rank  # position of a property within a row
        self.errors = errors


def _csv_cells(path: Path) -> _Cells:
    """The columns of a structure CSV; an empty property cell is missing."""
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
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    lengths = set(map(len, rows))
    if 0 in lengths:  # a blank line is not a row
        rows = [row for row in rows if row]
    errors = _FirstError(len(rows))
    width = len(header)
    if lengths - {0, width}:
        for k, row in enumerate(rows):
            if len(row) > width:
                errors.add(k, _EXTRA_FIELDS, f"{len(row) - width} more field(s) than the header")
                rows[k] = row[:width]
            elif len(row) < width:  # the cells a short row lacks have no value
                rows[k] = row + [None] * (width - len(row))
    columns = dict(zip(header, zip(*rows))) if rows else dict.fromkeys(header, ())
    prop_names = [c for c in header if c not in _RESERVED_COLUMNS]
    properties = {}
    for name in prop_names:
        column = columns[name]
        present = [k for k, v in enumerate(column) if v != ""]
        properties[name] = (present, [column[k] for k in present])
    sources = columns.get("source")
    return _Cells(
        entry_ids=columns["entry_id"],
        compositions=columns["formula"],
        spacegroups=columns["spacegroup"],
        properties=properties,
        sources=([v or path.stem for v in sources] if sources is not None
                 else [path.stem] * len(rows)),
        rank=lambda k, name: prop_names.index(name),
        errors=errors,
    )


def _json_cells(path: Path) -> _Cells:
    """The same columns from a JSON array of records.

    The checks only JSON can fail (a record, composition or properties that
    is not an object, a composition count that is not an integer) are made
    here; a row that fails one gets placeholder cells, which can fail only
    later checks of that row.
    """
    with open(path) as fh:
        try:
            records = json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
        except RecursionError:
            raise ValueError(f"{path}: invalid JSON: nesting too deep") from None
    if not isinstance(records, list):
        raise ValueError(f"{path}: expected a JSON array of objects")
    errors = _FirstError(len(records))
    entry_ids, compositions, spacegroups, sources = [], [], [], []
    properties: dict[str, tuple[list, list]] = {}
    for k, record in enumerate(records):
        if not isinstance(record, dict):
            errors.add(k, _NOT_OBJECT, f"expected an object, got {record!r}")
            record = {}
        entry_ids.append(record.get("entry_id"))
        cell = record.get("composition", record.get("formula"))
        if "composition" in record:  # (symbol, count) pairs; () if the map is bad
            try:
                if not isinstance(cell, dict):
                    raise ValueError(f"composition must be an object, got {cell!r}")
                cell = tuple((sym, _integer(n, f"count of {sym!r}")) for sym, n in cell.items())
            except ValueError as exc:
                errors.add(k, _FORMULA, str(exc))
                cell = ()
        compositions.append(cell)
        spacegroups.append(record.get("spacegroup"))
        props = record.get("properties", {})
        if not isinstance(props, dict):
            errors.add(k, _PROPERTIES_TYPE, f"properties must be an object, got {props!r}")
            props = {}
        for name, value in props.items():
            present, values = properties.setdefault(name, ([], []))
            present.append(k)
            values.append(value)
        sources.append(record.get("source") or path.stem)
    return _Cells(
        entry_ids=entry_ids,
        compositions=compositions,
        spacegroups=spacegroups,
        properties=properties,
        sources=sources,
        rank=lambda k, name: list(records[k]["properties"]).index(name),
        errors=errors,
    )


def _decode_structures(path: Path, cells: _Cells) -> StructureTable:
    """Check and convert the raw columns; raise the file's first row error."""
    errors = cells.errors
    ids = cells.entry_ids[: errors.rows(_NO_ENTRY_ID)]
    if not set(map(type, ids)) <= {str}:
        k, value = next((k, v) for k, v in enumerate(ids) if not isinstance(v, str))
        if value is None:
            errors.add(k, _NO_ENTRY_ID, "no value for 'entry_id'")
        else:
            errors.add(k, _ENTRY_ID_TYPE, f"entry_id must be a string, got {value!r}")
    formula_of = _canonical_formulas(cells.compositions[: errors.rows(_FORMULA)], errors)
    spacegroups = _spacegroups(cells.spacegroups[: errors.rows(_NO_SPACEGROUP)], errors)
    properties = {
        name: _property_column(name, present, values, cells, errors)
        for name, (present, values) in cells.properties.items()
    }
    ids = cells.entry_ids[: errors.rows(_DUPLICATE_ID)]
    if len(set(ids)) != len(ids):
        seen = set()
        for k, entry_id in enumerate(ids):
            if entry_id in seen:
                errors.add(k, _DUPLICATE_ID, f"duplicate entry_id {entry_id!r}")
                break
            seen.add(entry_id)
    if errors.key is not None:
        raise ValueError(f"{path}: row {errors.key[0] + 1}: {errors.message}")
    if not errors.n_rows:
        raise ValueError(f"{path}: no data rows")
    formulas = map(formula_of.__getitem__, cells.compositions)
    return StructureTable(
        entry_ids=tuple(cells.entry_ids),
        identities=tuple(map("{}_{}".format, formulas, spacegroups)),
        compositions=tuple(cells.compositions),
        spacegroups=np.array(spacegroups, dtype=int),
        properties=properties,
        sources=tuple(cells.sources),
    )


def _canonical_formulas(cells: Sequence, errors: _FirstError) -> dict:
    """Canonical formula of each distinct composition cell.

    When a cell is bad, cells are visited one at a time in order of first
    appearance, so the first that fails is the first failing row.
    """
    if not set(map(type, cells)) <= {str, tuple}:  # a missing or non-string formula
        k, cell = next((k, c) for k, c in enumerate(cells) if type(c) not in (str, tuple))
        errors.add(k, _FORMULA, "no value for 'formula'" if cell is None
                   else f"cannot parse formula string: {cell!r}")
        cells = cells[:k]
    distinct = dict.fromkeys(cells)
    try:
        formula_of = canonical_formulas(c for c in distinct if type(c) is str)
        for pairs in (c for c in distinct if type(c) is tuple):
            formula_of[pairs] = canonical_formula(dict(pairs))
        return formula_of
    except ValueError:
        pass
    for cell in distinct:
        # a formula is checked with its row's other formula checks; a JSON
        # map's composition only after the row's properties
        try:
            if isinstance(cell, str):
                canonical_formula(parse_formula(cell))
            else:
                canonical_formula(dict(cell))
        except ValueError as exc:
            check = _FORMULA if isinstance(cell, str) else _COMPOSITION
            errors.add(cells.index(cell), check, str(exc))
            break
    return {}


def _spacegroups(cells: Sequence, errors: _FirstError) -> list[int]:
    """Integer spacegroups in [1, 230]; the first bad cell is an error."""
    try:
        if not set(map(type, cells)) <= {str, int}:
            raise ValueError  # bools, floats and missing cells take the checked path
        values = list(map(int, cells))
    except ValueError:
        values = []
        for k, cell in enumerate(cells):
            try:
                if cell is None:
                    raise ValueError("no value for 'spacegroup'")
                values.append(_integer(cell, "spacegroup"))
            except ValueError as exc:
                errors.add(k, _NO_SPACEGROUP if cell is None else _SPACEGROUP_TYPE, str(exc))
                break
    values = values[: errors.rows(_SPACEGROUP_RANGE)]
    if values and not (1 <= min(values) and max(values) <= 230):
        k, sg = next((k, sg) for k, sg in enumerate(values) if not 1 <= sg <= 230)
        errors.add(k, _SPACEGROUP_RANGE, f"spacegroup must be an integer in [1, 230], got {sg!r}")
    return values


def _property_column(name: str, present: list, values: list, cells: _Cells,
                     errors: _FirstError) -> np.ndarray:
    """float64 column of one property, NaN where a row lacks it."""
    n = bisect.bisect_left(present, errors.rows(_PROPERTY_TYPE))
    present, values = present[:n], values[:n]
    what = f"property {name!r}"
    try:
        if bool in set(map(type, values)):
            raise TypeError  # float() takes bools; the checked path rejects them
        floats = list(map(float, values))
    except (TypeError, ValueError, OverflowError):
        floats = []
        for k, value in zip(present, values):
            try:
                floats.append(_number(value, what))
            except ValueError as exc:
                errors.add(k, _PROPERTY_TYPE, str(exc), cells.rank(k, name))
                break
        present = present[: len(floats)]
    got = np.array(floats, dtype=float)
    bad = np.flatnonzero(~np.isfinite(got))
    if bad.size:
        k = present[bad[0]]
        errors.add(k, _PROPERTY_FINITE, f"{what} must be finite, got {floats[bad[0]]!r}",
                   cells.rank(k, name))
    column = np.full(errors.n_rows, np.nan)
    column[present] = got
    return column


def _integer(value, what: str) -> int:
    """An int, an integral float or a decimal string; never a bool."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, float) and value.is_integer():
        return int(value)
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _number(value, what: str) -> float:
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"{what} must be a number, got {value!r}")
