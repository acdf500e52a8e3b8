"""File formats: structure tables, spectra directories, CE inputs, and the
CSV/JSON outputs the CLI emits. File text, and the CLI's flag text, becomes
values through ``_plain``, ``_integer``, ``_number`` and ``_string``, except
spectrum bodies: ``np.loadtxt`` parses those and takes the same number
spellings. All writers write UTF-8 through ``atomic_write_text``: each file
is written to a temp file and renamed into place, so an interrupted write
never leaves a partial file."""

from __future__ import annotations

import csv
import io as _io
import json
import math
import os
import shutil
from itertools import chain, islice
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # each function imports what it builds, so a command loads only its own
    from .curation import Histogram, SplitAssignment, Structure, StructureTable
    from .lattice import Cluster, SymmetryGroup
    from .spectra import CalcMetadata, FingerprintSet, SimilarityMatrix, Spectrum


def atomic_write_text(path, text: str | Iterable[str]) -> None:
    """Write text, a string or an iterable of strings written one by one, to a
    temp file beside path, then rename it to path; on error the temp file goes,
    and an OSError names path, not the temp file. path gets the mode bits that
    open(path, "w") would leave: those of the file it replaces, else 0o666
    less the umask."""
    path = Path(path)
    # a new name, as mkstemp makes one, but made with the bits open() gives a new
    # file: 0o666 less the umask, which os.umask could only read by setting it
    tmp = path.with_name(f"{path.name}{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                if os.path.exists(path):
                    shutil.copymode(path, tmp)
                fh.writelines((text,) if isinstance(text, str) else text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        # its errno and text, naming path and no temp file
        raise exc if exc.errno is None else OSError(exc.errno, exc.strerror, str(path)) from None


def _load_json(path):
    """The value of a JSON file; a leading byte-order mark is skipped, and a
    file that does not parse raises ValueError("<file>: invalid JSON: ...")."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
        except RecursionError:
            raise ValueError(f"{path}: invalid JSON: nesting too deep") from None


# --- text to values: the one rule for file text and flag text ---------------

def _plain(text: str) -> bool:
    """Whether a number's text has no digit separator and no non-ASCII
    character: ``int`` and ``float`` read ``1_36``, and 136 written in
    Arabic-Indic digits, as 136."""
    return text.isascii() and "_" not in text


def _integer(value, what: str) -> int:
    """An int, an integral float or a decimal string; never a bool."""
    if isinstance(value, str) and _plain(value):
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
    """An int, a float or a string ``float`` reads; never a bool."""
    if not isinstance(value, bool) and (not isinstance(value, str) or _plain(value)):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"{what} must be a number, got {value!r}")


def _string(value, what: str) -> str:
    """A string as it is; a JSON null, number or list is not one."""
    if isinstance(value, str):
        return value
    raise ValueError(f"{what} must be a string, got {value!r}")


def read_structures(path) -> StructureTable:
    """Read a structure table (CSV with a header row, or a JSON array).

    A clean CSV is decoded column by column. A JSON array, and any other
    CSV, is decoded row by row, and a bad row raises ValueError("<file>: row
    K: ..."), K counting data rows from 1; when several rows are bad, the
    first is named, with the first failing check of that row. The decoder
    lives in ``structure_io``.
    """
    # imported here, so that commands which read no structures never load it
    from .structure_io import read_structure_table

    return read_structure_table(Path(path))


def _write_csv(path, header: Sequence[str], rows) -> None:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def write_split_csv(path, entries: Sequence[Structure], split: SplitAssignment) -> None:
    """One row per entry, in blocks of joined lines; csv.writer writes the rows
    when a cell needs CSV quoting."""
    from .curation import StructureTable

    table = StructureTable.of(entries)
    columns = (table.entry_ids, table.identities,
               list(map(split.assignment.__getitem__, table.entry_ids)))
    header = ("entry_id", "structure_id", "split")
    try:
        # csv.writer quotes a cell with any of these (NUL: it rejects one before 3.11)
        quoted = any(c in text for text in map("".join, columns) for c in ',"\r\n\0')
    except TypeError:  # a cell that is not a str
        quoted = True
    if quoted:
        _write_csv(path, header, zip(*columns))
        return
    lines = map(",".join, chain([header], zip(*columns)))
    block = 1 << 14  # lines per write, so the text is never held whole
    atomic_write_text(path, ("\n".join(islice(lines, block)) + "\n"
                             for _ in range(0, len(table) + 1, block)))


def write_histogram_csv(path, hist: Histogram) -> None:
    edges = hist.bin_edges
    _write_csv(path, ["bin_lo", "bin_hi", "count"],
               ([f"{lo:.17g}", f"{hi:.17g}", int(count)]
                for lo, hi, count in zip(edges[:-1], edges[1:], hist.counts)))


def read_spectra_dir(path) -> list[tuple[Spectrum, CalcMetadata]]:
    """Read NAME.csv (energy, dos) + NAME.json sidecar pairs, sorted by name."""
    return [_read_spectrum(csv_path) for csv_path in _spectrum_files(Path(path))]


# The fewest spectra per process for which read_fingerprint_set forks. Measured
# on a 2-vCPU KVM guest, reading and binning 1000-point spectra in two processes
# against one (paired, alternating runs in one warm process): 16 spectra per
# process were slower (8 of 40 pairs faster), 32 won 28 of 30 pairs in one
# session but 14 of 40 in another, 64 won 24 of 30 and 32 of 40. A forked
# child took 26.6 ms for 64 spectra that took 21.5 ms in its parent: the fork,
# its exit and the copy-on-write faults.
MIN_SPECTRA_PER_PROCESS = 64


def read_fingerprint_set(path, window, grid, mode: str = "raster", h_max: float | None = None
                         ) -> tuple[FingerprintSet, list[CalcMetadata]]:
    """The fingerprint set and the labels of a spectra directory, in file order:
    spectra.fingerprint_set of read_spectra_dir's spectra, and its metadata.

    The sorted files are read and binned by _workers.split_map, one Spectrum at
    a time, and this process applies the set's shared h_max to the heights. The
    errors are those of check_settings, read_spectra_dir, then fingerprint_set:
    the first bad file, else the first binning error.
    """
    from . import _workers, spectra

    spectra.check_settings(window, grid, mode, h_max)

    def read_and_bin(paths):
        pairs, bin_error = [], None
        for csv_path in paths:
            spectrum, metadata = _read_spectrum(csv_path)
            if bin_error is None:  # read on after it: a later read error wins
                try:
                    pairs.append((spectra.bin_heights(spectrum, window, grid[0]), metadata))
                except ValueError as exc:
                    bin_error = exc
        if bin_error is not None:
            raise bin_error
        return pairs

    files = _spectrum_files(Path(path))
    heights, labels = zip(*_workers.split_map(read_and_bin, files, MIN_SPECTRA_PER_PROCESS))
    return spectra._fingerprints(heights, window, grid, mode, h_max, files), list(labels)


def _spectrum_files(path: Path) -> list[Path]:
    """The spectrum CSV files of a directory, sorted by name; there must be one."""
    csv_files = sorted(path.glob("*.csv"))
    if not csv_files:
        raise ValueError(f"{path}: no spectrum CSV files found")
    return csv_files


def _read_spectrum(csv_path: Path) -> tuple[Spectrum, CalcMetadata]:
    """One spectrum CSV and its JSON sidecar: the sidecar is read first, and
    every error names the file."""
    from .spectra import Spectrum

    sidecar = csv_path.with_suffix(".json")
    try:
        fermi_energy, metadata = _read_sidecar(sidecar)
    except FileNotFoundError:
        raise ValueError(f"{csv_path}: missing metadata sidecar {sidecar.name}") from None
    energies, dos = _read_two_column_csv(csv_path)
    try:
        spectrum = Spectrum(energies, dos, fermi_energy, source=str(csv_path))
    except ValueError as exc:
        raise ValueError(f"{csv_path}: {exc}") from None
    return spectrum, metadata


def _read_sidecar(path: Path) -> tuple[float, CalcMetadata]:
    """(fermi_energy, metadata) of a spectrum's JSON sidecar; errors name the file."""
    from .spectra import CalcMetadata

    meta = _load_json(path)
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(meta).__name__}")
    try:
        fermi_energy = _number(meta["fermi_energy"], "fermi_energy")
        if not math.isfinite(fermi_energy):  # JSON 1e999, Infinity or NaN
            raise ValueError(f"fermi_energy must be finite, got {fermi_energy!r}")
        return fermi_energy, CalcMetadata(
            xc=_string(meta["xc"], "xc"),
            n_kpt=_integer(meta["n_kpt"], "n_kpt"),
            n_basis=_integer(meta["n_basis"], "n_basis"),
            settings_tier=_string(meta["settings_tier"], "settings_tier"),
            relativistic=_string(meta["relativistic"], "relativistic"),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# One spectrum CSV line; a field may be quoted, fields past the second are ignored.
_SPECTRUM_ROW = dict(delimiter=",", comments=None, quotechar='"', usecols=(0, 1), ndmin=2)


def _read_two_column_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(energies, dos) of a spectrum CSV, parsed by one np.loadtxt call.

    A first line that does not parse is a header. Empty lines are skipped.
    A bad line raises ValueError("<file>: bad data row K: ..."), K counting
    physical lines from 1.
    """
    import numpy as np

    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    start = 1 if lines[0] and not _is_data_row(lines[0]) else 0
    body = lines[start:]
    if not any(body):
        raise ValueError(f"{path}: no numeric rows")
    try:
        table = np.loadtxt(body, **_SPECTRUM_ROW)
    except ValueError as exc:
        # numpy's message counts rows, not lines: find the first line that fails alone
        for k in range(start, len(lines)):
            if lines[k] and not _is_data_row(lines[k]):
                raise ValueError(f"{path}: bad data row {k + 1}: {lines[k]!r}") from None
        raise ValueError(f"{path}: {exc}") from None
    return table[:, 0], table[:, 1]


# Each character that a number field np.loadtxt reads can hold once its
# whitespace is stripped: digits, a sign, a point, an exponent, and the letters
# of inf, infinity and nan in any case.
_NUMBER_CHARS = frozenset("0123456789+-.eEinftyaINFTYA")


def _is_data_row(line: str) -> bool:
    """Whether np.loadtxt reads line as one spectrum row.

    A line with no quote whose first field holds any other character is not
    one, and is answered without numpy: np.loadtxt strips the whitespace that
    str.strip() strips, refuses non-ASCII text and parses the rest by
    PyOS_string_to_double, which reads no other character.
    """
    if '"' not in line and not _NUMBER_CHARS.issuperset(line.partition(",")[0].strip()):
        return False
    import numpy as np

    try:
        np.loadtxt([line], **_SPECTRUM_ROW)
    except ValueError:
        return False
    return True


def write_matrix(path_csv, path_manifest, m: SimilarityMatrix) -> None:
    atomic_write_text(path_csv, _matrix_lines(m.values))
    # vars of a CalcMetadata: its fields, in the order the dataclass declares them
    manifest = {"n": m.n, "ordering": m.ordering, "labels": list(map(vars, m.labels))}
    atomic_write_text(path_manifest, json.dumps(manifest, indent=2) + "\n")


def _matrix_lines(values) -> Iterable[str]:
    """Each row of the matrix as a CSV line of "%.17g" cells, made as it is written."""
    import numpy as np

    n, cell = len(values), "%.17g,"
    # "%.17g" formats through float, so cells whose float64 bits match print alike
    bits = np.asarray(values, dtype=np.float64).view(np.uint64)
    if np.array_equal(bits, bits.T):
        # format each cell once: lower[i] collects column i from the rows above i
        lower = [[] for _ in range(n)]
        for i in range(n):
            cells = ((cell * (n - i))[:-1] % tuple(values[i, i:].tolist())).split(",")
            for column, text in zip(lower[i + 1:], cells[1:]):
                column.append(text)
            yield ",".join(lower[i] + cells) + "\n"
            lower[i] = None
    else:
        for row in values:
            yield (cell * n)[:-1] % tuple(row.tolist()) + "\n"


def read_ce_configs(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """CE training CSV: entry_id, whitespace-separated +/-1 occupations, target.

    A malformed row, or one that ``lattice.as_occupations`` rejects, raises
    ValueError naming the file and the row's line.
    """
    import numpy as np

    from .lattice import as_occupations

    ids, occupations, targets = [], [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) is None:
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
                    target = _number(row[2], "target")
                    if not (_plain(row[1]) and math.isfinite(target)):
                        raise ValueError
                    occupation = as_occupations([int(tok) for tok in row[1].split()])
                except ValueError:
                    raise ValueError(
                        f"{where}: bad occupations or target: {row!r}"
                    ) from None
                ids.append(row[0])
                occupations.append(occupation)
                targets.append(target)
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: {exc}") from None
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
    data = _load_json(path)
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON list of index lists")
    for k, sub in enumerate(data):
        if not isinstance(sub, list) or not all(
            type(i) is int for i in sub  # bool is an int subclass; reject it
        ):
            raise ValueError(f"{path}: entry {k} is not a list of integers: {sub!r}")
    return data


def read_ce_inputs(configs, clusters, group
                   ) -> tuple[list[str], np.ndarray, np.ndarray, list[Cluster], SymmetryGroup]:
    """(ids, occupations, targets, clusters, group): what ``ce-fit`` fits. The
    first failing check raises ValueError naming its file: read_ce_configs,
    regression.check_targets, each Cluster (and at least one), the
    SymmetryGroup, then the configurations' and the clusters' sites against
    the group's."""
    from .lattice import Cluster, SymmetryGroup
    from .regression import check_targets

    ids, occupations, targets = read_ce_configs(configs)
    check_targets(targets, f"{configs}: targets")
    cluster_list = []
    for k, sites in enumerate(read_index_lists(clusters)):
        try:
            cluster_list.append(Cluster(sites))
        except ValueError as exc:
            raise ValueError(f"{clusters}: entry {k}: {exc}") from None
    if not cluster_list:
        raise ValueError(f"{clusters}: no clusters")
    permutations = read_index_lists(group)
    try:
        symmetry = SymmetryGroup(permutations)
    except ValueError as exc:
        raise ValueError(f"{group}: {exc}") from None
    n_sites = symmetry.n_sites
    if occupations.shape[1] != n_sites:
        raise ValueError(f"{configs}: configurations have {occupations.shape[1]} sites "
                         f"but the group in {group} acts on {n_sites}")
    for k, cluster in enumerate(cluster_list):
        if cluster.sites and cluster.sites[-1] >= n_sites:
            raise ValueError(f"{clusters}: entry {k}: cluster touches site "
                             f"{cluster.sites[-1]} but the group acts on {n_sites} sites")
    return ids, occupations, targets, cluster_list, symmetry


def write_trace_csv(path, traces: dict) -> None:
    """FitTrace table: one row per (degree, n_features, rmse)."""
    _write_csv(path, ["degree", "n_features", "rmse"],
               ([degree, pt.n_features, f"{pt.rmse:.17g}"]
                for degree in sorted(traces) for pt in traces[degree].points))


def write_predictions_csv(path, ids: Sequence[str], targets, predicted) -> None:
    _write_csv(path, ["entry_id", "target", "predicted"],
               ([eid, f"{t:.17g}", f"{p:.17g}"] for eid, t, p in zip(ids, targets, predicted)))
