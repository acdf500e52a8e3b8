"""Output checks for each workload, against references the benchmark computes
itself from what ``generate.py`` planted.

Every ``check_*`` function returns a list of failure messages; an empty list
means the invocation's outputs are correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

import generate

SPLIT_NAMES = ("train", "validation", "test")
SAMPLED_CELLS = 256
VECTOR_TOLERANCE = 1e-12
PREDICTION_TOLERANCE = 1e-9
NOISE_MULTIPLE = 2.0


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def parse_summary(stdout: bytes) -> dict:
    """The CLI's stdout summary; NaN and Infinity are not standard JSON."""
    return json.loads(stdout.decode(), parse_constant=_reject_constant)


def digests(outdir: Path, stdout: bytes) -> dict[str, str]:
    """SHA-256 of stdout and of every output file, by name."""
    out = {"stdout": hashlib.sha256(stdout).hexdigest()}
    for path in sorted(outdir.iterdir()):
        out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------- curate


def check_curate(outdir: Path, summary: dict, planted: generate.CurateInputs) -> list[str]:
    fails = []
    split_of_label: list[dict[str, str]] = []
    lo, hi, nbins = generate.HIST_EDGES
    edges = np.linspace(lo, hi, nbins + 1)
    for path, identities, values in zip(planted.paths, planted.identities, planted.hist_values):
        name = path.stem
        rows = _read_csv(outdir / f"{name}_split.csv")
        seen = [r["entry_id"] for r in rows]
        if len(seen) != len(identities) or set(seen) != set(identities):
            fails.append(f"{name}: split rows do not cover every entry exactly once")
        labels: dict[str, str] = {}
        for r in rows:
            if r["split"] not in SPLIT_NAMES:
                fails.append(f"{name}: entry {r['entry_id']} has split {r['split']!r}")
                break
            if identities.get(r["entry_id"]) != r["structure_id"]:
                fails.append(f"{name}: entry {r['entry_id']} has identity {r['structure_id']!r}")
                break
            if labels.setdefault(r["structure_id"], r["split"]) != r["split"]:
                fails.append(f"{name}: identity {r['structure_id']} spans two splits")
                break
        split_of_label.append(labels)

        counts = summary.get("split_counts", {}).get(name, {})
        if sum(counts.values()) != len(identities):
            fails.append(f"{name}: split counts sum to {sum(counts.values())}, not {len(identities)}")
        for split in SPLIT_NAMES:
            if counts.get(split) != sum(r["split"] == split for r in rows):
                fails.append(f"{name}: summary count of {split} disagrees with the split file")

        hist = summary.get("histograms", {}).get(f"{name}:{generate.HIST_PROPERTY}", {})
        total = hist.get("binned", 0) + hist.get("missing", 0) + hist.get("out_of_range", 0)
        if total != len(identities):
            fails.append(f"{name}: histogram binned+missing+out_of_range = {total}, not {len(identities)}")
        ref_counts, _ = np.histogram(values, bins=edges)
        bins = _read_csv(outdir / f"{name}_hist_{generate.HIST_PROPERTY}.csv")
        if [int(b["count"]) for b in bins] != ref_counts.tolist():
            fails.append(f"{name}: histogram counts differ from the reference")
        if hist.get("missing") != len(identities) - len(values):
            fails.append(f"{name}: histogram missing count differs from the reference")

    if summary.get("n_common_ids") != len(planted.shared_ids):
        fails.append(f"n_common_ids is {summary.get('n_common_ids')}, planted {len(planted.shared_ids)}")
    split_a, split_b = split_of_label
    for label in planted.shared_ids:
        if split_a.get(label) != split_b.get(label):
            fails.append(f"shared identity {label} lands in different splits")
            break
    return fails


# ---------------------------------------------------------------- similarity


def reference_heights(spectrum: generate.Spectrum, window, n_energy: int) -> np.ndarray:
    """Trapezoidal DOS integral per energy bin on the Fermi-shifted window.

    The operations follow the documented fingerprint definition step by step,
    so raster bit counts match the program's exactly.
    """
    x = spectrum.energies - spectrum.fermi_energy
    y = spectrum.dos
    edges = np.linspace(window[0], window[1], n_energy + 1)
    inner = x[(x > edges[0]) & (x < edges[-1])]
    pts = np.unique(np.concatenate([edges, inner]))
    vals = np.interp(pts, x, y, left=0.0, right=0.0)
    seg = 0.5 * (vals[:-1] + vals[1:]) * np.diff(pts)
    mids = 0.5 * (pts[:-1] + pts[1:])
    seg[(mids < x[0]) | (mids > x[-1])] = 0.0
    heights = np.zeros(n_energy)
    np.add.at(heights, np.searchsorted(edges, mids) - 1, seg)
    return heights


def reference_fingerprints(spectra, window, grid, mode: str) -> np.ndarray:
    """Raster fingerprints as per-column bit counts; vector ones as heights."""
    n_energy, n_dos = grid
    heights = np.array([reference_heights(s, window, n_energy) for s in spectra])
    if mode == "vector":
        return heights
    h_max = float(heights.max())
    if h_max == 0:
        return np.zeros(heights.shape, dtype=np.int64)
    clamped = np.clip(heights, 0.0, h_max)
    return np.minimum((n_dos * clamped / h_max).astype(int), n_dos)


def reference_tanimoto(a: np.ndarray, b: np.ndarray, mode: str) -> float:
    if mode == "raster":
        # a column of k bits set from zero up overlaps another in min(k, k') bits
        ab = int(np.minimum(a, b).sum())
        aa, bb = int(a.sum()), int(b.sum())
    else:
        ab, aa, bb = float(np.dot(a, b)), float(np.dot(a, a)), float(np.dot(b, b))
    denom = aa + bb - ab
    return 1.0 if denom == 0 else ab / denom


def check_similarity(outdir: Path, summary: dict, spectra, window, grid, mode: str,
                     rng) -> list[str]:
    fails = []
    n = len(spectra)
    text = (outdir / "similarity_matrix.csv").read_text()
    values = np.array([[float(t) for t in line.split(",")] for line in text.splitlines()])
    if values.shape != (n, n):
        return [f"matrix shape {values.shape}, expected ({n}, {n})"]
    if not np.array_equal(values, values.T):
        fails.append("matrix is not symmetric")
    if not np.all(np.diag(values) == 1.0):
        fails.append("matrix diagonal is not all 1")
    if not (np.all(values >= 0.0) and np.all(values <= 1.0)):
        fails.append("matrix has values outside [0, 1]")

    manifest = json.loads((outdir / "similarity_manifest.json").read_text())
    ordering = manifest.get("ordering", [])
    if sorted(ordering) != list(range(n)):
        return fails + ["manifest ordering is not a permutation of 0..n-1"]
    keys = ("xc", "n_kpt", "n_basis", "settings_tier", "relativistic")
    for row, label in zip(ordering, manifest.get("labels", [])):
        if any(label.get(k) != spectra[row].metadata[k] for k in keys):
            fails.append(f"manifest label of spectrum {row} differs from its sidecar")
            break

    ref = reference_fingerprints(spectra, window, grid, mode)
    for i, j in rng.integers(0, n, size=(SAMPLED_CELLS, 2)).tolist():
        want = reference_tanimoto(ref[ordering[i]], ref[ordering[j]], mode)
        got = values[i, j]
        if (got != want) if mode == "raster" else not abs(got - want) <= VECTOR_TOLERANCE:
            fails.append(f"cell ({i}, {j}) is {got!r}, reference {want!r}")
            break

    if summary.get("n_spectra") != n:
        fails.append(f"summary n_spectra is {summary.get('n_spectra')}, expected {n}")
    off = values[~np.eye(n, dtype=bool)]
    mean = summary.get("mean_off_diagonal")
    if n > 1 and not (isinstance(mean, float) and math.isclose(mean, off.mean(), rel_tol=1e-9)):
        fails.append(f"summary mean_off_diagonal {mean!r} differs from the matrix mean")
    return fails


# ---------------------------------------------------------------- ce-fit


def expected_steps(n: int, degree: int, max_features: int) -> int:
    return min(n - 1, max_features, math.comb(len(generate.CLUSTER_SHAPES) + degree, degree) - 1)


def check_ce(outdir: Path, summary: dict, planted: generate.CeInputs,
             degrees, max_features: int) -> list[str]:
    fails = []
    traces: dict[int, list[tuple[int, float]]] = {}
    for r in _read_csv(outdir / "fit_trace.csv"):
        traces.setdefault(int(r["degree"]), []).append((int(r["n_features"]), float(r["rmse"])))
    if sorted(traces) != sorted(degrees):
        return [f"fit trace has degrees {sorted(traces)}, expected {sorted(degrees)}"]
    for d in degrees:
        points = traces[d]
        steps = expected_steps(planted.n_configs, d, max_features)
        if [k for k, _ in points] != list(range(steps + 1)):
            fails.append(f"degree {d}: trace does not run 0..{steps} features")
        rmses = [r for _, r in points]
        slack = 1e-12 * max(1.0, rmses[0])
        if any(b > a + slack for a, b in zip(rmses, rmses[1:])):
            fails.append(f"degree {d}: RMSE trace increases")
        final = rmses[-1]
        if d >= 2 and not final <= NOISE_MULTIPLE * generate.NOISE_SIGMA:
            fails.append(f"degree {d}: final RMSE {final!r} above {NOISE_MULTIPLE} x noise")
        entry = summary.get("degrees", {}).get(str(d), {})
        if entry.get("rmse") != final or entry.get("n_features") != points[-1][0]:
            fails.append(f"degree {d}: summary disagrees with the fit trace")

        rows = _read_csv(outdir / f"predictions_d{d}.csv")
        if [r["entry_id"] for r in rows] != planted.ids:
            fails.append(f"degree {d}: predictions do not list every configuration in order")
            continue
        target = np.array([float(r["target"]) for r in rows])
        predicted = np.array([float(r["predicted"]) for r in rows])
        if not np.array_equal(target, planted.targets):
            fails.append(f"degree {d}: predictions carry wrong targets")
        recomputed = float(np.sqrt(np.mean((target - predicted) ** 2)))
        if not abs(recomputed - final) <= PREDICTION_TOLERANCE:
            fails.append(f"degree {d}: RMSE from predictions {recomputed!r} != trace {final!r}")
    return fails
