"""matscale command line: curate, similarity, ce-fit, complexity, estimate.

Every subcommand prints a machine-readable JSON summary to stdout and
writes its file outputs atomically. Exit codes: 0 success, 1 module
error, 2 configuration error (bad flags, missing inputs).

Importing this module loads no numpy and no other matscale module: each
``cmd_*`` function imports what it runs when it is called, so ``complexity``
and ``estimate`` never load numpy. The names are looked up on each call, so
a rebound module attribute (``io.read_structures``,
``regression.compare_feature_spaces``) takes effect on the next call.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path

from . import BLAS_THREAD_ENV


class ConfigError(Exception):
    pass


def _parse_fractions(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise ConfigError(f"bad fraction in --split: {text!r}") from None


def _parse_hist_spec(text: str) -> tuple[str, np.ndarray]:
    from . import curation

    parts = text.split(":")
    if len(parts) != 4:
        raise ConfigError(f"--hist expects property:lo:hi:nbins, got {text!r}")
    try:
        name, lo, hi, nbins = parts[0], float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError:
        raise ConfigError(f"bad --hist values: {text!r}") from None
    if os.sep in name or (os.altsep and os.altsep in name):  # it names an output file
        raise ConfigError(f"--hist property name holds a path separator: {text!r}")
    return name, _flag_spec(f"--hist {text!r}", curation.histogram_edges, lo, hi, nbins)


def _require_file(path: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"input not found: {path}")
    return p


def _outdir(args) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_curate(args):
    from . import curation, io

    input_path = _require_file(args.input)
    other_path = _require_file(args.other) if args.other else None
    fractions = _parse_fractions(args.split)
    _flag_spec("--split", curation.check_fractions, fractions)
    _flag_spec("--seed", curation.check_seed, args.seed)
    hist_specs = [_parse_hist_spec(h) for h in args.hist or []]
    # outputs are named by input stem and property, so a repeat would overwrite one
    if other_path is not None and other_path.stem == input_path.stem:
        raise ConfigError(f"--input and --other have the same file stem {input_path.stem!r}")
    names = [name for name, *_ in hist_specs]
    repeated = [name for k, name in enumerate(names) if name in names[:k]]
    if repeated:
        raise ConfigError(f"two --hist specs name the property {repeated[0]!r}")
    outdir = _outdir(args)

    entries = io.read_structures(input_path)
    summary = {"input": str(input_path), "n_entries": len(entries), "outputs": []}

    shared = None
    if other_path is not None:
        other = io.read_structures(other_path)
        n_a, n_b, common = curation.dataset_overlap(entries, other)
        shared = common
        summary["other"] = str(other_path)
        summary["unique_ids_input"] = n_a
        summary["unique_ids_other"] = n_b
        summary["n_common_ids"] = len(common)

    datasets = [(input_path, entries)]
    if other_path is not None:
        datasets.append((other_path, other))

    split_counts = {}
    for path, data in datasets:
        assignment = curation.grouped_split(data, fractions, args.seed, shared)
        out_path = outdir / f"{path.stem}_split.csv"
        io.write_split_csv(out_path, data, assignment)
        summary["outputs"].append(str(out_path))
        tally = Counter(assignment.assignment.values())
        split_counts[path.stem] = {name: tally[name] for name in curation.SPLIT_NAMES}
    summary["split_counts"] = split_counts

    for name, edges in hist_specs:
        for path, data in datasets:
            hist = curation.property_histogram(data, name, edges)
            out_path = outdir / f"{path.stem}_hist_{name}.csv"
            io.write_histogram_csv(out_path, hist)
            summary["outputs"].append(str(out_path))
            summary.setdefault("histograms", {})[f"{path.stem}:{name}"] = {
                "binned": int(hist.counts.sum()),
                "missing": hist.n_missing,
                "out_of_range": hist.n_out_of_range,
            }
    return summary


def _parse_similarity_flags(args) -> tuple[tuple[float, float], tuple[int, int]]:
    """Validate every similarity flag; return the parsed (window, grid)."""
    try:
        lo, hi = (float(x) for x in args.window.split(","))
    except ValueError:
        raise ConfigError(f"--window expects lo,hi, got {args.window!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ConfigError(f"--window needs finite lo < hi, got {args.window!r}")
    try:
        ne, nd = (int(x) for x in args.grid.lower().split("x"))
    except ValueError:
        raise ConfigError(f"--grid expects NExND, got {args.grid!r}") from None
    if ne < 1 or nd < 1:
        raise ConfigError(f"--grid dimensions must be >= 1, got {args.grid!r}")
    if args.h_max is not None and not (math.isfinite(args.h_max) and args.h_max > 0):
        raise ConfigError(f"--h-max must be a finite number > 0, got {args.h_max}")
    return (lo, hi), (ne, nd)


def cmd_similarity(args):
    from . import io, spectra

    window, grid = _parse_similarity_flags(args)
    spectra_dir = _require_file(args.spectra)
    outdir = _outdir(args)

    items = io.read_spectra_dir(spectra_dir)
    fps = spectra.fingerprint_set([s for s, _ in items], window, grid, args.mode, args.h_max)
    matrix = spectra.similarity_matrix(list(zip(fps, [m for _, m in items])))
    if args.sort:
        matrix = spectra.sort_by_settings(matrix)

    csv_path = outdir / "similarity_matrix.csv"
    manifest_path = outdir / "similarity_manifest.json"
    io.write_matrix(csv_path, manifest_path, matrix)
    return {
        "n_spectra": matrix.n,
        "sorted": bool(args.sort),
        "mode": args.mode,
        "mean_off_diagonal": matrix.mean_off_diagonal(),
        "outputs": [str(csv_path), str(manifest_path)],
    }


def _parse_ce_fit_flags(args) -> list[int]:
    """Validate every numeric ce-fit flag; return the parsed --degree list."""
    try:
        degrees = [int(d) for d in args.degree.split(",")]
    except ValueError:
        raise ConfigError(f"--degree expects integers like 1,2,3: {args.degree!r}")
    if min(degrees) < 1:
        raise ConfigError(f"--degree values must be >= 1: {args.degree!r}")
    if args.max_features is not None and args.max_features < 0:
        raise ConfigError(f"--max-features must be >= 0, got {args.max_features}")
    if args.plateau_window is not None and args.plateau_window < 1:
        raise ConfigError(f"--plateau-window must be >= 1, got {args.plateau_window}")
    for flag, value in (("--tol", args.tol), ("--plateau-eps", args.plateau_eps)):
        if not (math.isfinite(value) and value >= 0):
            raise ConfigError(f"{flag} must be a finite number >= 0, got {value}")
    return degrees


def _read_clusters(path: Path) -> list[Cluster]:
    from . import io
    from .lattice import Cluster

    clusters = []
    for k, sites in enumerate(io.read_index_lists(path)):
        try:
            clusters.append(Cluster(sites))
        except ValueError as exc:
            raise ValueError(f"{path}: entry {k}: {exc}") from None
    if not clusters:
        raise ValueError(f"{path}: no clusters")
    return clusters


def _read_group(path: Path) -> SymmetryGroup:
    from . import io
    from .lattice import SymmetryGroup

    permutations = io.read_index_lists(path)
    try:
        return SymmetryGroup(permutations)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_ce_fit(args):
    from . import io, polyfeatures, regression

    degrees = _parse_ce_fit_flags(args)
    configs_path = _require_file(args.configs)
    clusters_path = _require_file(args.clusters)
    group_path = _require_file(args.group)
    outdir = _outdir(args)

    ids, occupations, targets = io.read_ce_configs(configs_path)
    clusters = _read_clusters(clusters_path)
    _flag_spec("--degree", polyfeatures.check_expansion_size,
               len(occupations), len(clusters), max(degrees))
    group = _read_group(group_path)

    traces = regression.compare_feature_spaces(
        occupations, targets, clusters, group, degrees,
        max_features=args.max_features, tol=args.tol,
    )

    trace_path = outdir / "fit_trace.csv"
    io.write_trace_csv(trace_path, traces)
    outputs = [str(trace_path)]
    summary = {"degrees": {}, "outputs": outputs}
    for d, trace in sorted(traces.items()):
        pred_path = outdir / f"predictions_d{d}.csv"
        io.write_predictions_csv(pred_path, ids, targets, trace.fitted)
        outputs.append(str(pred_path))
        entry = {"n_features": trace.final.n_features, "rmse": trace.final.rmse}
        if args.plateau_window is not None:
            entry["plateau"] = regression.plateau_detect(
                trace, args.plateau_window, args.plateau_eps
            )
        summary["degrees"][str(d)] = entry
    return summary


def cmd_complexity(args):
    from . import complexity as cx

    if args.nn:
        try:
            widths = [int(w) for w in args.nn.split(",")]
        except ValueError:
            raise ConfigError(f"--nn expects widths like 2,3,1: {args.nn!r}")
        weights, biases = cx.nn_descriptor(_flag_spec("--nn", cx.NnSpec, widths))
        return {"model": "nn", "layer_widths": widths, "weights": weights,
                "biases": biases, "parameters": weights + biases}
    if args.rf:
        try:
            leaves = [int(l) for l in args.rf.split(",")]
        except ValueError:
            raise ConfigError(f"--rf expects leaf counts like 3,5: {args.rf!r}")
        total_leaves, splits = cx.rf_descriptor(_flag_spec("--rf", cx.RfSpec, leaves))
        return {"model": "rf", "leaves_per_tree": leaves, "leaves": total_leaves,
                "splits": splits, "n_trees": len(leaves)}
    spec = _parse_sisso(args.sisso)
    rung, dimension = cx.sisso_descriptor(spec)
    return {"model": "sisso", "rung": rung, "dimension": dimension}


def _flag_spec(flag: str, spec, *values):
    """spec(*values); a value the spec rejects is the flag's error (exit 2)."""
    try:
        return spec(*values)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


def _parse_sisso(text: str) -> cx.SissoSpec:
    from . import complexity as cx

    values = {}
    bias = False
    for token in text.split(","):
        token = token.strip()
        key, sep, value = token.partition("=")
        if token == "bias":
            bias = True
        elif sep and key in ("rung", "dim"):
            try:
                values[key] = int(value)
            except ValueError:
                raise ConfigError(f"--sisso {token!r} is not an integer") from None
        else:
            raise ConfigError(f"bad --sisso token {token!r} in {text!r}")
    if set(values) != {"rung", "dim"}:
        raise ConfigError(f"--sisso needs rung=R,dim=D[,bias], got {text!r}")
    return _flag_spec("--sisso", cx.SissoSpec, values["rung"], values["dim"], bias)


# The least value of each estimate flag: the cost specs' own bounds, by flag.
_ESTIMATE_LEAST = {"structures": 1, "settings": 1, "files_per_run": 1, "steps": 1,
                   "t_batch": 0, "t_grad": 0, "archs": 0, "hours": 0, "price": 0}


def _check_estimate_flags(args) -> None:
    """Every estimate flag is finite and in range, else a ConfigError naming it."""
    for name in ("mb_per_run", "t_batch", "t_grad", "hours", "price"):
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"--{name.replace('_', '-')} must be finite, got {value}")
    for name, least in _ESTIMATE_LEAST.items():
        value = getattr(args, name, None)
        if value is not None and value < least:
            raise ConfigError(f"--{name.replace('_', '-')} must be >= {least}, got {value}")
    if args.kind == "workflow":
        scaled = args.mb_per_run * 10**6  # the byte count that WorkflowSpec takes
        if not (math.isfinite(scaled) and round(scaled) >= 1):
            raise ConfigError(f"--mb-per-run must be at least one byte (1e-06) and give "
                              f"a finite byte count, got {args.mb_per_run}")


def cmd_estimate(args):
    from . import costs

    _check_estimate_flags(args)
    if args.kind == "workflow":
        spec = costs.WorkflowSpec(
            n_structures=args.structures,
            settings_per_structure=args.settings,
            files_per_run=args.files_per_run,
            bytes_per_run=round(args.mb_per_run * 10**6),
        )
        est = costs.workflow_estimate(spec)
        payload = {
            "runs": est.runs,
            "files": est.files,
            "bytes": est.bytes,
            "storage": costs.format_bytes(est.bytes, binary=args.binary),
        }
        human = (
            f"runs: {est.runs:,}\nfiles: {est.files:,}\n"
            f"storage: {payload['storage']}"
        )
    elif args.kind == "training":
        seconds = costs.training_time(
            costs.TrainingSpec(args.steps, args.t_batch, args.t_grad)
        )
        payload = {"seconds": seconds, "hours": seconds / 3600.0}
        human = f"training time: {seconds:,.1f} s ({seconds / 3600.0:.2f} h)"
    else:
        budget = costs.nas_budget(
            costs.NasSpec(args.archs, args.hours, args.price)
        )
        payload = {"gpu_hours": budget.gpu_hours, "cost": budget.cost}
        human = f"GPU hours: {budget.gpu_hours:,.0f}\ncost: {budget.cost:,.0f}"
    if args.format == "human":
        return human
    return payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matscale",
        description="Dataset curation, DOS similarity, cluster-expansion "
        "fitting, and infrastructure cost estimation.",
    )
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility and unused: the similarity "
                        "fill is serial, and the BLAS runs on one thread unless "
                        "OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS "
                        "is set; only while it does, ce-fit fits its degrees "
                        "concurrently on the CPUs in the process's affinity mask; "
                        "outputs do not depend on the thread count")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curate", help="dedup identities, splits, histograms")
    p.add_argument("--input", required=True)
    p.add_argument("--other", help="second dataset; overlap is computed and "
                   "shared identities land in the same split on both sides")
    p.add_argument("--split", default="0.8,0.1,0.1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hist", action="append",
                   help="property:lo:hi:nbins (repeatable)")
    p.add_argument("--output-dir", default=".")
    p.set_defaults(func=cmd_curate)

    p = sub.add_parser("similarity", help="fingerprint spectra, build the matrix")
    p.add_argument("--spectra", required=True, help="directory of CSV+JSON pairs")
    p.add_argument("--window", default="-10,10")
    p.add_argument("--grid", default="256x64")
    p.add_argument("--mode", choices=["raster", "vector"], default="raster")
    p.add_argument("--h-max", type=float, default=None)
    p.add_argument("--sort", action="store_true")
    p.add_argument("--output-dir", default=".")
    p.set_defaults(func=cmd_similarity)

    p = sub.add_parser("ce-fit", help="OMP traces over correlation feature spaces")
    p.add_argument("--configs", required=True)
    p.add_argument("--clusters", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--degree", default="1")
    p.add_argument("--max-features", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--plateau-window", type=int, default=None)
    p.add_argument("--plateau-eps", type=float, default=0.0)
    p.add_argument("--output-dir", default=".")
    p.set_defaults(func=cmd_ce_fit)

    p = sub.add_parser("complexity", help="model-complexity descriptors")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--nn", help="layer widths, e.g. 2,3,1")
    g.add_argument("--rf", help="leaves per tree, e.g. 3,5")
    g.add_argument("--sisso", help="rung=R,dim=D[,bias]")
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("estimate", help="workflow and training budgets")
    est = p.add_subparsers(dest="kind", required=True)
    w = est.add_parser("workflow")
    w.add_argument("--structures", type=int, required=True)
    w.add_argument("--settings", type=int, required=True)
    w.add_argument("--files-per-run", type=int, required=True)
    w.add_argument("--mb-per-run", type=float, required=True)
    w.add_argument("--binary", action="store_true",
                   help="display binary (KiB/MiB/...) units")
    t = est.add_parser("training")
    t.add_argument("--steps", type=int, required=True)
    t.add_argument("--t-batch", type=float, required=True)
    t.add_argument("--t-grad", type=float, required=True)
    n = est.add_parser("nas")
    n.add_argument("--archs", type=int, required=True)
    n.add_argument("--hours", type=float, required=True)
    n.add_argument("--price", type=float, required=True)
    for q in (w, t, n):
        q.add_argument("--format", choices=["json", "human"], default="json")
    p.set_defaults(func=cmd_estimate)
    return parser


def _join_window_flag(argv):
    # lets "--window -10,10" survive argparse's leading-dash handling
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--window" and i + 1 < len(argv):
            out.append(f"--window={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    """Run one subcommand; return its exit code. Leaves os.environ as it is."""
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_window_flag(list(argv)))
    try:
        result = args.func(args)
        if not isinstance(result, str):
            result = json.dumps(result, allow_nan=False)
    except ConfigError as exc:
        print(f"matscale: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, OSError, KeyError) as exc:
        print(f"matscale: {exc}", file=sys.stderr)
        return 1
    print(result)
    return 0


def run() -> int:
    """Program entry: choose the BLAS threads before numpy loads, then main().

    The BLAS reads its thread count once, when numpy loads it. Its default
    threads spin idle after each call and burn CPU; at this CLI's matrix
    sizes they save no wall time. So when the caller has set none of
    BLAS_THREAD_ENV, all of them are set to "1"; a caller who set any of
    them keeps every one as it was. main() leaves the environment alone, so
    a caller that runs it in-process and then starts other programs does
    not pass this choice on.

    The cyclic collector is off for the whole process, whose heap the OS
    reclaims at exit. After main() returns the heap is frozen: interpreter
    shutdown still runs atexit handlers, flushes stdio and frees by
    reference count, but its cycle collection skips the frozen objects.
    main() neither disables the collector nor freezes the heap.
    """
    if not any(name in os.environ for name in BLAS_THREAD_ENV):
        os.environ.update(dict.fromkeys(BLAS_THREAD_ENV, "1"))
    gc.disable()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
