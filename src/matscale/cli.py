"""matscale command line: curate, similarity, ce-fit, complexity, estimate.

Every subcommand prints a machine-readable JSON summary to stdout, and the
file outputs of a run appear together, or none do (_stage). Exit codes: 0
success, 1 module error, 2 configuration error (bad flags, missing inputs).
Flag text becomes values by ``io``'s rule for file text, and each flag
error is one ``matscale:`` line on stderr.

Importing this module loads no numpy and no other matscale module: each
``cmd_*`` function, and each flag's type, imports what it runs when it is
called, so ``complexity`` and ``estimate`` never load numpy. The names are
looked up on each call, so a rebound module attribute (``io.read_structures``,
``regression.compare_feature_spaces``) takes effect on the next call.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import os
import re
import sys
from collections import Counter
from itertools import cycle
from pathlib import Path
from typing import NoReturn

from . import BLAS_THREAD_ENV, STAGED


class ConfigError(Exception):
    pass


def _value(kind, text: str, what: str):
    """text as an int, a float or a str, read by io's rule for file text; a
    text the rule refuses is an error of the flag being parsed."""
    from . import io

    try:
        return {int: io._integer, float: io._number, str: io._string}[kind](text, what)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(exc) from None


def _read(*kinds, sep=None):
    """The argparse type of a flag: its text, or each of its sep-separated parts
    (any case of sep, so --grid takes 256X64), read by _value. One kind reads
    any number of parts; several kinds read one part each."""

    def read(text: str):
        if sep is None:
            return _value(kinds[0], text, "value")
        parts = re.split(sep, text, flags=re.IGNORECASE)
        if len(kinds) > 1 and len(parts) != len(kinds):
            raise argparse.ArgumentTypeError(
                f"expects {len(kinds)} {sep!r}-separated values, got {text!r}")
        return tuple(_value(kind, part, f"each value in {text!r}")
                     for kind, part in zip(cycle(kinds), parts))

    return read


def _require_file(path: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"input not found: {path}")
    return p


def _stage(args, names) -> dict[Path, Path]:
    """The outputs of a file-writing command, args.output_dir/name for each of
    names in the order main() commits them, each mapped to the temp path beside
    it that the command writes it to. A command names them once, after its flag
    checks and before it reads any input. The directory is made, and the temp
    names are chosen here (matscale.STAGED), so forked processes inherit them;
    an --output-dir that cannot be made, or an output that is a directory, is a
    flag error."""
    from . import io

    out = Path(args.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--output-dir: {exc}") from None
    outputs = {out / name: io._temp_name(out / name) for name in names}
    for path, tmp in outputs.items():
        if path.is_dir():
            raise ConfigError(f"--output-dir: {path} is a directory")
        STAGED[tmp] = path
    return outputs


def _commit() -> None:
    """Rename each staged temp file onto its output, in the order staged. A
    file an output replaces is first renamed aside, and deleted once every
    rename is done. On an error each output renamed so far gets its old file
    back, or goes if it had none, and the error names the output."""
    from . import io

    done = []  # (output, the name its old file was renamed to, or None)
    try:
        for tmp, path in STAGED.items():
            kept = f"{tmp}.old" if os.path.lexists(path) else None
            if kept:
                os.replace(path, kept)
            done.append((path, kept))
            os.replace(tmp, path)
    except OSError as exc:
        for undone, kept in reversed(done):
            if kept:
                os.replace(kept, undone)
            elif os.path.lexists(undone):  # not the output that failed
                os.unlink(undone)
        raise io._error_of(path, exc) from None
    for _, kept in done:
        if kept:
            os.unlink(kept)


def cmd_curate(args):
    # curation (and with it numpy) and structure_io load here, once, rather than in
    # each forked process
    from . import _workers, curation, io, structure_io  # noqa: F401

    input_path = _require_file(args.input)
    other_path = _require_file(args.other) if args.other else None
    _flag_spec("--split", curation.check_fractions, args.split)
    _flag_spec("--seed", curation.check_seed, args.seed)
    hist_specs = [(name, _flag_spec(f"--hist {name}", curation.histogram_edges, *bounds))
                  for name, *bounds in args.hist or []]
    for name, _ in hist_specs:
        if os.sep in name or (os.altsep and os.altsep in name):  # it names an output file
            raise ConfigError(f"--hist property name {name!r} holds a path separator")

    def output(path: Path, name: str | None = None) -> Path:
        """Dataset path's split file, or its histogram file of property name."""
        return Path(args.output_dir, f"{path.stem}_split.csv" if name is None
                    else f"{path.stem}_hist_{name}.csv")

    # each dataset's split file, then each --hist's file per dataset; a path
    # declared twice would get one temp name, written by both processes
    datasets = [("--input", input_path)] + ([("--other", other_path)] if other_path else [])
    writes = [(output(path), flag) for flag, path in datasets]
    for name, *bounds in args.hist or []:
        spec = ":".join(map(str, (name, *bounds)))
        writes += [(output(path, name), f"{flag} with --hist {spec}") for flag, path in datasets]
    writer = {}
    for path, flags in writes:
        if path in writer:
            raise ConfigError(f"{path} would be written by both {writer[path]} and {flags}")
        writer[path] = flags
    outputs = _stage(args, [path.name for path in writer])
    paths = [path for _, path in datasets]

    def curate(chunk):
        """Read each dataset of chunk, swap identity sets with the other process
        once (_workers.gather), then split, write and histogram each dataset;
        only write errors can follow the swap."""
        tables = [io.read_structures(path) for path in chunk]
        ids = _workers.gather([set(table.identities) for table in tables])
        common = ids[0] & ids[1] if len(ids) == 2 else None
        results = []
        for path, table in zip(chunk, tables):
            assignment = curation.grouped_split(table, args.split, args.seed, common)
            io.write_split_csv(outputs[output(path)], table, assignment)
            tally = Counter(assignment.assignment.values())
            hists = []
            for name, edges in hist_specs:
                hist = curation.property_histogram(table, name, edges)
                io.write_histogram_csv(outputs[output(path, name)], hist)
                hists.append({"binned": int(hist.counts.sum()), "missing": hist.n_missing,
                              "out_of_range": hist.n_out_of_range})
            results.append({"n_entries": len(table), "n_ids": list(map(len, ids)),
                            "n_common": len(common or ()), "hists": hists,
                            "counts": {name: tally[name] for name in curation.SPLIT_NAMES}})
        return results

    # one process per dataset, the input's in this one (_workers.split_map)
    results = _workers.split_map(curate, paths)
    first = results[0]
    summary = {"input": str(input_path), "n_entries": first["n_entries"],
               "outputs": list(map(str, outputs))}
    if other_path is not None:
        summary.update(other=str(other_path), unique_ids_input=first["n_ids"][0],
                       unique_ids_other=first["n_ids"][1], n_common_ids=first["n_common"])
    summary["split_counts"] = {path.stem: result["counts"] for path, result in zip(paths, results)}
    for j, (name, _) in enumerate(hist_specs):
        for path, result in zip(paths, results):
            summary.setdefault("histograms", {})[f"{path.stem}:{name}"] = result["hists"][j]
    return summary


def cmd_similarity(args):
    from . import io, spectra

    _flag_spec("--window", spectra.check_window, args.window)
    _flag_spec("--grid", spectra.check_grid, args.grid)
    if args.h_max is not None:
        _flag_spec("--h-max", spectra.check_h_max, args.h_max)
    spectra_dir = _require_file(args.spectra)
    outputs = _stage(args, ["similarity_matrix.csv", "similarity_manifest.json"])

    fps, labels = io.read_fingerprint_set(spectra_dir, args.window, args.grid, args.mode,
                                          args.h_max)
    matrix = spectra.similarity_matrix(fps, labels)
    if args.sort:
        matrix = spectra.sort_by_settings(matrix)

    io.write_matrix(*outputs.values(), matrix)
    return {
        "n_spectra": matrix.n,
        "sorted": bool(args.sort),
        "mode": args.mode,
        "mean_off_diagonal": matrix.mean_off_diagonal(),
        "outputs": list(map(str, outputs)),
    }


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

    for d in args.degree:
        _flag_spec("--degree", polyfeatures.check_degree, d)
    _flag_spec("--max-features", regression.check_max_features, args.max_features)
    if args.plateau_window is not None:
        _flag_spec("--plateau-window", regression.check_plateau_window, args.plateau_window)
    _flag_spec("--tol", regression.check_tol, args.tol)
    _flag_spec("--plateau-eps", regression.check_tol, args.plateau_eps, "eps")
    configs_path = _require_file(args.configs)
    clusters_path = _require_file(args.clusters)
    group_path = _require_file(args.group)
    outputs = _stage(args, ["fit_trace.csv",
                            *(f"predictions_d{d}.csv" for d in sorted(set(args.degree)))])

    ids, occupations, targets = io.read_ce_configs(configs_path)
    regression.check_targets(targets, f"{configs_path}: targets")
    clusters = _read_clusters(clusters_path)
    _flag_spec("--degree", polyfeatures.check_expansion_size,
               len(occupations), len(clusters), max(args.degree))
    group = _read_group(group_path)
    if occupations.shape[1] != group.n_sites:
        raise ValueError(f"{configs_path}: configurations have {occupations.shape[1]} sites "
                         f"but the group in {group_path} acts on {group.n_sites}")
    for k, cluster in enumerate(clusters):
        if cluster.sites and cluster.sites[-1] >= group.n_sites:
            raise ValueError(f"{clusters_path}: entry {k}: cluster touches site "
                             f"{cluster.sites[-1]} but the group acts on {group.n_sites} sites")

    traces = regression.compare_feature_spaces(
        occupations, targets, clusters, group, args.degree,
        max_features=args.max_features, tol=args.tol,
    )

    trace_path, *pred_paths = outputs.values()
    io.write_trace_csv(trace_path, traces)
    summary = {"degrees": {}, "outputs": list(map(str, outputs))}
    for (d, trace), pred_path in zip(sorted(traces.items()), pred_paths):
        io.write_predictions_csv(pred_path, ids, targets, trace.fitted)
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
        weights, biases = cx.nn_descriptor(_flag_spec("--nn", cx.NnSpec, args.nn))
        return {"model": "nn", "layer_widths": args.nn, "weights": weights,
                "biases": biases, "parameters": weights + biases}
    if args.rf:
        total_leaves, splits = cx.rf_descriptor(_flag_spec("--rf", cx.RfSpec, args.rf))
        return {"model": "rf", "leaves_per_tree": args.rf, "leaves": total_leaves,
                "splits": splits, "n_trees": len(args.rf)}
    rung, dimension = cx.sisso_descriptor(_flag_spec("--sisso", cx.SissoSpec, *args.sisso))
    return {"model": "sisso", "rung": rung, "dimension": dimension}


def _flag_spec(flag: str, spec, *values):
    """spec(*values); a value the spec rejects is the flag's error (exit 2)."""
    try:
        return spec(*values)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


def _sisso(text: str) -> tuple[int, int, bool]:
    """The argparse type of --sisso rung=R,dim=D[,bias]: (rung, dim, bias)."""
    values = {}
    bias = False
    for token in text.split(","):
        token = token.strip()
        key, sep, value = token.partition("=")
        if token == "bias":
            bias = True
        elif sep and key in ("rung", "dim"):
            values[key] = _value(int, value, repr(token))
        else:
            raise argparse.ArgumentTypeError(f"bad token {token!r} in {text!r}")
    if set(values) != {"rung", "dim"}:
        raise argparse.ArgumentTypeError(f"needs rung=R,dim=D[,bias], got {text!r}")
    return values["rung"], values["dim"], bias


# The cost spec field that each estimate flag fills, by flag; costs checks each.
_ESTIMATE_FIELD = {"structures": "n_structures", "settings": "settings_per_structure",
                   "files_per_run": "files_per_run", "steps": "n_steps", "t_batch": "t_batch",
                   "t_grad": "t_grad", "archs": "n_architectures",
                   "hours": "hours_per_architecture", "price": "price_per_gpu_hour"}


def cmd_estimate(args):
    from . import costs

    for name, field in _ESTIMATE_FIELD.items():
        value = getattr(args, name, None)
        if value is not None:
            _flag_spec(f"--{name.replace('_', '-')}", costs.check_field, field, value)
    if args.kind == "workflow":
        scaled = args.mb_per_run * 10**6  # the byte count that WorkflowSpec takes
        if not math.isfinite(scaled):
            raise ConfigError(f"--mb-per-run must give a finite byte count, got {args.mb_per_run}")
        _flag_spec("--mb-per-run", costs.check_field, "bytes_per_run", round(scaled))
        spec = costs.WorkflowSpec(
            n_structures=args.structures,
            settings_per_structure=args.settings,
            files_per_run=args.files_per_run,
            bytes_per_run=round(scaled),
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


class _Help(Exception):
    """--help's text, which main() writes to stdout as it writes a result."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A flag that argparse refuses is a flag error like any other (exit 2)."""
        raise ConfigError(message)

    def print_help(self, file=None):
        # argparse would write it itself and ignore a stdout that cannot take it
        raise _Help(self.format_help().removesuffix("\n"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="matscale",
        description="Dataset curation, DOS similarity, cluster-expansion "
        "fitting, and infrastructure cost estimation.",
    )
    parser.add_argument("--threads", type=_read(int), default=1,
                        help="accepted for compatibility and still unread: the "
                        "similarity fill is serial, and the BLAS runs on one thread "
                        "unless OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or "
                        "MKL_NUM_THREADS is set; only while it does, ce-fit fits its "
                        "degrees, similarity reads and bins its spectra (64 or more "
                        "each), and curate curates its two datasets, in forked "
                        "processes, one pinned to each CPU in the process's affinity "
                        "mask; outputs do not depend on the thread or process count")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curate", help="dedup identities, splits, histograms")
    p.add_argument("--input", required=True)
    p.add_argument("--other", help="second dataset; overlap is computed and "
                   "shared identities land in the same split on both sides")
    p.add_argument("--split", type=_read(float, sep=","), default="0.8,0.1,0.1")
    p.add_argument("--seed", type=_read(int), default=0)
    p.add_argument("--hist", action="append", type=_read(str, float, float, int, sep=":"),
                   help="property:lo:hi:nbins (repeatable)")
    p.add_argument("--output-dir", default=".")
    p.set_defaults(func=cmd_curate)

    p = sub.add_parser("similarity", help="fingerprint spectra, build the matrix")
    p.add_argument("--spectra", required=True, help="directory of CSV+JSON pairs")
    p.add_argument("--window", type=_read(float, float, sep=","), default="-10,10")
    p.add_argument("--grid", type=_read(int, int, sep="x"), default="256x64")
    p.add_argument("--mode", choices=["raster", "vector"], default="raster")
    p.add_argument("--h-max", type=_read(float), default=None)
    p.add_argument("--sort", action="store_true")
    p.add_argument("--output-dir", default=".")
    p.set_defaults(func=cmd_similarity)

    p = sub.add_parser("ce-fit", help="OMP traces over correlation feature spaces")
    p.add_argument("--configs", required=True)
    p.add_argument("--clusters", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--degree", type=_read(int, sep=","), default="1")
    p.add_argument("--max-features", type=_read(int), default=None)
    p.add_argument("--tol", type=_read(float), default=1e-12)
    p.add_argument("--plateau-window", type=_read(int), default=None)
    p.add_argument("--plateau-eps", type=_read(float), default=0.0)
    p.add_argument("--output-dir", default=".")
    p.set_defaults(func=cmd_ce_fit)

    p = sub.add_parser("complexity", help="model-complexity descriptors")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--nn", type=_read(int, sep=","), help="layer widths, e.g. 2,3,1")
    g.add_argument("--rf", type=_read(int, sep=","), help="leaves per tree, e.g. 3,5")
    g.add_argument("--sisso", type=_sisso, help="rung=R,dim=D[,bias]")
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("estimate", help="workflow and training budgets")
    est = p.add_subparsers(dest="kind", required=True)
    w = est.add_parser("workflow")
    w.add_argument("--structures", type=_read(int), required=True)
    w.add_argument("--settings", type=_read(int), required=True)
    w.add_argument("--files-per-run", type=_read(int), required=True)
    w.add_argument("--mb-per-run", type=_read(float), required=True)
    w.add_argument("--binary", action="store_true",
                   help="display binary (KiB/MiB/...) units")
    t = est.add_parser("training")
    t.add_argument("--steps", type=_read(int), required=True)
    t.add_argument("--t-batch", type=_read(float), required=True)
    t.add_argument("--t-grad", type=_read(float), required=True)
    n = est.add_parser("nas")
    n.add_argument("--archs", type=_read(int), required=True)
    n.add_argument("--hours", type=_read(float), required=True)
    n.add_argument("--price", type=_read(float), required=True)
    for q in (w, t, n):
        q.add_argument("--format", choices=["json", "human"], default="json")
    p.set_defaults(func=cmd_estimate)
    return parser


def _join_window_flag(argv):
    # lets "--window -10,10" survive argparse's leading-dash handling
    out, rest = [], iter(argv)
    for arg in rest:
        value = next(rest, None) if arg == "--window" else None
        out.append(arg if value is None else f"--window={value}")
    return out


def _fail(code: int, message) -> int:
    """Write "matscale: message" to stderr, if it can take it, and return code."""
    try:
        print(f"matscale: {message}", file=sys.stderr, flush=True)
    except OSError:
        pass
    return code


def main(argv=None) -> int:
    """Return the exit code of one run, --help included; leave os.environ as it is."""
    try:
        args = build_parser().parse_args(_join_window_flag(sys.argv[1:] if argv is None else argv))
        result = args.func(args)
        if not isinstance(result, str):
            result = json.dumps(result, allow_nan=False)
        _commit()
    except _Help as help_text:
        result = str(help_text)
    except ConfigError as exc:
        return _fail(2, exc)
    except (ValueError, OverflowError, OSError, KeyError) as exc:
        return _fail(1, exc)
    finally:  # whatever ended the run, its temp files go and nothing stays staged
        for tmp in STAGED:
            try:
                os.unlink(tmp)
            except OSError:  # committed, never written, or out of reach
                pass
        STAGED.clear()
    try:  # flushed here, so that a stdout that cannot take it is one error line
        print(result, flush=True)
    except OSError as exc:
        return _fail(1, f"stdout: {exc}")
    return 0


def run() -> NoReturn:
    """Program entry: choose the BLAS threads before numpy loads, then main(),
    then end the process with main()'s exit code.

    The BLAS reads its thread count once, when numpy loads it. Its default
    threads spin idle after each call and burn CPU; at this CLI's matrix
    sizes they save no wall time. So when the caller has set none of
    BLAS_THREAD_ENV, all of them are set to "1"; a caller who set any of
    them keeps every one as it was. main() leaves the environment alone, so
    a caller that runs it in-process and then starts other programs does
    not pass this choice on.

    The cyclic collector is off for the whole process, whose memory the OS
    reclaims at exit. After main() returns, the atexit handlers run and
    stdout and stderr are flushed, and os._exit ends the process: interpreter
    teardown would only free every object and run numpy's finalizers first.
    A flush that fails here is not reported again; main() already reported
    a stdout that could not take its result. main() neither disables the
    collector nor ends the process.
    """
    if not any(name in os.environ for name in BLAS_THREAD_ENV):
        os.environ.update(dict.fromkeys(BLAS_THREAD_ENV, "1"))
    gc.disable()
    code = main()
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError, ValueError):  # None, failing or closed
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
