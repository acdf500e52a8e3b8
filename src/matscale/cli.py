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
import shutil
import sys
from collections import Counter
from itertools import cycle
from pathlib import Path
from typing import NoReturn

from . import BLAS_THREAD_ENV


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
    names in the order main() commits them, each mapped to the path the command
    writes it to: name in one new staging directory, .matscale-<12 hex> inside
    args.output_dir, that main() removes when the run ends. A command names them
    once, after its flag checks and before it reads any input or forks. An
    --output-dir that cannot be made or take the staging directory, or an
    output that is a directory, is a flag error."""
    out = Path(args.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name in names:
            if (out / name).is_dir():
                raise ConfigError(f"--output-dir: {out / name} is a directory")
        stage = out / f".matscale-{os.urandom(6).hex()}"
        stage.mkdir()
    except OSError as exc:  # named by --output-dir's path, never the staging directory's
        raise ConfigError(f"--output-dir: {OSError(exc.errno, exc.strerror, str(out))}"
                          ) from None
    args.outputs = {out / name: stage / name for name in names}
    return args.outputs


def _commit(outputs: dict[Path, Path]) -> None:
    """Rename each staged file onto its output, in order. A file an output
    replaces first gives the staged file its mode bits and is renamed into the
    staging directory. On an error each output renamed so far gets its old
    file back, or goes if it had none, and the error names the output."""
    done = []  # (output, the path its old file was renamed to, or None)
    try:
        for path, staged in outputs.items():
            kept = None
            if os.path.lexists(path):
                if os.path.exists(path):  # not a dangling link
                    shutil.copymode(path, staged)
                kept = staged.with_name(f"{staged.name}.old")
                os.replace(path, kept)
            done.append((path, kept))
            os.replace(staged, path)
    except OSError as exc:
        for undone, kept in reversed(done):
            if kept:
                os.replace(kept, undone)
            elif os.path.lexists(undone):  # not the output that failed
                os.unlink(undone)
        raise OSError(exc.errno, exc.strerror, str(path)) from None


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
    # declared twice would get one staged path, written by both processes
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


def cmd_ce_fit(args):
    from . import io, polyfeatures, regression

    for d in args.degree:
        _flag_spec("--degree", polyfeatures.check_degree, d)
    _flag_spec("--max-features", regression.check_max_features, args.max_features)
    if args.plateau_window is not None:
        _flag_spec("--plateau-window", regression.check_plateau_window, args.plateau_window)
    _flag_spec("--tol", regression.check_tol, args.tol)
    _flag_spec("--plateau-eps", regression.check_tol, args.plateau_eps, "eps")
    paths = [_require_file(path) for path in (args.configs, args.clusters, args.group)]
    outputs = _stage(args, ["fit_trace.csv",
                            *(f"predictions_d{d}.csv" for d in sorted(set(args.degree)))])

    ids, occupations, targets, clusters, group = io.read_ce_inputs(*paths)
    _flag_spec("--degree", polyfeatures.check_expansion_size,
               len(occupations), len(clusters), max(args.degree))

    traces = regression.compare_feature_spaces(occupations, targets, clusters, group, args.degree,
                                               max_features=args.max_features, tol=args.tol)
    trace_path, *pred_paths = outputs.values()
    io.write_trace_csv(trace_path, traces)
    summary = {"degrees": {}, "outputs": list(map(str, outputs))}
    for (d, trace), pred_path in zip(sorted(traces.items()), pred_paths):
        io.write_predictions_csv(pred_path, ids, targets, trace.fitted)
        entry = {"n_features": trace.final.n_features, "rmse": trace.final.rmse}
        if args.plateau_window is not None:
            entry["plateau"] = regression.plateau_detect(trace, args.plateau_window,
                                                         args.plateau_eps)
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
        """A flag that argparse refuses is a flag error like any other (exit 2),
        "--flag: ..." as the checked ones read, not "argument --flag: ..."."""
        raise ConfigError(message.removeprefix("argument "))

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
    args = argparse.Namespace(outputs={})  # _stage's: each output -> its staged path
    try:
        build_parser().parse_args(_join_window_flag(sys.argv[1:] if argv is None else argv), args)
        result = args.func(args)
        if not isinstance(result, str):
            result = json.dumps(result, allow_nan=False)
        _commit(args.outputs)
    except _Help as help_text:
        result = str(help_text)
    except ConfigError as exc:
        return _fail(2, exc)
    except OSError as exc:  # a staged file's error names its output
        output = {str(staged): path for path, staged in args.outputs.items()}.get(exc.filename)
        return _fail(1, exc if output is None else OSError(exc.errno, exc.strerror, str(output)))
    except (ValueError, OverflowError, KeyError) as exc:
        return _fail(1, exc)
    finally:  # whatever ended the run, its staging directory goes, with all it holds
        for stage in {staged.parent for staged in args.outputs.values()}:
            shutil.rmtree(stage, ignore_errors=True)
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
