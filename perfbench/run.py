#!/usr/bin/env python3
"""matscale benchmark: CLI workloads on seeded synthetic inputs.

    python3 perfbench/run.py --workload curate --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``, nothing is installed. With ``--trace 0`` every measured invocation
is a fresh ``python3 -m matscale.cli`` process and the end-to-end metrics are
printed. With ``--trace 1`` untraced invocations alternate with in-process
``matscale.cli.main`` passes under the span wrappers of ``spans.py``, and the
per-layer metrics are printed. The last stdout line is the result object; the
line before it holds provenance, raw samples and output digests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io as _io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import generate
import spans
import verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
INPUTS, OUT = "inputs", "out"  # inside each run's work directory

MIN_SAMPLES = 3
# The reference task's typical wall time on the 2-core Xeon machine the
# benchmark was tuned on. setup_s is reported in seconds of a machine that
# runs the reference task in this time.
REFERENCE_S = 0.4
INVOCATION_TIMEOUT_S = 120.0
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# Input sizes. "full" is what the benchmark measures; "tiny" exists for the
# self-test, which checks names, units and output checks but never timings.
SIZES = {
    "full": {"rows_a": 12000, "rows_b": 6000, "spectra": 240, "points": 1000,
             "configs": 120, "max_features": 100},
    "tiny": {"rows_a": 300, "rows_b": 150, "spectra": 12, "points": 200,
             "configs": 60, "max_features": 36},
}
CE_DEGREES = (1, 2, 3, 4)
WINDOW = (-10.0, 10.0)
GRID = (256, 64)

END_TO_END = {
    "setup_s": "s",
    "wall_rel": "ratio",
    "cpu_rel": "ratio",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ratio",
}


# ---------------------------------------------------------------- workloads


@dataclass
class Workload:
    name: str
    make: Callable[[Path, np.random.Generator, dict], object]
    argv: Callable[[object, Path, int, dict], list[str]]
    check: Callable[[Path, dict, object, np.random.Generator, dict], list[str]]
    n_entries: Callable[[object], int] = lambda planted: 0
    n_spectra: Callable[[object], int] = lambda planted: 0


def _similarity(mode: str) -> Workload:
    flags = ["--threads", "2"] if mode == "vector" else []
    return Workload(
        name=f"similarity-{mode}",
        make=lambda d, rng, size: generate.make_spectra(d / "spectra", rng, size["spectra"], size["points"]),
        argv=lambda planted, d, seed, size: flags + [
            "similarity", "--spectra", str(d / "spectra"), "--window", f"{WINDOW[0]:g},{WINDOW[1]:g}",
            "--grid", f"{GRID[0]}x{GRID[1]}", "--sort", "--mode", mode],
        check=lambda out, summary, planted, rng, size: verify.check_similarity(
            out, summary, planted, WINDOW, GRID, mode, rng),
        n_spectra=len,
    )


WORKLOADS = {w.name: w for w in (
    Workload(
        name="curate",
        make=lambda d, rng, size: generate.make_curate(d, rng, size["rows_a"], size["rows_b"]),
        argv=lambda planted, d, seed, size: [
            "curate", "--input", str(d / planted.paths[0].name),
            "--other", str(d / planted.paths[1].name),
            "--split", "0.8,0.1,0.1", "--seed", str(seed),
            "--hist", "{}:{:g}:{:g}:{}".format(generate.HIST_PROPERTY, *generate.HIST_EDGES)],
        check=lambda out, summary, planted, rng, size: verify.check_curate(out, summary, planted),
        n_entries=lambda planted: sum(len(ids) for ids in planted.identities),
    ),
    _similarity("raster"),
    _similarity("vector"),
    Workload(
        name="ce-fit",
        make=lambda d, rng, size: generate.make_ce(d, rng, size["configs"]),
        argv=lambda planted, d, seed, size: [
            "ce-fit", "--configs", str(d / planted.paths["configs"].name),
            "--clusters", str(d / planted.paths["clusters"].name),
            "--group", str(d / planted.paths["group"].name),
            "--degree", ",".join(map(str, CE_DEGREES)), "--max-features", str(size["max_features"])],
        check=lambda out, summary, planted, rng, size: verify.check_ce(
            out, summary, planted, CE_DEGREES, size["max_features"]),
    ),
)}


# ---------------------------------------------------------------- processes


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdout: bytes
    stderr: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def spawn(argv: list[str], cwd: Path, stderr_path: Path) -> Invocation:
    """Run one child in cwd to exit; wall from spawn to exit with stdout drained.

    CPU time and peak RSS come from the child's own rusage (wait4).
    """
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=cwd)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return Invocation(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        returncode=proc.returncode,
        stdout=stdout,
        stderr=stderr_path.read_text(errors="replace")[-400:],
    )


# ---------------------------------------------------------------- provenance


def _blas() -> object:
    try:
        config = np.show_config(mode="dicts")
        return config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy prints instead of returning
        return "unknown"


def _commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _tree_digest(root: Path, pattern: str) -> tuple[int, int, str]:
    """(file count, total bytes, SHA-256 over relative names and contents)."""
    h = hashlib.sha256()
    n = size = 0
    for path in sorted(root.rglob(pattern)):
        if path.is_file() and "__pycache__" not in path.parts:
            data = path.read_bytes()
            h.update(str(path.relative_to(root)).encode() + b"\0" + data)
            n, size = n + 1, size + len(data)
    return n, size, h.hexdigest()


def provenance(args, inputs_dir: Path, gen_s: float) -> dict:
    n_files, n_bytes, digest = _tree_digest(inputs_dir, "*")
    return {
        "commit": _commit(),
        "src_sha256": _tree_digest(SRC, "*.py")[2],
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "inputs": {"files": n_files, "bytes": n_bytes, "sha256": digest, "generate_s": gen_s},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


# ---------------------------------------------------------------- measuring


@dataclass
class Run:
    workload: Workload
    planted: object
    work: Path
    seed: int
    size: dict
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    reference: dict | None = None
    reference_ok: bool = False

    @property
    def inputs_dir(self) -> Path:
        return self.work / INPUTS

    @property
    def outdir(self) -> Path:
        return self.work / OUT

    def cli_argv(self) -> list[str]:
        """CLI arguments with paths relative to the work directory, so the
        stdout summary is the same in every checkout and run."""
        return self.workload.argv(self.planted, Path(INPUTS), self.seed, self.size) + [
            "--output-dir", OUT]

    def fresh_outdir(self) -> None:
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.outdir.mkdir(parents=True)

    def judge(self, label: str, returncode: int, stdout: bytes) -> list[str]:
        """Check one invocation's exit code, stdout and output files.

        The first invocation is checked in full and its digests become the
        reference; later ones must reproduce those digests byte for byte.
        """
        fails = []
        if returncode != 0:
            fails.append(f"exit code {returncode}")
        else:
            try:
                summary = verify.parse_summary(stdout)
            except ValueError as exc:
                fails.append(f"stdout is not standard JSON: {exc}")
            else:
                got = verify.digests(self.outdir, stdout)
                if self.reference is None:
                    self.reference = got
                    rng = np.random.default_rng([self.seed, 1])
                    fails += self.workload.check(self.outdir, summary, self.planted, rng, self.size)
                    self.reference_ok = not fails
                elif got != self.reference:
                    fails.append("outputs differ from the first invocation")
                elif not self.reference_ok:
                    fails.append("outputs repeat those of a failed check")
        self.attempted += 1
        self.failed += bool(fails)
        self.failures += [f"{label}: {f}" for f in fails]
        return fails

    def invoke(self) -> Invocation:
        label = f"invocation {self.attempted + 1}"
        self.fresh_outdir()
        inv = spawn([sys.executable, "-m", "matscale.cli", *self.cli_argv()], self.work,
                    self.work / "stderr.txt")
        if self.judge(label, inv.returncode, inv.stdout) and inv.stderr:
            self.failures.append(f"{label}: stderr: {inv.stderr.strip()}")
        return inv

    def setup_sample(self) -> float:
        """Wall time of a fresh interpreter that imports matscale.cli and exits."""
        return self._helper(["-c", "import matscale.cli"]).wall_s

    def reference_sample(self) -> Invocation:
        """The fixed reference task of reference_task.py, in a fresh process."""
        return self._helper([str(HERE / "reference_task.py")])

    def _helper(self, args: list[str]) -> Invocation:
        inv = spawn([sys.executable, *args], self.work, self.work / "stderr.txt")
        if inv.returncode != 0:
            raise RuntimeError(f"python3 {' '.join(args)} failed: {inv.stderr}")
        return inv

    def traced_pass(self, tracer: spans.Tracer, cli_main) -> tuple[float, dict]:
        """One in-process cli.main call under the tracer: wall time and layer metrics."""
        label = f"traced pass {self.attempted + 1}"
        self.fresh_outdir()
        tracer.reset()
        buf = _io.StringIO()
        home = os.getcwd()
        os.chdir(self.work)
        try:
            with contextlib.redirect_stdout(buf):
                start = time.perf_counter()
                code = cli_main(self.cli_argv())
                wall = time.perf_counter() - start
        finally:
            os.chdir(home)
        self.judge(label, code, buf.getvalue().encode())
        w = self.workload
        return wall, tracer.layer_metrics(wall, w.n_entries(self.planted), w.n_spectra(self.planted))


def keep_going(started: float, seconds: float, iterations: list[float]) -> bool:
    """Another iteration fits in the run, or too few samples were taken yet."""
    if len(iterations) < MIN_SAMPLES:
        return True
    return time.perf_counter() - started + statistics.median(iterations) <= seconds


def relative(times: list[float], reference: list[float]) -> float:
    """Median over iterations of a time divided by the reference task's time.

    The shared machine changes speed over seconds and drifts over minutes.
    The reference task runs between the set-up sample and the CLI in each
    iteration, so all three mostly see the same machine, and their ratios
    move far less from run to run than the times do.
    """
    return statistics.median(t / r for t, r in zip(times, reference))


def measure(run: Run, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Repeat iterations until the run's time is spent; return metrics and samples.

    Each iteration times one interpreter set-up, one reference task and one
    untraced CLI invocation; with ``trace`` it also makes one traced
    in-process pass.
    """
    samples: dict[str, list] = {k: [] for k in (
        "setup_s", "wall_s", "cpu_s", "peak_rss_mb", "ref_wall_s", "ref_cpu_s")}
    layers: list[dict] = []
    traced_walls: list[float] = []
    tracer = spans.Tracer()
    if trace:
        from matscale.cli import main as cli_main

        tracer.install()
    iterations: list[float] = []
    started = time.perf_counter()
    try:
        while keep_going(started, seconds, iterations):
            t = time.perf_counter()
            setup = run.setup_sample()
            ref = run.reference_sample()
            inv = run.invoke()
            for key, value in (("setup_s", setup), ("wall_s", inv.wall_s), ("cpu_s", inv.cpu_s),
                               ("peak_rss_mb", inv.peak_rss_mb),
                               ("ref_wall_s", ref.wall_s), ("ref_cpu_s", ref.cpu_s)):
                samples[key].append(value)
            if trace:
                wall, layer = run.traced_pass(tracer, cli_main)
                traced_walls.append(wall)
                layers.append(layer)
            iterations.append(time.perf_counter() - t)
    finally:
        tracer.uninstall()
    if not trace:
        return {
            "setup_s": relative(samples["setup_s"], samples["ref_wall_s"]) * REFERENCE_S,
            "wall_rel": relative(samples["wall_s"], samples["ref_wall_s"]),
            "cpu_rel": relative(samples["cpu_s"], samples["ref_cpu_s"]),
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
            "ok_ratio": (run.attempted - run.failed) / run.attempted,
        }, samples

    # Times are medians over the traced passes; counts must repeat exactly.
    counts = {k for k, (unit, _) in spans.PER_LAYER.items() if unit in ("count", "bytes")
              or k.endswith(("calls_per_entry", "calls_per_spectrum"))}
    metrics = {k: layers[0][k] if k in counts else statistics.median(layer[k] for layer in layers)
               for k in layers[0]}
    if any(layer[k] != layers[0][k] for layer in layers for k in counts & set(layers[0])):
        run.failures.append("call counts differ between traced passes")
    untraced = statistics.median(samples["wall_s"]) - statistics.median(samples["setup_s"])
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - untraced
    metrics["spectra.fingerprint_set.peak_mb"] = fingerprint_peak_mb(run)
    samples["traced_wall_s"] = traced_walls
    return metrics, samples


def fingerprint_peak_mb(run: Run) -> float:
    """Peak memory fingerprint_set allocates, in a separate tracemalloc pass."""
    if not run.workload.n_spectra(run.planted):
        return 0.0
    from matscale import io, spectra

    mode = run.workload.name.rsplit("-", 1)[1]
    items = io.read_spectra_dir(run.inputs_dir / "spectra")
    return spans.peak_mb(spectra.fingerprint_set, [s for s, _ in items],
                         window=WINDOW, grid=GRID, mode=mode)


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through the finally blocks that stop the running
    # child and delete the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "matscale" / "cli.py").is_file():
        print(f"run.py: no matscale sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    size = SIZES[args.size]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs_dir = work / INPUTS
        start = time.perf_counter()
        planted = workload.make(inputs_dir, np.random.default_rng(args.seed), size)
        gen_s = time.perf_counter() - start
        run = Run(workload, planted, work, args.seed % 100000, size)

        # Warm-up outside the timed region: compiles bytecode, fills the page
        # cache, and checks the outputs in full once.
        run.setup_sample()
        run.invoke()
        metrics, samples = measure(run, args.seconds, bool(args.trace))
        record = {
            "provenance": provenance(args, inputs_dir, gen_s),
            "samples": samples,
            "digests": run.reference,
            "failures": run.failures,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    units = {k: u for k, (u, _) in spans.PER_LAYER.items()} if args.trace else END_TO_END
    print(json.dumps(record))
    print(json.dumps({
        "correct": run.failed == 0 and not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
