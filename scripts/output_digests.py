#!/usr/bin/env python3
"""SHA-256 digests of what matscale writes: stdout and every output file.

    python scripts/output_digests.py > digests.json

runs, each in a fresh process that imports matscale from this checkout's
``src/``:
  - the four perfbench workloads, with perfbench/run.py's argv, on inputs
    that perfbench/generate.py builds at perfbench's full sizes on generator
    seeds 1, 7 and 11;
  - scripts/run_demo.py on the data of scripts/make_demo_data.py.
It prints one JSON object: per run, its exit code, the digest of its stdout
and the digest of every file it wrote. Each run has a directory of its own
and is given only paths relative to it, because stdout names them; so the
JSON does not depend on where the checkout or the temporary directory is.

Two checkouts write the same bytes on these inputs when the JSONs are equal.
Copy this script into the other checkout's scripts/ if it has none, then

    python scripts/output_digests.py > change.json
    (cd ../parent && python scripts/output_digests.py) > parent.json
    diff parent.json change.json

tests/test_invariance.py imports run_many() to run one command under
variants of its environment.
"""

from __future__ import annotations

import collections
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SEEDS = (1, 7, 11)
TIMEOUT_S = 300
PROCESSES = 2  # children at once
# Unset in every child, so that a run's defaults are the CLI's own: the BLAS
# thread count (matscale.BLAS_THREAD_ENV; the CLI chooses it when none is
# set), the OpenBLAS kernel and the stdio encoding.
RESET_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "OPENBLAS_CORETYPE", "PYTHONIOENCODING")


def cli(*args: str) -> list[str]:
    """The command that runs ``matscale`` from this checkout's sources."""
    return [sys.executable, "-m", "matscale.cli", *args]


@dataclass
class Output:
    returncode: int
    stdout: bytes
    stderr: str
    files: dict[str, str]  # path relative to the run's directory -> SHA-256

    def digests(self) -> dict:
        return {"returncode": self.returncode, "stdout": _sha256(self.stdout),
                "files": self.files}


def run_many(jobs) -> list[Output]:
    """The Output of each job, in job order, running up to PROCESSES at once.

    A job is (command, cwd), optionally followed by env, a dict added to the
    child's environment, and one_cpu: pin the child to the first CPU of this
    process's affinity mask. cwd is created if missing; the files digested are
    those that are under it after the run but were not before.
    """
    outputs, running = [], collections.deque()
    for job in jobs:
        if len(running) == PROCESSES:
            outputs.append(running.popleft().result())
        running.append(_Child(*job))
    outputs.extend(child.result() for child in running)
    return outputs


class _Child:
    def __init__(self, command: list[str], cwd: Path, env: dict | None = None,
                 one_cpu: bool = False):
        self.cwd = Path(cwd)
        self.cwd.mkdir(parents=True, exist_ok=True)
        self.before = set(_files(self.cwd))
        child_env = {k: v for k, v in os.environ.items() if k not in RESET_ENV}
        child_env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
        child_env.update(env or {})
        # the output goes to unnamed files, not pipes: nothing blocks while
        # another child is being waited for
        self.stdout, self.stderr = tempfile.TemporaryFile(), tempfile.TemporaryFile()
        self.proc = subprocess.Popen(command, cwd=self.cwd, env=child_env, stdout=self.stdout,
                                     stderr=self.stderr,
                                     preexec_fn=_pin_to_one_cpu if one_cpu else None)

    def result(self) -> Output:
        try:
            returncode = self.proc.wait(TIMEOUT_S)
            streams = []
            for fh in (self.stdout, self.stderr):
                fh.seek(0)
                streams.append(fh.read())
        finally:
            if self.proc.returncode is None:  # timed out
                self.proc.kill()
                self.proc.wait()
            self.stdout.close()
            self.stderr.close()
        written = sorted(path for path in _files(self.cwd) if path not in self.before)
        return Output(returncode, streams[0], streams[1].decode(errors="replace"),
                      {path: _sha256((self.cwd / path).read_bytes()) for path in written})


def _pin_to_one_cpu() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _files(root: Path):
    return (p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import numpy as np
    import run as perfbench

    size = perfbench.SIZES["full"]
    with tempfile.TemporaryDirectory(prefix="output_digests-") as tmp:
        jobs = {}
        for name, workload in sorted(perfbench.WORKLOADS.items()):
            for seed in SEEDS:
                work = Path(tmp) / f"{name}-{seed}"
                planted = workload.make(work / perfbench.INPUTS, np.random.default_rng(seed), size)
                argv = workload.argv(planted, Path(perfbench.INPUTS), seed, size)
                jobs[f"{name}/seed{seed}"] = (cli(*argv, "--output-dir", perfbench.OUT), work)
        demo, scripts = Path(tmp) / "demo", ROOT / "scripts"
        outputs = {"demo/data": run_many([(
            [sys.executable, str(scripts / "make_demo_data.py"), "--out", "data"], demo)])[0]}
        jobs["demo/run_demo"] = (
            [sys.executable, str(scripts / "run_demo.py"), "--data", "data", "--out", "out"], demo)
        outputs.update(zip(jobs, run_many(jobs.values())))
    for key, out in outputs.items():
        if out.returncode:
            print(f"{key}: exit code {out.returncode}: {out.stderr}", file=sys.stderr)
    print(json.dumps({key: out.digests() for key, out in outputs.items()}, indent=1,
                     sort_keys=True))
    return 0 if all(out.returncode == 0 for out in outputs.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
