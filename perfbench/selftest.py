#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny input size.

    python3 perfbench/selftest.py

Checks metric names and units against BENCHMARK.json, that every output
check passes on the program's real outputs and fails on corrupted ones, and
that the benchmark refuses to run without sources. It never checks timings.
"""

from __future__ import annotations

import contextlib
import csv
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import numpy as np

import run
import spans
import verify

RUN_PY = Path(__file__).resolve().parent / "run.py"
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(RUN_PY), *args], cwd=run.ROOT,
                          capture_output=True, text=True, timeout=600)


class MetricNames(unittest.TestCase):
    def test_spec_matches_the_code(self):
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]},
                         spans.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]), sorted(run.WORKLOADS))

    def test_every_workload_reports_every_metric(self):
        for workload in sorted(run.WORKLOADS):
            for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.5",
                                 "--trace", trace, "--size", "tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"], proc.stdout.splitlines()[-2])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[section]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_refuses_to_run_without_sources(self):
        bare = run.WORK / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(RUN_PY.parent, bare / RUN_PY.parent.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "curate",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class OutputChecks(unittest.TestCase):
    """Each check passes on real outputs and fails once they are corrupted."""

    def one_invocation(self, name: str) -> run.Run:
        workload = run.WORKLOADS[name]
        work = run.WORK / f"selftest-{name}"
        shutil.rmtree(work, ignore_errors=True)
        self.addCleanup(shutil.rmtree, work, True)
        size = run.SIZES["tiny"]
        planted = workload.make(work / run.INPUTS, np.random.default_rng(9), size)
        r = run.Run(workload, planted, work, 9, size)
        self.summary = verify.parse_summary(r.invoke().stdout)
        self.assertEqual(r.failures, [])
        return r

    def recheck(self, r: run.Run) -> list[str]:
        return r.workload.check(r.outdir, self.summary, r.planted, np.random.default_rng(0), r.size)

    def test_curate_split_leak_is_caught(self):
        r = self.one_invocation("curate")
        path = r.outdir / "alpha_split.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        first = rows[1]
        twin = next(row for row in rows[2:] if row[1] == first[1])
        twin[2] = "test" if first[2] != "test" else "train"
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        self.assertTrue(any("spans two splits" in f for f in self.recheck(r)))

    def test_similarity_cell_is_checked(self):
        for name in ("similarity-raster", "similarity-vector"):
            with self.subTest(name):
                r = self.one_invocation(name)
                path = r.outdir / "similarity_matrix.csv"
                rows = [line.split(",") for line in path.read_text().splitlines()]
                n = len(rows)
                for i in range(n):
                    for j in range(n):
                        if i != j:
                            rows[i][j] = repr(float(rows[i][j]) * (1 - 1e-9))
                path.write_text("".join(",".join(row) + "\n" for row in rows))
                self.assertTrue(any("reference" in f for f in self.recheck(r)))

    def test_ce_predictions_are_checked(self):
        r = self.one_invocation("ce-fit")
        path = r.outdir / "predictions_d2.csv"
        text = path.read_text().splitlines()
        eid, target, predicted = text[1].split(",")
        text[1] = f"{eid},{target},{float(predicted) + 0.5!r}"
        path.write_text("\n".join(text) + "\n")
        self.assertTrue(any("RMSE from predictions" in f for f in self.recheck(r)))

    def test_non_standard_json_is_rejected(self):
        with self.assertRaises(ValueError):
            verify.parse_summary(b'{"rmse": NaN}')


def tearDownModule():
    with contextlib.suppress(OSError):
        run.WORK.rmdir()


if __name__ == "__main__":
    unittest.main()
