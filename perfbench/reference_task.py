"""Fixed reference work, run as a fresh process beside every CLI invocation.

It starts an interpreter, imports numpy, and runs a fixed mix of the kinds of
work the CLI does: parsing CSV text into dicts, regular expressions, many
small numpy operations, and small least-squares solves in the BLAS with its
default threads. It imports nothing from matscale, so its time moves
only with the machine. ``run.py`` divides each CLI invocation's wall and CPU
time by this task's, run just before it, so a shared machine that changes
speed does not read as a change in the program.
"""

import csv
import io
import re

import numpy as np

TOKEN = re.compile(r"([A-Z][a-z]?)([0-9]*)")
ELEMENTS = ("Mg", "F", "Ti", "O", "Ba", "K", "Cl", "Sn")

lines = ["id,formula,value"] + [
    f"e{i},{ELEMENTS[i % 8]}{i % 5 + 1}{ELEMENTS[i * 3 % 8]}{i % 7 + 1},{i * 0.001:.4f}"
    for i in range(20_000)
]
counts: dict[str, int] = {}
total = 0.0
for row in csv.DictReader(io.StringIO("\n".join(lines))):
    for symbol, digits in TOKEN.findall(row["formula"]):
        counts[symbol] = counts.get(symbol, 0) + int(digits or 1)
    total += float(row["value"])

x = np.linspace(-10.0, 10.0, 1000)
edges = np.linspace(-5.0, 5.0, 65)
for k in range(300):
    y = np.exp(-((x - k % 20 + 10) ** 2))
    total += float(np.interp(edges, x, y).sum() + np.diff(np.unique(y[::9])).sum())

rng = np.random.default_rng(0)
a, b = rng.random((120, 80)), rng.random(120)
for _ in range(50):
    total += float(np.linalg.lstsq(a, b, rcond=None)[0].sum())

if not (total > 0 and counts):  # the results are used, so no step can be skipped
    raise SystemExit(1)
