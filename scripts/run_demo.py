#!/usr/bin/env python3
"""Drive every matscale subcommand against the generated demo data.

Run scripts/make_demo_data.py first (or pass --data at its output path).
commands() holds the commands as data; the tests run the same argv.
"""

import argparse
import sys
from pathlib import Path

from matscale.cli import main as matscale


def commands(data, out) -> dict[str, list[str]]:
    """matscale's argv for each demo command, by name, in the order main() runs
    them: every subcommand on the demo data under data, writing under out."""
    data, out = Path(data), Path(out)
    return {
        "curate": ["curate", "--input", str(data / "alpha.csv"),
                   "--other", str(data / "beta.csv"),
                   "--split", "0.8,0.1,0.1", "--seed", "7",
                   "--hist", "formation_energy:-6:2:16",
                   "--output-dir", str(out / "curate")],
        "similarity": ["similarity", "--spectra", str(data / "spectra"),
                       "--window", "-10,10", "--grid", "256x64", "--sort",
                       "--output-dir", str(out / "similarity")],
        "similarity vector": ["similarity", "--spectra", str(data / "spectra"),
                              "--mode", "vector", "--sort",
                              "--output-dir", str(out / "similarity_vector")],
        "ce-fit": ["ce-fit", "--configs", str(data / "configs.csv"),
                   "--clusters", str(data / "clusters.json"),
                   "--group", str(data / "group.json"),
                   "--degree", "1,2,3", "--max-features", "20",
                   "--plateau-window", "3", "--plateau-eps", "1e-4",
                   "--output-dir", str(out / "ce")],
        "complexity": ["complexity", "--nn", "2,3,1"],
        "complexity rf": ["complexity", "--rf", "3,5"],
        "complexity sisso": ["complexity", "--sisso", "rung=2,dim=3,bias"],
        "estimate workflow": ["estimate", "workflow", "--structures", "30000",
                              "--settings", "9", "--files-per-run", "41",
                              "--mb-per-run", "30"],
        "estimate training": ["estimate", "training", "--steps", "2000000",
                              "--t-batch", "0.0010", "--t-grad", "0.0023"],
        "estimate nas": ["estimate", "nas", "--archs", "2000", "--hours", "20",
                         "--price", "3"],
    }


def run(*argv):
    print(f"\n$ matscale {' '.join(argv)}")
    code = matscale(list(argv))
    if code != 0:
        sys.exit(f"command failed with exit code {code}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", default="demo_data")
    parser.add_argument("--out", default="demo_out")
    args = parser.parse_args()

    data = Path(args.data)
    if not data.exists():
        sys.exit(f"{data} not found; run scripts/make_demo_data.py first")
    for argv in commands(data, args.out).values():
        run(*argv)

    print(f"\nall demo outputs under {Path(args.out)}/")


if __name__ == "__main__":
    main()
