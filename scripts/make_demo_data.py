#!/usr/bin/env python3
"""Generate a synthetic demo dataset for the matscale CLI.

Writes into the output directory:
  alpha.csv, beta.csv     two overlapping structure tables
  json/alpha.json, json/beta.json
                          the same tables as JSON arrays, every other record
                          with a composition map in place of its formula
  spectra/                DOS CSV + metadata sidecar pairs
  configs.csv             +/-1 ring configurations with a nonlinear target
  clusters.json           cluster site lists
  group.json              cyclic symmetry group of the ring

Every file is UTF-8. One structure in alpha and one configuration have a
non-ASCII entry_id, so a run under an ASCII locale shows whether the CLI
depends on the locale.
"""

import argparse
import csv
import json
from pathlib import Path

import numpy as np

RING_SITES = 8


def write_structures(outdir, name, rows):
    """<name>.csv and its JSON twin json/<name>.json, which curate alike."""
    from matscale.curation import parse_formula

    with open(outdir / f"{name}.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["entry_id", "formula", "spacegroup", "formation_energy"])
        writer.writerows(rows)
    records = []
    for k, (entry_id, formula, sg, energy) in enumerate(rows):
        composition = {"composition": parse_formula(formula)} if k % 2 else {"formula": formula}
        records.append({"entry_id": entry_id, **composition, "spacegroup": sg,
                        "properties": {"formation_energy": energy}})
    (outdir / "json").mkdir(exist_ok=True)
    (outdir / "json" / f"{name}.json").write_text(json.dumps(records, indent=1) + "\n")


def make_structures(outdir, rng):
    shared = [("Mg2F4", 136), ("Ti2O4", 136), ("BaTiO3", 221), ("K1Cl1", 225)]
    only_a = [("H2O1", 1), ("Ba1Sn1O3", 221), ("F2K2", 12)]
    only_b = [("C1N1", 10), ("Sn1O2", 136)]

    rows_a, rows_b = [], []
    i = 0
    for formula, sg in shared + only_a:
        for _ in range(int(rng.integers(1, 4))):
            rows_a.append([f"a{i}", formula, sg, round(float(rng.normal(-2, 1)), 3)])
            i += 1
    rows_a[0][0] = "\u03b10"  # "α0"
    i = 0
    for formula, sg in shared + only_b:
        for _ in range(int(rng.integers(1, 3))):
            rows_b.append([f"b{i}", formula, sg, round(float(rng.normal(-2.5, 1)), 3)])
            i += 1
    write_structures(outdir, "alpha", rows_a)
    write_structures(outdir, "beta", rows_b)


def make_spectra(outdir, rng):
    """Synthetic DOS curves that converge as the k-grid grows, with an
    offset between the two functional families."""
    sdir = outdir / "spectra"
    sdir.mkdir(exist_ok=True)
    energies = np.linspace(-12, 12, 241)
    idx = 0
    for xc, offset in (("LDA", 0.0), ("PBE", 0.6)):
        for tier, n_kpt, wobble in (("light", 4, 0.5), ("tight", 16, 0.15),
                                    ("really_tight", 64, 0.03)):
            for rel in ("ZORA", "atomic_ZORA"):
                base = np.exp(-((energies - offset - 2) ** 2))
                base += 0.8 * np.exp(-((energies - offset + 3) ** 2) / 2)
                noise = wobble * np.abs(np.sin(7 * energies + idx))
                dos = np.clip(base + noise, 0, None)
                name = f"calc_{idx:02d}"
                with open(sdir / f"{name}.csv", "w", newline="") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(["energy", "dos"])
                    for e, d in zip(energies, dos):
                        writer.writerow([f"{e:.6f}", f"{d:.6f}"])
                (sdir / f"{name}.json").write_text(json.dumps({
                    "fermi_energy": 0.0,
                    "xc": xc,
                    "n_kpt": n_kpt,
                    "n_basis": 50 + 25 * ("light", "tight", "really_tight").index(tier),
                    "settings_tier": tier,
                    "relativistic": rel,
                }, indent=2))
                idx += 1


def make_ce_inputs(outdir, rng):
    clusters = [[0], [0, 1], [0, 2], [0, 4]]
    group = [np.roll(np.arange(RING_SITES), -k).tolist() for k in range(RING_SITES)]
    (outdir / "clusters.json").write_text(json.dumps(clusters))
    (outdir / "group.json").write_text(json.dumps(group))

    from matscale.lattice import Cluster, SymmetryGroup, correlation_matrix

    g = SymmetryGroup(group)
    cl = [Cluster(c) for c in clusters]
    configs = rng.choice([-1, 1], size=(60, RING_SITES))
    X = correlation_matrix(configs, cl, g)
    # linear part plus a product term only a degree-2 space can capture
    y = 1.2 * X[:, 0] - 0.7 * X[:, 1] + 2.0 * X[:, 0] * X[:, 2]
    y = y + 0.01 * rng.normal(size=y.size)

    with open(outdir / "configs.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["entry_id", "occupations", "target"])
        for i, (occ, target) in enumerate(zip(configs, y)):
            entry_id = f"cfg{i}" if i else "cfg\u03b10"  # "cfgα0"
            writer.writerow([entry_id, " ".join(str(v) for v in occ), f"{target:.6f}"])


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="demo_data")
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    make_structures(outdir, rng)
    make_spectra(outdir, rng)
    make_ce_inputs(outdir, rng)
    print(f"demo inputs written to {outdir}/")


if __name__ == "__main__":
    main()
