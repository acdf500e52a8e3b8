"""Seeded synthetic inputs for the benchmark workloads (numpy + stdlib only).

Each ``make_*`` function writes one workload's input files into a directory
and returns what it planted there, so the output checks in ``verify.py`` can
compare the CLI's results against known answers. The same seed always gives
byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Pauling electronegativities of the elements the generator draws from. All
# values are distinct, so the canonical element order has no ties. The table
# is the benchmark's own: planted identities never come from matscale.
ELECTRONEGATIVITY = {
    "K": 0.82, "Na": 0.93, "Li": 0.98, "Ca": 1.00, "Y": 1.22, "Mg": 1.31,
    "Zr": 1.33, "Sc": 1.36, "Ti": 1.54, "Mn": 1.55, "Al": 1.61, "V": 1.63,
    "Zn": 1.65, "Cr": 1.66, "Ga": 1.81, "Fe": 1.83, "Ni": 1.91, "Sn": 1.96,
    "Ge": 2.01, "B": 2.04, "Sb": 2.05, "Te": 2.10, "P": 2.19, "H": 2.20,
    "Se": 2.55, "S": 2.58, "I": 2.66, "N": 3.04, "Cl": 3.16, "O": 3.44,
    "F": 3.98,
}
ELEMENTS = sorted(ELECTRONEGATIVITY)

HIST_PROPERTY = "formation_energy"
HIST_EDGES = (-6.0, 2.0, 16)  # lo, hi, nbins, as passed to --hist
MISSING_SHARE = 0.05

XC = ("LDA", "PBE")
KPTS = (4, 16, 64)
TIERS = ("light", "tight", "really_tight")
RELATIVISTIC = ("ZORA", "atomic_ZORA", "none")

NOISE_SIGMA = 0.01


# ---------------------------------------------------------------- curate


@dataclass
class CurateInputs:
    paths: tuple[Path, Path]
    # per dataset: entry_id -> planted canonical identity
    identities: tuple[dict[str, str], dict[str, str]]
    # per dataset: the formation_energy values that were written (no missing)
    hist_values: tuple[np.ndarray, np.ndarray]
    shared_ids: set[str]


def _random_identity(rng) -> tuple[dict[str, int], int]:
    k = int(rng.integers(2, 5))
    symbols = rng.choice(len(ELEMENTS), size=k, replace=False)
    comp = {ELEMENTS[s]: int(rng.integers(1, 9)) for s in symbols}
    return comp, int(rng.integers(1, 231))


def canonical_id(comp: dict[str, int], spacegroup: int) -> str:
    order = sorted(comp, key=lambda s: (ELECTRONEGATIVITY[s], s))
    return "".join(f"{s}{comp[s]}" for s in order) + f"_{spacegroup}"


def _formula_text(comp: dict[str, int], rng) -> str:
    # Elements in a random order, and a count of 1 sometimes left implicit,
    # so the reader's canonicalisation does real work.
    symbols = list(comp)
    rng.shuffle(symbols)
    return "".join(
        s if comp[s] == 1 and rng.random() < 0.5 else f"{s}{comp[s]}"
        for s in symbols
    )


def make_curate(outdir: Path, rng, n_a: int, n_b: int, shared_share: float = 0.3):
    """Two structure tables with ~2.5 entries per identity and shared identities."""
    outdir.mkdir(parents=True, exist_ok=True)
    n_id_a = max(1, round(n_a / 2.5))
    n_id_b = max(1, round(n_b / 2.5))
    pool: dict[str, tuple[dict[str, int], int]] = {}
    while len(pool) < n_id_a + n_id_b:
        comp, sg = _random_identity(rng)
        pool.setdefault(canonical_id(comp, sg), (comp, sg))
    labels = list(pool)
    ids_a = labels[:n_id_a]
    n_shared = round(shared_share * n_id_b)
    ids_b = labels[:n_shared] + labels[n_id_a : n_id_a + n_id_b - n_shared]

    paths, identities, values = [], [], []
    for name, prefix, ids, n_rows in (("alpha", "a", ids_a, n_a), ("beta", "b", ids_b, n_b)):
        # every identity gets at least one entry; the rest are spread at random
        owners = np.concatenate(
            [np.arange(len(ids)), rng.integers(0, len(ids), n_rows - len(ids))]
        )
        rng.shuffle(owners)
        energy = np.round(rng.normal(-2.0, 1.6, n_rows), 4)
        gap = np.round(rng.exponential(1.5, n_rows), 4)
        missing_e = rng.random(n_rows) < MISSING_SHARE
        missing_g = rng.random(n_rows) < MISSING_SHARE
        lines = ["entry_id,formula,spacegroup,formation_energy,band_gap"]
        planted = {}
        for row, owner in enumerate(owners):
            label = ids[owner]
            comp, sg = pool[label]
            eid = f"{prefix}{row:07d}"
            planted[eid] = label
            e = "" if missing_e[row] else repr(float(energy[row]))
            g = "" if missing_g[row] else repr(float(gap[row]))
            lines.append(f"{eid},{_formula_text(comp, rng)},{sg},{e},{g}")
        path = outdir / f"{name}.csv"
        path.write_text("\n".join(lines) + "\n")
        paths.append(path)
        identities.append(planted)
        values.append(energy[~missing_e])
    return CurateInputs(
        paths=tuple(paths),
        identities=tuple(identities),
        hist_values=tuple(values),
        shared_ids=set(ids_a) & set(ids_b),
    )


# ---------------------------------------------------------------- spectra


@dataclass
class Spectrum:
    energies: np.ndarray
    dos: np.ndarray
    fermi_energy: float
    metadata: dict


def make_spectra(outdir: Path, rng, n: int, n_points: int) -> list[Spectrum]:
    """n DOS curves (sums of Gaussians on a jittered grid) with JSON sidecars.

    Values are written with repr(), so the reader parses back exactly the
    floats kept here.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    out = []
    for i in range(n):
        step = 30.0 / n_points
        energies = -15.0 + step * (np.arange(n_points) + 0.8 * rng.random(n_points))
        energies = np.round(energies, 6)
        n_peaks = int(rng.integers(3, 9))
        centres = rng.uniform(-12.0, 12.0, n_peaks)
        widths = rng.uniform(0.2, 2.0, n_peaks)
        weights = rng.uniform(0.2, 3.0, n_peaks)
        dos = (weights * np.exp(-(((energies[:, None] - centres) / widths) ** 2))).sum(1)
        dos = np.round(dos, 6)
        fermi = round(float(rng.uniform(-1.0, 1.0)), 4)
        tier = int(rng.integers(0, 3))
        meta = {
            "fermi_energy": fermi,
            "xc": XC[int(rng.integers(0, 2))],
            "n_kpt": KPTS[int(rng.integers(0, 3))],
            "n_basis": 50 + 25 * tier,
            "settings_tier": TIERS[tier],
            "relativistic": RELATIVISTIC[int(rng.integers(0, 3))],
        }
        name = f"calc_{i:05d}"
        body = "".join(f"{e!r},{d!r}\n" for e, d in zip(energies.tolist(), dos.tolist()))
        (outdir / f"{name}.csv").write_text("energy,dos\n" + body)
        (outdir / f"{name}.json").write_text(json.dumps(meta))
        out.append(Spectrum(energies, dos, fermi, meta))
    return out


# ---------------------------------------------------------------- ce-fit

LATTICE_SIDE = 6

# Clusters as (x, y) offsets on the square lattice; see cluster_sites().
CLUSTER_SHAPES = (
    ((0, 0),),                          # singlet
    ((0, 0), (1, 0)),                   # nearest-neighbour pair
    ((0, 0), (1, 1)),                   # diagonal pair
    ((0, 0), (2, 0)),                   # third-neighbour pair
    ((0, 0), (1, 0), (2, 0)),           # straight triplet
    ((0, 0), (1, 0), (0, 1)),           # bent triplet
    ((0, 0), (1, 0), (0, 1), (1, 1)),   # plaquette
)


def cluster_sites(side: int = LATTICE_SIDE) -> list[list[int]]:
    """Site lists of CLUSTER_SHAPES, indexed x + side * y and ascending."""
    return [sorted(x + side * y for x, y in shape) for shape in CLUSTER_SHAPES]


def square_lattice_group(side: int) -> np.ndarray:
    """All translations times the 8 point operations of a side x side torus.

    Row g maps site i to perm[g, i]; sites are indexed x + side * y.
    """
    x, y = np.meshgrid(np.arange(side), np.arange(side), indexing="xy")
    x, y = x.ravel(), y.ravel()
    point_ops = (
        (x, y), (-y, x), (-x, -y), (y, -x),
        (-x, y), (x, -y), (y, x), (-y, -x),
    )
    perms = []
    for px, py in point_ops:
        for ty in range(side):
            for tx in range(side):
                perms.append(((px + tx) % side) + side * ((py + ty) % side))
    return np.array(perms, dtype=np.int64)


def orbit_indices(cluster, perms: np.ndarray) -> np.ndarray:
    """Distinct images of a cluster under the group, as sorted site rows."""
    images = np.sort(perms[:, list(cluster)], axis=1)
    return np.unique(images, axis=0)


def correlations(configs: np.ndarray, clusters, perms: np.ndarray) -> np.ndarray:
    cols = [configs[:, orbit_indices(c, perms)].prod(axis=2).mean(axis=1) for c in clusters]
    return np.stack(cols, axis=1)


@dataclass
class CeInputs:
    paths: dict[str, Path]
    ids: list[str]
    targets: np.ndarray
    n_configs: int
    group_order: int
    n_sites: int


def make_ce(outdir: Path, rng, n_configs: int) -> CeInputs:
    """Configurations on the square lattice with a planted sparse target.

    The target is an intercept plus a few correlation monomials of degree <= 2
    with seeded coefficients, plus Gaussian noise of NOISE_SIGMA.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    perms = square_lattice_group(LATTICE_SIDE)
    clusters = cluster_sites()
    n_sites = LATTICE_SIDE**2
    concentration = rng.uniform(0.1, 0.9, (n_configs, 1))
    configs = np.where(rng.random((n_configs, n_sites)) < concentration, 1, -1)
    corr = correlations(configs, clusters, perms)

    p = len(clusters)
    linear = rng.choice(p, size=3, replace=False)
    pairs = [(int(i), int(j)) for i, j in rng.integers(0, p, size=(2, 2))]
    y = 0.25 + rng.normal(0.0, NOISE_SIGMA, n_configs)
    for i in linear:
        y += rng.uniform(0.5, 2.0) * rng.choice((-1, 1)) * corr[:, i]
    for i, j in pairs:
        y += rng.uniform(0.5, 2.0) * rng.choice((-1, 1)) * corr[:, i] * corr[:, j]

    ids = [f"cfg{i:05d}" for i in range(n_configs)]
    lines = ["entry_id,occupations,target"]
    lines += [
        f"{eid},{' '.join(map(str, occ))},{t!r}"
        for eid, occ, t in zip(ids, configs.tolist(), y.tolist())
    ]
    paths = {
        "configs": outdir / "configs.csv",
        "clusters": outdir / "clusters.json",
        "group": outdir / "group.json",
    }
    paths["configs"].write_text("\n".join(lines) + "\n")
    paths["clusters"].write_text(json.dumps(clusters))
    paths["group"].write_text(json.dumps(perms.tolist()))
    return CeInputs(paths, ids, y, n_configs, len(perms), n_sites)
