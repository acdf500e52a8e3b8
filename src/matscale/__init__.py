"""matscale: reasoning tools for big materials datasets.

Submodules:
  curation     structure identities, overlap, leakage-free splits, histograms
  spectra      DOS fingerprints and Tanimoto similarity matrices
  lattice      configurations, clusters, symmetry orbits, correlations
  polyfeatures monomial feature expansion
  regression   orthogonal matching pursuit and fit traces
  complexity   model-complexity descriptors
  costs        workflow storage and training/NAS budget estimators
  io           file formats; structure_io holds the structure table decoder
  cli          the matscale command line

The names below are re-exported lazily (PEP 562): ``import matscale`` loads
no submodule and no numpy, and ``matscale.omp_fit`` imports
``matscale.regression`` on first use. The command line relies on this to
choose its BLAS threads before numpy loads.
"""

from importlib import import_module

__version__ = "0.1.0"

# The BLAS thread variables. cli.run() sets all of them to "1" when the
# caller has set none; _workers gives a command more than one worker (ce-fit's
# degree fits, similarity's ingest) only when at least one is set and every
# one that is set is "1".
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The largest float64 array a size that a caller chooses (an expansion degree,
# a grid, a bin count) may make the library allocate.
MAX_ARRAY_BYTES = 2**31

_SUBMODULE = {
    "curation": (
        "Structure",
        "StructureTable",
        "canonical_formula",
        "dataset_overlap",
        "grouped_split",
        "property_histogram",
        "structure_id",
    ),
    "lattice": ("Cluster", "SymmetryGroup", "correlation", "correlation_matrix", "orbit"),
    "polyfeatures": ("enumerate_monomials", "feature_count"),
    "regression": ("compare_feature_spaces", "omp_fit", "plateau_detect", "rmse"),
    "spectra": (
        "CalcMetadata",
        "Spectrum",
        "block_stats",
        "make_fingerprint",
        "similarity_matrix",
        "sort_by_settings",
        "tanimoto",
    ),
}
_HOME = {name: module for module, names in _SUBMODULE.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    # read from the submodule on every access, so a name never goes stale
    # when the submodule's attribute is rebound
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
