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
"""

__version__ = "0.1.0"

from .curation import (
    Structure,
    StructureTable,
    canonical_formula,
    dataset_overlap,
    grouped_split,
    property_histogram,
    structure_id,
)
from .lattice import Cluster, SymmetryGroup, correlation, correlation_matrix, orbit
from .polyfeatures import enumerate_monomials, feature_count
from .regression import compare_feature_spaces, omp_fit, plateau_detect, rmse
from .spectra import (
    CalcMetadata,
    Spectrum,
    block_stats,
    make_fingerprint,
    similarity_matrix,
    sort_by_settings,
    tanimoto,
)
