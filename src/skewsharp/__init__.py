"""skewsharp: uncertainty matrices, their determinant inequalities, and Gaussian saturation."""

from .linalg import (
    DensityMatrix,
    DimensionMismatch,
    InvalidState,
    NonHermitianInput,
    NotPSD,
    SkewsharpError,
)
from .skew import (
    ObservableSet,
    TwoObsReport,
    UncertaintyReport,
    check_refined_rs,
    commutator_matrix,
    covariance_matrix,
    two_obs_relations,
    wy_skew_matrix,
)

__version__ = "0.1.0"
