"""Simulation and certification of noisy high-dimensional entangled photon pairs.

Two certification routes are implemented end to end: reconstruction of a
coherence witness from frame-sifted time-tag count matrices, and
visibility sums over complete sets of mutually unbiased bases.
"""

from .analysis import (
    ACCIDENTAL_MODEL,
    GROUND_TRUTH,
    NoiseFractionEstimate,
    ResampleSummary,
    SweepPoint,
    ThresholdResult,
    fiber_distance,
    noise_fraction,
    poisson_resample,
    threshold_scan,
)
from .mub import (
    MubSet,
    VisibilityReport,
    build_mubs,
    correlation_matrix,
    is_prime,
    mub_noise_threshold,
    separable_bound,
    visibility_sum,
)
from .states import (
    DensityMatrix,
    NoisyState,
    Pairing,
    SchmidtState,
    element,
    joint_probability,
    make_max_entangled,
    materialize,
)
from .tagstream import (
    BASIS_DA,
    BASIS_HV,
    BinningConfig,
    ClockConfig,
    CountMatrixSet,
    Origin,
    SourceModel,
    TagFormatError,
    TagStream,
    crosstalk_profile,
    generate_stream,
    read_tags,
    sift_and_bin,
    write_tags,
)
from .witness import (
    WitnessReport,
    witness_exact,
    witness_from_counts,
    witness_read_masks,
)

__version__ = "0.1.0"

__all__ = [
    "ACCIDENTAL_MODEL",
    "BASIS_DA",
    "BASIS_HV",
    "BinningConfig",
    "ClockConfig",
    "CountMatrixSet",
    "DensityMatrix",
    "GROUND_TRUTH",
    "MubSet",
    "NoiseFractionEstimate",
    "NoisyState",
    "Origin",
    "Pairing",
    "ResampleSummary",
    "SchmidtState",
    "SourceModel",
    "SweepPoint",
    "TagFormatError",
    "TagStream",
    "ThresholdResult",
    "VisibilityReport",
    "WitnessReport",
    "build_mubs",
    "correlation_matrix",
    "crosstalk_profile",
    "element",
    "fiber_distance",
    "generate_stream",
    "is_prime",
    "joint_probability",
    "make_max_entangled",
    "materialize",
    "mub_noise_threshold",
    "noise_fraction",
    "poisson_resample",
    "read_tags",
    "separable_bound",
    "sift_and_bin",
    "threshold_scan",
    "visibility_sum",
    "witness_exact",
    "witness_from_counts",
    "witness_read_masks",
    "write_tags",
]
