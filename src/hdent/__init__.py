"""Simulation and certification of noisy high-dimensional entangled photon pairs.

Two certification routes are implemented end to end: reconstruction of a
coherence witness from frame-sifted time-tag count matrices, and
visibility sums over complete sets of mutually unbiased bases.
"""

from .analysis import (
    ResampleSummary,
    ThresholdResult,
    fiber_distance,
    noise_fraction,
    poisson_resample,
    threshold_scan,
    true_noise_fraction,
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
    TagBlocks,
    TagFormatError,
    TagStream,
    generate_blocks,
    generate_stream,
    read_blocks,
    read_tags,
    sift_and_bin,
    sift_blocks,
    write_tags,
)
from .witness import (
    WitnessReport,
    resample_witness,
    witness_exact,
    witness_from_counts,
)

__version__ = "0.1.0"

__all__ = [
    "BASIS_DA",
    "BASIS_HV",
    "BinningConfig",
    "ClockConfig",
    "CountMatrixSet",
    "DensityMatrix",
    "MubSet",
    "NoisyState",
    "Origin",
    "Pairing",
    "ResampleSummary",
    "SchmidtState",
    "SourceModel",
    "TagBlocks",
    "TagFormatError",
    "TagStream",
    "ThresholdResult",
    "VisibilityReport",
    "WitnessReport",
    "build_mubs",
    "correlation_matrix",
    "element",
    "fiber_distance",
    "generate_blocks",
    "generate_stream",
    "is_prime",
    "joint_probability",
    "make_max_entangled",
    "materialize",
    "mub_noise_threshold",
    "noise_fraction",
    "poisson_resample",
    "read_blocks",
    "read_tags",
    "resample_witness",
    "separable_bound",
    "sift_and_bin",
    "sift_blocks",
    "threshold_scan",
    "true_noise_fraction",
    "visibility_sum",
    "witness_exact",
    "witness_from_counts",
    "write_tags",
]
