"""Hadamard-based equiangular tight frames and Grassmannian fusion frames.

Constructions from sign matrices with exact rational certificates
(tightness, equiangularity, Welch equality, equal chordal distances) and
a seeded Monte-Carlo channel for noise/erasure robustness experiments.

Importing the package sets ``OPENBLAS_THREAD_TIMEOUT`` to 4, OpenBLAS's
minimum, unless it is already set. Every CLI command is a short process,
and by default OpenBLAS's idle worker threads spin for about 2^28 cycles
once the library loads and after every threaded call before they sleep,
burning roughly 0.1 s of CPU per extra thread for no work. With the
minimum they sleep at once; waking one for a large product costs nothing
measurable. The number of threads is not touched: ``OPENBLAS_NUM_THREADS``
still decides it. A value of ``OPENBLAS_THREAD_TIMEOUT`` set by the user is
kept. OpenBLAS reads the variable when it loads, so the default takes
effect only if numpy has not been imported before this package.
"""

import os

os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .channel import (
    ChannelConfig,
    ErasureSpec,
    SimReport,
    compare,
    simulate_frame,
    simulate_fusion,
)
from .errors import ResourceLimitError, ValidationError
from .frames import (
    CoherenceReport,
    FrameCertificate,
    ScaledFrame,
    analyze,
    coherence,
    etf_from_hadamard,
    float_coherence_sq,
    frame_from_integer_columns,
    gram,
    grassmannian_certificate,
    is_tight,
    reconstruct_tight,
    welch_bound_sq,
)
from .fusion import (
    FusionCertificate,
    FusionFrame,
    Subspace,
    build_gff,
    chordal_dist_sq,
    equidistance_certificate,
    fusion_analyze,
    fusion_frame_from_columns,
    fusion_reconstruct_tight,
    fusion_tight,
    lemma_row_check,
    make_fusion_frame,
    subspace_from_columns,
)
from .hadamard import (
    MatrixCertificate,
    SignMatrix,
    WalshMatrix,
    build_sylvester,
    build_walsh,
    fwht,
    normalize_first_row,
    require_hadamard,
    sign_changes,
    sign_matrix,
    validate_hadamard,
    validate_walsh_order,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelConfig",
    "CoherenceReport",
    "ErasureSpec",
    "FrameCertificate",
    "FusionCertificate",
    "FusionFrame",
    "MatrixCertificate",
    "ResourceLimitError",
    "ScaledFrame",
    "SignMatrix",
    "SimReport",
    "Subspace",
    "ValidationError",
    "WalshMatrix",
    "analyze",
    "build_gff",
    "build_sylvester",
    "build_walsh",
    "chordal_dist_sq",
    "coherence",
    "compare",
    "equidistance_certificate",
    "etf_from_hadamard",
    "float_coherence_sq",
    "frame_from_integer_columns",
    "fusion_analyze",
    "fusion_frame_from_columns",
    "fusion_reconstruct_tight",
    "fusion_tight",
    "fwht",
    "gram",
    "grassmannian_certificate",
    "is_tight",
    "lemma_row_check",
    "make_fusion_frame",
    "normalize_first_row",
    "reconstruct_tight",
    "require_hadamard",
    "sign_changes",
    "sign_matrix",
    "simulate_frame",
    "simulate_fusion",
    "subspace_from_columns",
    "validate_hadamard",
    "validate_walsh_order",
    "welch_bound_sq",
]
