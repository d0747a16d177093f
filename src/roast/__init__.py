"""Fast orthonormal approximate Slepian transform.

An orthonormal basis that augments the in-band DFT columns with a few
extra directions chosen inside the out-of-band DFT span, so that the span
of the leading discrete prolate spheroidal sequences (and with it every
oversampled bandlimited signal) is captured to any prescribed accuracy
while analysis and synthesis stay at FFT cost.
"""

__version__ = "0.1.0"

from .prolate import (
    DenseSizeError,
    build_band_split,
    build_dpss,
    build_prolate,
    log_width_constant,
    prolate_apply,
    random_bandlimited,
)
from .basis import (
    BASES,
    BasisFormatError,
    RoastBasis,
    apply_analysis,
    apply_synthesis,
    build_roast,
    build_roast_randomized,
    build_subdft,
    cross_operator_dense,
    deserialize_basis,
    dft_columns,
    fst_rank_bound,
    rank_for_capture,
    serialize_basis,
)
from .diagnostics import (
    BoundLedger,
    dpss_capture_report,
    integrated_residual,
    integrated_residual_quadrature,
    residual_snr,
    singular_decay_report,
    sinusoid_derivative_check,
    subspace_angle,
)
from .recovery import (
    build_recovery_problem,
    cgd_solve,
    condition_estimate,
    recovery_experiment,
)
