"""Trace statistics, zero distributions, and limit laws of banded
recurrence operators, with free-convolution and Monte-Carlo cross-checks."""

__version__ = "0.1.0"

from .errors import (
    CharpolyOverflow,
    ConfigError,
    ContinuationError,
    NumericalFailure,
    OracleScaleError,
    SchemeError,
)
from .measures import (
    ArcsineLaw,
    ArcsineMixture,
    AtomicMeasure,
    MarchenkoPasturLaw,
    MomentSequence,
    SemicircleLaw,
    kva_moment,
)
from .recurrence import (
    CLASSICAL_ENSEMBLES,
    RecurrenceScheme,
    classical_scheme,
    kva_functions,
)
from .bandop import (
    BandedOperator,
    build_truncation,
    gap_bound,
    mean_moment,
    variance_bound,
    variance_moment,
    window_max,
    zero_moment_trace,
)
from .paths import Constraint, kernel_name, lattice_sum
from .zeros import (
    SpectralMeasure,
    charpoly_eval,
    reality_check,
    spectrum,
    zero_moments,
)
from .mop import (
    MultiIndexPath,
    NNCoefficients,
    banded_entries,
    mop_scheme,
    nn_coeffs_hermite,
    nn_coeffs_laguerre,
)
from .freeprob import (
    AlgebraicCurve,
    curve_hermite,
    curve_laguerre,
    curve_moments,
    free_add,
    free_mul,
    moments_from_r,
    r_transform_series,
    s_transform_series,
    solve_G,
    stieltjes_density,
)
from .sampler import (
    EmpiricalBatch,
    MatrixModelSpec,
    empirical_batch,
    mc_moments,
    realize_diagonal,
    sample_spectrum,
)
