"""Refusals of out-of-range input at the public entry points."""

import math

import numpy as np
import pytest

from bandedzeros import (
    ArcsineLaw,
    ArcsineMixture,
    AtomicMeasure,
    ConfigError,
    MarchenkoPasturLaw,
    MatrixModelSpec,
    MomentSequence,
    MultiIndexPath,
    OracleScaleError,
    SchemeError,
    SemicircleLaw,
    build_truncation,
    classical_scheme,
    curve_hermite,
    curve_laguerre,
    curve_moments,
    empirical_batch,
    free_add,
    gap_bound,
    lattice_sum,
    mc_moments,
    mean_moment,
    mop_scheme,
    moments_from_r,
    realize_diagonal,
    s_transform_series,
    sample_spectrum,
    spectrum,
    stieltjes_density,
    variance_bound,
    variance_moment,
    window_max,
    zero_moment_trace,
    zero_moments,
)
from bandedzeros.bandop import trace_table

GUE = classical_scheme("gue")
MH2 = mop_scheme("multiple-hermite", a=(1.0, -1.0), q=(0.5, 0.5))
MIXTURE = ArcsineMixture(lambda s: np.sqrt(s), lambda s: 0.0)
SEMICIRCLE = curve_hermite((1,), (0,))
GUE_SPEC = MatrixModelSpec(kind="gue", N=4)
NAN, INF = math.nan, math.inf

REFUSALS = {
    "build_truncation-ell_max": (
        lambda: build_truncation(GUE, 4, -1), SchemeError, "need ell_max >= 0"),
    "zero_moments-ell_max": (
        lambda: zero_moments(spectrum(build_truncation(GUE, 4, 0)), -1),
        ValueError, "need ell_max >= 0"),
    "path-index": (lambda: MultiIndexPath((0.5, 0.5)).index(-1), SchemeError, "need N >= 0"),
    "mop_scheme-locations": (
        lambda: mop_scheme("multiple-hermite", a=(1.0,), q=(0.5, 0.5)),
        SchemeError, "need as many locations as ratios"),
    "lattice_sum-start_range": (
        lambda: lattice_sum(GUE, 4, 2, start_range=(0, 5)),
        OracleScaleError, r"start range must lie in \[0, 4\]"),
    "arcsine-endpoint": (lambda: ArcsineLaw(0.0, math.inf), ValueError, "must be finite"),
    "mixture-endpoint": (
        lambda: ArcsineMixture(lambda s: math.inf, lambda s: 0.0), ValueError, "must be finite"),
    "arcsine-moment": (lambda: ArcsineLaw(-2, 2).moment(-1), ValueError, "negative moment"),
    "semicircle-moment": (lambda: SemicircleLaw().moment(-1), ValueError, "negative moment"),
    "marchenko-pastur-moment": (
        lambda: MarchenkoPasturLaw(1).moment(-1), ValueError, "negative moment"),
    "atomic-moment": (
        lambda: AtomicMeasure([(0, 1)]).moment(-1), ValueError, "negative moment"),
    "mixture-moment": (lambda: MIXTURE.moment(-1), ValueError, "negative moment"),
    "marchenko-pastur-rate": (lambda: MarchenkoPasturLaw(-1), ValueError, "need alpha >= 0"),
    "atomic-weight": (
        lambda: AtomicMeasure([(0, 1.5), (1, -0.5)]), ValueError, "weights must be positive"),
    "meixner-beta": (
        lambda: classical_scheme("meixner", alpha=0.5, beta=0), SchemeError, "beta > 0"),
    "jacobi-given-values": (
        lambda: classical_scheme("jacobi", alpha=0, beta=1), SchemeError, r"got \(0, 1\)$"),
    "wishart-string": (
        lambda: classical_scheme("wishart", alpha="1"), TypeError, "not supported between"),
    "entry-index": (lambda: GUE.entry(-1, 0, 5), SchemeError, "must be nonnegative"),
    "moments_from_r-cumulants": (
        lambda: moments_from_r((0, 1), 3), ValueError, "need 3 cumulants, got 2"),
    "moments_from_r-order": (lambda: moments_from_r((1,), 0), ValueError, "need order >= 1"),
    "s_transform-order": (
        lambda: s_transform_series(MarchenkoPasturLaw(1), 0), ValueError, "need order >= 1"),
    "curve_hermite-mismatched": (
        lambda: curve_hermite([0.5, 0.5], [1.0]), ValueError, "matching nonempty"),
    "curve_hermite-empty": (lambda: curve_hermite([], []), ValueError, "matching nonempty"),
    "free_add-moment-sequence": (
        lambda: free_add(MomentSequence((1, 0, 1)), SemicircleLaw(), 4),
        ValueError, "need moments up to order 4, got 2"),
    # nonfinite parameters pass the sign and sum checks unless refused
    # up front
    "atomic-nan-weight": (
        lambda: AtomicMeasure([(0, NAN), (1, 0.5)]), ValueError,
        "atoms: need finite locations and weights"),
    "atomic-nan-location": (
        lambda: AtomicMeasure([(NAN, 1.0)]), ValueError, "atoms: need finite locations and weights"),
    "marchenko-pastur-nan": (
        lambda: MarchenkoPasturLaw(NAN), ValueError, "need alpha >= 0 and finite, got nan"),
    "marchenko-pastur-inf": (
        lambda: MarchenkoPasturLaw(INF), ValueError, "need alpha >= 0 and finite, got inf"),
    "mop_scheme-nan-alpha": (
        lambda: mop_scheme("multiple-laguerre", a=(1.0, 2.0), q=(0.5, 0.5), alpha=NAN),
        SchemeError, "needs finite alpha >= 0, got nan"),
    "mop_scheme-nan-location": (
        lambda: mop_scheme("multiple-hermite", a=(1.0, NAN), q=(0.5, 0.5)),
        SchemeError, "multiple-hermite: locations must be finite"),
    "curve_hermite-nan-ratio": (
        lambda: curve_hermite([0.5, NAN], [1.0, -1.0]), ValueError, "ratios must be finite"),
    "curve_hermite-nan-location": (
        lambda: curve_hermite([0.5, 0.5], [1.0, NAN]), ValueError, "locations must be finite"),
    "curve_laguerre-nan-ratio": (
        lambda: curve_laguerre([NAN, 0.5], [1.0, 2.0], 1.0), ValueError, "ratios must be finite"),
    "curve_laguerre-nan-location": (
        lambda: curve_laguerre([0.5, 0.5], [NAN, 2.0], 1.0), ValueError,
        "locations must be finite"),
    "curve_laguerre-nan-alpha": (
        lambda: curve_laguerre([0.5, 0.5], [1.0, 2.0], NAN), ValueError,
        "need finite alpha >= 0, got nan"),
    "path-nan-ratio": (
        lambda: MultiIndexPath((NAN,)), SchemeError, "ratios must be positive and finite"),
    "window_max-nan-eps": (
        lambda: window_max(GUE, 10, NAN), SchemeError, "need finite eps > 0, got nan"),
    "window_max-inf-eps": (
        lambda: window_max(GUE, 10, INF), SchemeError, "need finite eps > 0, got inf"),
    "stieltjes_density-nan-x": (
        lambda: stieltjes_density(SEMICIRCLE, NAN), ValueError, "need finite x, got nan"),
    "stieltjes_density-inf-x": (
        lambda: stieltjes_density(SEMICIRCLE, INF), ValueError, "need finite x, got inf"),
    "stieltjes_density-nan-eps": (
        lambda: stieltjes_density(SEMICIRCLE, 0.0, eps=NAN), ValueError,
        "need finite eps > 0, got nan"),
    "stieltjes_density-inf-eps": (
        lambda: stieltjes_density(SEMICIRCLE, 0.0, eps=INF), ValueError,
        "need finite eps > 0, got inf"),
    # sizes and orders are integers: a float would pass the range checks
    # and fail later, or look like success
    "build_truncation-float-N": (
        lambda: build_truncation(GUE, 5.0, 0), SchemeError, "N: need an integer, got 5.0"),
    "mean_moment-float-ell": (
        lambda: mean_moment(GUE, 5, 2.5), SchemeError, "ell: need an integer, got 2.5"),
    "lattice_sum-float-N": (
        lambda: lattice_sum(GUE, 5.5, 2), OracleScaleError, "N: need an integer, got 5.5"),
    "zero_moment_trace-float-ell": (
        lambda: zero_moment_trace(GUE, 5, 2.5), SchemeError, "ell: need an integer, got 2.5"),
    "variance_moment-float-ell": (
        lambda: variance_moment(GUE, 5, 2.5), SchemeError, "ell: need an integer, got 2.5"),
    "variance_bound-float-ell": (
        lambda: variance_bound(GUE, 5, 2.5), SchemeError, "ell: need an integer, got 2.5"),
    "window_max-float-N": (
        lambda: window_max(GUE, 5.5, 0.1), SchemeError, "N: need an integer, got 5.5"),
    "trace_table-float-N": (
        lambda: trace_table(GUE, 5.0, 2), SchemeError, "N: need an integer, got 5.0"),
    "lattice_sum-float-start": (
        lambda: lattice_sum(GUE, 5, 2, start_range=(0.5, 2)), OracleScaleError,
        "start_range: need an integer, got 0.5"),
    # the same below the entry points: the band, the coefficient and
    # moment readers, the path and the series and contour orders
    "band-N": (lambda: GUE.band(0, 3), SchemeError, "need N >= 1, got 0"),
    "band-float-N": (lambda: GUE.band(5.5, 8), SchemeError, "N: need an integer, got 5.5"),
    "band-float-start": (
        lambda: GUE.band(5, 8, 2.5), SchemeError, "start: need an integer, got 2.5"),
    "band-start-past-stop": (
        lambda: GUE.band(5, 3, 4), SchemeError, "need 0 <= start <= stop, got start=4, stop=3"),
    "band-negative-start": (
        lambda: MH2.band(5, 3, -2), SchemeError, "need 0 <= start <= stop, got start=-2, stop=3"),
    "entry-float-index": (
        lambda: GUE.entry(2.5, 2, 5), SchemeError, "m: need an integer, got 2.5"),
    "zero_moments-float-ell_max": (
        lambda: zero_moments(spectrum(build_truncation(GUE, 4, 0)), 2.5),
        ValueError, "ell_max: need an integer, got 2.5"),
    "semicircle-float-moment": (
        lambda: SemicircleLaw().moment(2.5), ValueError, "ell: need an integer, got 2.5"),
    "marchenko-pastur-float-moment": (
        lambda: MarchenkoPasturLaw(1).moment(2.5), ValueError, "ell: need an integer, got 2.5"),
    "mixture-float-moment": (
        lambda: MIXTURE.moment(2.5), ValueError, "ell: need an integer, got 2.5"),
    "mixture-float-order": (
        lambda: ArcsineMixture(lambda s: np.sqrt(s), lambda s: 0.0, order=2.5),
        ValueError, "order: need an integer, got 2.5"),
    "free_add-float-order": (
        lambda: free_add(SemicircleLaw(), SemicircleLaw(), 2.5), ValueError,
        "order: need an integer, got 2.5"),
    "curve_moments-float-ell_max": (
        lambda: curve_moments(SEMICIRCLE, 2.5), ValueError, "ell_max: need an integer, got 2.5"),
    "path-float-index": (
        lambda: MultiIndexPath((0.5, 0.5)).index(5.5), SchemeError, "N: need an integer, got 5.5"),
    "realize_diagonal-float-N": (
        lambda: realize_diagonal((0.5, 0.5), (1.0, -1.0), 5.5), ConfigError,
        "N: need an integer, got 5.5"),
    "lattice_sum-start_range-triple": (
        lambda: lattice_sum(GUE, 5, 2, start_range=(0, 1, 2)), OracleScaleError,
        r"start_range: need a \(start, stop\) pair, got \(0, 1, 2\)"),
    "lattice_sum-start_range-int": (
        lambda: lattice_sum(GUE, 5, 2, start_range=5), OracleScaleError,
        r"start_range: need a \(start, stop\) pair, got 5$"),
    # a float seed must not run the stream of its integer part, which
    # another seed owns
    "empirical_batch-float-seed": (
        lambda: empirical_batch(GUE_SPEC, 2, 4, 1.5), ConfigError,
        "seed: need an integer, got 1.5"),
    "mc_moments-float-seed": (
        lambda: mc_moments(GUE_SPEC, 2, 4, 1.5), ConfigError, "seed: need an integer, got 1.5"),
    "sample_spectrum-float-seed": (
        lambda: sample_spectrum(GUE_SPEC, 1.5), ConfigError, "seed: need an integer, got 1.5"),
    "spec-float-N": (
        lambda: MatrixModelSpec(kind="gue", N=5.5), ConfigError, "N: need an integer, got 5.5"),
    "mc_moments-float-L": (
        lambda: mc_moments(GUE_SPEC, 2.5, 4, 0), ConfigError, "L: need an integer, got 2.5"),
    "mc_moments-float-samples": (
        lambda: mc_moments(GUE_SPEC, 2, 4.5, 0), ConfigError,
        "samples: need an integer, got 4.5"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_public_call_refuses_out_of_range_input(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=message):
        call()


def test_numpy_integers_and_bools_pass_as_sizes():
    # operator.index accepts them: a bool order reads as 0 or 1
    assert gap_bound(GUE, 5, True) == gap_bound(GUE, 5, 1)
    assert mean_moment(GUE, np.int64(5), np.int32(2)) == mean_moment(GUE, 5, 2)
    assert trace_table(GUE, np.int64(5), np.int64(2)) == trace_table(GUE, 5, 2)
    assert lattice_sum(GUE, np.int64(5), 2, start_range=(np.int64(0), np.int64(3))) == (
        lattice_sum(GUE, 5, 2, start_range=(0, 3))
    )
    assert build_truncation(GUE, np.int64(5), 0).N == 5
    assert type(build_truncation(GUE, np.int64(5), 0).N) is int
    assert np.array_equal(GUE.band(np.int64(5), np.int64(8), np.int64(2)), GUE.band(5, 8, 2))
    assert SemicircleLaw().moment(np.int64(4)) == 2
    # numpy integer seeds and sizes run the streams of their int values
    seed = np.uint64(2**64 - 1)
    table = empirical_batch(GUE_SPEC, np.int64(2), np.int64(3), seed).table
    assert table.tobytes() == empirical_batch(GUE_SPEC, 2, 3, 2**64 - 1).table.tobytes()
    assert type(MatrixModelSpec(kind="gue", N=np.int64(4)).N) is int
