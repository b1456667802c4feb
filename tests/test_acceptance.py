"""Acceptance gate: one test per shipped guarantee, in order.

Each test prints an ``ACCEPTANCE n: PASS`` line with the measured margin
once every assertion in it holds, so ``pytest -s tests/test_acceptance.py``
doubles as a checklist.  Numerical tolerances and runtime budgets are
asserted, not just reported.  Relative deviation means
|got - ref| / max(1, |ref|) throughout.
"""

import time
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from bandedzeros import (
    ArcsineMixture,
    AtomicMeasure,
    MarchenkoPasturLaw,
    MatrixModelSpec,
    MultiIndexPath,
    SemicircleLaw,
    build_truncation,
    classical_scheme,
    curve_hermite,
    curve_laguerre,
    curve_moments,
    free_add,
    free_mul,
    gap_bound,
    kva_functions,
    kva_moment,
    lattice_sum,
    mc_moments,
    mean_moment,
    mop_scheme,
    nn_coeffs_hermite,
    realize_diagonal,
    spectrum,
    variance_bound,
    variance_moment,
    zero_moment_trace,
    zero_moments,
)
from bandedzeros.paths import Constraint

from test_freeprob import assert_quadratic_root
from test_mop import check_rows_against_oracle, gaussian_moments, monic_mop

HALF = (Fraction(1, 2), Fraction(1, 2))

CLASSICAL = [
    ("gue", {}),
    ("wishart", {"alpha": 0.0}),
    ("wishart", {"alpha": 1.0}),
    ("jacobi", {"alpha": 1.0, "beta": 1.0}),
    ("charlier", {"alpha": 1.0}),
    ("meixner", {"alpha": 0.5, "beta": 1.0}),
]

ALL_SCHEMES = [
    (name, classical_scheme(name, **params)) for name, params in CLASSICAL
] + [
    ("multiple-hermite", mop_scheme("multiple-hermite", a=(1.0, -1.0), q=(0.5, 0.5))),
    (
        "multiple-laguerre",
        mop_scheme("multiple-laguerre", a=(1.0, 2.0), q=(0.5, 0.5), alpha=1.0),
    ),
]

MH_LIMIT = free_add(
    SemicircleLaw(), AtomicMeasure([(1, HALF[0]), (-1, HALF[1])]), 6
).values
ML_ATOMS = AtomicMeasure([(1, HALF[0]), (Fraction(1, 2), HALF[1])])


def rel_dev(got, ref):
    return abs(got - ref) / max(1.0, abs(ref))


@lru_cache(maxsize=None)
def mop_measure_400(kind):
    scheme = dict(ALL_SCHEMES)[kind]
    return spectrum(build_truncation(scheme, 400, 0))


def test_01_path_oracle_matches_traces():
    start = time.monotonic()
    worst = 0.0
    for _, scheme in ALL_SCHEMES:
        for n in range(1, 13):
            for ell in range(7):
                pairs = (
                    (lattice_sum(scheme, n, ell, Constraint.NONE),
                     mean_moment(scheme, n, ell)),
                    (lattice_sum(scheme, n, ell, Constraint.STAY_BELOW),
                     zero_moment_trace(scheme, n, ell)),
                    (lattice_sum(scheme, n, ell, Constraint.MIDPOINT_AT_OR_ABOVE),
                     variance_moment(scheme, n, ell)),
                )
                for got, ref in pairs:
                    worst = max(worst, rel_dev(got, ref))
                    assert rel_dev(got, ref) <= 1e-10
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 1: PASS (worst rel dev {worst:.1e}, {elapsed:.1f}s)")


def test_02_exact_gue_identities():
    gue = classical_scheme("gue")
    worst = 0.0
    for n in range(2, 501):
        mean = mean_moment(gue, n, 2)
        zero = zero_moment_trace(gue, n, 2)
        devs = (
            abs(mean - 1.0),
            abs(zero - (1.0 - 1.0 / n)),
            abs((mean - zero) - 1.0 / n),
            abs(variance_moment(gue, n, 1) - 1.0 / n**2),
        )
        worst = max(worst, *devs)
        assert max(devs) <= 1e-12
    print(f"ACCEPTANCE 2: PASS (worst abs dev {worst:.1e} over N = 2..500)")


def test_03_bounds_hold_everywhere():
    checked = 0
    violations = 0
    for _, scheme in ALL_SCHEMES:
        for n in range(2, 201):
            for ell in range(1, 7):
                gap = mean_moment(scheme, n, ell) - zero_moment_trace(scheme, n, ell)
                if not gap <= gap_bound(scheme, n, ell):
                    violations += 1
                if not variance_moment(scheme, n, ell) <= variance_bound(
                    scheme, n, ell
                ):
                    violations += 1
                checked += 2
    assert violations == 0
    print(f"ACCEPTANCE 3: PASS ({checked} bound checks, 0 violations)")


def test_04_variance_decay_rate():
    ranks = np.array([25, 50, 100, 200, 400])
    slopes = []
    for name, params in [("gue", {}), ("wishart", {"alpha": 1.0})]:
        scheme = classical_scheme(name, **params)
        for ell in (1, 2):
            var = np.array([variance_moment(scheme, n, ell) for n in ranks])
            slope = np.polyfit(np.log(ranks), np.log(var), 1)[0]
            slopes.append(slope)
            assert -2.1 <= slope <= -1.9
    print(
        "ACCEPTANCE 4: PASS (slopes "
        + ", ".join(f"{s:.3f}" for s in slopes)
        + ")"
    )


def test_05_limiting_zero_laws():
    start = time.monotonic()
    worst = 0.0
    for name, params in CLASSICAL:
        scheme = classical_scheme(name, **params)
        measure = spectrum(build_truncation(scheme, 2000, 0))
        moments, _ = zero_moments(measure, 6)
        mixture = ArcsineMixture(*kva_functions(name, **params))
        limits = [kva_moment(mixture, ell) for ell in range(7)]
        for got, ref in zip(moments, limits):
            worst = max(worst, rel_dev(got, ref))
            assert rel_dev(got, ref) <= 1e-2
        if name == "gue":
            assert np.allclose(limits, [1, 0, 1, 0, 2, 0, 5], atol=1e-12)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"ACCEPTANCE 5: PASS (worst rel dev {worst:.1e}, {elapsed:.1f}s)")


def test_06_multiple_hermite_limit():
    moments, _ = zero_moments(mop_measure_400("multiple-hermite"), 6)
    worst = max(
        rel_dev(got, float(ref)) for got, ref in zip(moments, MH_LIMIT)
    )
    assert worst <= 2e-2

    curve = curve_hermite((0.5, 0.5), (1.0, -1.0))
    series = curve_moments(curve, 6).values
    curve_dev = max(
        abs(got - float(ref)) for got, ref in zip(series, MH_LIMIT)
    )
    assert curve_dev <= 1e-8
    print(
        f"ACCEPTANCE 6: PASS (zeros rel dev {worst:.1e}, "
        f"curve vs series {curve_dev:.1e})"
    )


def test_07_multiple_laguerre_limit():
    # the ensemble's aspect ratio is 1 + alpha, so its zeros follow the
    # rate-2 law; the curve is normalized to the rate-1 law
    moments, _ = zero_moments(mop_measure_400("multiple-laguerre"), 6)
    zero_limit = free_mul(MarchenkoPasturLaw(2), ML_ATOMS, 6).values
    worst = max(
        rel_dev(got, float(ref)) for got, ref in zip(moments, zero_limit)
    )
    assert worst <= 2e-2

    curve = curve_laguerre((0.5, 0.5), (1.0, 2.0), 1.0)
    series = curve_moments(curve, 6).values
    curve_limit = free_mul(MarchenkoPasturLaw(1), ML_ATOMS, 6).values
    curve_dev = max(
        abs(got - float(ref)) for got, ref in zip(series, curve_limit)
    )
    assert curve_dev <= 1e-8

    # single-weight reduction: the curve is -(alpha z w^2 - (z - 1 + alpha)
    # w + 1), the Stieltjes quadratic of the rate-alpha MP law, so G is
    # its root to rounding
    for alpha in (1.0, 1.5):
        curve = curve_laguerre((1.0,), (1.0,), alpha)
        assert_quadratic_root(curve, lambda z: (1, -(z - 1 + alpha), alpha * z), 1e-13)
    print(
        f"ACCEPTANCE 7: PASS (zeros rel dev {worst:.1e}, "
        f"curve vs series {curve_dev:.1e}, G on the MP quadratic)"
    )


def test_08_zero_reality():
    worst = max(
        np.abs(mop_measure_400(kind).points.imag).max()
        for kind in ("multiple-hermite", "multiple-laguerre")
    )
    assert worst <= 1e-8
    print(f"ACCEPTANCE 8: PASS (max |Im| {worst:.1e})")


def test_09_monte_carlo_consistency():
    start = time.monotonic()
    mean, var, se = mc_moments(MatrixModelSpec(kind="gue", N=50), 2, 10000, 20260814)
    m2_pull = abs(mean.values[2] - 1.0) / se[2]
    assert m2_pull <= 4.0
    var_ratio = var[1] * 2500.0
    assert 0.8 <= var_ratio <= 1.2

    source = realize_diagonal((0.5, 0.5), (1.0, -1.0), 200)
    spec = MatrixModelSpec(kind="gue_source", N=200, source=source)
    mean_s, _, se_s = mc_moments(spec, 4, 1000, 7)
    worst = 0.0
    for ell in range(5):
        dev = abs(mean_s.values[ell] - float(MH_LIMIT[ell]))
        assert dev <= max(4.0 * se_s[ell], 0.05)
        worst = max(worst, dev)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(
        f"ACCEPTANCE 9: PASS (m2 pull {m2_pull:.2f} SE, var ratio "
        f"{var_ratio:.3f}, source dev {worst:.1e}, {elapsed:.1f}s)"
    )


def test_10_small_rank_orthogonality_oracle():
    a_vec = (Fraction(1), Fraction(-1))
    coeff_fn = partial(nn_coeffs_hermite, a_vec=a_vec)
    for N in range(1, 9):
        path = MultiIndexPath(HALF)
        moments = [gaussian_moments(a, N, 20) for a in a_vec]
        # exact Fraction agreement, stronger than the 1e-8 contract
        check_rows_against_oracle(path, coeff_fn, moments, N, 6)

        for n in [(1, 1), (2, 1), (2, 2), (3, 2)]:
            p_n = monic_mop(n, moments)
            up_i = monic_mop((n[0] + 1, n[1]), moments)
            up_j = monic_mop((n[0], n[1] + 1), moments)
            diag = nn_coeffs_hermite(n, N, a_vec).diag
            expected = [(diag[1] - diag[0]) * c for c in p_n]
            got = [ci - cj for ci, cj in zip(up_i, up_j)]
            assert got[:-1] == expected and got[-1] == 0
    print("ACCEPTANCE 10: PASS (rows and exchange relation exact, N = 1..8)")
