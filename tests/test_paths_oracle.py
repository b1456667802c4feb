"""Lattice-path sums against the trace route.

The path sums are an independent evaluation of the same quantities the
banded traces compute; both read the scheme's band, but nothing here
reuses matrix code.
"""

import pytest

from bandedzeros.bandop import mean_moment, variance_moment, zero_moment_trace
from bandedzeros.errors import OracleScaleError
from bandedzeros.mop import mop_scheme
from bandedzeros.paths import Constraint, kernel_name, lattice_sum
from bandedzeros.recurrence import classical_scheme

GUE = classical_scheme("gue")

SCHEMES = [
    ("gue", GUE),
    ("wishart0", classical_scheme("wishart", alpha=0.0)),
    ("jacobi11", classical_scheme("jacobi", alpha=1.0, beta=1.0)),
    ("charlier1", classical_scheme("charlier", alpha=1.0)),
    ("meixner", classical_scheme("meixner", alpha=0.5, beta=1.0)),
    ("mhermite", mop_scheme("multiple-hermite", a=(1.0, -1.0), q=(0.5, 0.5))),
    (
        "mlaguerre",
        mop_scheme("multiple-laguerre", a=(1.0, 2.0), q=(0.5, 0.5), alpha=1.0),
    ),
    ("mhermite3", mop_scheme("multiple-hermite", a=(1.0, 0.0, -1.0), q=(1 / 3,) * 3)),
]


def test_gue_examples():
    assert lattice_sum(GUE, 5, 2) == pytest.approx(1.0, rel=1e-12)
    assert lattice_sum(GUE, 5, 2, Constraint.NONE) == pytest.approx(1.0, rel=1e-12)
    assert lattice_sum(GUE, 5, 2, Constraint.STAY_BELOW) == pytest.approx(
        0.8, rel=1e-12
    )
    assert lattice_sum(GUE, 5, 1, Constraint.MIDPOINT_AT_OR_ABOVE) == pytest.approx(
        1.0 / 25.0, rel=1e-12
    )


@pytest.mark.parametrize("label,scheme", SCHEMES)
def test_oracle_matches_traces(label, scheme):
    for n in (2, 5, 9):
        for ell in range(5):
            mean = lattice_sum(scheme, n, ell, Constraint.NONE)
            zero = lattice_sum(scheme, n, ell, Constraint.STAY_BELOW)
            var = lattice_sum(scheme, n, ell, Constraint.MIDPOINT_AT_OR_ABOVE)
            scale = max(1.0, abs(mean))
            assert abs(mean - mean_moment(scheme, n, ell)) <= 1e-10 * scale
            assert abs(zero - zero_moment_trace(scheme, n, ell)) <= 1e-10 * scale
            assert abs(var - variance_moment(scheme, n, ell)) <= 1e-10 * max(
                1.0, abs(var)
            )


def test_kernel_name_reports():
    assert kernel_name() in ("compiled", "python")


def test_low_starts_contribute_nothing_to_the_gap():
    # paths starting below N - q*ell cannot reach the boundary, so the
    # unconstrained and stay-below sums agree exactly there
    for scheme in (GUE, classical_scheme("charlier", alpha=1.0)):
        n, ell = 10, 3
        free = lattice_sum(scheme, n, ell, Constraint.NONE, start_range=(0, n - ell))
        below = lattice_sum(
            scheme, n, ell, Constraint.STAY_BELOW, start_range=(0, n - ell)
        )
        assert free == below


def test_start_range_splits_the_sum():
    n, ell = 8, 4
    full = lattice_sum(GUE, n, ell, Constraint.NONE)
    lo = lattice_sum(GUE, n, ell, Constraint.NONE, start_range=(0, 5))
    hi = lattice_sum(GUE, n, ell, Constraint.NONE, start_range=(5, n))
    assert lo + hi == pytest.approx(full, rel=1e-14)


def test_scale_caps():
    with pytest.raises(OracleScaleError):
        lattice_sum(GUE, 5, 9)
    with pytest.raises(OracleScaleError):
        lattice_sum(GUE, 65, 2)
    with pytest.raises(OracleScaleError):
        lattice_sum(GUE, 0, 2)
    with pytest.raises(OracleScaleError):
        lattice_sum(GUE, 5, -1)


def test_zero_length_paths():
    assert lattice_sum(GUE, 6, 0, Constraint.NONE) == 1.0
    assert lattice_sum(GUE, 6, 0, Constraint.STAY_BELOW) == 1.0
    assert lattice_sum(GUE, 6, 0, Constraint.MIDPOINT_AT_OR_ABOVE) == 0.0


def test_midpoint_counts_boundary_crossings_only():
    # at ell = 1 for GUE the only contribution is the single two-step
    # path k = N-1 -> N -> N-1 with weight a_N^2
    n = 7
    val = lattice_sum(GUE, n, 1, Constraint.MIDPOINT_AT_OR_ABOVE)
    a_n_sq = n / n
    assert val == pytest.approx(a_n_sq / n**2, rel=1e-14)
