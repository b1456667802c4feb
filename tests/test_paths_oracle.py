"""Lattice-path sums against the trace route and a walk enumeration.

The path sums are an independent evaluation of the same quantities the
banded traces compute; both read the scheme's band, but nothing here
reuses matrix code.  At small sizes they are also checked against a
listing of every walk, which forms no matrix at all.
"""

import functools
import itertools
import math

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
    # a step goes up by at most one, so paths starting below N - ell
    # cannot reach the boundary, and the unconstrained and stay-below
    # sums agree exactly there
    by_label = dict(SCHEMES)
    labels = ("gue", "charlier1", "mhermite", "mlaguerre")
    for label, n, ell in itertools.product(labels, (8, 10, 16), (1, 2, 3, 4, 6)):
        scheme, starts = by_label[label], (0, n - ell)
        free = lattice_sum(scheme, n, ell, Constraint.NONE, start_range=starts)
        below = lattice_sum(scheme, n, ell, Constraint.STAY_BELOW, start_range=starts)
        assert free == below, (label, n, ell)


def _enumerated(scheme, N, ell, constraint, starts):
    """The normalised path sum by listing every walk from each start in
    ``range(*starts)``: a step y -> y' (y - R <= y' <= y + 1) weighs
    ``scheme.entry(y', y, N)``, a walk the product of its steps."""
    weight = functools.cache(lambda m, k: scheme.entry(m, k, N))
    midpoint = constraint is Constraint.MIDPOINT_AT_OR_ABOVE
    length = 2 * ell if midpoint else ell
    terms = []
    for k in range(*starts):
        for moves in itertools.product(range(-scheme.down_band, 2), repeat=length):
            ys = list(itertools.accumulate(moves, initial=k))
            if ys[-1] != k or min(ys) < 0:
                continue
            if constraint is Constraint.STAY_BELOW and max(ys) >= N:
                continue
            if midpoint and ys[ell] < N:
                continue
            terms.append(math.prod(weight(m, y) for y, m in zip(ys, ys[1:])))
    return math.fsum(terms) / (N * N if midpoint else N)


@pytest.mark.parametrize("label", ["gue", "mhermite"])
def test_oracle_matches_walk_enumeration(label):
    scheme = dict(SCHEMES)[label]
    for n, ell, constraint in itertools.product(range(1, 6), range(4), Constraint):
        split = n // 2
        for starts in ((0, n), (0, split), (split, n)):
            got = lattice_sum(scheme, n, ell, constraint, start_range=starts)
            want = _enumerated(scheme, n, ell, constraint, starts)
            assert got == pytest.approx(want, rel=1e-14, abs=0), (n, ell, constraint, starts)


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
