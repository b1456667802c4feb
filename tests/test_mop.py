"""Multi-index recurrence families checked against exact orthogonality.

The banded rows produced by the cascade expansion are compared with a
from-scratch construction: solve the defining orthogonality conditions
for the monic polynomials in exact rational arithmetic (the weight
moments obey first-order recurrences with rational coefficients), then
read off the expansion of x P_k over the path basis by degree reduction.
Everything on the oracle side is a Fraction, so agreement is tested for
exact equality, which is stronger than the 1e-8 relative contract.
"""

import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from bandedzeros import (
    MultiIndexPath,
    SchemeError,
    banded_entries,
    build_truncation,
    classical_scheme,
    mean_moment,
    mop_scheme,
    nn_coeffs_hermite,
    nn_coeffs_laguerre,
    spectrum,
    zero_moment_trace,
)
from bandedzeros import mop
from bandedzeros.bandop import trace_table

HALF = (Fraction(1, 2), Fraction(1, 2))
# a path that goes 5 steps without its last coordinate, one more than
# ceil(1 / min q)
LONG_GAP = (Fraction(2, 5), Fraction(7, 20), Fraction(1, 4))


# ---------------------------------------------------------------------------
# oracle: exact monic polynomials from the orthogonality conditions


def solve_exact(rows, rhs):
    """Gaussian elimination over the rationals."""
    n = len(rows)
    aug = [list(row) + [val] for row, val in zip(rows, rhs)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col]
        aug[col] = [x / inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def gaussian_moments(a, N, count):
    """Moments of exp(-N x^2 / 2 + N a x) relative to the mass.

    Integration by parts gives g_t = a g_{t-1} + ((t-1)/N) g_{t-2}.
    """
    g = [Fraction(1)]
    for t in range(1, count + 1):
        val = a * g[t - 1]
        if t >= 2:
            val += Fraction(t - 1, N) * g[t - 2]
        g.append(val)
    return g


def exponential_moments(a, N, alpha, count):
    """Moments of x^(N alpha) exp(-N a x) on (0, inf) relative to the mass."""
    g = [Fraction(1)]
    for t in range(1, count + 1):
        g.append(g[-1] * (t + N * alpha) / (N * a))
    return g


def monic_mop(n, moment_lists):
    """Monic polynomial of degree |n| orthogonal to x^s w_j for s < n_j."""
    size = sum(n)
    if size == 0:
        return [Fraction(1)]
    rows, rhs = [], []
    for nj, g in zip(n, moment_lists):
        for s in range(nj):
            rows.append([g[t + s] for t in range(size)])
            rhs.append(-g[size + s])
    return solve_exact(rows, rhs) + [Fraction(1)]


def expand_over_basis(poly, basis):
    """Coefficients of poly over a graded monic basis, by degree reduction."""
    rem = list(poly)
    coeffs = {}
    for m in range(len(rem) - 1, -1, -1):
        c = rem[m]
        coeffs[m] = c
        for t, bt in enumerate(basis[m]):
            rem[t] -= c * bt
    assert all(x == 0 for x in rem)
    return coeffs


def check_rows_against_oracle(path, coeff_fn, moment_lists, N, k_max):
    basis = [monic_mop(path.index(m), moment_lists) for m in range(k_max + 2)]
    for k in range(k_max + 1):
        x_pk = [Fraction(0)] + list(basis[k])
        oracle = expand_over_basis(x_pk, basis)
        entries = dict(banded_entries(path, coeff_fn, k, N))
        for m, value in entries.items():
            assert Fraction(value) == oracle.get(m, Fraction(0)), (k, m)
        # everything below the band must vanish identically
        for m in range(0, k + 2):
            if m not in entries:
                assert oracle[m] == 0, (k, m)


HERMITE_A = (Fraction(1), Fraction(-1))
LAGUERRE_A = (Fraction(1), Fraction(2))


@pytest.mark.parametrize("N", [2, 4, 5, 8])
def test_hermite_rows_match_orthogonality_oracle(N):
    path = MultiIndexPath(HALF)
    moments = [gaussian_moments(a, N, 20) for a in HERMITE_A]
    coeff_fn = partial(nn_coeffs_hermite, a_vec=HERMITE_A)
    check_rows_against_oracle(path, coeff_fn, moments, N, 7)


@pytest.mark.parametrize("N", [2, 6])
@pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1)])
def test_laguerre_rows_match_orthogonality_oracle(N, alpha):
    path = MultiIndexPath(HALF)
    moments = [exponential_moments(a, N, alpha, 20) for a in LAGUERRE_A]
    coeff_fn = partial(nn_coeffs_laguerre, alpha=alpha, a_vec=LAGUERRE_A)
    check_rows_against_oracle(path, coeff_fn, moments, N, 7)


def test_long_gap_path_rows_match_oracle():
    # k_max = 10 reaches the first 5-step gap, whose column has a 5th
    # lower row
    path = MultiIndexPath(LONG_GAP)
    assert path.R == 5
    a_vec = (Fraction(1), Fraction(0), Fraction(-1))
    moments = [gaussian_moments(a, 40, 30) for a in a_vec]
    coeff_fn = partial(nn_coeffs_hermite, a_vec=a_vec)
    check_rows_against_oracle(path, coeff_fn, moments, 40, 10)


def test_band_wider_than_the_longest_run_adds_a_zero_row():
    # R = 1 + ceil(3/2) + ceil(5/2) = 6, but two steps of one coordinate
    # are at most 5 apart on this path (period 10): the sixth lower row
    # must come out exactly zero
    path = MultiIndexPath((Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)))
    assert path.R == 6
    path.index(20)
    steps = path._steps[:20]
    assert max(np.diff(np.flatnonzero(steps == d), prepend=-1).max() for d in range(3)) == 5
    a_vec = (Fraction(1), Fraction(0), Fraction(-1))
    moments = [gaussian_moments(a, 40, 30) for a in a_vec]
    coeff_fn = partial(nn_coeffs_hermite, a_vec=a_vec)
    check_rows_against_oracle(path, coeff_fn, moments, 40, 10)
    for k in range(6, 11):
        assert dict(banded_entries(path, coeff_fn, k, 40))[k - 6] == 0


@pytest.mark.parametrize(
    "maker,args",
    [
        (gaussian_moments, (HERMITE_A, 5, None)),
        (exponential_moments, (LAGUERRE_A, 2, Fraction(0))),
        (exponential_moments, (LAGUERRE_A, 6, Fraction(1))),
    ],
)
def test_index_exchange_relation(maker, args):
    # P_{n+e_i} - P_{n+e_j} = (diag_n[j] - diag_n[i]) P_n, coefficientwise
    a_vec, N, alpha = args
    if alpha is None:
        moments = [gaussian_moments(a, N, 24) for a in a_vec]

        def diag_at(n):
            return nn_coeffs_hermite(n, N, a_vec).diag

    else:
        moments = [exponential_moments(a, N, alpha, 24) for a in a_vec]

        def diag_at(n):
            return nn_coeffs_laguerre(n, N, alpha, a_vec).diag

    for n in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        p_n = monic_mop(n, moments)
        up_i = monic_mop((n[0] + 1, n[1]), moments)
        up_j = monic_mop((n[0], n[1] + 1), moments)
        diag = diag_at(n)
        expected = [(diag[1] - diag[0]) * c for c in p_n]
        got = [ci - cj for ci, cj in zip(up_i, up_j)]
        assert got[:-1] == expected and got[-1] == 0


@pytest.mark.parametrize(
    "kind,a,q,alpha",
    [
        ("multiple-hermite", (1, -1), (0.5, 0.5), None),
        ("multiple-laguerre", (1, 2), (0.5, 0.5), 1),
        ("multiple-hermite", (1, 0, -1), (1 / 3,) * 3, None),
        ("multiple-laguerre", (1, 2, 4), (0.25, 0.25, 0.5), 2),
        ("multiple-hermite", (1, 0, -1), (0.4, 0.35, 0.25), None),
    ],
)
def test_float_band_matches_exact_cascade(kind, a, q, alpha):
    # the float band and the Fraction expansion come from the same
    # cascade in two dtypes; they agree to rounding along the same path,
    # the merge the scheme walks
    path = MultiIndexPath(q)
    scheme = mop_scheme(kind, a, q, alpha=alpha)
    exact_a = tuple(Fraction(x) for x in a)
    if alpha is None:
        exact_fn = partial(nn_coeffs_hermite, a_vec=exact_a)
    else:
        exact_fn = partial(nn_coeffs_laguerre, alpha=Fraction(alpha), a_vec=exact_a)
    R = scheme.down_band
    for N in (7, 20, 61):
        band = scheme.band(N, N + 5)
        for k in range(N + 5):
            for m, value in banded_entries(path, exact_fn, k, N):
                assert isinstance(value, (int, Fraction))
                if m < N + 5:
                    v = float(value)
                    assert abs(band[R + m - k, k] - v) <= 1e-14 * max(1.0, abs(v)), (N, k, m)


# ---------------------------------------------------------------------------
# coefficient formulas


def test_hermite_coefficients_example():
    c = nn_coeffs_hermite((3, 2), 5, (1, -1))
    assert tuple(c.diag) == (1, -1)
    assert tuple(c.down) == (Fraction(3, 5), Fraction(2, 5))
    assert tuple(float(x) for x in c.down) == (0.6, 0.4)


def test_hermite_coefficients_empty_index():
    c = nn_coeffs_hermite((0, 0), 0, (1, -1))
    assert tuple(c.down) == (0, 0)


def test_laguerre_coefficients_example():
    c = nn_coeffs_laguerre((1, 1), 2, 0, (1, 2))
    assert float(c.down[0]) == 0.5
    assert float(c.diag[0]) == 2.25
    assert float(c.down[1]) == 0.125
    assert float(c.diag[1]) == 1.5


def test_laguerre_single_index_reduction():
    # n = (k), a = (1), alpha = 0: diag (2k+1)/N, down (k/N)^2
    for N in (3, 10):
        for k in range(N + 1):
            c = nn_coeffs_laguerre((k,), N, 0, (1,))
            assert c.diag[0] == Fraction(2 * k + 1, N)
            assert c.down[0] == Fraction(k, N) ** 2


def test_dimension_mismatch_rejected():
    with pytest.raises(SchemeError):
        nn_coeffs_hermite((1, 2, 3), 6, (1, -1))
    with pytest.raises(SchemeError):
        nn_coeffs_laguerre((1,), 4, 0, (1, 2))


# ---------------------------------------------------------------------------
# path construction


def test_greedy_path_balanced_ratios_alternates():
    path = MultiIndexPath(HALF)
    assert path.index(4) == (2, 2)
    # steps alternate 0, 1, 0, 1, 0, 1
    assert [path.index(k) for k in range(1, 7)] == [(1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]
    assert path.R == 2


def test_greedy_path_skewed_ratios():
    path = MultiIndexPath((Fraction(1, 3), Fraction(2, 3)))
    assert path.index(3) == (1, 2)
    assert path.R == 3


def test_refresh_window_holds_along_path():
    # n^(k+R) >= n^(k) + 1 coordinatewise, checked exhaustively
    for ratios in (
        HALF,
        (Fraction(1, 3), Fraction(2, 3)),
        (0.2, 0.3, 0.5),
        LONG_GAP,
        (0.4, 0.35, 0.25),
    ):
        path = MultiIndexPath(ratios)
        R = path.R
        for k in range(200):
            lo = path.index(k)
            hi = path.index(k + R)
            assert all(h >= l + 1 for l, h in zip(lo, hi))


def test_band_width_bounds_every_run():
    # R = max_d sum_e ceil(q_e / q_d) bounds the distance between two
    # steps of one coordinate, and the first step of each, over the first
    # 1e5 steps of random ratios, exact and rounded to floats; most reach it
    rng = np.random.default_rng(2024)
    length, trials, reached = 100_000, 100, 0
    for trial in range(trials):
        weights = [int(w) for w in rng.integers(1, 1000, size=2 + trial % 4)]
        exact = tuple(Fraction(w, sum(weights)) for w in weights)
        for ratios in (exact, tuple(float(q) for q in exact)):
            path = MultiIndexPath(ratios)
            path.index(length)
            steps = path._steps[:length]
            runs = max(
                np.diff(np.flatnonzero(steps == d), prepend=-1).max() for d in range(path.r)
            )
            assert math.ceil(1 / min(exact)) <= runs <= path.R, ratios
            reached += runs == path.R
    assert reached >= 0.8 * 2 * trials


def test_generic_float_ratios_get_a_proven_band():
    # the terms 1 + sum_{e != d} ceil(q_e / q_d) of R are 5, 4 and 3, and
    # the longest runs of the three coordinates reach each of them
    ratios = (0.3276, 0.3329, 0.3395)
    path = MultiIndexPath(ratios)
    assert path.R == 5
    path.index(20_000)
    runs = [np.diff(np.flatnonzero(path._steps == d), prepend=-1).max() for d in range(3)]
    assert runs == [5, 4, 3]
    # floats are merged at their binary values, whose keys pass int64
    binary = MultiIndexPath(tuple(Fraction(q) for q in ratios))
    binary.index(20_000)
    assert (binary._steps == path._steps).all()


def test_ratio_tracking():
    path = MultiIndexPath((Fraction(1, 3), Fraction(2, 3)))
    n = path.index(3000)
    assert abs(n[0] / 3000 - 1 / 3) < 1e-3
    assert abs(n[1] / 3000 - 2 / 3) < 1e-3


def test_bad_ratios_rejected():
    with pytest.raises(SchemeError):
        MultiIndexPath((0.5, -0.5, 1.0))
    with pytest.raises(SchemeError):
        MultiIndexPath((0.3, 0.3))
    with pytest.raises(SchemeError):
        MultiIndexPath(())


# ---------------------------------------------------------------------------
# assembled schemes


def test_scheme_is_monic_with_banded_zero_pattern():
    for kind, alpha in (("multiple-hermite", None), ("multiple-laguerre", 1)):
        a = (1, -1) if alpha is None else (1, 2)
        scheme = mop_scheme(kind, a, (0.5, 0.5), alpha=alpha)
        assert scheme.down_band == 2
        N = 16
        assert scheme.band(N, N).shape == (4, N)
        for k in range(12):
            assert scheme.entry(k + 1, k, N) == 1.0
            for m in range(0, 15):
                if m > k + 1 or m < k - scheme.down_band:
                    assert scheme.entry(m, k, N) == 0.0


def test_hermite_mean_ell1_telescopes_to_zero():
    scheme = mop_scheme("multiple-hermite", (1, -1), (0.5, 0.5))
    assert mean_moment(scheme, 40, 1) == 0.0


def test_hermite_mean_ell2_near_free_limit():
    scheme = mop_scheme("multiple-hermite", (1, -1), (0.5, 0.5))
    assert abs(mean_moment(scheme, 40, 2) - 2.0) < 0.05


def test_trace_table_keeps_the_full_band(monkeypatch):
    # trace_table asks for a window around N, on indices <= N + 2 L, and
    # for the N-block; the block, the wider, stays cached, so the zero
    # side at the same N computes no column again
    computed = []
    cascade = mop._cascade

    def counting(path, coeff_fn, N, start, stop):
        computed.append((N, start, stop))
        return cascade(path, coeff_fn, N, start, stop)

    monkeypatch.setattr(mop, "_cascade", counting)
    scheme = mop_scheme("multiple-hermite", (1, -1), (0.5, 0.5))
    trace_table(scheme, 200, 6)
    assert computed == [(200, 170, 213), (200, 0, 200)]
    computed.clear()
    zero_moment_trace(scheme, 200, 6)
    assert computed == []


def test_a_sweep_over_n_keeps_one_window(monkeypatch):
    # the scheme caches the widest window of the last N asked for: a
    # second N replaces the first, so only the last N is served again
    computed = []
    cascade = mop._cascade

    def counting(path, coeff_fn, N, start, stop):
        computed.append((N, start, stop))
        return cascade(path, coeff_fn, N, start, stop)

    monkeypatch.setattr(mop, "_cascade", counting)
    scheme = mop_scheme("multiple-hermite", (1, -1), (0.5, 0.5))
    trace_table(scheme, 200, 6)
    trace_table(scheme, 300, 6)
    computed.clear()
    zero_moment_trace(scheme, 300, 6)
    assert computed == []
    zero_moment_trace(scheme, 200, 6)
    assert computed == [(200, 0, 200)]


def test_laguerre_mean_ell1_regression():
    scheme = mop_scheme("multiple-laguerre", (1, 2), (0.5, 0.5), alpha=1)
    for N in (12, 24, 120):
        assert mean_moment(scheme, N, 1) == pytest.approx(1.5, abs=1e-12)


def test_laguerre_single_location_matches_wishart_spectrum():
    mono = mop_scheme("multiple-laguerre", (1,), (1.0,), alpha=1)
    classical = classical_scheme("wishart", alpha=1.0)
    N = 40
    pts = np.sort(spectrum(build_truncation(mono, N, 0)).points.real)
    ref = np.sort(spectrum(build_truncation(classical, N, 0)).points.real)
    assert np.allclose(pts, ref, atol=1e-9)


def test_scheme_validation():
    with pytest.raises(SchemeError):
        mop_scheme("multiple-hermite", (1, 1), (0.5, 0.5))
    with pytest.raises(SchemeError):
        mop_scheme("multiple-hermite", (1, -1), (0.5, 0.5), alpha=2)
    with pytest.raises(SchemeError):
        mop_scheme("multiple-laguerre", (1, -1), (0.5, 0.5))
    with pytest.raises(SchemeError):
        mop_scheme("multiple-laguerre", (1, 2), (0.5, 0.5), alpha=-0.5)
    with pytest.raises(SchemeError):
        mop_scheme("multiple-jacobi", (1, 2), (0.5, 0.5))

