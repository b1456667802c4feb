"""Spectra of principal blocks, their moments, and the determinant
recurrence."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bandedzeros
import bandedzeros.zeros as zeros_mod
from bandedzeros.bandop import build_truncation, zero_moment_trace
from bandedzeros.errors import CharpolyOverflow, NumericalFailure
from bandedzeros.mop import mop_scheme
from bandedzeros.recurrence import RecurrenceScheme, classical_scheme
from bandedzeros.zeros import (
    charpoly_eval,
    reality_check,
    spectrum,
    zero_moments,
)

from test_bandop import dense_truncation

GUE = classical_scheme("gue")
MH = mop_scheme("multiple-hermite", a=(1.0, -1.0), q=(0.5, 0.5))
ML = mop_scheme("multiple-laguerre", a=(1.0, 2.0), q=(0.5, 0.5), alpha=1.0)
MH3 = mop_scheme("multiple-hermite", a=(1.0, 0.0, -1.0), q=(1 / 3,) * 3)
MULTI_INDEX = pytest.mark.parametrize("scheme", [MH, ML, MH3], ids=["mh2", "ml2", "mh3"])


def rotation_scheme():
    """2x2 blocks [[0, -1], [1, 0]] along the diagonal: eigenvalues +-i.

    Deliberately not a recurrence of any orthogonality measure; used to
    confirm complex spectra are reported, not flattened.
    """

    def band(N, start, stop):
        odd = np.arange(start, stop) % 2
        # rows: T[k - 1, k] = -1 for odd k, T[k, k] = 0, T[k + 1, k] = 1 for even k
        return np.stack([-1.0 * odd, 0.0 * odd, 1.0 - odd])

    return RecurrenceScheme(name="rotation", down_band=1, band_fn=band)


def monic_gue():
    """GUE in monic form, T[k - 1, k] = k / N and T[k + 1, k] = 1: a
    diagonal similarity of the gue band that is not symmetric."""

    def band(N, start, stop):
        k = np.arange(start, stop)
        return np.stack([k / N, 0.0 * k, np.ones(len(k))])

    return RecurrenceScheme(name="monic-gue", down_band=1, band_fn=band)


def test_route_is_read_off_the_band():
    # the same eigenvalues; only the symmetric band takes the tridiagonal solver
    sym = spectrum(build_truncation(GUE, 40, 0))
    monic = spectrum(build_truncation(monic_gue(), 40, 0))
    assert (sym.route, monic.route) == ("tridiagonal", "sign-scan")
    assert np.abs(sym.points - monic.points).max() <= 1e-12


@pytest.mark.parametrize("scheme", [MH, ML, MH3, GUE], ids=["mh2", "ml2", "mh3", "gue"])
def test_padded_truncation_gives_the_block_spectrum(scheme):
    # only the N-block enters: T[N, N - 1] and the columns past N are cut
    block = build_truncation(scheme, 60, 0)
    padded = build_truncation(scheme, 60, 3)
    assert padded.matrix.shape[1] == 63 and padded.matrix[-1, 59] != 0.0
    got, want = spectrum(padded), spectrum(block)
    assert got.route == want.route and got.certified
    assert np.array_equal(got.points, want.points)
    for z in (0.3, -1.7 + 0.2j):
        assert charpoly_eval(padded, z) == charpoly_eval(block, z)


def test_gue_two_point_spectrum():
    measure = spectrum(build_truncation(GUE, 2, 0))
    target = math.sqrt(0.5)
    assert np.allclose(measure.points, [-target, target])


def test_one_by_one_spectrum():
    s = classical_scheme("charlier", alpha=1.0)
    measure = spectrum(build_truncation(s, 1, 0))
    assert measure.points[0] == pytest.approx(s.entry(0, 0, 1))


def test_wishart_matches_monic_laguerre_roots():
    # Heine: the average characteristic polynomial is the monic OP, so
    # eigenvalues of the block match roots of the monic recurrence
    scheme = classical_scheme("wishart", alpha=0.0)
    n = 2
    measure = spectrum(build_truncation(scheme, n, 0))
    # monic three-term recurrence p_{k+1} = (x - b_k) p_k - a_k^2 p_{k-1}
    coeffs_b = [scheme.band(n, k + 1, k)[1, 0] for k in range(n)]
    coeffs_a = [scheme.band(n, k + 1, k)[0, 0] for k in range(n)]
    for z in measure.points:
        p_prev, p = 0.0, 1.0
        for k in range(n):
            p_prev, p = p, (z - coeffs_b[k]) * p - coeffs_a[k] ** 2 * p_prev
        assert abs(p) < 1e-10


@pytest.mark.parametrize("scheme", [GUE, classical_scheme("wishart", alpha=1.0)])
@pytest.mark.parametrize("n", [25, 200])
def test_heine_monic_cross_check(scheme, n):
    measure = spectrum(build_truncation(scheme, n, 0))
    coeffs = [scheme.band(n, k + 1, k)[:2, 0] for k in range(n)]
    scale = max(abs(z) for z in measure.points)
    for z in measure.points[:: max(1, n // 8)]:
        p_prev, p = 0.0, 1.0
        mag = 0.0
        for a_k, b_k in coeffs:
            p_prev, p = p, (z - b_k) * p - a_k**2 * p_prev
            mag = max(mag, abs(p))
        assert abs(p) <= 1e-8 * max(mag, scale**n * 1e-300 + 1.0)


def test_zero_moments_match_trace_route():
    measure = spectrum(build_truncation(GUE, 5, 0))
    moments, residuals = zero_moments(measure, 2)
    assert moments[0] == 1.0
    assert moments[1] == pytest.approx(0.0, abs=1e-14)
    assert moments[2] == pytest.approx(0.8, rel=1e-12)
    assert max(residuals) == 0.0


@pytest.mark.parametrize(
    "scheme",
    [
        GUE,
        classical_scheme("wishart", alpha=1.0),
        classical_scheme("charlier", alpha=1.0),
        MH,
        ML,
    ],
)
@pytest.mark.parametrize("n", [11, 60, 200])
def test_trace_spectrum_consistency(scheme, n):
    measure = spectrum(build_truncation(scheme, n, 0))
    moments, _ = zero_moments(measure, 6)
    for ell in range(7):
        ref = zero_moment_trace(scheme, n, ell)
        assert abs(moments[ell] - ref) <= 1e-9 * max(1.0, abs(ref))


def test_symmetric_spectra_are_real_and_simple():
    for scheme in (GUE, classical_scheme("meixner", alpha=0.5, beta=1.0)):
        measure = spectrum(build_truncation(scheme, 120, 0))
        assert measure.route == "tridiagonal" and measure.certified
        pts = measure.points
        assert np.all(pts.imag == 0.0)
        gaps = np.diff(pts.real)
        assert gaps.min() > 1e-12


SYMMETRIC = pytest.mark.parametrize(
    "scheme", [GUE, classical_scheme("jacobi", alpha=1.0, beta=1.0)], ids=["gue", "jacobi"]
)


def full_tridiagonal_solve(band):
    """The eigenvalues of the whole symmetric tridiagonal block, the
    reference the half-size solve of a constant diagonal is held to."""
    import scipy.linalg

    return scipy.linalg.eigvalsh_tridiagonal(band[1], band[2, :-1])


def centred_scheme(c):
    """A symmetric tridiagonal scheme with constant diagonal c and
    off-diagonal sqrt(k / N), k = 1, 2, ..."""

    def band(N, start, stop):
        k = np.arange(start, stop)
        return np.stack([np.sqrt(k / N), np.full(len(k), c), np.sqrt((k + 1) / N)])

    return RecurrenceScheme(name=f"centred-{c}", down_band=1, band_fn=band)


@SYMMETRIC
@pytest.mark.parametrize("n", [1, 2, 3, 60, 61, 1999, 2000, 2001])
def test_constant_diagonal_spectra_are_exactly_symmetric(scheme, n):
    # a zero diagonal leaves a bipartite matrix: its zeros are +- the
    # singular values of a half-size bidiagonal, and 0 once more at odd N
    measure = spectrum(build_truncation(scheme, n, 0))
    assert measure.route == "tridiagonal" and measure.certified
    assert np.all(measure.points.imag == 0.0)
    x = measure.points.real
    assert np.array_equal(x, -x[::-1])
    if n % 2:
        assert x[n // 2] == 0.0
    ref = full_tridiagonal_solve(scheme.band(n, n))
    assert np.all(np.abs(x - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))
    moments, _ = zero_moments(measure, 7)
    assert [moments[ell] for ell in (1, 3, 5, 7)] == [0.0] * 4


@pytest.mark.parametrize("n", [2, 3, 60, 61])
def test_constant_diagonal_spectra_are_symmetric_about_it(n):
    # c - s and c + s for the same s: the spectrum about c = 0.25 is the
    # centred one shifted, bit for bit, with c itself in the middle at odd N
    shifted = spectrum(build_truncation(centred_scheme(0.25), n, 0))
    centred = spectrum(build_truncation(centred_scheme(0.0), n, 0)).points.real
    assert shifted.route == "tridiagonal" and shifted.certified
    x = shifted.points.real
    assert np.array_equal(x, 0.25 + centred)
    assert np.array_equal(centred, -centred[::-1])
    if n % 2:
        assert x[n // 2] == 0.25
    ref = full_tridiagonal_solve(centred_scheme(0.25).band(n, n))
    assert np.all(np.abs(x - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize(
    "scheme",
    [
        classical_scheme("wishart", alpha=1.0),
        classical_scheme("jacobi", alpha=1.0, beta=2.0),
        classical_scheme("meixner", alpha=0.5, beta=1.0),
    ],
    ids=["wishart", "jacobi-1-2", "meixner"],
)
def test_varying_diagonal_keeps_the_full_solve(scheme):
    measure = spectrum(build_truncation(scheme, 61, 0))
    assert np.array_equal(measure.points.real, full_tridiagonal_solve(scheme.band(61, 61)))


def mp_tridiagonal_zeros(band, guesses, mpmath):
    """The zeros of det(x - T) for the symmetric tridiagonal band, by
    Newton's method on the three-term recurrence at 40 digits from
    ``guesses``; N distinct converged zeros of a degree-N polynomial are
    all of them."""
    zeros = []
    with mpmath.workdps(40):
        d = [mpmath.mpf(v) for v in band[1]]
        e2 = [0] + [mpmath.mpf(v) ** 2 for v in band[2, :-1]]
        for x in map(mpmath.mpf, guesses):
            for _ in range(20):
                # p_k = (x - d_k) p_{k-1} - e_{k-1}^2 p_{k-2}, and its derivative
                p_prev, p, dp_prev, dp = 0, 1, 0, 0
                for dk, ck in zip(d, e2):
                    p_prev, p, dp_prev, dp = (
                        p,
                        (x - dk) * p - ck * p_prev,
                        dp,
                        p + (x - dk) * dp - ck * dp_prev,
                    )
                step = p / dp
                x -= step
                if abs(step) <= mpmath.mpf(10) ** -35:
                    break
            else:
                raise AssertionError(f"Newton did not converge from {x}")
            zeros.append(x)
        assert all(b - a > 1e-10 for a, b in zip(zeros, zeros[1:]))
        return np.array([float(z) for z in zeros])


@SYMMETRIC
@pytest.mark.parametrize("n", [200, 201])
def test_half_size_solve_is_as_accurate_as_the_full_solve(scheme, n):
    mpmath = pytest.importorskip("mpmath")
    band = scheme.band(n, n)
    full = full_tridiagonal_solve(band)
    half = spectrum(build_truncation(scheme, n, 0)).points.real
    exact = mp_tridiagonal_zeros(band, full, mpmath)
    assert np.abs(half - exact).max() <= np.abs(full - exact).max()


def test_reality_check_gue():
    ok, max_imag = reality_check(spectrum(build_truncation(GUE, 50, 0)), tol=1e-10)
    assert ok
    assert max_imag == 0.0


def test_reality_check_multiple_hermite():
    ok, max_imag = reality_check(spectrum(build_truncation(MH, 50, 0)), tol=1e-8)
    assert ok
    assert max_imag <= 1e-8


def test_complex_pairs_are_reported_not_flattened():
    measure = spectrum(build_truncation(rotation_scheme(), 6, 0))
    ok, max_imag = reality_check(measure, tol=1e-8)
    assert not ok
    assert max_imag == pytest.approx(1.0, rel=1e-12)
    reference = np.linalg.eigvals(dense_truncation(rotation_scheme(), 6, 6))

    def by_imag(pts):
        # sort imaginary-major so conjugate pairs line up even when the
        # computed real parts carry rounding-level jitter
        return pts[np.lexsort((pts.real, pts.imag))]

    assert np.allclose(by_imag(measure.points), by_imag(reference), atol=1e-12)


def test_charpoly_small_values():
    assert charpoly_eval(build_truncation(GUE, 2, 0), 0.0) == pytest.approx(-0.5)
    s = classical_scheme("charlier", alpha=1.0)
    b0 = s.entry(0, 0, 1)
    assert charpoly_eval(build_truncation(s, 1, 0), b0) == pytest.approx(0.0, abs=1e-15)


def test_charpoly_equals_eigenvalue_product():
    op = build_truncation(GUE, 3, 0)
    pts = spectrum(op).points
    z = 2.0
    target = np.prod([z - p for p in pts])
    assert charpoly_eval(op, z) == pytest.approx(float(target.real), rel=1e-10)

    # log|p| = 414 > 512 log 2, so the recurrence rescales part-way
    op = build_truncation(GUE, 400, 0)
    pts = spectrum(op).points.real
    val = charpoly_eval(op, 3.0)
    assert val.real > 0.0
    assert math.log(abs(val)) == pytest.approx(np.log(3.0 - pts).sum(), rel=1e-10)

    # three weights: down_band = 3, complex argument
    op = build_truncation(MH3, 42, 0)
    z = 0.3 + 0.7j
    target = np.prod(z - np.linalg.eigvals(dense_truncation(MH3, 42, 42)))
    assert charpoly_eval(op, z) == pytest.approx(target, rel=1e-10)


def test_charpoly_vanishes_at_eigenvalues():
    for scheme, n in ((GUE, 40), (MH, 40)):
        op = build_truncation(scheme, n, 0)
        pts = spectrum(op).points
        h = 1e-6
        for z in pts[:: n // 5]:
            val = charpoly_eval(op, complex(z))
            deriv = (charpoly_eval(op, complex(z) + h) - val) / h
            assert abs(val) <= 1e-8 * max(abs(deriv), 1e-300)


def test_charpoly_overflow_reports_scaled_log():
    op = build_truncation(GUE, 64, 0)
    with pytest.raises(CharpolyOverflow) as info:
        charpoly_eval(op, 1e9)
    err = info.value
    assert err.log_abs == pytest.approx(64 * math.log(1e9), rel=1e-3)
    assert err.phase == pytest.approx(0.0, abs=1e-12)


def test_charpoly_returns_values_up_to_the_double_range():
    # log|p| = 709.5 lies between 709 and log(DBL_MAX) = 709.78
    op = build_truncation(GUE, 64, 0)
    z = math.exp(709.5 / 64)
    val = charpoly_eval(op, z)
    target = np.log(z - spectrum(op).points.real).sum()
    assert math.log(val.real) == pytest.approx(target, rel=1e-10)


def test_charpoly_unscales_in_range_values_past_two_to_1024():
    # diagonal 100 then 0.01: the scaled exponent climbs past 1024
    # before the small tail brings log|p(0)| back to about 460
    def band(N, start, stop):
        k = np.arange(start, stop)
        off = np.full(len(k), 1e-3)
        return np.stack([off, np.where(k < 160, 100.0, 0.01), off])

    scheme = RecurrenceScheme(name="step-diagonal", down_band=1, band_fn=band)
    op = build_truncation(scheme, 220, 0)
    val = charpoly_eval(op, 0.0)
    sign, log_abs = np.linalg.slogdet(-dense_truncation(scheme, 220, 220))
    assert val.imag == 0.0
    assert np.sign(val.real) == sign
    assert math.log(abs(val)) == pytest.approx(log_abs, rel=1e-10)


def test_spectrum_sorted_by_real_then_imaginary():
    pts = spectrum(build_truncation(ML, 80, 0)).points
    order = np.lexsort((pts.imag, pts.real))
    assert np.array_equal(order, np.arange(len(pts)))


def test_mop_spectra_real_at_scale():
    for scheme in (MH, ML):
        pts = spectrum(build_truncation(scheme, 300, 0)).points
        assert np.abs(pts.imag).max() <= 1e-8


@MULTI_INDEX
@pytest.mark.parametrize("n", [12, 24])
def test_certified_zeros_match_high_precision_eigenvalues(scheme, n):
    mpmath = pytest.importorskip("mpmath")
    op = build_truncation(scheme, n, 0)
    measure = spectrum(op)
    assert measure.route == "sign-scan" and measure.certified
    with mpmath.workdps(40):
        block = dense_truncation(scheme, n, n).tolist()
        eig = mpmath.eig(mpmath.matrix(block), left=False, right=False)
        assert max(abs(mpmath.im(e)) for e in eig) < 1e-30
        ref = sorted(float(mpmath.re(e)) for e in eig)
    assert np.all(measure.points.imag == 0.0)
    for z, r in zip(measure.points.real, ref):
        assert abs(z - r) <= 1e-12 * max(1.0, abs(r))


@MULTI_INDEX
def test_multi_index_spectra_build_no_dense_block(scheme, monkeypatch):
    def no_block(band):
        raise AssertionError("the certified route built a dense block")

    monkeypatch.setattr(zeros_mod, "_balanced_eigvals", no_block)
    measure = spectrum(build_truncation(scheme, 420, 0))
    assert measure.route == "sign-scan" and measure.certified
    assert len(measure) == 420


@pytest.mark.parametrize("scheme, n", [(MH, 1), (ML, 1), (MH3, 1), (MH3, 3)])
def test_smallest_blocks_certify(scheme, n):
    op = build_truncation(scheme, n, 0)
    measure = spectrum(op)
    assert measure.route == "sign-scan"
    ref = np.sort(np.linalg.eigvals(dense_truncation(scheme, n, n)).real)
    assert np.allclose(measure.points.real, ref, rtol=0.0, atol=1e-14)


def test_grid_zero_counts_as_a_zero():
    # the middle zero of multiple Hermite (1, 0, -1) at N = 3 is exactly 0,
    # the midpoint of its Gershgorin interval, where p == 0 on the grid
    measure = spectrum(build_truncation(MH3, 3, 0))
    assert measure.route == "sign-scan"
    assert measure.points[1] == 0.0


def test_complex_spectrum_falls_back_uncertified():
    measure = spectrum(build_truncation(rotation_scheme(), 6, 0))
    assert measure.route == "aberth"
    assert not measure.certified


@pytest.mark.parametrize("n", [50, 250, 600])
def test_balanced_estimates_stay_in_range_on_long_blocks(n):
    # T[k, k+1] = 1e-6 and T[k+1, k] = -1: the balancing scale drifts by
    # a factor exp(6.9) per row, past the double range from N ~ 210, yet every
    # scaled band entry is +-1e-3.  The eigenvalues are
    # 2e-3 i cos(k pi / (N + 1)), k = 1..N.
    def band(N, start, stop):
        width = stop - start
        return np.stack([np.full(width, 1e-6), np.zeros(width), np.full(width, -1.0)])

    scheme = RecurrenceScheme(name="skew", down_band=1, band_fn=band)
    measure = spectrum(build_truncation(scheme, n, 0))
    assert measure.route == "aberth"
    exact = 2e-3 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
    assert np.abs(measure.points.real).max() <= 1e-16
    assert np.abs(np.sort(measure.points.imag) - np.sort(exact)).max() <= 1e-16


@pytest.mark.parametrize("n", [250, 300])
def test_rounding_dominated_scan_is_not_certified(n):
    # at N = 250 the scan shows exactly N sign changes but the zeros' mean
    # is off the trace by ~6e-7; at N = 300 it shows more than N changes
    scheme = mop_scheme("multiple-laguerre", a=(1.0, 3.0), q=(0.3, 0.7), alpha=0.5)
    try:
        measure = spectrum(build_truncation(scheme, n, 0))
    except NumericalFailure:
        return
    assert measure.route == "aberth"


# The leading-minor recurrence one column at a time, as a plain reference
# for ``zeros._charpoly``: the band products are formed inside the loop,
# value and derivative windows are separate arrays, and every step tests
# the whole window for rescaling.

ML13 = mop_scheme("multiple-laguerre", a=(1.0, 3.0), q=(0.3, 0.7), alpha=0.5)
ML0 = mop_scheme("multiple-laguerre", a=(1.0, 2.0), q=(0.5, 0.5), alpha=0.0)


def reference_charpoly(op, zs, shifted=None):
    """(p, dp, exponent) as ``zeros._charpoly`` defines them; every
    nonzero power-of-two shift it applies is added to ``shifted``."""
    B = op.matrix
    R = op.scheme.down_band
    zs = np.asarray(zs)
    zs = zs.astype(float if np.isrealobj(zs) else complex)
    width = R + 2
    win = np.zeros((width, len(zs)), dtype=zs.dtype)
    dwin = np.zeros_like(win)
    win[0] = 1.0
    exponent = np.zeros(len(zs), dtype=int)
    for j in range(op.N):
        prev = j % width
        shift = zs - B[R, j]
        val = shift * win[prev]
        dval = win[prev] + shift * dwin[prev]
        sub_prod = 1.0
        for i in range(j - 1, max(j - R, 0) - 1, -1):
            sub_prod *= B[R + 1, i]
            upper = B[R + i - j, j]
            if upper != 0.0:
                c = upper * sub_prod
                val -= c * win[i % width]
                dval -= c * dwin[i % width]
        win[(j + 1) % width] = val
        dwin[(j + 1) % width] = dval
        scale = np.abs(win).max(axis=0)
        shifts = np.where(scale > 2.0**512, -512, 0)
        shifts[(scale > 0.0) & (scale < 2.0**-512)] = 512
        if shifts.any():
            if shifted is not None:
                shifted.update(shifts[shifts != 0].tolist())
            factor = np.ldexp(1.0, shifts)
            win *= factor
            dwin *= factor
            exponent -= shifts
    return win[op.N % width], dwin[op.N % width], exponent


def assert_charpoly_matches_reference(op, zs, shifted=None):
    got = zeros_mod._charpoly(zeros_mod._minors(op.matrix[:, : op.N]), zs)
    ref = reference_charpoly(op, zs, shifted)
    for name, g, r in zip(("p", "dp", "exponent"), got, ref):
        assert g.dtype == r.dtype and np.array_equal(g, r), name


@pytest.mark.parametrize("scheme", [MH, ML, MH3, ML13], ids=["mh2", "ml2", "mh3", "ml13"])
@pytest.mark.parametrize("n", [30, 120, 420])
def test_charpoly_matches_reference_bitwise(scheme, n):
    op = build_truncation(scheme, n, 0)
    lo, hi = zeros_mod._gershgorin_interval(op.matrix)
    # z = T[0, 0] makes the first new minor exactly 0
    grid = np.append(np.linspace(lo, hi, 257), op.matrix[scheme.down_band, 0])
    assert_charpoly_matches_reference(op, grid)
    assert_charpoly_matches_reference(op, grid[::16] + 0.37j * (hi - lo))
    assert_charpoly_matches_reference(op, [complex(grid[-1]), 1e3 - 2e3j, -0.5 + 1e-9j])


def test_charpoly_matches_reference_across_both_rescales():
    # T[0, 0] = 0, a diagonal of 1e3 up to column 200, then 1e-3 with a
    # sub-diagonal of 1e-3: the minors climb past 2**512 and then fall
    # below 2**-512
    def band(N, start, stop):
        k = np.arange(start, stop)
        one = np.ones(len(k))
        diag = np.where(k == 0, 0.0, np.where(k < 200, 1e3, 1e-3))
        return np.stack([0.5 * one, -0.25 * one, diag, 1e-3 * one])

    scheme = RecurrenceScheme(name="two-phase", down_band=2, band_fn=band)
    op = build_truncation(scheme, 600, 0)
    shifted = set()
    zs = np.array([0.0, 0.25, -0.5, 1e-3, 7.0])
    assert_charpoly_matches_reference(op, zs, shifted)
    assert shifted == {-512, 512}
    shifted.clear()
    assert_charpoly_matches_reference(op, zs + 0.1j, shifted)
    assert shifted == {-512, 512}
    # at z = 1e-200 the minor d_0 = z is below 2**-512 but d_{-1} = 1 keeps
    # the window in range, so nothing is rescaled
    shifted.clear()
    assert_charpoly_matches_reference(build_truncation(scheme, 2, 0), [1e-200, 1e-200j], shifted)
    assert not shifted


@pytest.mark.parametrize(
    "scheme, route",
    [(MH, "sign-scan"), (ML, "sign-scan"), (MH3, "sign-scan"), (ML0, "aberth"), (ML13, None)],
    ids=["mh2", "ml2", "mh3", "ml0", "ml13"],
)
def test_spectrum_matches_reference_recurrence(scheme, route, monkeypatch):
    # N = 420 is the benchmark's multi-index size; ml0 takes the Aberth
    # route, and on ml13 both recurrences stall the polish
    op = build_truncation(scheme, 420, 0)

    def solve():
        try:
            measure = spectrum(op)
        except NumericalFailure as exc:
            return None, str(exc)
        return measure.route, measure.points

    got = solve()
    monkeypatch.setattr(zeros_mod, "_charpoly", lambda minors, zs: reference_charpoly(op, zs))
    ref = solve()
    assert got[0] == ref[0] == route
    if route is None:
        assert got[1] == ref[1]
    else:
        assert np.array_equal(got[1], ref[1])


def test_solver_failure_names_the_scheme_and_size(monkeypatch):
    def refuse(band):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(zeros_mod, "_tridiagonal_eigvals", refuse)
    with pytest.raises(NumericalFailure) as info:
        spectrum(build_truncation(GUE, 5, 0))
    assert str(info.value) == "eigenvalue solver failed on 'gue' block of size 5: no convergence"
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_certified_spectrum_loads_no_scipy():
    code = """
import sys
import bandedzeros as bz

scheme = bz.mop_scheme("multiple-hermite", a=(1.0, -1.0), q=(0.5, 0.5))
measure = bz.spectrum(bz.build_truncation(scheme, 60, 0))
assert measure.route == "sign-scan" and len(measure) == 60, measure.route
loaded = sorted(m for m in sys.modules if m.startswith("scipy."))
assert "scipy.linalg" not in loaded, loaded
"""
    src = str(Path(bandedzeros.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
