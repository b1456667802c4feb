"""Spectra of principal blocks, their moments, and the determinant
recurrence."""

import math

import numpy as np
import pytest

from bandedzeros.bandop import build_truncation, zero_moment_trace
from bandedzeros.errors import CharpolyOverflow
from bandedzeros.mop import mop_scheme
from bandedzeros.recurrence import RecurrenceScheme, classical_scheme, coeff
from bandedzeros.zeros import (
    charpoly_eval,
    reality_check,
    spectrum,
    zero_moments,
)

GUE = classical_scheme("gue")
MH = mop_scheme("multiple-hermite", a=(1.0, -1.0), q=(0.5, 0.5))
ML = mop_scheme("multiple-laguerre", a=(1.0, 2.0), q=(0.5, 0.5), alpha=1.0)
MH3 = mop_scheme("multiple-hermite", a=(1.0, 0.0, -1.0), q=(1 / 3,) * 3)


def rotation_scheme():
    """2x2 blocks [[0, -1], [1, 0]] along the diagonal: eigenvalues +-i.

    Deliberately not a recurrence of any orthogonality measure; used to
    confirm complex spectra are reported, not flattened.
    """

    def entry(m, k, N):
        if m == k + 1 and k % 2 == 0:
            return 1.0
        if m == k - 1 and k % 2 == 1:
            return -1.0
        return 0.0

    return RecurrenceScheme(
        name="rotation", params={}, down_band=1, up_band=1, entry_fn=entry
    )


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
    coeffs_b = [coeff(scheme, k, n)[1] for k in range(n)]
    coeffs_a = [coeff(scheme, k, n)[0] for k in range(n)]
    for z in measure.points:
        p_prev, p = 0.0, 1.0
        for k in range(n):
            p_prev, p = p, (z - coeffs_b[k]) * p - coeffs_a[k] ** 2 * p_prev
        assert abs(p) < 1e-10


@pytest.mark.parametrize("scheme", [GUE, classical_scheme("wishart", alpha=1.0)])
@pytest.mark.parametrize("n", [25, 200])
def test_heine_monic_cross_check(scheme, n):
    measure = spectrum(build_truncation(scheme, n, 0))
    coeffs = [coeff(scheme, k, n) for k in range(n)]
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
        pts = spectrum(build_truncation(scheme, 120, 0)).points
        assert np.all(pts.imag == 0.0)
        gaps = np.diff(pts.real)
        assert gaps.min() > 1e-12


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
    reference = np.linalg.eigvals(build_truncation(rotation_scheme(), 6, 0).block())

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
    target = np.prod(z - np.linalg.eigvals(op.block()))
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


def test_charpoly_unscales_in_range_values_past_two_to_1024():
    # diagonal 100 then 0.01: the scaled exponent climbs past 1024
    # before the small tail brings log|p(0)| back to about 460
    def entry(m, k, N):
        if m == k:
            return 100.0 if k < 160 else 0.01
        return 1e-3

    scheme = RecurrenceScheme(
        name="step-diagonal", params={}, down_band=1, up_band=1,
        entry_fn=entry, symmetric=True,
    )
    op = build_truncation(scheme, 220, 0)
    val = charpoly_eval(op, 0.0)
    sign, log_abs = np.linalg.slogdet(-op.block())
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
