"""Banded truncations of the recurrence operator and trace statistics.

For a scheme of lower band width R = down_band the operator is stored
as its band (``RecurrenceScheme.band``): an array of R + 2 rows with
T[m, k] in row R + m - k of column k (one superdiagonal).
``build_truncation`` truncates it to indices < N + ell_max.
``mean_moment`` reads the truncation padded by ell: a product of ell
band steps starting below index N never reaches the boundary of the
storage, so the truncated powers agree with the infinite operator
wherever they are read.  ``zero_moment_trace`` reads the N-block, and
``trace_table`` and ``variance_moment`` read the N-block and windows
(below).  Powers of T are products of bands, never N x N arrays.

Statistics (all per the projection pi_N onto indices < N):

- mean_moment:      (1/N) Tr(pi_N T^ell pi_N)        (mean of the
  empirical measure's ell-th moment)
- zero_moment_trace:(1/N) Tr((pi_N T pi_N)^ell)      (ell-th moment of
  the zero distribution of the average characteristic polynomial)
- variance_moment:  (1/N^2) [Tr(pi T^{2 ell} pi) - Tr((pi T^ell pi)^2)],
  computed in the exactly equivalent boundary-crossing form
  (1/N^2) sum_{k < N <= m} (T^ell)[k, m] (T^ell)[m, k], which is free of
  the O(N) cancellation between the two traces.

The gap and variance bounds multiply a path-count factor by a window
peak: the largest entry magnitude over max(|m - N|, |k - N|) <= w.

The gap and the variance are sums over closed walks that cross index
N, so only the zero side needs the whole N-block.  trace_table reads two
bands: the block gives the zero side and the mean's diagonal terms
below N - ell + 1, and one window of O(R ell_max) columns around N gives
the mean's top terms, the variance and the window peaks of both bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SchemeError
from .recurrence import RecurrenceScheme

__all__ = [
    "BandedOperator",
    "build_truncation",
    "mean_moment",
    "zero_moment_trace",
    "variance_moment",
    "gap_bound",
    "variance_bound",
    "window_max",
    "trace_table",
]


@dataclass(frozen=True, eq=False)
class BandedOperator:
    """Band of a truncation of T: matrix[down_band + m - k, k] = T[m, k]
    for indices m, k < dim (``RecurrenceScheme.band`` layout)."""

    scheme: RecurrenceScheme
    N: int
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def block(self) -> np.ndarray:
        """Principal N x N block (the compressed operator pi_N T pi_N), dense."""
        N, r = self.N, self.scheme.down_band
        dense = np.zeros((N, N))
        for i, row in enumerate(self.matrix):
            k = np.arange(max(0, r - i), min(N, N + r - i))
            dense[k + i - r, k] = row[k]
        return dense


def build_truncation(scheme: RecurrenceScheme, N: int, ell_max: int) -> BandedOperator:
    """Band of T on indices < N + ell_max."""
    if ell_max < 0:
        raise SchemeError(f"need ell_max >= 0, got {ell_max}")
    return BandedOperator(scheme, N, scheme.band(N, N + ell_max))


def _powers(T: np.ndarray, r: int, ell_max: int):
    """Bands of T, T^2, ..., T^ell_max for a band T of lower width r (the
    ``RecurrenceScheme.band`` layout); T^ell has lower width ell * r.
    Column k of T^ell T sums T[t, k] times column t of T^ell, so each band
    row of T adds one shifted copy of T^ell, padded once per step.  Leading
    axes of T index independent bands (a stack of samples), each treated
    elementwise as a band of its own."""
    *lead, width, dim = T.shape
    steps = [T[..., i, None, :] for i in range(width)]
    P = T
    for ell in range(1, ell_max + 1):
        if ell > 1:
            rows = P.shape[-2]
            padded = np.zeros((*lead, rows, dim + width - 1))
            padded[..., r : r + dim] = P
            P = np.zeros((*lead, rows + width - 1, dim))
            for i, step in enumerate(steps):
                P[..., i : i + rows, :] += step * padded[..., i : i + dim]
        yield P


def _crossing_sum(P: np.ndarray, lower: int, N: int, start: int = 0) -> float:
    """(1/N^2) sum_{k < N <= m} P[k, m] P[m, k] for a band of lower width
    ``lower`` whose first column is index ``start``; only m = k + d with d
    within both bands contributes."""
    upper = len(P) - 1 - lower
    return math.fsum(
        P[lower + d, k - start] * P[lower - d, k + d - start]
        for d in range(1, min(lower, upper) + 1)
        for k in range(max(0, N - d), N)
    ) / (N * N)


def _moment(scheme: RecurrenceScheme, N: int, ell: int, pad: int) -> float:
    """(1/N) Tr(pi_N P pi_N) for the band P of the ell-th power of the
    truncation to N + pad: pad = ell gives the powers of T, 0 those of
    pi_N T pi_N."""
    if ell < 0:
        raise SchemeError("need ell >= 0")
    if ell == 0:
        return 1.0
    r = scheme.down_band
    *_, P = _powers(build_truncation(scheme, N, pad).matrix, r, ell)
    return math.fsum(P[ell * r, :N].tolist()) / N


def mean_moment(scheme: RecurrenceScheme, N: int, ell: int) -> float:
    """Mean of the ell-th empirical moment, (1/N) Tr(pi_N T^ell pi_N)."""
    return _moment(scheme, N, ell, ell)


def zero_moment_trace(scheme: RecurrenceScheme, N: int, ell: int) -> float:
    """ell-th moment of the zero distribution, (1/N) Tr((pi_N T pi_N)^ell)."""
    return _moment(scheme, N, ell, 0)


def variance_moment(scheme: RecurrenceScheme, N: int, ell: int) -> float:
    """Variance of the ell-th empirical moment under the ensemble.

    The crossing sum reads columns of T^ell within ell of N, and a
    product of ell band steps from those columns never leaves the
    indices from N - ell (2 R + 1) to N + 2 ell, so the band of that
    window alone gives the exact value at a cost independent of N.
    """
    if ell < 0:
        raise SchemeError("need ell >= 0")
    if ell == 0:
        return 0.0
    start, window = _window(scheme, N, ell, N + 2 * ell)
    *_, P = _powers(window, scheme.down_band, ell)
    return _crossing_sum(P, ell * scheme.down_band, N, start)


def _window(scheme: RecurrenceScheme, N: int, ell: int, stop: int):
    """(start, band of T on the columns start..stop-1), with start =
    max(0, N - ell (2 R + 1)) at or below every index that a product of
    ell band steps reaches from the columns the variance and the mean's
    top terms read."""
    start = max(0, N - ell * (2 * scheme.down_band + 1))
    return start, scheme.band(N, stop, start)


def _window_peaks(band: np.ndarray, r: int, N: int, W: int) -> np.ndarray:
    """peak[w] = max |T[m, k]| over m, k >= 0 with max(|m - N|, |k - N|) <= w,
    for w = 0..W, from a band of lower width r on the columns max(0, N - W)
    to N + W whose rows past N + W are zeroed.  Every window holds (N, N),
    so none is empty."""
    k = np.arange(max(0, N - W), N + W + 1)
    m = k + np.arange(-r, len(band) - r)[:, None]
    d = np.maximum(abs(m - N), abs(k - N))
    inside = d <= W
    peak = np.zeros(W + 1)
    np.maximum.at(peak, d[inside], np.abs(band[inside]))
    return np.maximum.accumulate(peak)


def _peak(scheme: RecurrenceScheme, N: int, w: int) -> float:
    """Largest |T[m, k]| over m, k >= 0 with |m - N|, |k - N| <= w."""
    band = scheme.band(N, N + w + 1, max(0, N - w))
    return _window_peaks(band, scheme.down_band, N, w)[w].item()


def gap_bound(scheme: RecurrenceScheme, N: int, ell: int) -> float:
    """Upper bound on |mean_moment - zero_moment_trace|.

    (2 ell)^ell / N times the ell-th power of the largest entry
    magnitude in the window |k - N| <= ell, |m - N| <= ell.
    """
    if ell < 1:
        raise SchemeError("need ell >= 1")
    return _bound(N, ell, _peak(scheme, N, ell), 1)


def variance_bound(scheme: RecurrenceScheme, N: int, ell: int) -> float:
    """Upper bound on variance_moment.

    (4 ell)^(2 ell) / N^2 times the (2 ell)-th power of the largest
    entry magnitude in the window of radius 2 ell around N.
    """
    if ell < 1:
        raise SchemeError("need ell >= 1")
    return _bound(N, ell, _peak(scheme, N, 2 * ell), 2)


def _bound(N: int, ell: int, peak: float, p: int) -> float:
    """(2 p ell)^(p ell) / N^p times peak^(p ell): the gap bound for p = 1,
    the variance bound for p = 2."""
    bound = (2 * p * ell) ** (p * ell) / N**p * peak ** (p * ell)
    if not math.isfinite(bound):
        raise OverflowError(f"{('gap', 'variance')[p - 1]} bound at N={N}, ell={ell}")
    return bound


def window_max(scheme: RecurrenceScheme, N: int, eps: float) -> float:
    """Largest |entry(m, k, N)| over |k - N|, |m - N| <= floor(N eps)
    (with a 1e-9 tolerance on the floor), that is over |k/N - 1| <= eps,
    |m/N - 1| <= eps."""
    if eps <= 0:
        raise SchemeError("need eps > 0")
    return _peak(scheme, N, math.floor(N * eps + 1e-9))


def trace_table(scheme: RecurrenceScheme, N: int, ell_max: int):
    """Rows (N, ell, mean, zero_side, gap, gap_bound, variance,
    variance_bound) for ell = 1..ell_max, read from two bands of T: the
    N-block and the window on the columns max(0, N - ell_max (2 R + 1))
    to N + 2 ell_max.

    The block's powers give the zero side.  A closed walk of ell steps
    from k <= N - ell never reaches N, so the block's diagonal of T^ell
    below N - ell + 1 holds the same bits as the mean's; the window's
    powers give the mean's diagonal from there to N - 1 and the variance's
    crossing sum, and its window peaks around N both bounds."""
    if ell_max < 0:
        raise SchemeError(f"need ell_max >= 0, got {ell_max}")
    r, W = scheme.down_band, 2 * ell_max
    start, window = _window(scheme, N, ell_max, N + W + 1)
    peak = _window_peaks(window[:, max(0, N - W) - start :], r, N, W).tolist()
    block_powers = _powers(scheme.band(N, N), r, ell_max)
    window_powers = _powers(window, r, ell_max)
    rows = []
    for ell, B, P in zip(range(1, ell_max + 1), block_powers, window_powers):
        top = max(0, N - ell + 1)
        tail = P[ell * r, top - start : N - start].tolist()
        mean = math.fsum(B[ell * r, :top].tolist() + tail) / N
        zero = math.fsum(B[ell * r].tolist()) / N
        rows.append(
            (
                N,
                ell,
                mean,
                zero,
                abs(mean - zero),
                _bound(N, ell, peak[ell], 1),
                _crossing_sum(P, ell * r, N, start),
                _bound(N, ell, peak[2 * ell], 2),
            )
        )
    return rows
