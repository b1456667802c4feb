"""Banded truncations of the recurrence operator and trace statistics.

For a scheme with band widths (down_band, up_band) the operator is
stored as its band (``RecurrenceScheme.band``): an array of
down_band + up_band + 1 rows with T[m, k] in row down_band + m - k of
column k, truncated to indices < N + up_band * ell_max.  That padding
makes every trace below exact: a product of ell band steps starting
below index N never reaches the boundary of the storage, so the
truncated powers agree with the infinite operator wherever they are
read.  Powers of T are products of bands, never N x N arrays.

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
trace_table reads every row from one band, on indices <= N + 2 q ell_max:
its truncations give both power tables, and its cumulative window peaks
for w = 0..2 q ell_max give both bounds, so a table builds the band once.
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
    """Band of T on indices < N + up_band * ell_max."""
    if ell_max < 0:
        raise SchemeError(f"need ell_max >= 0, got {ell_max}")
    return BandedOperator(scheme, N, scheme.band(N, N + scheme.up_band * ell_max))


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


def _cut(band: np.ndarray, r: int, stop: int) -> np.ndarray:
    """Band of the truncation to indices < stop, from a band of lower
    width r whose columns start at index 0 and reach past stop - 1."""
    T = band[:, :stop].copy()
    for i in range(r + 1, len(T)):  # row i holds T[k + i - r, k]
        T[i, max(0, stop - i + r) :] = 0.0
    return T


def _diagonal_traces(T: np.ndarray, r: int, N: int, ell_max: int):
    """(P, (1/N) Tr(pi_N P pi_N)) for the bands P of T, ..., T^ell_max,
    with T a band of lower width r whose columns start at index 0: the
    truncation to N + up_band ell_max gives the powers of T, to N those
    of pi_N T pi_N."""
    powers = _powers(T, r, ell_max)
    return ((P, math.fsum(P[ell * r, :N].tolist()) / N) for ell, P in enumerate(powers, 1))


def _moment(scheme: RecurrenceScheme, N: int, ell: int, pad: int) -> float:
    if ell < 0:
        raise SchemeError("need ell >= 0")
    if ell == 0:
        return 1.0
    T = build_truncation(scheme, N, pad).matrix
    *_, (_, trace) = _diagonal_traces(T, scheme.down_band, N, ell)
    return trace


def mean_moment(scheme: RecurrenceScheme, N: int, ell: int) -> float:
    """Mean of the ell-th empirical moment, (1/N) Tr(pi_N T^ell pi_N)."""
    return _moment(scheme, N, ell, ell)


def zero_moment_trace(scheme: RecurrenceScheme, N: int, ell: int) -> float:
    """ell-th moment of the zero distribution, (1/N) Tr((pi_N T pi_N)^ell)."""
    return _moment(scheme, N, ell, 0)


def variance_moment(scheme: RecurrenceScheme, N: int, ell: int) -> float:
    """Variance of the ell-th empirical moment under the ensemble.

    The crossing sum reads columns of T^ell within ell * min(R, q) of N,
    and a product of ell band steps from those columns never leaves the
    indices from N - ell (R + q) - ell R to N + 2 q ell, so the band of
    that window alone gives the exact value at a cost independent of N.
    """
    if ell < 0:
        raise SchemeError("need ell >= 0")
    if ell == 0:
        return 0.0
    R, q = scheme.down_band, scheme.up_band
    start = max(0, N - ell * (R + q) - ell * R)
    *_, P = _powers(scheme.band(N, N + 2 * q * ell, start), R, ell)
    return _crossing_sum(P, ell * R, N, start)


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

    (2 q ell)^ell / N times the ell-th power of the largest entry
    magnitude in the window |k - N| <= q ell, |m - N| <= q ell.
    """
    if ell < 1:
        raise SchemeError("need ell >= 1")
    q = scheme.up_band
    return _gap_bound(q, N, ell, _peak(scheme, N, q * ell))


def _gap_bound(q: int, N: int, ell: int, peak: float) -> float:
    return (2 * q * ell) ** ell / N * peak**ell


def variance_bound(scheme: RecurrenceScheme, N: int, ell: int) -> float:
    """Upper bound on variance_moment.

    (4 q ell)^(2 ell) / N^2 times the (2 ell)-th power of the largest
    entry magnitude in the window of radius 2 q ell around N.
    """
    if ell < 1:
        raise SchemeError("need ell >= 1")
    q = scheme.up_band
    return _variance_bound(q, N, ell, _peak(scheme, N, 2 * q * ell))


def _variance_bound(q: int, N: int, ell: int, peak: float) -> float:
    return (4 * q * ell) ** (2 * ell) / (N * N) * peak ** (2 * ell)


def window_max(scheme: RecurrenceScheme, N: int, eps: float) -> float:
    """Largest |entry(m, k, N)| over |k - N|, |m - N| <= floor(N eps)
    (with a 1e-9 tolerance on the floor), that is over |k/N - 1| <= eps,
    |m/N - 1| <= eps."""
    if eps <= 0:
        raise SchemeError("need eps > 0")
    return _peak(scheme, N, math.floor(N * eps + 1e-9))


def trace_table(scheme: RecurrenceScheme, N: int, ell_max: int):
    """Rows (N, ell, mean, zero_side, gap, gap_bound, variance,
    variance_bound) for ell = 1..ell_max, all read from one band of T on
    indices <= N + 2 up_band ell_max: its truncation to N + 2 up_band
    ell_max gives the mean and variance, to N the zero side, and its
    window peaks around N both bounds."""
    if ell_max < 0:
        raise SchemeError(f"need ell_max >= 0, got {ell_max}")
    r, q = scheme.down_band, scheme.up_band
    W = 2 * q * ell_max
    band = scheme.band(N, N + W + 1)
    peak = _window_peaks(band[:, max(0, N - W) :], r, N, W).tolist()
    powers = _diagonal_traces(_cut(band, r, N + W), r, N, ell_max)
    block_powers = _diagonal_traces(_cut(band, r, N), r, N, ell_max)
    rows = []
    for ell, (P, mean), (_, zero) in zip(range(1, ell_max + 1), powers, block_powers):
        rows.append(
            (
                N,
                ell,
                mean,
                zero,
                abs(mean - zero),
                _gap_bound(q, N, ell, peak[q * ell]),
                _crossing_sum(P, ell * r, N),
                _variance_bound(q, N, ell, peak[2 * q * ell]),
            )
        )
    return rows
