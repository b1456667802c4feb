"""Banded truncations of the recurrence operator and trace statistics.

For a scheme of lower band width R = down_band the operator is stored
as its band (``RecurrenceScheme.band``): an array of R + 2 rows with
T[m, k] in row R + m - k of column k (one superdiagonal).
``build_truncation`` pairs a scheme with a rank N, which the zero
solvers take, and keeps the band on indices < N + ell_max; the solvers
read the N-block from ``RecurrenceScheme.band`` as every reader here
does.  Powers of T are products of bands, never N x N arrays: each
step T^ell -> T^ell T is one contraction (``_powers``) over a strided
view of T^ell padded once, so a step allocates that pad and its result
and nothing per band row.

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
N, so only the zero side needs the whole N-block.  One reader, ``_read``,
serves the mean, the zero side and ``trace_table``: the N-block's powers
give the zero side and the mean's diagonal below N - ell + 1, and the
powers of one window of O(R ell) columns around N give the mean's top
terms (all of them when the window starts at column 0) and the
variance.  ``variance_moment`` and the bounds read a window alone.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import SchemeError, as_index
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
    for indices m, k < matrix.shape[1] (``RecurrenceScheme.band`` layout)."""

    scheme: RecurrenceScheme
    N: int
    matrix: np.ndarray


def build_truncation(scheme: RecurrenceScheme, N: int, ell_max: int) -> BandedOperator:
    """Band of T on indices < N + ell_max."""
    N, ell_max = _sizes(N, ell_max, "ell_max")
    return BandedOperator(scheme, N, scheme.band(N, N + ell_max))


def _powers(T: np.ndarray, r: int, ell_max: int):
    """Bands of T, T^2, ..., T^ell_max for a band T of lower width r (the
    ``RecurrenceScheme.band`` layout); T^ell has lower width ell * r.
    Column k of T^ell T sums T[t, k] times column t = k + i - r of T^ell
    over the band rows i of T, row q of the product reading row q - i of
    that column.  Each step copies P = T^ell once into ``pad``, zero-padded
    by width - 1 rows above and below and r columns left, 1 right, so
    V[i, q, k] = pad[width - 1 + q - i, k + i] is a no-copy strided view
    and Q[q, k] = sum_i T[i, k] V[i, q, k] is one einsum, summed in i
    order as a loop of shifted multiply-adds would.  Leading axes of T
    index independent bands (a stack of samples), each treated
    elementwise as a band of its own."""
    *lead, width, dim = T.shape
    P = T
    for ell in range(1, ell_max + 1):
        if ell > 1:
            rows = P.shape[-2]
            pad = np.zeros((*lead, rows + 2 * width - 2, dim + width - 1))
            pad[..., width - 1 : width - 1 + rows, r : r + dim] = P
            # np.ndarray, not as_strided: a view per step at ~1 us, not ~8
            *outer, row, col = pad.strides
            shape = (*lead, width, rows + width - 1, dim)
            V = np.ndarray(shape, float, pad, (width - 1) * row, (*outer, col - row, row, col))
            P = np.einsum("...ik,...iqk->...qk", T, V)
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


def _window(scheme: RecurrenceScheme, N: int, ell: int, stop: int):
    """(start, band of T on the columns start..stop-1): start = max(0,
    N - ell (2 R + 1)) is at or below every index that ell band steps
    reach from the columns the variance and the mean's top terms read."""
    start = max(0, N - ell * (2 * scheme.down_band + 1))
    return start, scheme.band(N, stop, start)


class _Traces(NamedTuple):
    """Bands of T^ell on the N-block and the window from column ``start``."""

    N: int
    ell: int
    lower: int  # ell * down_band, the lower width of T^ell
    start: int
    block: np.ndarray | None
    window: np.ndarray | None

    def mean(self) -> float:
        """(1/N) Tr(pi_N T^ell pi_N): the block's diagonal below the first
        column the window holds exactly, the window's from there on."""
        N, r, start = self.N, self.lower, self.start
        split = N - self.ell + 1 if start else 0
        head = self.block[r, :split].tolist() if split else []
        return math.fsum(head + self.window[r, split - start : N - start].tolist()) / N

    def zero(self) -> float:
        """(1/N) Tr((pi_N T pi_N)^ell), the block's diagonal."""
        return math.fsum(self.block[self.lower].tolist()) / self.N


def _read(scheme: RecurrenceScheme, N: int, ell_max: int, window=None, zero: bool = True):
    """Yield the ``_Traces`` of ell = 1..ell_max, None where not read: the
    one reader of the mean and the zero side.  ``window`` is the (start,
    band) of ``_window`` for ell_max, which the mean reads; the N-block's
    powers are built when the zero side or the mean's split asks for them."""
    r = scheme.down_band
    start, band = window or (0, None)
    blocks = _powers(scheme.band(N, N), r, ell_max) if zero or start else repeat(None)
    windows = _powers(band, r, ell_max) if window else repeat(None)
    for ell, B, P in zip(range(1, ell_max + 1), blocks, windows):
        yield _Traces(N, ell, ell * r, start, B, P)


def _sizes(N, ell, name: str = "ell", least: int = 0) -> tuple[int, int]:
    """N and the order ``name`` = ell as ints (numpy integers pass),
    refusing any other type, N < 1 and ell < least."""
    N, ell = as_index("N", N, SchemeError), as_index(name, ell, SchemeError)
    if N < 1:
        raise SchemeError(f"need N >= 1, got {N}")
    if ell < least:
        raise SchemeError(f"need {name} >= {least}, got {ell}")
    return N, ell


def mean_moment(scheme: RecurrenceScheme, N: int, ell: int) -> float:
    """Mean of the ell-th empirical moment, (1/N) Tr(pi_N T^ell pi_N)."""
    N, ell = _sizes(N, ell)
    if ell == 0:
        return 1.0
    window = _window(scheme, N, ell, N + ell)
    return deque(_read(scheme, N, ell, window, zero=False), maxlen=1).pop().mean()


def zero_moment_trace(scheme: RecurrenceScheme, N: int, ell: int) -> float:
    """ell-th moment of the zero distribution, (1/N) Tr((pi_N T pi_N)^ell)."""
    N, ell = _sizes(N, ell)
    if ell == 0:
        return 1.0
    return deque(_read(scheme, N, ell), maxlen=1).pop().zero()


def variance_moment(scheme: RecurrenceScheme, N: int, ell: int) -> float:
    """Variance of the ell-th empirical moment under the ensemble.

    The crossing sum reads columns of T^ell within ell of N, and a
    product of ell band steps from those columns never leaves the
    indices from N - ell (2 R + 1) to N + 2 ell, so the band of that
    window alone gives the exact value at a cost independent of N.
    """
    N, ell = _sizes(N, ell)
    if ell == 0:
        return 0.0
    r = scheme.down_band
    start, window = _window(scheme, N, ell, N + 2 * ell)
    return _crossing_sum(deque(_powers(window, r, ell), maxlen=1).pop(), ell * r, N, start)


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
    N, ell = _sizes(N, ell, least=1)
    return _bound(N, ell, _peak(scheme, N, ell), 1)


def variance_bound(scheme: RecurrenceScheme, N: int, ell: int) -> float:
    """Upper bound on variance_moment.

    (4 ell)^(2 ell) / N^2 times the (2 ell)-th power of the largest
    entry magnitude in the window of radius 2 ell around N.
    """
    N, ell = _sizes(N, ell, least=1)
    return _bound(N, ell, _peak(scheme, N, 2 * ell), 2)


def _bound(N: int, ell: int, peak: float, p: int) -> float:
    """(2 p ell)^(p ell) / N^p times peak^(p ell): the gap bound for p = 1,
    the variance bound for p = 2."""
    try:
        bound = (2 * p * ell) ** (p * ell) / N**p * peak ** (p * ell)
    except OverflowError:  # raised by float ** and int / in place of inf
        bound = math.inf
    if not math.isfinite(bound):
        raise OverflowError(f"{('gap', 'variance')[p - 1]} bound at N={N}, ell={ell}")
    return bound


def window_max(scheme: RecurrenceScheme, N: int, eps: float) -> float:
    """Largest |entry(m, k, N)| over |k - N|, |m - N| <= floor(N eps)
    (with a 1e-9 tolerance on the floor), that is over |k/N - 1| <= eps,
    |m/N - 1| <= eps."""
    if not 0 < eps < math.inf:
        raise SchemeError(f"need finite eps > 0, got {eps}")
    N = as_index("N", N, SchemeError)
    return _peak(scheme, N, math.floor(N * eps + 1e-9))


def trace_table(scheme: RecurrenceScheme, N: int, ell_max: int):
    """Rows (N, ell, mean, zero_side, gap, gap_bound, variance,
    variance_bound) for ell = 1..ell_max, read by ``_read`` from the
    N-block and the window on the columns max(0, N - ell_max (2 R + 1))
    to N + 2 ell_max, whose peaks around N give both bounds."""
    N, ell_max = _sizes(N, ell_max, "ell_max")
    r, W = scheme.down_band, 2 * ell_max
    start, window = _window(scheme, N, ell_max, N + W + 1)
    peak = _window_peaks(window[:, max(0, N - W) - start :], r, N, W).tolist()
    rows = []
    for t in _read(scheme, N, ell_max, (start, window)):
        mean, zero, ell = t.mean(), t.zero(), t.ell
        gap_b, var_b = (_bound(N, ell, peak[p * ell], p) for p in (1, 2))
        var = _crossing_sum(t.window, t.lower, N, start)
        rows.append((N, ell, mean, zero, abs(mean - zero), gap_b, var, var_b))
    return rows
