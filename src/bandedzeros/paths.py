"""Independent lattice-path evaluation of the trace statistics.

The recurrence graph has vertices (n, k) and edges (n, k) -> (n+1, m)
for k - down_band <= m <= k + 1 with weight T[m, k] (the band).  The
trace statistics of ``bandop`` equal sums over closed walks on that
graph, which this module evaluates by a forward walk count: for every
starting ordinate it carries the total weight of the walks ending at
each ordinate, one step at a time, never forming a matrix.  The two
routes are developed independently and compared in the tests.

Constraints on the counted paths:

- Constraint.NONE          all closed paths of the given length;
  divided by N this is the mean empirical moment.
- Constraint.STAY_BELOW    paths whose ordinates stay < N throughout;
  divided by N this is the zero-distribution moment.
- Constraint.MIDPOINT_AT_OR_ABOVE  closed paths of length 2 ell whose
  midpoint ordinate is >= N; divided by N^2 this is the variance.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import OracleScaleError
from .recurrence import RecurrenceScheme

__all__ = ["Constraint", "lattice_sum", "kernel_name"]

MAX_ELL = 8
MAX_N = 64


class Constraint(enum.Enum):
    """Path restriction relative to the truncation rank N."""

    NONE = "none"
    STAY_BELOW = "stay-below"
    MIDPOINT_AT_OR_ABOVE = "midpoint-at-or-above"


def kernel_name() -> str:
    """Name of the path evaluator, recorded in benchmark metadata."""
    return "python"


def _closed_walk_sum(band, down_band, starts, length, width, N, mid):
    """Total weight of the walks of ``length`` steps from each start back
    to itself on ordinates [0, width); a step y -> y - down_band + j has
    weight band[j, y] (``RecurrenceScheme.band`` layout).  When ``mid``
    is given, walks must sit at an ordinate >= N after ``mid`` steps."""
    own = np.arange(len(starts))
    walks = np.zeros((len(starts), width))
    walks[own, starts] = 1.0
    for step in range(length + 1):
        if step:
            # column c of ``spread`` holds ordinate c - down_band
            spread = np.zeros((len(starts), width + len(band) - 1))
            for j in range(len(band)):
                spread[:, j : j + width] += walks * band[j, :width]
            walks = spread[:, down_band : down_band + width]
        if step == mid:
            walks[:, :N] = 0.0
    return walks[own, starts].sum()


def lattice_sum(
    scheme: RecurrenceScheme,
    N: int,
    ell: int,
    constraint: Constraint = Constraint.NONE,
    start_range=None,
) -> float:
    """Normalised weighted path count for the given constraint.

    Parameters
    ----------
    scheme : RecurrenceScheme
    N : int
        Truncation rank (enters the weights and the constraints).
    ell : int
        Moment order; paths have length ell, or 2 ell for the midpoint
        constraint.  The oracle's scale is capped at ell <= 8, N <= 64.
    constraint : Constraint
    start_range : (int, int), optional
        Half-open range of starting ordinates; defaults to [0, N).
        Useful for locating which starts contribute.

    Returns
    -------
    float
        Path sum divided by N (NONE, STAY_BELOW) or N^2 (midpoint).
    """
    if ell < 0:
        raise OracleScaleError("need ell >= 0")
    if ell > MAX_ELL or N > MAX_N:
        raise OracleScaleError(
            f"enumeration capped at ell <= {MAX_ELL}, N <= {MAX_N}; got ell={ell}, N={N}"
        )
    if N < 1:
        raise OracleScaleError("need N >= 1")
    constraint = Constraint(constraint)
    if constraint is Constraint.MIDPOINT_AT_OR_ABOVE:
        length, mid, norm = 2 * ell, ell, N * N
    else:
        length, mid, norm = ell, None, N
    if start_range is None:
        start_lo, start_hi = 0, N
    else:
        start_lo, start_hi = start_range
        if not (0 <= start_lo <= start_hi <= N):
            raise OracleScaleError(f"start range must lie in [0, {N}], got {start_range}")
    band = scheme.band(N, N + length + 1)
    # walks that stay below N never need ordinates >= N; the others
    # reach at most N - 1 + length, inside the band
    width = N if constraint is Constraint.STAY_BELOW else band.shape[1]
    starts = np.arange(start_lo, start_hi)
    total = _closed_walk_sum(band, scheme.down_band, starts, length, width, N, mid)
    return float(total) / norm
