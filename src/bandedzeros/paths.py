"""Independent lattice-path evaluation of the trace statistics.

The recurrence graph has vertices (n, k) and edges (n, k) -> (n+1, m)
for k - down_band <= m <= k + 1 with weight T[m, k] (the band).  The
trace statistics of ``bandop`` equal sums over closed walks on that
graph, which this module evaluates by a forward walk count.  It lays
the band out once as the dense step-weight matrix S, with S[y, y'] the
weight of the step y -> y', and carries for all starting ordinates at
once the total weight of the walks ending at each ordinate, one product
with S per step.  The two routes are developed independently, share no
code, and are compared in the tests.

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

from .errors import OracleScaleError, as_index
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


def _closed_walk_sum(band, down_band, starts, length, N, mid, stay_below):
    """Total weight of the walks of ``length`` steps from each start back
    to itself on the ordinates [0, width) of the band's columns; a step
    y -> y - down_band + j has weight band[j, y] (``RecurrenceScheme.band``
    layout).  The band is laid out once as the step-weight matrix S, and
    the walks of all starts, one row each, advance by one product with S
    per step.  When ``stay_below``, walks never reach an ordinate >= N;
    when ``mid`` is given, walks must sit at an ordinate >= N after
    ``mid`` steps."""
    width = band.shape[1]
    # S[y, y'] = band[down_band + y' - y, y]: row j of the band is the
    # diagonal y' - y = d = j - down_band of S, from row lo = max(0, -d);
    # in the flat view it starts at lo * (width + 1) + d with stride width + 1
    S = np.zeros((width, width))
    flat = S.reshape(-1)
    for j, row in enumerate(band):
        d = j - down_band
        lo, size = max(0, -d), max(0, width - abs(d))
        flat[lo * (width + 1) + d :: width + 1][:size] = row[lo : lo + size]
    if stay_below:
        # steps onto ordinates >= N weigh 0; zeroed, not cut off, so that
        # every constraint multiplies matrices of one shape, and NONE and
        # STAY_BELOW agree exactly on walks that stay below N
        S[:, N:] = 0.0
    walks = np.eye(width)[starts]
    for step in range(length + 1):
        if step:
            walks = walks @ S
        if step == mid:
            walks[:, :N] = 0.0
    return walks[np.arange(len(starts)), starts].sum()


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
    N, ell = as_index("N", N, OracleScaleError), as_index("ell", ell, OracleScaleError)
    if ell < 0:
        raise OracleScaleError("need ell >= 0")
    if ell > MAX_ELL or N > MAX_N:
        raise OracleScaleError(
            f"the path oracle runs at ell <= {MAX_ELL}, N <= {MAX_N} only; "
            f"got ell={ell}, N={N}"
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
        try:
            start_lo, start_hi = start_range
        except (TypeError, ValueError):
            raise OracleScaleError(
                f"start_range: need a (start, stop) pair, got {start_range!r}"
            ) from None
        start_lo, start_hi = (
            as_index("start_range", k, OracleScaleError) for k in (start_lo, start_hi)
        )
        if not (0 <= start_lo <= start_hi <= N):
            raise OracleScaleError(f"start range must lie in [0, {N}], got {start_range}")
    # walks from below N reach at most N - 1 + length, inside the band
    band = scheme.band(N, N + length + 1)
    starts = np.arange(start_lo, start_hi)
    stay_below = constraint is Constraint.STAY_BELOW
    total = _closed_walk_sum(band, scheme.down_band, starts, length, N, mid, stay_below)
    return float(total) / norm
