"""Spectra of compressed operators and zero-distribution statistics.

The zeros of the average characteristic polynomial at rank N are the
eigenvalues of the principal N x N block pi_N T pi_N.  ``spectrum``
reads the band of that block from the scheme once
(``RecurrenceScheme.band(N, N)``, the one owner of the truncation rule),
every solver reads only that band, and the route is read off it: a band
of three rows whose off-diagonals agree bit for bit is symmetric
tridiagonal and goes through the specialised LAPACK solver.  Every other block (schemes have one
superdiagonal band) takes the certified route: a sign scan of the
characteristic polynomial on a Chebyshev grid over the Gershgorin
interval brackets the zeros, a vectorised bracketed Newton iteration
solves every bracket, and the result is certified real and simple when
the scan shows exactly N zeros and the first two power sums match the
traces of the block, read off the band product (``bandop._powers``)
that ``zero_moment_trace`` reads.  When it does not certify, balanced
eigenvalue estimates of the dense block are polished by Aberth iteration
and the result is labelled uncertified.  Eigenvalues are reported sorted
by real part, then imaginary part, with the route that found them.

One banded leading-minor recurrence (``_charpoly``) evaluates the
characteristic polynomial and its derivative, vectorised over points
with power-of-two rescaling; the scan, the Newton solve, the root
polish and ``charpoly_eval`` all run on it.  Its z-independent parts
(the diagonal and the band coefficient products) are computed once per
``spectrum`` or ``charpoly_eval`` call (``_minors``).  Each step updates
the value and derivative of the newest minor as one stacked row, and
reads only that minor to decide whether the window needs rescaling,
which is exact: the older minors passed the same test at earlier steps.

Moments of the zero distribution are averages of Re(z^ell); the
imaginary residual |mean Im(z^ell)| is surfaced alongside rather than
silently dropped, so a complex-contaminated spectrum is visible.

scipy.linalg is imported only where a route needs it (the tridiagonal
solver, which the sampler shares, and the dense Aberth fallback), so
importing the package, the trace layers and a certified multi-index
spectrum load no scipy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bandop import BandedOperator, _powers
from .errors import CharpolyOverflow, NumericalFailure, as_index
from .measures import MomentSequence

__all__ = [
    "SpectralMeasure",
    "spectrum",
    "zero_moments",
    "reality_check",
    "charpoly_eval",
]


@dataclass(frozen=True)
class SpectralMeasure:
    """Eigenvalues of a compressed operator, each carrying weight 1/N.

    ``route`` names how ``spectrum`` found them (one of "tridiagonal",
    "sign-scan", "aberth"); points handed in from elsewhere,
    such as a sampled matrix, are "given".
    """

    points: np.ndarray
    route: str = "given"

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex)
        order = np.lexsort((pts.imag, pts.real))
        object.__setattr__(self, "points", pts[order])

    def __len__(self):
        return len(self.points)

    @property
    def certified(self) -> bool:
        """Whether the points are proved real and simple: by the symmetric
        tridiagonal solver, or by the sign scan and its trace check."""
        return self.route in ("tridiagonal", "sign-scan")


def _tridiagonal_eigvals(band: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of the symmetric tridiagonal matrix with
    diagonal band[1] and off-diagonal band[2, :-1] (a band of down_band
    1), by scipy's tridiagonal solver, imported on first use."""
    if band.shape[1] == 1:
        return band[1].copy()
    import scipy.linalg

    return scipy.linalg.eigvalsh_tridiagonal(band[1], band[2, :-1])


def _balanced_eigvals(band: np.ndarray) -> np.ndarray:
    """Eigenvalues of the dense block with band ``band``, after a diagonal
    similarity symmetrising the unit band.

    QR on the raw truncation is useless here: the matrix is badly
    nonnormal and its computed eigenvalues can sit O(1) off the real
    axis by N of a few hundred.  Scaling row/column k by the running
    product of sqrt(T[k, k+1]) makes the dominant band symmetric and
    leaves only the outer bands nonnormal, which is enough for the
    eigenvalues to serve as starting points for root polishing.  Each
    nonzero entry (i, j) is scaled by exp(logd[i] - logd[j]) directly:
    band entries have |i - j| <= max(down_band, 1), so the exponent stays
    in range however far the running product drifts along the block.
    """
    R, n = len(band) - 2, band.shape[1]
    logd = np.zeros(n)
    for k in range(n - 1):
        w = band[R - 1, k + 1] if R else 0.0  # T[k, k + 1]
        logd[k + 1] = logd[k] + (0.5 * math.log(w) if w > 0 else 0.0)
    scaled = np.zeros((n, n))
    for i, row in enumerate(band):
        k = np.arange(max(0, R - i), min(n, n + R - i))
        k = k[row[k] != 0.0]
        m = k + i - R
        scaled[m, k] = row[k] * np.exp(logd[m] - logd[k])
    import scipy.linalg

    return scipy.linalg.eigvals(scaled)


class _Minors(NamedTuple):
    """The z-independent parts of the leading-minor recurrence of one
    N x N block, built once per ``spectrum`` or ``charpoly_eval`` call by
    ``_minors`` from the block's band, ``RecurrenceScheme.band(N, N)``.

    ``diag[j]`` is T[j, j] and ``terms[j]`` holds, for i = j-1 down to
    j-R, the window slot of d_{i-1} with the coefficient
    T[i, j] * prod_{t=i}^{j-1} T[t+1, t], omitted where T[i, j] is 0.
    """

    N: int
    width: int
    diag: list
    terms: list


def _minors(block: np.ndarray) -> _Minors:
    R, N = len(block) - 2, block.shape[1]
    B = block.tolist()  # T[m, k] = B[R + m - k][k]
    width = R + 2
    terms = []
    for j in range(N):
        column = []
        sub_prod = 1.0
        for i in range(j - 1, max(j - R, 0) - 1, -1):
            sub_prod *= B[R + 1][i]
            upper = B[R + i - j][j]  # T[i, j]
            if upper != 0.0:
                column.append((i % width, upper * sub_prod))
        terms.append(tuple(column))
    return _Minors(N, width, B[R], terms)


def _charpoly(minors: _Minors, zs):
    """(p, dp, exponent) with det(z - pi_N T pi_N) = p * 2**exponent and
    its z-derivative dp * 2**exponent, vectorised over the points ``zs``
    (in float64 when the points are real, in complex arithmetic otherwise).

    Leading principal minors of (z I - T).  Expanding along the last
    row, the (-1)^(j-i) cofactor sign cancels against the negated
    subdiagonal entries of (z I - T), leaving
      d_j = (z - T[j,j]) d_{j-1}
            - sum_i T[i,j] (prod_{t=i}^{j-1} T[t+1,t]) d_{i-1}
    with i ranging over the upper band j-R <= i <= j-1, and the same
    recurrence differentiated for d_j'.  The diagonal and the products
    in the sum do not depend on z; ``minors`` holds them precomputed.
    Only the last R+2 minors are kept: d_k and d_k' are the stacked
    row pair (k+1) mod (R+2) of the window, updated in place.  A point's
    minors are multiplied by 2**-512 or 2**512 only when its window
    leaves [2**-512, 2**512]; power-of-two scaling rounds nothing.  The
    older minors passed that test at the previous step (after every step
    no minor in the window exceeds 2**512), so while the minors are
    finite the window can leave the range only if the newest minor does:
    each step tests the newest minor, and the whole window only when that
    minor is out of range.
    """
    zs = np.asarray(zs)
    zs = zs.astype(float if np.isrealobj(zs) else complex)
    width = minors.width
    win = np.zeros((width, 2, len(zs)), dtype=zs.dtype)
    win[0, 0] = 1.0  # d_{-1}
    exponent = np.zeros(len(zs), dtype=int)
    rows = list(win)
    values = [row[0] for row in rows]
    derivs = [row[1] for row in rows]
    for j, (diag, terms) in enumerate(zip(minors.diag, minors.terms)):
        k = (j + 1) % width
        new = rows[k]
        shift = zs - diag
        # shift * prev, not prev * shift: numpy's complex multiply is not
        # bitwise commutative
        np.multiply(shift, rows[j % width], out=new)
        derivs[k] += values[j % width]
        for slot, c in terms:
            new -= c * rows[slot]
        size = np.abs(values[k])
        if (
            np.minimum.reduce(size, initial=np.inf) >= 2.0**-512
            and np.maximum.reduce(size, initial=0.0) <= 2.0**512
        ):
            continue
        scale = np.abs(win[:, 0]).max(axis=0)
        shifts = np.where(scale > 2.0**512, -512, 0)
        shifts[(scale > 0.0) & (scale < 2.0**-512)] = 512
        if shifts.any():
            win *= np.ldexp(1.0, shifts)
            exponent -= shifts
    last = win[minors.N % width]
    return last[0], last[1], exponent


def _polish_roots(minors: _Minors, guesses: np.ndarray) -> np.ndarray:
    """Simultaneous Newton (Aberth) iteration on the characteristic
    polynomial, starting from eigenvalue estimates.

    Each sweep evaluates p and p' at every iterate with ``_charpoly``;
    only the Newton ratio p/p' enters the step, so the common power-of-two
    exponent is dropped.  The iteration runs in the complex plane with no
    reality constraint: spectra that are genuinely complex stay complex,
    while real zeros are resolved to full precision even when the
    eigensolver could not.
    """
    z = np.array(guesses, dtype=complex)
    # Aberth needs pairwise-distinct iterates.
    span = max(1.0, float(np.max(np.abs(z))))
    order = np.lexsort((z.imag, z.real))
    for a, b in zip(order[:-1], order[1:]):
        if z[b] == z[a]:
            z[b] += 1e-9 * span * (1.0 + 1.0j)
    last = math.inf
    for _ in range(80):
        v, dv = _charpoly(minors, z)[:2]
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        # keep the repulsion finite when iterates collide (which happens
        # for genuinely multiple roots): spread the pair a few ulps
        colliding = np.abs(diff) < 2.0**-46 * span
        if colliding.any():
            for i, j in np.argwhere(colliding):
                if i < j:
                    z[j] += 2.0**-44 * span * (1.0 + 1.0j)
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
        repel = (1.0 / diff).sum(axis=1)
        denom = dv - repel * v
        step = np.divide(v, denom, out=np.zeros_like(v), where=denom != 0)
        z -= step
        last = float(np.max(np.abs(step)))
        if last <= 1e-14 * span:
            break
    if not (last <= 1e-9 * span) or not np.isfinite(z).all():
        raise NumericalFailure(
            f"zero polishing stalled (last correction {last:.2e}); "
            "the characteristic polynomial may have clustered roots"
        )
    return z


def _gershgorin_interval(block: np.ndarray):
    """A real interval holding every eigenvalue of the N x N block with
    band ``block``: the diagonal plus or minus the off-diagonal column
    sums, widened by a relative 1e-9."""
    R = len(block) - 2
    off = np.abs(block)
    off[R] = 0.0
    radius = off.sum(axis=0)
    lo, hi = float((block[R] - radius).min()), float((block[R] + radius).max())
    pad = 1e-9 * max(abs(lo), abs(hi)) + np.finfo(float).tiny
    return lo - pad, hi + pad


def _sign_scan(minors: _Minors, lo: float, hi: float):
    """Points x and signs s of the characteristic polynomial on a Chebyshev
    grid over [lo, hi], with the number of zeros the grid shows: the sign
    changes plus the points where p is exactly 0.

    The grid starts at 4N + 1 points and doubles (keeping its points)
    while it shows fewer than N zeros, up to 32N.  Only the sign of p is
    read, and the power-of-two exponent cannot change it, so the signs
    hold past the double range.
    """
    N = minors.N
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)

    def grid(j, M):
        # c - h cos(pi j / M), written with sin so that the midpoint is c
        # exactly and a doubled grid reproduces the points it keeps
        return c + h * np.sin(np.pi * (2 * j - M) / (2 * M))

    M = 4 * N
    x = grid(np.arange(M + 1), M)
    s = np.sign(_charpoly(minors, x)[0])
    while True:
        found = np.count_nonzero(s == 0) + np.count_nonzero(s[:-1] * s[1:] < 0)
        if found >= N or M >= 32 * N:
            return x, s, found
        M *= 2
        fresh = grid(np.arange(1, M, 2), M)
        x = np.insert(x, range(1, len(x)), fresh)
        s = np.insert(s, range(1, len(s)), np.sign(_charpoly(minors, fresh)[0]))


def _bracketed_newton(minors: _Minors, lo, hi, sign_lo, span: float):
    """The zero inside each bracket (lo, hi), where p has the sign
    ``sign_lo`` at lo and the opposite sign at hi; lo and hi are updated
    in place.

    Each sweep evaluates p and p' at the iterates still active in one
    ``_charpoly`` call.  The sign of p at an iterate shrinks its bracket,
    and a Newton step that would leave the bracket becomes a bisection.
    A point is done when its Newton step or its bracket is below
    1e-14 * span, or at the noise floor: once its Newton step has been
    below 1e-8 * span, a step that no longer halves or that leaves the
    bracket means p there is rounding noise.  Without that stop, sign
    flips at rounding level would drive every point into ~40 bisections.
    """
    x = 0.5 * (lo + hi)
    last = np.full(len(x), np.inf)  # |Newton step| of the previous sweep
    live = np.arange(len(x))
    for _ in range(100):
        if not len(live):
            break
        z = x[live]
        p, dp, _ = _charpoly(minors, z)
        below = np.sign(p) == sign_lo[live]  # the zero lies above z
        a = np.where(below, z, lo[live])
        b = np.where(below, hi[live], z)
        newton = np.divide(p, dp, out=np.full_like(p, np.inf), where=dp != 0)
        target = z - newton
        inside = (target > a) & (target < b)
        step = np.abs(newton)
        converged = (step <= 1e-14 * span) | (b - a <= 1e-14 * span)
        noise = (last[live] <= 1e-8 * span) & (~inside | (step > 0.5 * last[live]))
        done = converged | noise
        final = np.where(converged & inside, target, z)
        x[live] = np.where(done, final, np.where(inside, target, 0.5 * (a + b)))
        lo[live], hi[live], last[live] = a, b, step
        live = live[~done]
    return x


def _certified_real_zeros(block: np.ndarray, minors: _Minors):
    """The N zeros, sorted, when a sign scan certifies them as real and
    simple; otherwise None.

    Certified means: the scan over the Gershgorin interval shows exactly
    N zeros, and the first two power sums of the solved zeros match
    Tr(B) and Tr(B^2) of the block B within 1e-9 * max(1, |trace / N|).
    Sign changes alone are not proof in floating point: where p is
    dominated by rounding, a grid can show spurious changes while it
    misses true ones, and the power sums catch that.  The traces are the
    diagonals of the bands of B and B^2 from ``bandop._powers``, the band
    product ``zero_moment_trace`` reads.
    """
    N, R = minors.N, len(block) - 2
    lo, hi = _gershgorin_interval(block)
    x, s, found = _sign_scan(minors, lo, hi)
    if found != N:
        return None
    cross = np.flatnonzero(s[:-1] * s[1:] < 0)
    span = max(1.0, abs(lo), abs(hi))
    solved = _bracketed_newton(minors, x[cross], x[cross + 1], s[cross], span)
    zeros = np.sort(np.concatenate([x[s == 0], solved]))
    for power, P in enumerate(_powers(block, R, 2), start=1):
        trace = math.fsum(P[power * R].tolist()) / N
        if abs(math.fsum((zeros**power).tolist()) / N - trace) > 1e-9 * max(1.0, abs(trace)):
            return None
    return zeros


def spectrum(op: BandedOperator) -> SpectralMeasure:
    """Zeros of the rank-N average characteristic polynomial, i.e. the
    eigenvalues of the principal N x N block of the truncation.

    The band of the block is read from the scheme once,
    ``op.scheme.band(op.N, op.N)``; every route reads only that, so
    padding the truncation past N changes nothing.  Routes, recorded in
    the result's ``route``:

    - "tridiagonal": a block band of three rows whose off-diagonal rows
      agree bit for bit is symmetric tridiagonal and goes straight to
      the specialised solver.
    - "sign-scan": every other block (schemes have one superdiagonal
      band) is first scanned for sign changes of the characteristic
      polynomial on a Chebyshev grid over the Gershgorin interval, then
      solved by a bracketed Newton iteration in every bracket.  The
      result stands only when the scan shows exactly N zeros and the
      first two power sums of the zeros match the traces of the block.
      It builds no dense array: its memory is O(N R) for down_band R.
    - "aberth": when the scan does not certify (complex spectra, zeros
      closer than the grid resolves, or a polynomial dominated by
      rounding), a balanced eigendecomposition of the dense block gives
      estimates for a simultaneous root polish, whose result is not
      certified.
    """
    N = op.N
    block = op.scheme.band(N, N)
    try:
        if len(block) == 3 and np.array_equal(block[0, 1:], block[2, :-1]):
            route = "tridiagonal"
            vals = _tridiagonal_eigvals(block)
        else:
            route = "sign-scan"
            minors = _minors(block)
            vals = _certified_real_zeros(block, minors)
            if vals is None:
                route = "aberth"
                vals = _polish_roots(minors, _balanced_eigvals(block))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(
            f"eigenvalue solver failed on {op.scheme.name!r} block of size {N}: {exc}"
        ) from exc
    return SpectralMeasure(points=vals, route=route)


def zero_moments(measure: SpectralMeasure, ell_max: int):
    """Moments of the zero distribution up to order ell_max.

    Returns
    -------
    (MomentSequence, list of float)
        Real-part moments m_ell = mean Re(z^ell), and the imaginary
        residuals |mean Im(z^ell)| for each ell.
    """
    ell_max = as_index("ell_max", ell_max, ValueError)
    if ell_max < 0:
        raise ValueError("need ell_max >= 0")
    n = len(measure)
    powers = np.ones(n, dtype=complex)
    moments = [1.0]
    residuals = [0.0]
    for ell in range(1, ell_max + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            powers = powers * measure.points
        if not np.isfinite(powers).all():
            raise OverflowError(f"zero moment of order {ell}")
        moments.append(math.fsum(powers.real.tolist()) / n)
        residuals.append(abs(math.fsum(powers.imag.tolist())) / n)
    return MomentSequence(tuple(moments)), residuals


def reality_check(measure: SpectralMeasure, tol: float = 1e-8):
    """Whether all eigenvalues are real to within ``tol``.

    Returns (flag, largest absolute imaginary part).
    """
    worst = float(np.max(np.abs(measure.points.imag))) if len(measure) else 0.0
    return worst <= tol, worst


def charpoly_eval(op: BandedOperator, z) -> complex:
    """det(z - pi_N T pi_N) by the banded Hessenberg recurrence.

    One point through ``_charpoly`` (the recurrence the root polish
    uses), O(N * down_band).  If the value exceeds the double range the
    ``CharpolyOverflow`` error carries the scaled log-determinant
    (log-magnitude and phase).
    """
    p, _, exponent = _charpoly(_minors(op.scheme.band(op.N, op.N)), [complex(z)])
    result = complex(p[0])
    exponent = int(exponent[0])
    try:
        return complex(math.ldexp(result.real, exponent), math.ldexp(result.imag, exponent))
    except OverflowError:
        log_abs = math.log(abs(result)) + exponent * math.log(2.0)
        raise CharpolyOverflow(log_abs, cmath.phase(result)) from None
