"""Spectra of compressed operators and zero-distribution statistics.

The zeros of the average characteristic polynomial at rank N are the
eigenvalues of the principal N x N block pi_N T pi_N.  Symmetric
tridiagonal blocks go through the specialised LAPACK solver; blocks
with one superdiagonal band get balanced eigenvalue estimates polished
by Aberth iteration; everything else goes through the general
eigenvalue solver.  Eigenvalues are reported sorted by real part, then
imaginary part.

One banded leading-minor recurrence (``_charpoly``) evaluates the
characteristic polynomial and its derivative, vectorised over points
with power-of-two rescaling; the root polish and ``charpoly_eval`` both
run on it.

Moments of the zero distribution are averages of Re(z^ell); the
imaginary residual |mean Im(z^ell)| is surfaced alongside rather than
silently dropped, so a complex-contaminated spectrum is visible.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .bandop import BandedOperator
from .errors import CharpolyOverflow, NumericalFailure, SchemeError
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
    """Eigenvalues of a compressed operator, each carrying weight 1/N."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex)
        order = np.lexsort((pts.imag, pts.real))
        object.__setattr__(self, "points", pts[order])

    def __len__(self):
        return len(self.points)


def _balanced_eigvals(block: np.ndarray) -> np.ndarray:
    """Eigenvalues after a diagonal similarity symmetrising the unit band.

    QR on the raw truncation is useless here: the matrix is badly
    nonnormal and its computed eigenvalues can sit O(1) off the real
    axis by N of a few hundred.  Scaling row/column k by the running
    product of sqrt(T[k, k+1]) makes the dominant band symmetric and
    leaves only the outer bands nonnormal, which is enough for the
    eigenvalues to serve as starting points for root polishing.
    """
    n = block.shape[0]
    logd = np.zeros(n)
    for k in range(n - 1):
        w = block[k, k + 1].real
        logd[k + 1] = logd[k] + (0.5 * math.log(w) if w > 0 else 0.0)
    d = np.exp(logd - logd.mean())
    return scipy.linalg.eigvals((d[:, None] * block) / d[None, :])


def _charpoly(op: BandedOperator, zs):
    """(p, dp, exponent) with det(z - pi_N T pi_N) = p * 2**exponent and
    its z-derivative dp * 2**exponent, vectorised over the points ``zs``.

    Leading principal minors of (z I - T).  Expanding along the last
    row, the (-1)^(j-i) cofactor sign cancels against the negated
    subdiagonal entries of (z I - T), leaving
      d_j = (z - T[j,j]) d_{j-1}
            - sum_i T[i,j] (prod_{t=i}^{j-1} T[t+1,t]) d_{i-1}
    with i ranging over the upper band j-R <= i <= j-1, and the same
    recurrence differentiated for d_j'.  Only the last R+2 minors are
    kept (d_k in row (k+1) mod (R+2)).  A point's minors are multiplied
    by 2**-512 or 2**512 only when its window leaves [2**-512, 2**512];
    power-of-two scaling rounds nothing.
    """
    T = op.matrix
    R = op.scheme.down_band
    zs = np.asarray(zs, dtype=complex)
    width = R + 2
    win = np.zeros((width, len(zs)), dtype=complex)
    dwin = np.zeros_like(win)
    win[0] = 1.0  # d_{-1}
    exponent = np.zeros(len(zs), dtype=int)
    for j in range(op.N):
        prev = j % width
        shift = zs - T[j, j]
        val = shift * win[prev]
        dval = win[prev] + shift * dwin[prev]
        sub_prod = 1.0
        for i in range(j - 1, max(j - R, 0) - 1, -1):
            sub_prod *= T[i + 1, i]
            if T[i, j] != 0.0:
                c = T[i, j] * sub_prod
                val -= c * win[i % width]
                dval -= c * dwin[i % width]
        win[(j + 1) % width] = val
        dwin[(j + 1) % width] = dval
        scale = np.abs(win).max(axis=0)
        shifts = np.where(scale > 2.0**512, -512, 0)
        shifts[(scale > 0.0) & (scale < 2.0**-512)] = 512
        if shifts.any():
            factor = np.ldexp(1.0, shifts)
            win *= factor
            dwin *= factor
            exponent -= shifts
    return win[op.N % width], dwin[op.N % width], exponent


def _polish_roots(op: BandedOperator, guesses: np.ndarray) -> np.ndarray:
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
        v, dv = _charpoly(op, z)[:2]
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


def spectrum(op: BandedOperator) -> SpectralMeasure:
    """Zeros of the rank-N average characteristic polynomial, i.e. the
    eigenvalues of the principal N x N block of the truncation.

    Symmetric tridiagonal blocks go straight to the specialised solver.
    Nonsymmetric banded blocks are solved in two stages: a balanced
    eigendecomposition for estimates, then a simultaneous root polish
    on the characteristic polynomial, which the banded structure lets
    us evaluate stably in O(N) per point.
    """
    block = op.block()
    scheme = op.scheme
    try:
        if scheme.symmetric and scheme.down_band == 1 and scheme.up_band == 1:
            d = block.diagonal().copy().real
            e = block.diagonal(-1).copy().real
            if len(d) == 1:
                vals = d.astype(complex)
            else:
                vals = scipy.linalg.eigvalsh_tridiagonal(d, e).astype(complex)
        elif scheme.up_band == 1:
            vals = _polish_roots(op, _balanced_eigvals(block))
        else:
            vals = scipy.linalg.eigvals(block)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise NumericalFailure(
            f"eigenvalue solver failed on {scheme.name!r} block of size {op.N}: {exc}"
        ) from exc
    return SpectralMeasure(points=vals)


def zero_moments(measure: SpectralMeasure, ell_max: int):
    """Moments of the zero distribution up to order ell_max.

    Returns
    -------
    (MomentSequence, list of float)
        Real-part moments m_ell = mean Re(z^ell), and the imaginary
        residuals |mean Im(z^ell)| for each ell.
    """
    if ell_max < 0:
        raise ValueError("need ell_max >= 0")
    n = len(measure)
    powers = np.ones(n, dtype=complex)
    moments = [1.0]
    residuals = [0.0]
    for _ in range(ell_max):
        powers = powers * measure.points
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
    if op.scheme.up_band != 1:
        raise SchemeError("determinant recurrence needs a single superdiagonal band")
    p, _, exponent = _charpoly(op, [complex(z)])
    result = complex(p[0])
    exponent = int(exponent[0])
    if result == 0.0:
        return complex(0.0)
    log_abs = math.log(abs(result)) + exponent * math.log(2.0)
    if log_abs > 709.0:  # exceeds double range after unscaling
        raise CharpolyOverflow(log_abs, cmath.phase(result))
    return complex(math.ldexp(result.real, exponent), math.ldexp(result.imag, exponent))
