"""Banded multiplication-operator recurrence data.

A scheme packages the expansion coefficients of x P_k over a family
(P_m): T[m, k] is the coefficient of P_m in x P_k at truncation
parameter N.  Entries vanish outside the band k - down_band <= m <=
k + 1: one superdiagonal, the monic Hessenberg form in which x P_k
reaches P_{k+1}, which the zero solvers and the determinant recurrence
assume.  A scheme declares its name, its lower band width and its band
function; it hands the entries out only as a band (columns of T with
T[m, k] in row down_band + m - k).  Whatever else a solver needs, such
as whether a block is symmetric, it reads off the band.  The classical
orthonormal families are tridiagonal (down_band = 1) with T[k - 1, k]
and T[k, k - 1] taken from one array, so their bands are symmetric bit
for bit; multi-index families from ``mop.mop_scheme`` have a wider
lower band.

A classical family is two coefficient functions a(k, N, d), b(k, N, d)
with lattice step d, vectorised over k: ``classical_scheme`` reads them
at d = 1 for every N, and ``kva_functions`` returns their limits along
k/N -> s, which build the limiting arcsine mixture: the same functions
at the continuum step (s, 1, 0), vectorised over s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SchemeError, as_index

__all__ = [
    "RecurrenceScheme",
    "CLASSICAL_ENSEMBLES",
    "classical_scheme",
    "kva_functions",
]


@dataclass(frozen=True, eq=False)
class RecurrenceScheme:
    """Supplier of banded recurrence data.

    Attributes
    ----------
    name : str
        Identifier ("gue", "wishart", ..., "multiple-hermite", ...).
    down_band : int
        Entries vanish below m = k - down_band (and above m = k + 1).
    band_fn : callable
        band_fn(N, start, stop) returns columns start..stop-1 of T as
        an array B of down_band + 2 rows with
        B[down_band + m - k, k - start] = T[m, k].  Entries with m < 0
        or m >= stop are ignored (``band`` zeroes them); any other shape
        makes ``band`` raise ``SchemeError``.
    """

    name: str
    down_band: int
    band_fn: Callable[[int, int, int], np.ndarray]

    def band(self, N: int, stop: int, start: int = 0) -> np.ndarray:
        """Columns start..stop-1 of the truncation of T to indices < stop,
        in the layout of ``band_fn``; rows with m < 0 or m >= stop are 0.
        N, stop and start are integers (numpy integers pass) with N >= 1
        and 0 <= start <= stop."""
        N, stop = as_index("N", N, SchemeError), as_index("stop", stop, SchemeError)
        start = as_index("start", start, SchemeError)
        if N < 1:
            raise SchemeError(f"need N >= 1, got {N}")
        if not 0 <= start <= stop:
            raise SchemeError(f"need 0 <= start <= stop, got start={start}, stop={stop}")
        band = np.array(self.band_fn(N, start, stop), dtype=float)
        shape = (self.down_band + 2, stop - start)  # one row above the diagonal
        if band.shape != shape:
            raise SchemeError(f"scheme {self.name!r} gave band shape {band.shape}, not {shape}")
        # row i of column j holds m = start + j + i - R: m < 0 only in the
        # first R - start columns, m >= stop only in row R + 1 of the last
        R = self.down_band
        for j in range(min(R - start, stop - start)):
            band[: R - start - j, j] = 0.0
        if stop > start:
            band[R + 1, -1] = 0.0
        if not np.isfinite(band).all():
            i, j = np.argwhere(~np.isfinite(band))[0]
            raise SchemeError(
                f"nonfinite entry at ({start + j + i - R}, {start + j}) for scheme "
                f"{self.name!r}, N={N}"
            )
        return band

    def entry(self, m: int, k: int, N: int) -> float:
        """Coefficient of P_m in x P_k at truncation parameter N."""
        m, k = as_index("m", m, SchemeError), as_index("k", k, SchemeError)
        if m < 0 or k < 0:
            raise SchemeError(f"indices must be nonnegative, got m={m}, k={k}")
        if m > k + 1 or m < k - self.down_band:
            return 0.0
        return float(self.band(N, k + 2, k)[self.down_band + m - k, 0])


def _tridiagonal(name, a, b):
    """Orthonormal tridiagonal scheme from a(k, N, d) (k >= 1) and b(k, N, d)."""

    def band_fn(N, start, stop):
        # off[k - start] = a(k) = T[k - 1, k] = T[k, k - 1]; a(0) = 0
        k = np.arange(start, stop + 1)
        off = np.where(k > 0, a(np.maximum(k, 1), N, 1.0), 0.0)
        return np.stack([off[:-1], b(k[:-1], N, 1.0), off[1:]])

    return RecurrenceScheme(name, 1, band_fn)


def _gue():
    def a(k, N, d):
        return np.sqrt(k / N)

    def b(k, N, d):
        return np.zeros(np.shape(k))

    return a, b


def _wishart(alpha):
    # a_k^2 = (k/N)(k/N + alpha) < 0 at k = 1 once N > -1/alpha
    if not alpha >= 0:
        raise SchemeError(f"wishart needs alpha >= 0, got {alpha}")
    alpha = float(alpha)

    def a(k, N, d):
        s = k / N
        return np.sqrt(s * (s + alpha))

    def b(k, N, d):
        return (2 * k + d) / N + alpha

    return a, b


def _jacobi(alpha, beta):
    if not (alpha > 0 and beta > 0):
        raise SchemeError(f"jacobi needs alpha, beta > 0, got ({alpha}, {beta})")
    alpha, beta = float(alpha), float(beta)

    def a(k, N, d):
        s = k / N
        t = 2 * s + alpha + beta
        num = 4 * s * (s + alpha) * (s + beta) * (s + alpha + beta)
        den = t * t * (t * t - d / (N * N))  # > 0, as t >= 2/N for k >= 1
        return np.sqrt(num / den)

    def b(k, N, d):
        t0 = 2 * k / N + alpha + beta
        t1 = 2 * (k + d) / N + alpha + beta
        return (beta * beta - alpha * alpha) / (t0 * t1)

    return a, b


def _charlier(alpha):
    if not alpha > 0:
        raise SchemeError(f"charlier needs alpha > 0, got {alpha}")
    alpha = float(alpha)

    def a(k, N, d):
        return np.sqrt(alpha * k / N)

    def b(k, N, d):
        return alpha + k / N

    return a, b


def _meixner(alpha, beta):
    if not (0 < alpha < 1):
        raise SchemeError(f"meixner needs 0 < alpha < 1, got {alpha}")
    if not beta > 0:
        raise SchemeError(f"meixner needs beta > 0, got {beta}")
    alpha, beta = float(alpha), float(beta)

    def a(k, N, d):
        s = k / N
        return np.sqrt(s * (s + beta - d / N)) / (1 - alpha)

    def b(k, N, d):
        s = k / N
        return (s + alpha * (s + beta)) / (1 - alpha)

    return a, b


CLASSICAL_ENSEMBLES = {
    "gue": (_gue, ()),
    "wishart": (_wishart, ("alpha",)),
    "jacobi": (_jacobi, ("alpha", "beta")),
    "charlier": (_charlier, ("alpha",)),
    "meixner": (_meixner, ("alpha", "beta")),
}


def _coefficients(name, params):
    """Coefficient functions (a, b) of a classical family, its name and
    parameters checked."""
    if name not in CLASSICAL_ENSEMBLES:
        raise SchemeError(
            f"unknown ensemble {name!r}; expected one of {sorted(CLASSICAL_ENSEMBLES)}"
        )
    factory, required = CLASSICAL_ENSEMBLES[name]
    unknown = set(params) - set(required)
    if unknown:
        raise SchemeError(f"unknown parameters for {name}: {sorted(unknown)}")
    missing = set(required) - set(params)
    if missing:
        raise SchemeError(f"missing parameters for {name}: {sorted(missing)}")
    return factory(**params)


def classical_scheme(name: str, **params) -> RecurrenceScheme:
    """Build a classical orthonormal scheme by name.

    Names and parameters: gue (none), wishart (alpha >= 0),
    jacobi (alpha, beta > 0), charlier (alpha > 0),
    meixner (0 < alpha < 1, beta > 0).
    """
    return _tridiagonal(name, *_coefficients(name, params))


def kva_functions(name: str, **params):
    """Coefficient limit functions (a(s), b(s)) along k/N -> s for a
    classical ensemble, with the names and parameters of
    ``classical_scheme``.

    Both are vectorised over s: given an array of s they return an
    array of its shape.  These are the profiles that drive the limiting
    zero law (the arcsine mixture the ``kva`` CLI command tabulates).
    """
    a, b = _coefficients(name, params)
    return (lambda s: a(s, 1, 0.0)), (lambda s: b(s, 1, 0.0))
