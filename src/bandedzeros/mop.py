"""Multi-index recurrence families on a ratio-faithful index path.

A family indexed by n in N^r is flattened along a path n^(0) = 0,
n^(k+1) = n^(k) + e_{i_k} whose coordinate ratios track a prescribed
vector q: the merge of the progressions (j + 1/2) / q_d of the times at
which coordinate d steps (``MultiIndexPath``).  Along the path the
nearest-neighbour recurrence

    x P_n = P_{n + e_d} + diag_n[d] P_n + sum_j down_n[j] P_{n - e_j}

telescopes into a banded expansion of x P_{n^(k)} over the path
polynomials: one superdiagonal (monic normalisation), the diagonal
coefficient diag_{n^(k)}[i_k] of the step direction, and a lower band of
width R obtained by cascading the index-exchange relation

    P_{n + e_i} - P_{n + e_j} = (diag_n[j] - diag_n[i]) P_n.

The cascade has a closed form.  The exchange factor at level l,

    c_l^(d) = diag_{n^(l) - e_d}[d] - diag_{n^(l) - e_d}[i_l],

depends on the level and the direction only, and is 0 when i_l = d;
then for j >= 1

    T[k - j, k] = sum_d down_{n^(k)}[d] * prod_{l = k-j+1}^{k-1} c_l^(d),

with the term of d taken as 0 once the product reaches a level where
n^(l)_d = 0 (down_{n^(k)}[d] is 0 when n^(k)_d = 0).  So one pass over R
levels, each an array product over all columns, builds a window of the
band.  R = max_d (1 + sum_{e != d} ceil(q_e / q_d)) bounds the distance
between two steps of one coordinate, so every product has met a zero
factor by j = R + 1 and the band has no further rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SchemeError
from .measures import _is_exact
from .recurrence import RecurrenceScheme

__all__ = [
    "MultiIndexPath",
    "NNCoefficients",
    "nn_coeffs_hermite",
    "nn_coeffs_laguerre",
    "hermite_coeff_fn",
    "laguerre_coeff_fn",
    "banded_entries",
    "mop_scheme",
]


@dataclass(frozen=True, eq=False)
class NNCoefficients:
    """Nearest-neighbour coefficients at one index or a stack of indices.

    ``diag[..., d]`` multiplies P_n in x P_n = P_{n+e_d} + diag[d] P_n + ...;
    ``down[..., d]`` multiplies P_{n - e_d} (0 when n_d = 0).  Both have
    the shape of the index array: float64, or object arrays of Fractions
    when the family's parameters are exact.  The band reads diag at n^(k)
    for its diagonal, diag at n^(l) - e_d for the exchange factors
    c_l^(d) = diag[d] - diag[i_l], and down at n^(k) for the first lower
    row, which the factors carry down the cascade.
    """

    diag: np.ndarray
    down: np.ndarray


class MultiIndexPath:
    """Ratio-faithful path through N^r: a merge of arithmetic progressions.

    Coordinate d steps at the times (j + 1/2) / q_d, j = 0, 1, ..., taken
    in time order with ties to the lowest index: sequential Sainte-Lague
    (Webster) apportionment (Balinski & Young, *Fair Representation*,
    1982; Tijdeman, Discrete Math. 32, 1980).  Times are compared exactly,
    a float ratio at its binary value: rounding could turn a near tie into
    a tie that goes against the exact order and lengthens a run past R.

    R = max_d (1 + sum_{e != d} ceil(q_e / q_d)), on the exact q, bounds
    the distance between two steps of d, and d steps within the first R:
    two steps of d lie 1/q_d apart in time, the tie rule makes that a
    half-open interval, and it holds at most ceil(q_e / q_d) steps of each
    other coordinate e (the run before d's first step is shorter).  For
    r = 2 and for equal ratios, R = ceil(1 / min q).

    Steps are materialised on demand, at least twice as many as held,
    and each batch is checked against R.
    """

    def __init__(self, ratios):
        ratios = tuple(ratios)
        if not ratios:
            raise SchemeError("need at least one ratio")
        if any(q <= 0 for q in ratios):
            raise SchemeError(f"ratios must be positive, got {ratios}")
        if abs(float(sum(ratios)) - 1.0) > 1e-9:
            raise SchemeError(f"ratios must sum to 1, got {ratios}")
        self.ratios = ratios
        self.r = len(ratios)
        q = [Fraction(x) for x in ratios]
        # the term e = d is ceil(1) = 1, the 1 of the formula
        self.R = max(sum(math.ceil(qe / qd) for qe in q) for qd in q)
        # with q_d = a_d / D, the time (j + 1/2) / q_d times 2 lcm(a) / D is
        # the integer key (2j + 1) lcm(a) / a_d
        den = math.lcm(*(x.denominator for x in q))
        a = [int(x * den) for x in q]
        self._scale = [math.lcm(*a) // ad for ad in a]
        self._steps = np.zeros(0, dtype=np.int64)  # i_k for materialised k
        self._prefixes = np.zeros((1, self.r), dtype=np.int64)  # n^(k), k <= len(_steps)

    def _materialise(self, count: int):
        if count <= len(self._steps):
            return
        length = max(count, 2 * len(self._steps))
        # step ``length`` comes by time length + r/2, when d has stepped at
        # most q_d (length + r/2) + 1/2 times
        counts = [int(float(q) * (length + self.r)) + 2 for q in self.ratios]
        big = max((2 * c - 1) * s for c, s in zip(counts, self._scale)) >= 2**63
        keys = [
            (2 * np.arange(c).astype(object if big else np.int64) + 1) * s
            for c, s in zip(counts, self._scale)
        ]
        # the stable sort keeps the lower coordinate first on equal keys
        order = np.argsort(np.concatenate(keys), kind="stable")[:length]
        steps = np.repeat(np.arange(self.r), counts)[order]
        assert (np.bincount(steps, minlength=self.r) < counts).all(), "merge ran short"
        prefixes = np.zeros((len(steps) + 1, self.r), dtype=np.int64)
        np.cumsum(np.eye(self.r, dtype=np.int64)[steps], axis=0, out=prefixes[1:])
        # n^(k+R) > n^(k) in every coordinate: no R steps without d
        stale = np.argwhere(prefixes[self.R :] == prefixes[: max(len(steps) + 1 - self.R, 0)])
        if stale.size:
            k, d = stale[0]
            raise SchemeError(
                f"coordinate {d} not stepped within {self.R} steps at k={k + self.R - 1}; "
                f"path does not track ratios {self.ratios}"
            )
        self._steps, self._prefixes = steps, prefixes

    def index(self, N: int):
        """n^(N), the multi-index after N steps (sum of coordinates N)."""
        if N < 0:
            raise SchemeError("need N >= 0")
        self._materialise(N)
        return tuple(self._prefixes[N].tolist())

    def step(self, k: int) -> int:
        """Direction i_k of the step from n^(k) to n^(k+1)."""
        if k < 0:
            raise SchemeError("need k >= 0")
        self._materialise(k + 1)
        return int(self._steps[k])


def _indices(n, a_vec, exact: bool) -> np.ndarray:
    """Index array of shape (..., r): Python ints when exact, else float64."""
    n = np.asarray(n, dtype=np.int64)
    if n.shape[-1:] != (len(a_vec),):
        raise SchemeError("index and location dimensions differ")
    return n.astype(object if exact else float)


def nn_coeffs_hermite(n, N: int, a_vec) -> NNCoefficients:
    """Gaussian-weight coefficients: diag[d] = a_d, down[d] = n_d / N.

    ``n`` is one index or a (K, r) array of indices.  Exact (object
    arrays of Fractions) when a_vec entries are Fractions or integers.
    """
    a_vec = tuple(a_vec)
    exact = _is_exact(*a_vec)
    n = _indices(n, a_vec, exact)
    one = Fraction(1) if exact else 1.0
    diag = np.broadcast_to(np.array([one * a for a in a_vec], dtype=n.dtype), n.shape)
    # n_d = 0 gives 0 without dividing by N, which keeps the degenerate
    # N = 0 corner well defined
    down = one * n / np.where(n > 0, N, 1)
    return NNCoefficients(diag=diag, down=down)


def nn_coeffs_laguerre(n, N: int, alpha, a_vec) -> NNCoefficients:
    """Laguerre-weight coefficients for x^(N alpha) exp(-N a_d x).

    diag[d] = (|n| + N alpha + 1) / (N a_d) + sum_j n_j / (N a_j)
    down[d] = n_d (|n| + N alpha) / (N a_d)^2

    The down coefficient carries the squared scale (N a_d)^2, as the
    r = 1 reduction to the classical recurrence requires.  ``n`` is one
    index or a (K, r) array of indices.  Exact (object arrays of
    Fractions) when alpha and a_vec are Fractions or integers.
    """
    a_vec = tuple(a_vec)
    exact = _is_exact(alpha, *a_vec)
    n = _indices(n, a_vec, exact)
    if exact:
        alpha = Fraction(alpha)
        a_vec = tuple(Fraction(a) for a in a_vec)
    scale = np.array([N * ad for ad in a_vec], dtype=n.dtype)
    size = n.sum(axis=-1, keepdims=True) + N * alpha  # |n| + N alpha
    ratios = n / scale
    shared = sum(ratios[..., j : j + 1] for j in range(len(a_vec)))  # left to right
    diag = (size + 1) / scale + shared
    down = np.where(n > 0, n * size / np.array([(N * ad) ** 2 for ad in a_vec]), 0)
    return NNCoefficients(diag=diag, down=down)


def hermite_coeff_fn(a_vec):
    return lambda n, N: nn_coeffs_hermite(n, N, a_vec)


def laguerre_coeff_fn(alpha, a_vec):
    return lambda n, N: nn_coeffs_laguerre(n, N, alpha, a_vec)


def _cascade(path: MultiIndexPath, coeff_fn, N: int, start: int, stop: int) -> np.ndarray:
    """Columns start..stop-1 of the band (``RecurrenceScheme.band_fn``
    layout, R + 2 rows), in the dtype of coeff_fn's coefficients.

    Row R - j holds T[k - j, k] = sum_d down_{n^(k)}[d] times the running
    product of c_l^(d) for l = k-1 down to k-j+1, multiplied level by
    level in that order.  Rows with k - j < 0 come out +0: each product
    has met its zero factor by level 0.
    """
    R, r = path.R, path.r
    path.index(start)  # a negative column raises here
    path.index(stop)
    lo = max(0, start - R)  # lowest level any requested column reads
    steps = path._steps[lo:stop]  # i_l for l = lo..stop-1
    n = path._prefixes[lo:stop]  # n^(l) for l = lo..stop-1
    eye = np.eye(r, dtype=np.int64)
    K, L = stop - start, stop - lo
    # one evaluation: the columns' indices n^(k), then the shifted
    # indices n^(l) - e_d whose diag gives the exchange factors c_l^(d)
    shifted = (n[:, None, :] - eye).reshape(-1, r)
    at = coeff_fn(np.concatenate([n[L - K :], shifted]), N)
    band = np.zeros((R + 2, K), dtype=at.down.dtype)
    band[R + 1] = 1
    band[R] = at.diag[np.arange(K), steps[L - K :]]
    sd = at.diag[K:].reshape(L, r, r)
    # c is exactly 0 where i_l = d.  Where n^(l)_d = 0 it is read at an
    # index off the lattice, but the product it multiplies is already 0:
    # it has passed the level where d was first stepped, or it starts
    # from down_{n^(k)}[d] = 0.
    c = sd.diagonal(axis1=1, axis2=2) - sd[np.arange(L)[:, None], np.arange(r), steps[:, None]]
    # levels below 0, which columns k < R step past once their products are 0
    c = np.concatenate([np.zeros((R, r), dtype=c.dtype), c])
    prods = at.down[:K]
    for j in range(1, R + 1):
        # sum's +0 start keeps a finished cascade at +0, not -0
        band[R - j] = sum(prods[:, d] for d in range(r))
        prods = prods * c[R + L - K - j : R + L - j]
    return band


def banded_entries(path: MultiIndexPath, coeff_fn, k: int, N: int):
    """Expansion of x P_{n^(k)} over the path polynomials: column k of
    the band cascade.

    Returns a list of (m, value) pairs for m from k+1 down to
    max(0, k - R), in that order.  coeff_fn(n, N) -> NNCoefficients, for
    one index or an array of them; Fraction coefficients give the exact
    expansion.
    """
    column = _cascade(path, coeff_fn, N, k, k + 1)[:, 0]
    return [(m, column[path.R + m - k]) for m in range(k + 1, max(0, k - path.R) - 1, -1)]


def mop_scheme(kind: str, a, q, alpha=None) -> RecurrenceScheme:
    """Banded scheme for a multi-index family flattened along the merge
    ``MultiIndexPath(q)``, on q as given: exact ratios walk the exact
    merge, the path ``sampler.realize_diagonal`` uses for its source.

    Parameters
    ----------
    kind : {"multiple-hermite", "multiple-laguerre"}
    a : locations (Gaussian means, or inverse scales of the exponential
        weights); pairwise distinct.
    q : coordinate ratios, positive, summing to 1.
    alpha : exponent parameter, multiple-laguerre only (>= 0).
    """
    path = MultiIndexPath(tuple(q))
    a = tuple(float(x) for x in a)
    if len(a) != path.r:
        raise SchemeError(f"{kind}: need as many locations as ratios")
    if len(set(a)) != len(a):
        raise SchemeError(f"{kind}: locations must be distinct, got {a}")
    if kind == "multiple-hermite":
        if alpha is not None:
            raise SchemeError("multiple-hermite takes no alpha")
        coeff_fn = hermite_coeff_fn(a)
    elif kind == "multiple-laguerre":
        if alpha is None:
            alpha = 0.0
        alpha = float(alpha)
        if alpha < 0:
            raise SchemeError(f"multiple-laguerre needs alpha >= 0, got {alpha}")
        if any(x <= 0 for x in a):
            raise SchemeError(f"multiple-laguerre locations must be positive, got {a}")
        coeff_fn = laguerre_coeff_fn(alpha, a)
    else:
        raise SchemeError(f"unknown multi-index kind {kind!r}")
    # (N, first column, band) of the widest window asked for at the last N
    # requested; a request at another N replaces it.  It serves calls that
    # read nested windows at one N in turn, such as lattice_sum followed by
    # the trace it is checked against: the benchmark's path-oracle pass runs
    # _cascade 42 times with it and 228 times without.  A trace_table window
    # reaches past a cached N-block and misses, but recomputes only its own
    # ell_max (2R + 3) + 1 columns.
    cached = (None, 0, np.zeros((path.R + 2, 0)))

    def band_fn(N, start, stop):
        nonlocal cached
        at, first, band = cached
        if at == N and first <= start <= stop <= first + band.shape[1]:
            return band[:, start - first : stop - first]
        window = _cascade(path, coeff_fn, N, start, stop)
        window.setflags(write=False)
        if at != N or stop - start > band.shape[1]:
            cached = N, start, window
        return window

    return RecurrenceScheme(name=kind, down_band=path.R, band_fn=band_fn)
