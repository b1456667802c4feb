"""Reference limit laws and their moments.

Closed-form moment evaluation and pointwise densities for the measures
that appear as large-N limits of zero and eigenvalue distributions:
the arcsine (equilibrium) law of an interval, the semicircle law, the
Marchenko-Pastur family, finitely supported atomic measures, and the
mixture of arcsine laws over a coefficient profile s -> [b(s) - 2a(s),
b(s) + 2a(s)].

Moments use exact integer/rational arithmetic where the inputs allow it
and plain floats otherwise.  Densities never smooth atoms: the atomic
part of a law is reported by ``atoms()`` and the ``density`` methods
return only the absolutely continuous part.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import as_index

__all__ = [
    "MomentSequence",
    "ArcsineLaw",
    "SemicircleLaw",
    "MarchenkoPasturLaw",
    "AtomicMeasure",
    "ArcsineMixture",
    "kva_moment",
]


def _is_exact(*values) -> bool:
    return all(isinstance(v, (int, Fraction)) for v in values)


def _order(ell) -> int:
    """A moment index as an int (numpy integers pass), refusing any other
    type and negative indices."""
    ell = as_index("ell", ell, ValueError)
    if ell < 0:
        raise ValueError("negative moment index")
    return ell


@dataclass(frozen=True)
class MomentSequence:
    """Moments m_0, m_1, ..., m_L of a probability measure.

    ``values[l]`` is the l-th moment; ``values[0]`` must equal 1.
    """

    values: tuple

    def __post_init__(self):
        vals = tuple(self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ValueError("need at least the zeroth moment")
        if vals[0] != 1:
            raise ValueError(f"zeroth moment must be 1, got {vals[0]}")
        # exact values are finite at any size; math.isfinite would round them
        if not all(_is_exact(v) or math.isfinite(v) for v in vals):
            raise ValueError("moments must be finite")

    def __len__(self):
        return len(self.values)

    def __getitem__(self, ell):
        return self.values[ell]

    @property
    def order(self) -> int:
        """Highest moment index stored."""
        return len(self.values) - 1

    def floats(self) -> list:
        """The moments rounded to floats; an exact moment past the double
        range raises ``OverflowError`` naming its order."""
        out = []
        for ell, v in enumerate(self.values):
            try:
                out.append(float(v))
            except OverflowError:
                raise OverflowError(f"moment of order {ell}") from None
        return out


def _arcsine_terms(ell: int) -> list:
    """C(l, 2j) C(2j, j) for j = 0..l//2, each from the one before by the
    exact ratio (l - 2j)(l - 2j - 1) / (j + 1)^2."""
    terms = [1]
    for j in range(ell // 2):
        terms.append(terms[-1] * (ell - 2 * j) * (ell - 2 * j - 1) // (j + 1) ** 2)
    return terms


class _Powers:
    """Rows x ** (step k), k = 0, 1, ..., each evaluated once, in a table
    that doubles when full."""

    def __init__(self, x, step: int):
        self.x, self.step, self.count = x, step, 0
        self.table = np.empty((1,) + np.shape(x))

    def first(self, count: int) -> np.ndarray:
        while len(self.table) < count:
            self.table = np.concatenate([self.table, np.empty_like(self.table)])
        for k in range(self.count, count):
            self.table[k] = self.x ** (self.step * k)
        self.count = max(self.count, count)
        return self.table[:count]


def _arcsine_log2(c, half_rho, ell: int, terms, j):
    """log2 |C(l, 2j) C(2j, j) c^(l-2j) (rho/2)^(2j)| for the term indices
    ``j``, a column against the laws of the arrays c and half_rho."""
    with np.errstate(divide="ignore", over="ignore"):
        # log2 of a zero c or rho/2 is -max, not -inf, so its power 0 has log2 0
        log_c, log_h = (np.maximum(np.log2(np.abs(x)), -np.finfo(float).max) for x in (c, half_rho))
        log2_terms = np.array([math.log2(terms[i]) for i in np.ravel(j)]).reshape(np.shape(j))
        return log2_terms + (ell - 2 * j) * log_c + 2 * j * log_h


def _arcsine_moment(c: _Powers, half_rho: _Powers, ell: int, weights) -> float:
    """sum_i weights_i m_l over the arcsine laws of centres c.x and
    half-widths rho = 2 half_rho.x (arrays, or one law and weight 1.0):
    m_l = sum_j C(l, 2j) C(2j, j) c^(l-2j) (rho/2)^(2j), summed in order
    of j in floats.  A term whose power of a nonzero c or rho/2 falls
    below the normal range is taken in log space.  Where a binomial
    product or a law's moment leaves the double range, every term is, and
    the weighted sum is scaled by 2^-scale; ``OverflowError`` where the
    sum leaves it too.
    """
    terms = _arcsine_terms(ell)
    j = np.arange(len(terms)).reshape((-1,) + (1,) * np.ndim(c.x))  # laws after axis 0
    # every term of a law has the sign of c^l
    sign = np.where((ell % 2 == 1) & (c.x < 0), -1.0, 1.0)
    try:
        binomials = np.array([float(t) for t in terms]).reshape(j.shape)
    except OverflowError:  # from l = 653 some C(l, 2j) C(2j, j) is
        total = math.inf
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            c_pow, h_pow = c.first(ell + 1)[::-2], half_rho.first(len(terms))  # row j: term j
            values = binomials * c_pow * h_pow
            # a power of a nonzero c or rho/2 below the normal range has lost
            # its digits, unless the other power is 0 from a zero base
            tiny = np.finfo(float).tiny
            lost = ((np.abs(c_pow) < tiny) & (c.x != 0)) | ((h_pow < tiny) & (half_rho.x != 0))
            lost &= ~(((c_pow == 0) & (c.x == 0)) | ((h_pow == 0) & (half_rho.x == 0)))
            rows = np.flatnonzero(lost.reshape(len(terms), -1).any(axis=1))
            if rows.size:
                redo = sign * np.exp2(_arcsine_log2(c.x, half_rho.x, ell, terms, j[rows]))
                values[rows] = np.where(lost[rows], redo, values[rows])
            # cumsum adds in order of j; + 0.0 turns a -0.0 total into 0.0
            total = np.cumsum(values, axis=0)[-1] + 0.0
    if np.isfinite(total).all():
        return math.fsum(np.ravel(weights * total).tolist())
    log2 = _arcsine_log2(c.x, half_rho.x, ell, terms, j) + np.log2(weights)
    scale = math.floor(log2.max()) - 2 if log2.max() > -math.inf else 0
    total = math.fsum(np.ravel(sign * np.exp2(log2 - scale).sum(axis=0)).tolist())
    if math.frexp(total)[1] + scale > 1024:
        raise OverflowError(f"arcsine moment of order {ell}")
    return math.ldexp(total, scale)


class ArcsineLaw:
    """Equilibrium measure of the interval [alpha, beta].

    Density 1 / (pi sqrt((beta - x)(x - alpha))) on (alpha, beta); the
    degenerate case alpha == beta is the point mass at alpha.

    Parameters
    ----------
    alpha, beta : real
        Interval endpoints; stored sorted, so the labeling order does
        not matter.
    """

    def __init__(self, alpha, beta):
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise ValueError("endpoints must be finite")
        if alpha > beta:
            alpha, beta = beta, alpha
        self.alpha = alpha
        self.beta = beta
        two = Fraction(2) if _is_exact(alpha, beta) else 2.0
        self._powers = _Powers((alpha + beta) / two, 1), _Powers((beta - alpha) / (two * two), 2)

    def moment(self, ell: int):
        """l-th moment via the binomial closed form (``_arcsine_moment``).
        Exact (int/Fraction) when the endpoints are exact; a float moment
        past the double range raises ``OverflowError``.
        """
        ell = _order(ell)
        c, half_rho = self._powers
        if not _is_exact(c.x):
            return _arcsine_moment(c, half_rho, ell, 1.0)
        terms = _arcsine_terms(ell)
        total = sum(t * c.x ** (ell - 2 * j) * half_rho.x ** (2 * j) for j, t in enumerate(terms))
        return int(total) if total.denominator == 1 else total

    def density(self, x) -> float:
        if self.alpha == self.beta:
            return 0.0
        if not (self.alpha < x < self.beta):
            return 0.0
        return 1.0 / (math.pi * math.sqrt((self.beta - x) * (x - self.alpha)))

    def atoms(self):
        if self.alpha == self.beta:
            return [(self.alpha, 1)]
        return []


class SemicircleLaw:
    """Semicircle law on [-2, 2]: density sqrt(4 - x^2) / (2 pi).

    Even moments are the Catalan numbers, odd moments vanish.
    """

    def moment(self, ell: int):
        ell = _order(ell)
        if ell % 2:
            return 0
        p = ell // 2
        return math.comb(2 * p, p) // (p + 1)

    def density(self, x) -> float:
        if abs(x) >= 2.0:
            return 0.0
        return math.sqrt(4.0 - x * x) / (2.0 * math.pi)

    def atoms(self):
        return []


class MarchenkoPasturLaw:
    """Marchenko-Pastur (free Poisson) law of rate alpha >= 0.

    Atom of mass max(1 - alpha, 0) at 0 plus the continuous density
    sqrt((a_plus - x)(x - a_minus)) / (2 pi x) on [a_minus, a_plus],
    a_pm = (1 pm sqrt(alpha))^2.  Moments are the Narayana polynomials
    m_l = sum_j N(l, j) alpha^j with N(l, j) = C(l, j) C(l, j-1) / l.
    """

    def __init__(self, alpha):
        if not 0 <= alpha < math.inf:
            raise ValueError(f"need alpha >= 0 and finite, got {alpha}")
        self.alpha = alpha
        root = math.sqrt(alpha)
        self.upper = (1 + root) ** 2
        self.lower = (1 - root) ** 2

    def moment(self, ell: int):
        ell = _order(ell)
        if ell == 0:
            return 1
        exact = _is_exact(self.alpha)
        a = Fraction(self.alpha) if exact else float(self.alpha)
        total = a * 0
        for j in range(1, ell + 1):
            nar = Fraction(math.comb(ell, j) * math.comb(ell, j - 1), ell)
            if not exact:
                nar = float(nar)
            total += nar * a**j
        if exact and total.denominator == 1:
            return int(total)
        return total

    def density(self, x) -> float:
        if x <= self.lower or x >= self.upper or x <= 0:
            return 0.0
        return math.sqrt((self.upper - x) * (x - self.lower)) / (2.0 * math.pi * x)

    def atoms(self):
        mass = 1 - self.alpha
        if mass > 0:
            return [(0, mass)]
        return []


class AtomicMeasure:
    """Finitely supported probability measure sum_j w_j delta_{x_j}."""

    def __init__(self, atoms):
        atoms = [(x, w) for x, w in atoms]
        if not atoms:
            raise ValueError("need at least one atom")
        for x, w in atoms:
            if not (math.isfinite(x) and math.isfinite(w)):
                raise ValueError(f"atoms: need finite locations and weights, got ({x}, {w})")
        locs = [x for x, _ in atoms]
        if len(set(locs)) != len(locs):
            raise ValueError("atom locations must be distinct")
        for _, w in atoms:
            if w <= 0:
                raise ValueError("atom weights must be positive")
        total = sum(w for _, w in atoms)
        if abs(total - 1) > 1e-12:
            raise ValueError(f"atom weights must sum to 1, got {total}")
        self._atoms = atoms

    def moment(self, ell: int):
        ell = _order(ell)
        terms = [w * x**ell for x, w in self._atoms]
        if _is_exact(*[t for t in terms]):
            s = sum(terms)
            return int(s) if isinstance(s, Fraction) and s.denominator == 1 else s
        return math.fsum(float(t) for t in terms)

    def density(self, x) -> float:
        return 0.0

    def atoms(self):
        return list(self._atoms)


@functools.lru_cache(maxsize=None)
def _gauss_legendre(order: int):
    """Gauss-Legendre nodes and weights of ``order`` points, mapped from
    [-1, 1] to [0, 1]; read-only, shared by every mixture of that order."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes, weights = 0.5 * (nodes + 1.0), 0.5 * weights
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


class ArcsineMixture:
    """Mixture of arcsine laws over a coefficient profile on [0, 1].

    Given limit functions a(s) >= 0 and b(s), the law is
    integral_0^1 w_{[b(s) - 2a(s), b(s) + 2a(s)]} ds, where w_I is the
    arcsine law of the interval I.  Moments and densities integrate the
    arcsine closed forms with Gauss-Legendre quadrature: a and b are each
    called once, on the array of nodes, when the mixture is built, and
    each moment or density runs the ``ArcsineLaw`` closed form over the
    arrays of node endpoints.

    Parameters
    ----------
    a, b : callable
        Coefficient limit functions on [0, 1], vectorised: each takes the
        read-only array of nodes and returns an array of its shape, or a
        scalar, which stands for every node.
    order : int
        Gauss-Legendre order for the mixture integral (default 200).
    """

    def __init__(self, a: Callable[[float], float], b: Callable[[float], float], order: int = 200):
        order = as_index("order", order, ValueError)
        if order < 1:
            raise ValueError("quadrature order must be positive")
        self.a = a
        self.b = b
        self.order = order
        nodes, self._weights = _gauss_legendre(order)
        a_s, b_s = (np.broadcast_to(np.asarray(f(nodes), float), nodes.shape) for f in (a, b))
        lo, hi = b_s - 2.0 * a_s, b_s + 2.0 * a_s
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("endpoints must be finite")
        # per-node ArcsineLaw endpoints, stored sorted
        self._alpha, self._beta = np.minimum(lo, hi), np.maximum(lo, hi)
        c, half_rho = (self._alpha + self._beta) / 2.0, (self._beta - self._alpha) / 4.0
        self._powers = _Powers(c, 1), _Powers(half_rho, 2)

    def moment(self, ell: int) -> float:
        """Weighted sum of ``ArcsineLaw.moment`` over the nodes; raises
        ``OverflowError`` past the double range."""
        ell = _order(ell)
        return _arcsine_moment(*self._powers, ell, self._weights)

    def density(self, x) -> float:
        """Weighted sum of ``ArcsineLaw.density`` over the nodes."""
        inside = (self._alpha < x) & (x < self._beta)
        alpha, beta = self._alpha[inside], self._beta[inside]
        law = 1.0 / (np.pi * np.sqrt((beta - x) * (x - alpha)))
        return math.fsum((self._weights[inside] * law).tolist())

    def atoms(self):
        return []


def kva_moment(mixture: ArcsineMixture, ell: int) -> float:
    """Moment of the limiting zero law built from coefficient profiles,
    ``mixture.moment(ell)``: the moments the ``kva`` command tabulates."""
    return mixture.moment(ell)
