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

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

__all__ = [
    "MomentSequence",
    "ArcsineLaw",
    "SemicircleLaw",
    "MarchenkoPasturLaw",
    "AtomicMeasure",
    "ArcsineMixture",
    "kva_moment",
    "moment_sequence",
]


def _is_exact(*values) -> bool:
    return all(isinstance(v, (int, Fraction)) for v in values)


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
        for v in vals:
            if not math.isfinite(v):
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
        return [float(v) for v in self.values]


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

    def moment(self, ell: int):
        """l-th moment via the binomial closed form.

        With c = (alpha+beta)/2 and rho = (beta-alpha)/2,
        m_l = sum_j C(l, 2j) C(2j, j) c^(l-2j) (rho/2)^(2j).
        Exact (int/Fraction) when the endpoints are exact.
        """
        if ell < 0:
            raise ValueError("negative moment index")
        exact = _is_exact(self.alpha, self.beta)
        two = Fraction(2) if exact else 2.0
        c = (self.alpha + self.beta) / two
        half_rho = (self.beta - self.alpha) / (two * two)
        total = Fraction(0) if exact else 0.0
        for j in range(ell // 2 + 1):
            term = math.comb(ell, 2 * j) * math.comb(2 * j, j)
            total += term * c ** (ell - 2 * j) * half_rho ** (2 * j)
        if exact and total.denominator == 1:
            return int(total)
        return total

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
        if ell < 0:
            raise ValueError("negative moment index")
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
        if alpha < 0:
            raise ValueError(f"need alpha >= 0, got {alpha}")
        self.alpha = alpha
        root = math.sqrt(alpha)
        self.upper = (1 + root) ** 2
        self.lower = (1 - root) ** 2

    def moment(self, ell: int):
        if ell < 0:
            raise ValueError("negative moment index")
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
        if ell < 0:
            raise ValueError("negative moment index")
        terms = [w * x**ell for x, w in self._atoms]
        if _is_exact(*[t for t in terms]):
            s = sum(terms)
            return int(s) if isinstance(s, Fraction) and s.denominator == 1 else s
        return math.fsum(float(t) for t in terms)

    def density(self, x) -> float:
        return 0.0

    def atoms(self):
        return list(self._atoms)


class ArcsineMixture:
    """Mixture of arcsine laws over a coefficient profile on [0, 1].

    Given limit functions a(s) >= 0 and b(s), the law is
    integral_0^1 w_{[b(s) - 2a(s), b(s) + 2a(s)]} ds, where w_I is the
    arcsine law of the interval I.  Moments and densities integrate the
    arcsine closed forms with Gauss-Legendre quadrature.

    Parameters
    ----------
    a, b : callable
        Coefficient limit functions on [0, 1].
    order : int
        Gauss-Legendre order for the mixture integral (default 200).
    """

    def __init__(self, a: Callable[[float], float], b: Callable[[float], float], order: int = 200):
        if order < 1:
            raise ValueError("quadrature order must be positive")
        self.a = a
        self.b = b
        self.order = order
        nodes, weights = np.polynomial.legendre.leggauss(order)
        # map from [-1, 1] to [0, 1]
        self._nodes = 0.5 * (nodes + 1.0)
        self._weights = 0.5 * weights

    def moment(self, ell: int) -> float:
        if ell < 0:
            raise ValueError("negative moment index")
        vals = []
        for s, w in zip(self._nodes, self._weights):
            a_s = self.a(s)
            b_s = self.b(s)
            law = ArcsineLaw(b_s - 2.0 * a_s, b_s + 2.0 * a_s)
            vals.append(w * float(law.moment(ell)))
        return math.fsum(vals)

    def density(self, x) -> float:
        vals = []
        for s, w in zip(self._nodes, self._weights):
            a_s = self.a(s)
            b_s = self.b(s)
            law = ArcsineLaw(b_s - 2.0 * a_s, b_s + 2.0 * a_s)
            vals.append(w * law.density(x))
        return math.fsum(vals)

    def atoms(self):
        return []


def kva_moment(mixture: ArcsineMixture, ell: int) -> float:
    """Moment of the limiting zero law built from coefficient profiles.

    The name matches the CLI subcommand that emits these limits.
    """
    return mixture.moment(ell)


def moment_sequence(law, order: int) -> MomentSequence:
    """Moments 0..order of any law exposing ``moment(ell)``."""
    return MomentSequence(tuple(law.moment(ell) for ell in range(order + 1)))

