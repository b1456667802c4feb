"""Free-convolution arithmetic on truncated series and spectral curves.

The series side works on ordinary truncated power series with exact
rational coefficients whenever the inputs are exact (ints/Fractions):
moment generating data is turned into the linearising transforms

- additive: R(w), with R_{mu plus nu} = R_mu + R_nu;
- multiplicative: S(z), with S_{mu times nu} = S_mu * S_nu,
  defined when the first moment is nonzero;

via compositional inversion of power series (triangular coefficient
solve), and back again.  No asymptotic or numeric approximation enters:
for order-L data the returned moments are exactly the moments of the
convolution up to order L.

The curve side holds a free-convolution limit (semicircle plus atoms,
or the exponent-alpha law times atoms) as its subordination data, the
float ratios, locations and alpha.  Its Cauchy transform G, the root
w ~ 1/z of the bivariate polynomial P(z, w) given in the constructors'
docstrings, is evaluated as the one fixed point of a holomorphic
self-map of a half-plane (a subordination equation), so no branch is
chosen.  Densities come from its boundary values at x + i eps; moments
from the series above, on the exact values of the curve's floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import ContinuationError, as_index
from .measures import MomentSequence, SemicircleLaw, _is_exact

__all__ = [
    "r_transform_series",
    "moments_from_r",
    "s_transform_series",
    "free_add",
    "free_mul",
    "AlgebraicCurve",
    "curve_hermite",
    "curve_laguerre",
    "solve_G",
    "stieltjes_density",
    "curve_moments",
]


def _lift(values):
    """Fractions when all inputs are exact, floats otherwise."""
    vals = list(values)
    if _is_exact(*vals):
        return [Fraction(v) for v in vals]
    return [float(v) for v in vals]


def _order(order, least: int = 1) -> int:
    """A series order as an int (numpy integers pass), refusing any other
    type and orders below ``least``."""
    order = as_index("order", order, ValueError)
    if order < least:
        raise ValueError(f"need order >= {least}")
    return order


# -- dense power-series helpers: lists indexed by power 0..L ------------


def _mul_trunc(a, b, L):
    out = [a[0] * 0] * (L + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > L:
            continue
        for j, bj in enumerate(b):
            if i + j > L:
                break
            out[i + j] += ai * bj
    return out


def _reciprocal(a, L):
    """1 / a for a power series with invertible constant term."""
    if a[0] == 0:
        raise ValueError("series has no reciprocal (zero constant term)")
    one = a[0] / a[0]
    inv0 = one / a[0]
    out = [inv0] + [a[0] * 0] * L
    for n in range(1, L + 1):
        acc = a[0] * 0
        for j in range(1, min(n, len(a) - 1) + 1):
            acc += a[j] * out[n - j]
        out[n] = -inv0 * acc
    return out[: L + 1]


def _compose_inverse(f, L):
    """g with f(g(w)) = w + O(w^(L+1)); f, g indexed by power 0..L.

    Requires f[0] = 0 and f[1] invertible.  Triangular solve: the
    degree-n coefficient of f(g) is f[1] g[n] plus terms in g[<n].
    """
    if f[0] != 0:
        raise ValueError("compositional inverse needs a vanishing constant term")
    if len(f) < 2 or f[1] == 0:
        raise ValueError("compositional inverse needs a nonzero linear term")
    zero = f[1] * 0
    one = f[1] / f[1]
    g = [zero] * (L + 1)
    g[1] = one / f[1]
    for n in range(2, L + 1):
        acc = zero
        power = g[: L + 1]  # g^1
        for k in range(2, n + 1):
            power = _mul_trunc(power, g, n)
            if k < len(f) and f[k] != 0:
                acc += f[k] * power[n]
        g[n] = -acc / f[1]
    return g


def _as_moments(mu, order):
    if isinstance(mu, MomentSequence):
        vals = list(mu.values)
    elif hasattr(mu, "moment"):
        vals = [mu.moment(ell) for ell in range(order + 1)]
    else:
        vals = list(mu)
    if not vals or vals[0] != 1:
        raise ValueError("moment data must start with m_0 = 1")
    if len(vals) < order + 1:
        raise ValueError(f"need moments up to order {order}, got {len(vals) - 1}")
    return vals[: order + 1]


def r_transform_series(mu, order: int) -> tuple:
    """Additive-convolution transform R(w) = kappa_1 + kappa_2 w + ...

    Computed from moments m_0..m_order; returns the ``order`` coefficients
    of the truncated series, the free cumulants kappa_1..kappa_order.
    """
    order = _order(order)
    m = _lift(_as_moments(mu, order))
    L = order + 1
    phi = [m[0] * 0] + m  # phi(u) = u (m0 + m1 u + ...), powers 0..L
    psi = _compose_inverse(phi, L)
    psi_shift = psi[1:]  # psi / w, constant term 1/m0 = 1
    inv = _reciprocal(psi_shift, order)
    return tuple(inv[1 : order + 1])


def moments_from_r(r, order: int) -> MomentSequence:
    """Moments m_0..m_order of the law with free cumulants r[0..order-1],
    the coefficients of R(w) from power 0."""
    order = _order(order)
    kappa = list(r[:order])
    if len(kappa) < order:
        raise ValueError(f"need {order} cumulants, got {len(kappa)}")
    zero = kappa[0] * 0
    one = zero + 1
    L = order + 1
    denom = [one] + kappa  # 1 + w R(w), powers 0..order
    psi = [zero] + _reciprocal(denom, L - 1)  # w / (1 + w R(w))
    phi = _compose_inverse(psi, L)
    return MomentSequence(tuple(phi[1 : order + 2]))


def s_transform_series(mu, order: int) -> tuple:
    """Multiplicative-convolution transform S(z).

    Defined for moment data with m_1 != 0; returns the ``order``
    coefficients S_0, S_1, ... of the truncated series from power 0.
    """
    order = _order(order)
    m = _lift(_as_moments(mu, order))
    if m[1] == 0:
        raise ValueError("multiplicative transform undefined: first moment is zero")
    h = [m[0] * 0] + m[1:]  # h(z) = m1 z + m2 z^2 + ..., powers 0..order
    chi = _compose_inverse(h, order)
    chi_over_z = chi[1:] + [m[0] * 0]
    s = [chi_over_z[0]] + [chi_over_z[j] + chi_over_z[j - 1] for j in range(1, order)]
    return tuple(s[:order])


def _moments_from_s(s, order: int) -> MomentSequence:
    coeffs = list(s[:order])
    zero = coeffs[0] * 0
    one = zero + 1
    # chi(z) = z S(z) / (1 + z)
    inv1z = _reciprocal([one, one], order - 1)  # 1/(1+z)
    frac = _mul_trunc(coeffs, inv1z, order - 1)
    chi = [zero] + frac  # powers 0..order
    h = _compose_inverse(chi, order)
    moments = [one] + h[1 : order + 1]
    return MomentSequence(tuple(moments))


def free_add(mu, nu, order: int) -> MomentSequence:
    """Moments of the additive free convolution to the given order."""
    if _order(order, 0) == 0:
        return MomentSequence((1,))
    r_mu = r_transform_series(mu, order)
    r_nu = r_transform_series(nu, order)
    return moments_from_r([x + y for x, y in zip(r_mu, r_nu)], order)


def free_mul(mu, nu, order: int) -> MomentSequence:
    """Moments of the multiplicative free convolution to the given order.

    Both inputs need a nonzero first moment (from order 1).
    """
    if _order(order, 0) == 0:
        return MomentSequence((1,))
    s_mu = s_transform_series(mu, order)
    s_nu = s_transform_series(nu, order)
    return _moments_from_s(_mul_trunc(s_mu, s_nu, order - 1), order)


# -- algebraic curves ----------------------------------------------------


@dataclass(frozen=True)
class AlgebraicCurve:
    """Spectral curve held as its subordination data: the root w(z) ~ 1/z
    of the constructor's P(z, w) is the Cauchy transform that ``solve_G``
    evaluates from the floats ``q`` and ``a`` and, for the Laguerre curve,
    ``alpha`` (None for the Hermite curve); ``curve_moments`` reads their
    exact values.  ``radius_hint`` is the radius of a circle enclosing the
    support, read by no library code (the benchmark's density grid uses it).
    """

    radius_hint: float
    q: tuple
    a: tuple
    alpha: Optional[float] = None


def _validate_curve_inputs(q, a):
    """Ratios and locations as float tuples, refused unless matching,
    finite, positive ratios summing to 1 and distinct locations."""
    q = list(q)
    a = list(a)
    if len(q) != len(a) or not q:
        raise ValueError("need matching nonempty ratio and location vectors")
    if not all(map(math.isfinite, q)):
        raise ValueError(f"ratios must be finite, got {q}")
    if not all(map(math.isfinite, a)):
        raise ValueError(f"locations must be finite, got {a}")
    if abs(float(sum(q)) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {q}")
    if any(float(x) <= 0 for x in q):
        raise ValueError("ratios must be positive")
    if len({float(x) for x in a}) != len(a):
        raise ValueError(f"locations must be pairwise distinct, got {a}")
    return tuple(map(float, q)), tuple(map(float, a))


def curve_hermite(q, a) -> AlgebraicCurve:
    """Spectral curve of the semicircle law shifted by atoms at a_i with
    weights q_i (additive free convolution).

    P(z, w) = w prod_i (z - w - a_i) - sum_i q_i prod_{j != i} (z - w - a_j),

    the polynomial the subordination fixed point
    w = sum_i q_i / (z - w - a_i) produces.
    """
    q, a = _validate_curve_inputs(q, a)
    return AlgebraicCurve(2.0 + max(map(abs, a)) + 1.0, q, a)


def curve_laguerre(q, a, alpha) -> AlgebraicCurve:
    """Spectral curve of the exponential-weight family: atoms 1/a_i with
    weights q_i composed multiplicatively with the exponent-alpha law.

    P(z, w) = w prod_i (z - (1/a_i)(1 - alpha + alpha z w))
              - sum_i q_i prod_{j != i} (z - (1/a_j)(1 - alpha + alpha z w)).
    """
    q, a = _validate_curve_inputs(q, a)
    if any(x <= 0 for x in a):
        raise ValueError("locations must be positive")
    alpha = float(alpha)
    if not 0 <= alpha < math.inf:
        raise ValueError(f"need finite alpha >= 0, got {alpha}")
    top = max(1.0 / x for x in a)
    hint = (1.0 + math.sqrt(alpha)) ** 2 * top + top + 1.0
    return AlgebraicCurve(hint, q, a, alpha)


def _self_map(curve: AlgebraicCurve, u, z):
    """(Phi(u), Phi'(u), size) for the self-map of ``solve_G`` at z, with
    c_i / (1 + c_i m) as 1 / (a_i + m).  size scales the rounding in Phi:
    sum_i q_i |r_i| for Hermite (the sum cancels in a gap), |m| for Laguerre."""
    hermite = curve.alpha is None
    s = ds = size = 0.0
    for qi, ai in zip(curve.q, curve.a):
        r = 1.0 / (z - u - ai) if hermite else 1.0 / (ai + u)
        s += qi * r
        ds += qi * r * r
        size += qi * abs(r)
    if hermite:
        return s, ds, size
    phi = -1.0 / (z - curve.alpha * s)
    return phi, curve.alpha * ds * phi * phi, abs(phi)


def _fixed_point(curve: AlgebraicCurve, z: complex, u):
    """Fixed point of ``_self_map`` at z (Im z >= 0) from the start u.

    Real z runs in real arithmetic.  Otherwise Im z is lowered from
    max(1, Im z) in steps of a factor 8, each level warm-starting the
    next.  Each level takes three plain steps, then Newton steps on
    u - Phi(u), a Newton step that leaves the half-plane sign * Im u > 0
    (it heads for the conjugate root) replaced by a plain one, until a
    step is below 1e-15 size or, at the noise floor near an edge of the
    support, below 1e-10 size and no longer halving.
    """
    sign = -1.0 if curve.alpha is None else 1.0
    if z.imag == 0:
        z, u = z.real, u.real
    eta = max(1.0, z.imag) if z.imag else 0.0
    while True:
        at = complex(z.real, eta) if eta else z
        last = math.inf
        for n in range(200):
            phi, dphi, size = _self_map(curve, u, at)
            new = phi
            if n >= 3:
                newton = u - (u - phi) / (1.0 - dphi)
                if not eta or sign * newton.imag > 0:
                    new = newton
            step, u = abs(new - u), new
            if step <= 1e-15 * size or (n > 3 and 0.5 * last < step <= 1e-10 * size):
                break
            last = step
        else:
            raise ContinuationError(f"subordination fixed point did not converge at z = {at}")
        if eta == z.imag:
            return u
        eta = max(z.imag, eta / 8.0)


def solve_G(curve: AlgebraicCurve, z) -> complex:
    """Cauchy transform of the curve's law at z (the root w ~ 1/z).

    For Im z > 0, G comes from the fixed point of a self-map of a
    half-plane, which has only one, so no branch is chosen.  Hermite: the
    subordination w = sum_i q_i / (z - w - a_i) maps the lower half-plane
    into itself (Belinschi & Bercovici 2007).  Laguerre, c_i = 1/a_i: the
    companion transform m = -(1 - alpha + alpha z w) / z solves
    m = -1 / (z - alpha sum_i q_i c_i / (1 + c_i m)), a self-map of the
    upper half-plane (Silverstein & Bai 1995), and w = sum_i q_i /
    (z (1 + c_i m)), which is sum_i q_i / (z - c_i) at alpha = 0.
    G(conj z) = conj G(z) covers Im z < 0.  Real z runs the same
    iteration in real arithmetic and is meaningful only outside the
    support.  Raises ``ContinuationError`` at z = 0 and when the fixed
    point does not converge.
    """
    z = complex(z)
    if z == 0:
        raise ContinuationError("z = 0 is never in the asymptotic domain")
    if z.imag < 0:
        return solve_G(curve, z.conjugate()).conjugate()
    try:
        if curve.alpha is None:
            return complex(_fixed_point(curve, z, 1.0 / z))
        m = _fixed_point(curve, z, -1.0 / z)
        return complex(sum(qi * ai / (ai + m) for qi, ai in zip(curve.q, curve.a)) / z)
    except ZeroDivisionError:
        raise ContinuationError(f"subordination map has a pole at z = {z}") from None


def stieltjes_density(curve: AlgebraicCurve, x: float, eps: float = 1e-6,
                      richardson: bool = False) -> float:
    """Density at x from the boundary value -Im G(x + i eps) / pi.

    With ``richardson`` the O(eps) error is removed by extrapolating the
    values at eps and 2 eps.
    """
    if not math.isfinite(x):
        raise ValueError(f"need finite x, got {x}")
    if not 0 < eps < math.inf:
        raise ValueError(f"need finite eps > 0, got {eps}")
    d1 = -solve_G(curve, complex(x, eps)).imag / math.pi
    if not richardson:
        return d1
    d2 = -solve_G(curve, complex(x, 2.0 * eps)).imag / math.pi
    return 2.0 * d1 - d2


def curve_moments(curve: AlgebraicCurve, ell_max: int) -> MomentSequence:
    """Moments m_0..m_ell_max of the curve's law from the free-convolution
    series, exact on the values of the curve's floats and rounded once.

    Hermite: the semicircle law plus the atoms a_i with weights q_i.
    Laguerre: the exponent-alpha law, m_l = sum_j Narayana(l, j)
    alpha^(j-1) (delta_1 at alpha = 0, Marchenko-Pastur at alpha = 1),
    times the atoms 1/a_i.  The atoms' m_0 is 1 however the float ratios
    round.  A moment past the double range raises ``OverflowError``.
    """
    ell_max = as_index("ell_max", ell_max, ValueError)
    if ell_max < 0:
        raise ValueError("need ell_max >= 0")
    q, a = [Fraction(x) for x in curve.q], [Fraction(x) for x in curve.a]
    orders = range(1, ell_max + 1)
    if curve.alpha is None:
        law, convolve = SemicircleLaw(), free_add
    else:
        alpha, a, convolve = Fraction(curve.alpha), [1 / x for x in a], free_mul
        law = [1] + [sum(math.comb(ell, j) * math.comb(ell, j - 1) // ell * alpha ** (j - 1)
                         for j in range(1, ell + 1)) for ell in orders]
    atoms = [1] + [sum(qi * x**ell for qi, x in zip(q, a)) for ell in orders]
    return MomentSequence(tuple(convolve(law, atoms, ell_max).floats()))
