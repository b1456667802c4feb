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

The curve side represents a Cauchy transform G as a root of a bivariate
polynomial P(z, w) = 0 and evaluates it by root tracking along paths
from the asymptotic regime where w ~ 1/z (adaptive continuation with a
nearest-root/separation test).  Moments come from contour integrals on
circles enclosing the support, validated by radius doubling; densities
from the boundary values at x + i eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ContinuationError, NumericalFailure
from .measures import MomentSequence

__all__ = [
    "FormalSeries",
    "series_compose_inverse",
    "r_transform_series",
    "k_transform_series",
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


def _exact(*values) -> bool:
    return all(isinstance(v, (int, Fraction)) for v in values)


def _lift(values):
    """Fractions when all inputs are exact, floats otherwise."""
    vals = list(values)
    if _exact(*vals):
        return [Fraction(v) for v in vals], True
    return [float(v) for v in vals], False


@dataclass(frozen=True)
class FormalSeries:
    """Truncated series sum_i coeffs[i] x^(offset + i).

    ``offset`` is the lowest tracked power; -1 accommodates transforms
    with a simple pole at the origin.  Coefficients above
    ``offset + len(coeffs) - 1`` are untracked, not zero.
    """

    coeffs: tuple
    offset: int = 0

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if not self.coeffs:
            raise ValueError("series needs at least one coefficient")

    @property
    def order(self) -> int:
        """Highest tracked power."""
        return self.offset + len(self.coeffs) - 1

    def coefficient(self, power: int):
        if power > self.order:
            raise ValueError(f"power {power} above truncation order {self.order}")
        if power < self.offset:
            return 0
        return self.coeffs[power - self.offset]


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


def series_compose_inverse(f: FormalSeries) -> FormalSeries:
    """Compositional inverse of an offset-1 truncated power series."""
    if f.offset != 1:
        raise ValueError("compositional inverse expects a series starting at power 1")
    coeffs, _ = _lift(f.coeffs)
    dense = [coeffs[0] * 0] + coeffs
    g = _compose_inverse(dense, len(dense) - 1)
    return FormalSeries(tuple(g[1:]), offset=1)


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


def r_transform_series(mu, order: int) -> FormalSeries:
    """Additive-convolution transform R(w) = kappa_1 + kappa_2 w + ...

    Computed from moments m_0..m_order; returns ``order`` coefficients
    (the free cumulants kappa_1..kappa_order).
    """
    if order < 1:
        raise ValueError("need order >= 1")
    m, _ = _lift(_as_moments(mu, order))
    L = order + 1
    phi = [m[0] * 0] + m  # phi(u) = u (m0 + m1 u + ...), powers 0..L
    psi = _compose_inverse(phi, L)
    psi_shift = psi[1:]  # psi / w, constant term 1/m0 = 1
    inv = _reciprocal(psi_shift, order)
    return FormalSeries(tuple(inv[1 : order + 1]), offset=0)


def k_transform_series(mu, order: int) -> FormalSeries:
    """K(w) = 1/w + R(w), the compositional inverse of the Cauchy
    transform; offset -1."""
    r = r_transform_series(mu, order)
    one = r.coeffs[0] * 0 + 1
    return FormalSeries((one,) + r.coeffs, offset=-1)


def moments_from_r(r: FormalSeries, order: int) -> MomentSequence:
    """Moments m_0..m_order of the law with cumulants r."""
    if r.offset != 0:
        raise ValueError("R series must start at power 0")
    kappa = list(r.coeffs[:order])
    if len(kappa) < order:
        raise ValueError(f"need {order} cumulants, got {len(kappa)}")
    zero = kappa[0] * 0
    one = zero + 1
    L = order + 1
    denom = [one] + kappa  # 1 + w R(w), powers 0..order
    psi = [zero] + _reciprocal(denom, L - 1)  # w / (1 + w R(w))
    phi = _compose_inverse(psi, L)
    return MomentSequence(tuple(phi[1 : order + 2]))


def s_transform_series(mu, order: int) -> FormalSeries:
    """Multiplicative-convolution transform S(z), offset 0.

    Defined for moment data with m_1 != 0; returns ``order``
    coefficients S_0 + S_1 z + ...
    """
    if order < 1:
        raise ValueError("need order >= 1")
    m, _ = _lift(_as_moments(mu, order))
    if m[1] == 0:
        raise ValueError("multiplicative transform undefined: first moment is zero")
    h = [m[0] * 0] + m[1:]  # h(z) = m1 z + m2 z^2 + ..., powers 0..order
    chi = _compose_inverse(h, order)
    chi_over_z = chi[1:] + [m[0] * 0]
    s = [chi_over_z[0]] + [chi_over_z[j] + chi_over_z[j - 1] for j in range(1, order)]
    return FormalSeries(tuple(s[:order]), offset=0)


def _moments_from_s(s: FormalSeries, order: int) -> MomentSequence:
    coeffs = list(s.coeffs[:order])
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
    r_mu = r_transform_series(mu, order)
    r_nu = r_transform_series(nu, order)
    total = tuple(x + y for x, y in zip(r_mu.coeffs, r_nu.coeffs))
    return moments_from_r(FormalSeries(total, offset=0), order)


def free_mul(mu, nu, order: int) -> MomentSequence:
    """Moments of the multiplicative free convolution to the given order.

    Both inputs need a nonzero first moment.
    """
    s_mu = s_transform_series(mu, order)
    s_nu = s_transform_series(nu, order)
    prod = _mul_trunc(list(s_mu.coeffs), list(s_nu.coeffs), order - 1)
    return _moments_from_s(FormalSeries(tuple(prod), offset=0), order)


# -- algebraic curves ----------------------------------------------------


def _bp_mul(p, q):
    out = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, c1 * 0) + c1 * c2
    return {k: v for k, v in out.items() if v != 0}


def _bp_add(p, q):
    out = dict(p)
    for key, c in q.items():
        out[key] = out.get(key, c * 0) + c
    return {k: v for k, v in out.items() if v != 0}


def _bp_scale(p, c):
    return {k: c * v for k, v in p.items() if c * v != 0}


@dataclass(frozen=True)
class AlgebraicCurve:
    """Bivariate polynomial P(z, w) whose root w(z) ~ 1/z is a Cauchy
    transform.

    ``table[j][i]`` is the coefficient of z^i w^j (exact rationals when
    the construction data is exact).  ``radius_hint`` is a starting
    circle radius enclosing the support estimate.
    """

    table: tuple
    radius_hint: float

    @property
    def deg_w(self) -> int:
        return len(self.table) - 1

    def wpoly_at(self, z: complex) -> np.ndarray:
        """Coefficients (ascending in w) of w -> P(z, w)."""
        z = complex(z)
        out = np.empty(len(self.table), dtype=complex)
        for j, zc in enumerate(self.table):
            acc = 0j
            for c in reversed(zc):  # Horner in z
                acc = acc * z + complex(c)
            out[j] = acc
        return out


def _curve_from_dict(poly: dict, radius_hint: float) -> AlgebraicCurve:
    deg_z = max(i for (i, _) in poly)
    deg_w = max(j for (_, j) in poly)
    zero = next(iter(poly.values())) * 0
    table = [
        tuple(poly.get((i, j), zero) for i in range(deg_z + 1)) for j in range(deg_w + 1)
    ]
    return AlgebraicCurve(table=tuple(table), radius_hint=float(radius_hint))


def _validate_curve_inputs(q, a):
    q = list(q)
    a = list(a)
    if len(q) != len(a) or not q:
        raise ValueError("need matching nonempty ratio and location vectors")
    if abs(float(sum(q)) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {q}")
    if any(float(x) <= 0 for x in q):
        raise ValueError("ratios must be positive")
    if len({float(x) for x in a}) != len(a):
        raise ValueError(f"locations must be pairwise distinct, got {a}")
    vals, exact = _lift(list(q) + list(a))
    return vals[: len(q)], vals[len(q) :], exact


def _curve_from_factors(q, factors, radius_hint: float) -> AlgebraicCurve:
    """P(z, w) = w prod_i f_i - sum_i q_i prod_{j != i} f_j for the
    bivariate factors f_i."""
    one = q[0] / q[0]
    poly = {(0, 1): one}
    for f in factors:
        poly = _bp_mul(poly, f)
    for i, qi in enumerate(q):
        term = {(0, 0): one}
        for j, f in enumerate(factors):
            if j != i:
                term = _bp_mul(term, f)
        poly = _bp_add(poly, _bp_scale(term, -qi))
    return _curve_from_dict(poly, radius_hint)


def curve_hermite(q, a) -> AlgebraicCurve:
    """Spectral curve of the semicircle law shifted by atoms at a_i with
    weights q_i (additive free convolution).

    P(z, w) = w prod_i (z - w - a_i) - sum_i q_i prod_{j != i} (z - w - a_j),

    the polynomial the subordination fixed point
    w = sum_i q_i / (z - w - a_i) produces.
    """
    q, a, _ = _validate_curve_inputs(q, a)
    one = q[0] / q[0]
    factors = [{(1, 0): one, (0, 1): -one, (0, 0): -ai} for ai in a]
    hint = 2.0 + max(abs(float(x)) for x in a) + 1.0
    return _curve_from_factors(q, factors, hint)


def curve_laguerre(q, a, alpha) -> AlgebraicCurve:
    """Spectral curve of the exponential-weight family: atoms 1/a_i with
    weights q_i composed multiplicatively with the exponent-alpha law.

    P(z, w) = w prod_i (z - (1/a_i)(1 - alpha + alpha z w))
              - sum_i q_i prod_{j != i} (z - (1/a_j)(1 - alpha + alpha z w)).
    """
    q, a, exact = _validate_curve_inputs(q, a)
    if any(float(x) <= 0 for x in a):
        raise ValueError("locations must be positive")
    alpha = Fraction(alpha) if exact and _exact(alpha) else float(alpha)
    if float(alpha) < 0:
        raise ValueError("need alpha >= 0")
    one = q[0] / q[0]
    factors = [
        {(1, 0): one, (0, 0): -(one - alpha) / ai, (1, 1): -(alpha * one) / ai}
        for ai in a
    ]
    top = max(1.0 / float(x) for x in a)
    hint = (1.0 + math.sqrt(float(alpha))) ** 2 * top + top + 1.0
    return _curve_from_factors(q, factors, hint)


def _roots_at(curve: AlgebraicCurve, z: complex) -> np.ndarray:
    coeffs = curve.wpoly_at(z)
    # strip trailing (highest-degree) zeros; np.roots wants descending
    desc = coeffs[::-1]
    nz = np.nonzero(np.abs(desc) > 0)[0]
    if len(nz) == 0:
        raise ContinuationError(f"curve degenerates identically at z = {z}")
    desc = desc[nz[0] :]
    if len(desc) == 1:
        return np.array([], dtype=complex)
    return np.roots(desc)


def _track_step(curve, w_prev, z_next, depth, z_prev):
    roots = _roots_at(curve, z_next)
    if len(roots) == 0:
        raise ContinuationError(f"no finite branches at z = {z_next}")
    dist = np.abs(roots - w_prev)
    order = np.argsort(dist)
    nearest = roots[order[0]]
    ambiguous = len(roots) > 1 and dist[order[0]] > 0.33 * dist[order[1]]
    if ambiguous:
        if depth > 48:
            raise ContinuationError(
                f"branch tracking ambiguous near z = {z_next} (root separation lost)"
            )
        mid = 0.5 * (z_prev + z_next)
        w_mid = _track_step(curve, w_prev, mid, depth + 1, z_prev)
        return _track_step(curve, w_mid, z_next, depth + 1, mid)
    return nearest


def _continue_path(curve: AlgebraicCurve, waypoints, w_start: complex) -> complex:
    w = w_start
    z_prev = waypoints[0]
    for z_next in waypoints[1:]:
        w = _track_step(curve, w, z_next, 0, z_prev)
        z_prev = z_next
    return w


def _seed_far(curve: AlgebraicCurve, z0: complex) -> complex:
    roots = _roots_at(curve, z0)
    target = 1.0 / z0
    if len(roots) == 0:
        raise ContinuationError("no branches at the asymptotic base point")
    w = roots[np.argmin(np.abs(roots - target))]
    if abs(w * z0 - 1.0) > 0.2:
        raise ContinuationError(
            f"no branch behaving like 1/z at |z| = {abs(z0):.3g}; "
            "base point may not be in the asymptotic regime"
        )
    return w


def _segment(a: complex, b: complex, steps: int):
    return [a + (b - a) * t / steps for t in range(1, steps + 1)]


def solve_G(curve: AlgebraicCurve, z) -> complex:
    """Cauchy-transform branch of the curve at z (w ~ 1/z at infinity).

    Tracked by adaptive continuation from a far base point; queries on
    the real axis are approached from the closest half-plane, so they
    are meaningful only outside the support.
    """
    z = complex(z)
    if z == 0:
        raise ContinuationError("z = 0 is never in the asymptotic domain")
    far = max(64.0, 16.0 * curve.radius_hint, 2.0 * abs(z))
    if z.imag > 0:
        z0 = complex(0.0, far)
    elif z.imag < 0:
        z0 = complex(0.0, -far)
    else:
        z0 = complex(math.copysign(far, z.real), 0.0)
    w = _seed_far(curve, z0)
    path = [z0] + _segment(z0, z, 24)
    return _continue_path(curve, path, w)


def stieltjes_density(curve: AlgebraicCurve, x: float, eps: float = 1e-6,
                      richardson: bool = False) -> float:
    """Density at x from the boundary value -Im G(x + i eps) / pi.

    With ``richardson`` the O(eps) error is removed by extrapolating the
    values at eps and 2 eps.
    """
    if eps <= 0:
        raise ValueError("need eps > 0")
    d1 = -solve_G(curve, complex(x, eps)).imag / math.pi
    if not richardson:
        return d1
    d2 = -solve_G(curve, complex(x, 2.0 * eps)).imag / math.pi
    return 2.0 * d1 - d2


def _contour_moments(curve: AlgebraicCurve, rho: float, ell_max: int, points: int):
    thetas = 2.0 * math.pi * np.arange(points) / points
    zs = rho * np.exp(1j * thetas)
    z0 = complex(math.copysign(max(64.0, 16.0 * curve.radius_hint, 4.0 * rho), 1.0), 0.0)
    w = _seed_far(curve, z0)
    w = _continue_path(curve, [z0] + _segment(z0, zs[0], 24), w)
    ws = np.empty(points, dtype=complex)
    ws[0] = w
    z_prev = zs[0]
    for j in range(1, points):
        w = _track_step(curve, w, zs[j], 0, z_prev)
        z_prev = zs[j]
        ws[j] = w
    closure = _track_step(curve, w, zs[0], 0, z_prev)
    scale = max(1.0, float(np.max(np.abs(ws))))
    if abs(closure - ws[0]) > 1e-6 * scale:
        raise ContinuationError("contour did not close on a single branch")
    moments = []
    for ell in range(ell_max + 1):
        vals = rho ** (ell + 1) * np.exp(1j * (ell + 1) * thetas) * ws
        moments.append(complex(np.mean(vals)))
    return moments


def curve_moments(curve: AlgebraicCurve, ell_max: int, points: int = 1024) -> MomentSequence:
    """Moments of the curve's law by contour integration.

    The circle radius starts at the curve's support hint and doubles
    until two consecutive radii agree to 1e-9 (at most four doublings).
    """
    if ell_max < 0:
        raise ValueError("need ell_max >= 0")
    rho = curve.radius_hint
    previous = None
    for _ in range(5):
        try:
            current = _contour_moments(curve, rho, ell_max, points)
        except ContinuationError:
            current = None
        if current is not None and previous is not None:
            diff = max(
                abs(c - p) / max(1.0, abs(c)) for c, p in zip(current, previous)
            )
            if diff <= 1e-9:
                vals = [v.real for v in current]
                vals[0] = 1.0 if abs(vals[0] - 1.0) <= 1e-8 else vals[0]
                return MomentSequence(tuple(vals))
        previous = current
        rho *= 2.0
    raise NumericalFailure(
        "contour moments did not stabilise under radius doubling; "
        "support may be unbounded or the branch structure degenerate"
    )
