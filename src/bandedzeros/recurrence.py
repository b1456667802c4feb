"""Banded multiplication-operator recurrence data.

A scheme packages the expansion coefficients of x P_k over a family
(P_m): entry(m, k, N) is the coefficient of P_m in x P_k at truncation
parameter N.  Entries vanish outside the band k - down_band <= m <=
k + up_band.  The classical orthonormal families are tridiagonal
(down_band = up_band = 1, symmetric); multi-index families from
``mop.mop_scheme`` have one superdiagonal and a wider lower band.

Classical coefficients are evaluated at the rescaled index k/N, so one
scheme instance serves every N.  Each classical scheme also carries the
pointwise limits a(s), b(s) of its coefficients along k/N -> s, used to
build the limiting arcsine mixture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import ConfigError, SchemeError

__all__ = [
    "RecurrenceScheme",
    "CLASSICAL_ENSEMBLES",
    "classical_scheme",
    "scheme_from_config",
    "coeff",
    "coefficient_limits",
    "kva_functions",
]


@dataclass(frozen=True, eq=False)
class RecurrenceScheme:
    """Supplier of banded recurrence entries.

    Attributes
    ----------
    name : str
        Identifier ("gue", "wishart", ..., "multiple-hermite", ...).
    params : dict
        Scheme parameters, held constant across N.
    down_band : int
        Entries vanish below m = k - down_band.
    up_band : int
        Entries vanish above m = k + up_band (always >= 1; the
        coefficient at m = k + up_band is never zero).
    entry_fn : callable
        In-band evaluation, called as entry_fn(m, k, N).
    symmetric : bool
        True for orthonormal tridiagonal data (entry(m,k) == entry(k,m)).
    limit_a, limit_b : callable or None
        Coefficient limits along k/N -> s, when known.
    """

    name: str
    params: dict
    down_band: int
    up_band: int
    entry_fn: Callable[[int, int, int], float]
    symmetric: bool = False
    limit_a: Optional[Callable[[float], float]] = None
    limit_b: Optional[Callable[[float], float]] = None

    def entry(self, m: int, k: int, N: int) -> float:
        """Coefficient of P_m in x P_k at truncation parameter N."""
        if m < 0 or k < 0:
            raise SchemeError(f"indices must be nonnegative, got m={m}, k={k}")
        if N < 1:
            raise SchemeError(f"need N >= 1, got {N}")
        if m > k + self.up_band or m < k - self.down_band:
            return 0.0
        return float(self.entry_fn(m, k, N))


def _tridiagonal(name, params, a, b, limit_a, limit_b):
    """Orthonormal tridiagonal scheme from a(k, N) (k >= 1) and b(k, N)."""

    def entry_fn(m, k, N):
        if m == k:
            return b(k, N)
        if m == k + 1:
            return a(k + 1, N)
        # m == k - 1; a(k) with k >= 1 here since m >= 0
        return a(k, N)

    return RecurrenceScheme(
        name=name,
        params=params,
        down_band=1,
        up_band=1,
        entry_fn=entry_fn,
        symmetric=True,
        limit_a=limit_a,
        limit_b=limit_b,
    )


def _checked_sqrt(value, what, k):
    if value < 0:
        raise SchemeError(f"negative squared coefficient for {what} at k={k}: {value}")
    return math.sqrt(value)


def _gue():
    def a(k, N):
        return _checked_sqrt(k / N, "gue", k)

    def b(k, N):
        return 0.0

    return _tridiagonal("gue", {}, a, b, lambda s: math.sqrt(s), lambda s: 0.0)


def _wishart(alpha):
    if not alpha > -1:
        raise SchemeError(f"wishart needs alpha > -1, got {alpha}")
    al = float(alpha)

    def a(k, N):
        s = k / N
        return _checked_sqrt(s * (s + al), "wishart", k)

    def b(k, N):
        return (2 * k + 1) / N + al

    return _tridiagonal(
        "wishart",
        {"alpha": al},
        a,
        b,
        lambda s: math.sqrt(s * (s + al)),
        lambda s: 2 * s + al,
    )


def _jacobi(alpha, beta):
    if not (alpha > 0 and beta > 0):
        raise SchemeError(f"jacobi needs alpha, beta > 0, got ({alpha}, {beta})")
    al, be = float(alpha), float(beta)

    def a(k, N):
        s = k / N
        t = 2 * s + al + be
        num = 4 * s * (s + al) * (s + be) * (s + al + be)
        den = t * t * (t * t - 1.0 / (N * N))
        if den <= 0:
            raise SchemeError(f"degenerate jacobi denominator at k={k}, N={N}")
        return _checked_sqrt(num / den, "jacobi", k)

    def b(k, N):
        t0 = 2 * k / N + al + be
        t1 = 2 * (k + 1) / N + al + be
        return (be * be - al * al) / (t0 * t1)

    def la(s):
        t = 2 * s + al + be
        return 2 * math.sqrt(s * (s + al) * (s + be) * (s + al + be)) / (t * t)

    def lb(s):
        t = 2 * s + al + be
        return (be * be - al * al) / (t * t)

    return _tridiagonal("jacobi", {"alpha": al, "beta": be}, a, b, la, lb)


def _charlier(alpha):
    if not alpha > 0:
        raise SchemeError(f"charlier needs alpha > 0, got {alpha}")
    al = float(alpha)

    def a(k, N):
        return _checked_sqrt(al * k / N, "charlier", k)

    def b(k, N):
        return al + k / N

    return _tridiagonal(
        "charlier",
        {"alpha": al},
        a,
        b,
        lambda s: math.sqrt(al * s),
        lambda s: al + s,
    )


def _meixner(alpha, beta):
    if not (0 < alpha < 1):
        raise SchemeError(f"meixner needs 0 < alpha < 1, got {alpha}")
    if not beta > 0:
        raise SchemeError(f"meixner needs beta > 0, got {beta}")
    al, be = float(alpha), float(beta)

    def a(k, N):
        s = k / N
        return _checked_sqrt(s * (s + be - 1.0 / N), "meixner", k) / (1 - al)

    def b(k, N):
        s = k / N
        return (s + al * (s + be)) / (1 - al)

    return _tridiagonal(
        "meixner",
        {"alpha": al, "beta": be},
        a,
        b,
        lambda s: math.sqrt(s * (s + be)) / (1 - al),
        lambda s: (s + al * (s + be)) / (1 - al),
    )


CLASSICAL_ENSEMBLES = {
    "gue": (_gue, ()),
    "wishart": (_wishart, ("alpha",)),
    "jacobi": (_jacobi, ("alpha", "beta")),
    "charlier": (_charlier, ("alpha",)),
    "meixner": (_meixner, ("alpha", "beta")),
}


def classical_scheme(name: str, **params) -> RecurrenceScheme:
    """Build a classical orthonormal scheme by name.

    Names and parameters: gue (none), wishart (alpha > -1),
    jacobi (alpha, beta > 0), charlier (alpha > 0),
    meixner (0 < alpha < 1, beta > 0).
    """
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


def scheme_from_config(config: dict) -> RecurrenceScheme:
    """Build a classical scheme from {"ensemble": name, "params": {...}}."""
    if not isinstance(config, dict):
        raise ConfigError("scheme config must be an object")
    unknown = set(config) - {"ensemble", "params"}
    if unknown:
        raise ConfigError(f"unknown scheme config keys: {sorted(unknown)}")
    if "ensemble" not in config:
        raise ConfigError("scheme config needs an 'ensemble' key")
    params = config.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("'params' must be an object")
    try:
        return classical_scheme(config["ensemble"], **params)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def coeff(scheme: RecurrenceScheme, k: int, N: int):
    """Tridiagonal coefficients (a_k, b_k); a_0 is 0 by convention."""
    if scheme.down_band != 1 or scheme.up_band != 1 or not scheme.symmetric:
        raise SchemeError(f"scheme {scheme.name!r} is not orthonormal tridiagonal")
    if k < 0:
        raise SchemeError("k must be nonnegative")
    b_k = scheme.entry(k, k, N)
    a_k = 0.0 if k == 0 else scheme.entry(k - 1, k, N)
    return a_k, b_k


def coefficient_limits(scheme: RecurrenceScheme):
    """Limit functions (a(s), b(s)) of the coefficients along k/N -> s."""
    if scheme.limit_a is None or scheme.limit_b is None:
        raise SchemeError(f"no coefficient limits known for scheme {scheme.name!r}")
    return scheme.limit_a, scheme.limit_b


def kva_functions(name: str, **params):
    """Coefficient limit functions (a(s), b(s)) for a classical ensemble.

    These are the profiles that drive the limiting zero law (the
    arcsine mixture the ``kva`` CLI command tabulates).
    """
    return coefficient_limits(classical_scheme(name, **params))
