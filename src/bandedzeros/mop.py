"""Multi-index recurrence families on a ratio-faithful index path.

A family indexed by n in N^r is flattened along a path n^(0) = 0,
n^(k+1) = n^(k) + e_{i_k} whose coordinate ratios track a prescribed
vector q.  Along the path the nearest-neighbour recurrence

    x P_n = P_{n + e_d} + diag_n[d] P_n + sum_j down_n[j] P_{n - e_j}

telescopes into a banded expansion of x P_{n^(k)} over the path
polynomials: one superdiagonal (monic normalisation), the diagonal
coefficient of the step direction, and a lower band of width R obtained
by cascading the index-exchange relation

    P_{n + e_i} - P_{n + e_j} = (diag_n[j] - diag_n[i]) P_n.

R is at most ceil(1 / min_d q_d); the construction asserts (rather than
assumes) that every coordinate is stepped at least once in any R
consecutive path steps, which is what makes the cascade terminate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, SchemeError
from .recurrence import RecurrenceScheme

__all__ = [
    "MultiIndexPath",
    "NNCoefficients",
    "path_from_ratios",
    "nn_coeffs_hermite",
    "nn_coeffs_laguerre",
    "hermite_coeff_fn",
    "laguerre_coeff_fn",
    "banded_entries",
    "mop_scheme",
    "mop_scheme_from_config",
]


@dataclass(frozen=True)
class NNCoefficients:
    """Nearest-neighbour coefficients at one index.

    ``diag[d]`` multiplies P_n in x P_n = P_{n+e_d} + diag[d] P_n + ...;
    ``down[j]`` multiplies P_{n - e_j} (taken as 0 when n_j = 0).
    """

    diag: tuple
    down: tuple


class MultiIndexPath:
    """Greedy ratio-faithful path through N^r.

    Step k increments the coordinate with the largest running deficit
    q_d * (k + 1) - n_d, ties broken by lowest index.  Prefixes are
    materialised lazily; the refresh property (every coordinate stepped
    within any window of R steps, R = ceil(1 / min q)) is asserted for
    every materialised step.
    """

    def __init__(self, ratios, steps=None):
        ratios = tuple(ratios)
        if not ratios:
            raise SchemeError("need at least one ratio")
        if any(q <= 0 for q in ratios):
            raise SchemeError(f"ratios must be positive, got {ratios}")
        if abs(float(sum(ratios)) - 1.0) > 1e-9:
            raise SchemeError(f"ratios must sum to 1, got {ratios}")
        self.ratios = ratios
        self.r = len(ratios)
        self.R = math.ceil(1.0 / float(min(ratios)) - 1e-9)
        self._steps = []  # i_k for materialised k
        self._prefixes = [(0,) * self.r]  # n^(k) for k <= len(_steps)
        self._last_step = [-1] * self.r
        self._fixed_steps = list(steps) if steps is not None else None
        if self._fixed_steps is not None:
            for i in self._fixed_steps:
                if not 0 <= i < self.r:
                    raise SchemeError(f"step direction {i} out of range")

    def _advance(self):
        k = len(self._steps)
        n = list(self._prefixes[k])
        if self._fixed_steps is not None:
            if k >= len(self._fixed_steps):
                raise SchemeError(f"fixed path exhausted at step {k}")
            d = self._fixed_steps[k]
        else:
            deficits = [self.ratios[j] * (k + 1) - n[j] for j in range(self.r)]
            d = max(range(self.r), key=lambda j: (deficits[j], -j))
        self._steps.append(d)
        n[d] += 1
        self._prefixes.append(tuple(n))
        self._last_step[d] = k
        for j in range(self.r):
            if k - self._last_step[j] >= self.R:
                raise SchemeError(
                    f"coordinate {j} not stepped within {self.R} steps at k={k}; "
                    f"path does not track ratios {self.ratios}"
                )

    def _ensure(self, upto: int):
        while len(self._steps) < upto:
            self._advance()

    def index(self, N: int):
        """n^(N), the multi-index after N steps (sum of coordinates N)."""
        if N < 0:
            raise SchemeError("need N >= 0")
        self._ensure(N)
        return self._prefixes[N]

    def step(self, k: int) -> int:
        """Direction i_k of the step from n^(k) to n^(k+1)."""
        if k < 0:
            raise SchemeError("need k >= 0")
        self._ensure(k + 1)
        return self._steps[k]


def path_from_ratios(ratios, n_max: int = 0) -> MultiIndexPath:
    """Greedy path for the given ratios, materialised up to n_max."""
    path = MultiIndexPath(ratios)
    path._ensure(n_max)
    return path


def nn_coeffs_hermite(n, N: int, a_vec) -> NNCoefficients:
    """Gaussian-weight coefficients: diag[d] = a_d, down[d] = n_d / N.

    Exact when a_vec entries are Fractions or integers.
    """
    n = tuple(n)
    a_vec = tuple(a_vec)
    if len(n) != len(a_vec):
        raise SchemeError("index and location dimensions differ")
    diag = a_vec
    one = Fraction(1) if all(isinstance(a, (int, Fraction)) for a in a_vec) else 1.0
    # n_d = 0 contributes nothing, and skipping the division keeps the
    # degenerate N = 0 corner well defined
    down = tuple(one * nd / N if nd else one * 0 for nd in n)
    return NNCoefficients(diag=diag, down=down)


def nn_coeffs_laguerre(n, N: int, alpha, a_vec) -> NNCoefficients:
    """Laguerre-weight coefficients for x^(N alpha) exp(-N a_d x).

    diag[d] = (|n| + N alpha + 1) / (N a_d) + sum_j n_j / (N a_j)
    down[d] = n_d (|n| + N alpha) / (N a_d)^2

    The down coefficient carries the squared scale (N a_d)^2, as the
    r = 1 reduction to the classical recurrence requires.  Exact when
    alpha and a_vec are Fractions or integers.
    """
    n = tuple(n)
    a_vec = tuple(a_vec)
    if len(n) != len(a_vec):
        raise SchemeError("index and location dimensions differ")
    if isinstance(alpha, (int, Fraction)) and all(
        isinstance(a, (int, Fraction)) for a in a_vec
    ):
        alpha = Fraction(alpha)
        a_vec = tuple(Fraction(a) for a in a_vec)
    size = sum(n)
    shared = sum(nj / (N * aj) for nj, aj in zip(n, a_vec))
    diag = tuple((size + N * alpha + 1) / (N * ad) + shared for ad in a_vec)
    down = tuple(
        nd * (size + N * alpha) / (N * ad) ** 2 if nd else 0 * ad
        for nd, ad in zip(n, a_vec)
    )
    return NNCoefficients(diag=diag, down=down)


def hermite_coeff_fn(a_vec):
    return lambda n, N: nn_coeffs_hermite(n, N, a_vec)


def laguerre_coeff_fn(alpha, a_vec):
    return lambda n, N: nn_coeffs_laguerre(n, N, alpha, a_vec)


def banded_entries(path: MultiIndexPath, coeff_fn, k: int, N: int):
    """Expansion of x P_{n^(k)} over the path polynomials.

    Returns a list of (m, value) pairs for m from k+1 down to
    max(0, k - R), in that order.  coeff_fn(n, N) -> NNCoefficients.

    Cascade: the coefficient at P_{n^(m)} for m <= k-2 is
    sum_d down[d] * prod_{l=m+1}^{k-1} c_l^(d) with
    c_l^(d) = diag_{n^(l)-e_d}[d] - diag_{n^(l)-e_d}[i_l]; the factor
    for l with i_l = d vanishes, which terminates every cascade within
    R steps.
    """
    n_k = path.index(k)
    i_k = path.step(k)
    coeffs_k = coeff_fn(n_k, N)
    entries = [(k + 1, 1), (k, coeffs_k.diag[i_k])]
    if k == 0:
        return entries
    r = path.r
    lowest = max(0, k - path.R)
    # running cascade products per direction
    prods = {}
    for d in range(r):
        if n_k[d] >= 1:
            prods[d] = coeffs_k.down[d]
    values = {}
    for m in range(k - 1, lowest - 1, -1):
        if not prods:
            break
        values[m] = sum(prods.values())
        if m == lowest:
            break
        # extend every cascade through level m
        n_m = list(path.index(m))
        i_m = path.step(m)
        dead = []
        for d in prods:
            if i_m == d or n_m[d] == 0:
                # exchange factor vanishes (or the shifted index would
                # leave the lattice, in which case a vanishing factor
                # at the step of d's last increment has already killed
                # the true cascade)
                dead.append(d)
                continue
            n_m[d] -= 1
            shifted = coeff_fn(tuple(n_m), N)
            n_m[d] += 1
            factor = shifted.diag[d] - shifted.diag[i_m]
            if factor == 0:
                dead.append(d)
            else:
                prods[d] = prods[d] * factor
        for d in dead:
            prods.pop(d)
    for m in range(k - 1, lowest - 1, -1):
        if m in values:
            entries.append((m, values[m]))
        else:
            entries.append((m, 0))
    return entries


def _validate_locations(kind: str, a, q):
    a = tuple(float(x) for x in a)
    q = tuple(float(x) for x in q)
    if len(a) != len(q):
        raise SchemeError(f"{kind}: need as many locations as ratios")
    if len(set(a)) != len(a):
        raise SchemeError(f"{kind}: locations must be distinct, got {a}")
    return a, q


def mop_scheme(
    kind: str, a, q, alpha=None, path: MultiIndexPath = None
) -> RecurrenceScheme:
    """Banded scheme for a multi-index family flattened along a path.

    Parameters
    ----------
    kind : {"multiple-hermite", "multiple-laguerre"}
    a : locations (Gaussian means, or inverse scales of the exponential
        weights); pairwise distinct.
    q : coordinate ratios, positive, summing to 1.
    alpha : exponent parameter, multiple-laguerre only (>= 0).
    path : MultiIndexPath, optional
        Defaults to the greedy path for ``q``.
    """
    a, q = _validate_locations(kind, a, q)
    if kind == "multiple-hermite":
        if alpha is not None:
            raise SchemeError("multiple-hermite takes no alpha")
        coeff_fn = hermite_coeff_fn(a)
        params = {"a": a, "q": q}
    elif kind == "multiple-laguerre":
        if alpha is None:
            alpha = 0.0
        alpha = float(alpha)
        if alpha < 0:
            raise SchemeError(f"multiple-laguerre needs alpha >= 0, got {alpha}")
        if any(x <= 0 for x in a):
            raise SchemeError(f"multiple-laguerre locations must be positive, got {a}")
        coeff_fn = laguerre_coeff_fn(alpha, a)
        params = {"a": a, "q": q, "alpha": alpha}
    else:
        raise SchemeError(f"unknown multi-index kind {kind!r}")
    if path is None:
        path = MultiIndexPath(q)
    elif path.r != len(q):
        raise SchemeError("path dimension does not match ratios")
    columns = {}  # (k, N) -> column k of the band, kept across calls

    def band_fn(N, start, stop):
        band = np.zeros((path.R + 2, stop - start))
        for k in range(start, stop):
            if (k, N) not in columns:
                columns[k, N] = col = np.zeros(path.R + 2)
                for m, v in banded_entries(path, coeff_fn, k, N):
                    col[path.R + m - k] = float(v)
            band[:, k - start] = columns[k, N]
        return band

    return RecurrenceScheme(
        name=kind,
        params=params,
        down_band=path.R,
        up_band=1,
        band_fn=band_fn,
        symmetric=False,
    )


def mop_scheme_from_config(config: dict) -> RecurrenceScheme:
    """Build a multi-index scheme from
    {"kind": ..., "a": [...], "q": [...], "alpha": ..., "N": ...};
    the optional "N" sizing key is accepted and ignored here."""
    if not isinstance(config, dict):
        raise ConfigError("scheme config must be an object")
    unknown = set(config) - {"kind", "a", "q", "alpha", "N"}
    if unknown:
        raise ConfigError(f"unknown multi-index config keys: {sorted(unknown)}")
    for key in ("kind", "a", "q"):
        if key not in config:
            raise ConfigError(f"multi-index config needs {key!r}")
    try:
        return mop_scheme(
            config["kind"], config["a"], config["q"], alpha=config.get("alpha")
        )
    except SchemeError:
        raise
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
