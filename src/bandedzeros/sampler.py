"""Monte-Carlo matrix models and empirical-moment statistics.

Four models are sampled:

- ``gue``: Hermitian with diagonal entries Normal(0, 1/N) and
  independent off-diagonal real/imaginary parts Normal(0, 1/(2N));
- ``wishart``: (1/N) G G* with G of shape N x (N + N alpha) filled
  with standard complex Gaussians (N alpha must be an integer);
- ``gue_source``: a gue sample plus a fixed diagonal whose entries
  repeat each location a_d with the path multiplicity n_d;
- ``wishart_cov``: A^(1/2) W A^(1/2) for a wishart sample W and the
  same diagonal A (entrywise square root, so all a_d must be > 0).

Reproducibility contract (stream version 3): sample j draws from
Philox keyed by the two-word key (seed, j), that is ``seed + (j << 64)``
for a seed in [0, 2^64), so different seeds share no sample (Salmon et
al., SC11).  Version 1 keyed on ``seed XOR j``; version 2 turned
uniforms into normals by inverse CDF.  The normals come from numpy's
ziggurat sampler (``Generator.standard_normal``), whose rejections make
the number of 64-bit words a sample consumes vary from sample to
sample.  Independence does not rest on that count: every sample starts
its own key, so no sample reads another's words, and identical (spec,
L, samples, seed) inputs give bit-identical results.  numpy does not
promise stable distribution streams across releases (NEP 19), so
``tests/test_sampler.py`` pins the bytes of a few samples; a release
that changes them calls for a new stream version.  Accumulation across
samples uses numpy pairwise summation over a fixed-shape array, which
is likewise deterministic.

Empirical moments are traces, (1/N) sum_i x_i^ell = (1/N) Tr H^ell, read
from Frobenius products of the powers H^k with k <= ceil(L/2), so a
sample costs ceil(L/2) - 1 matrix products and no eigensolve.  At
N = 200 on a 2-vCPU VM that is 0.6 ms at L = 4 against 4.2 ms for a
dense eigvalsh, and 4.9 ms against 4.2 ms at L = 16: eigenvalues are
cheaper only from L near 14.  Reading traces consumes no draws, so
``sample_spectrum``, the eigenvalue route, sees the same matrices.
The sampler loads no scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .measures import MomentSequence
from .mop import MultiIndexPath
from .zeros import SpectralMeasure

__all__ = [
    "MatrixModelSpec",
    "EmpiricalBatch",
    "realize_diagonal",
    "sample_spectrum",
    "empirical_batch",
    "mc_moments",
]

_KINDS = ("gue", "wishart", "gue_source", "wishart_cov")

# written into the ``sample`` artifact; changes whenever the draws for a
# given (spec, seed) change
STREAM_VERSION = 3


def realize_diagonal(q, a, N: int) -> np.ndarray:
    """Length-N diagonal with each a_d repeated n_d^(N) times.

    Multiplicities follow ``MultiIndexPath(q)``, the path ``mop_scheme``
    builds from the same q, so sampled and operator-side ensembles
    describe the same source at every N.  Entries are grouped by
    component, in input order.
    """
    if len(q) != len(a):
        raise ConfigError("atoms: need one location per ratio")
    path = MultiIndexPath(tuple(q))
    counts = path.index(N)
    out = np.concatenate([np.full(n_d, float(a_d)) for n_d, a_d in zip(counts, a)])
    return out


@dataclass(frozen=True)
class MatrixModelSpec:
    """What to sample: model kind, size, and model parameters."""

    kind: str
    N: int
    alpha: float = 0.0
    source: np.ndarray = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}; expected {_KINDS}")
        if self.N < 1:
            raise ConfigError(f"need N >= 1, got {self.N}")
        if self.kind in ("gue", "gue_source") and self.alpha != 0:
            raise ConfigError(f"{self.kind} takes no alpha, got {self.alpha}")
        if self.kind in ("gue", "wishart") and self.source is not None:
            raise ConfigError(f"{self.kind} takes no source diagonal")
        if self.kind in ("wishart", "wishart_cov"):
            if self.alpha < 0:
                raise ConfigError(f"need alpha >= 0, got {self.alpha}")
            m = self.N * self.alpha
            if abs(m - round(m)) > 1e-9:
                raise ConfigError(
                    f"N*alpha must be an integer to sample (N={self.N}, "
                    f"alpha={self.alpha} gives {m})"
                )
        if self.kind in ("gue_source", "wishart_cov"):
            if self.source is None:
                raise ConfigError(f"{self.kind} needs a source diagonal")
            src = np.asarray(self.source, dtype=float)
            if src.shape != (self.N,):
                raise ConfigError(
                    f"source diagonal must have length N={self.N}, got {src.shape}"
                )
            if self.kind == "wishart_cov" and np.any(src <= 0):
                raise ConfigError("wishart_cov needs a positive source diagonal")
            object.__setattr__(self, "source", src)

    @property
    def columns(self) -> int:
        """Second dimension of the Gaussian factor for wishart kinds."""
        return self.N + int(round(self.N * self.alpha))


def _gaussians(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` standard normals from numpy's ziggurat sampler.

    The number of words drawn varies with the sampler's rejections;
    callers give each sample its own generator, so nothing depends on it.
    """
    return rng.standard_normal(count)


@functools.lru_cache(maxsize=8)
def _upper(N: int) -> tuple:
    """Strict-upper index pair of an N x N matrix, shared by all samples.

    The pair takes about 8 N^2 bytes, half a complex N x N sample, so
    only a few sizes are kept.
    """
    iu = np.triu_indices(N, k=1)
    for index in iu:
        index.setflags(write=False)
    return iu


def _sample_matrix(spec: MatrixModelSpec, seed: int, j: int = 0) -> np.ndarray:
    """Sample j of the stream for ``seed``."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be in [0, 2**64), got {seed}")
    rng = np.random.Generator(np.random.Philox(key=seed + (j << 64)))
    N = spec.N
    if spec.kind in ("gue", "gue_source"):
        g = _gaussians(rng, N * N)
        off = (g[N:] / math.sqrt(2.0 * N)).view(complex)
        upper = _upper(N)
        H = np.zeros((N, N), dtype=complex)
        H[upper] = off
        H[upper[::-1]] = off.conj()
        diag = g[:N] / math.sqrt(N)
        if spec.kind == "gue_source":
            diag += spec.source
        H[np.diag_indices(N)] = diag
        return H
    # W = (1/N) G G* with G = (g' + i g'') / sqrt(2); wishart_cov's
    # A^(1/2) W A^(1/2) scales row i of G by sqrt(a_i) instead
    scale = 1.0 / math.sqrt(2.0 * N)
    if spec.kind == "wishart_cov":
        scale = np.sqrt(spec.source)[:, None] * scale
    G = (_gaussians(rng, 2 * N * spec.columns).reshape(N, -1) * scale).view(complex)
    return G @ G.conj().T


def sample_spectrum(spec: MatrixModelSpec, seed: int) -> SpectralMeasure:
    """Eigenvalues of one sampled matrix (sorted ascending)."""
    H = _sample_matrix(spec, int(seed))
    vals = np.linalg.eigvalsh(H)
    return SpectralMeasure(points=vals.astype(complex))


@dataclass(frozen=True)
class EmpiricalBatch:
    """Per-sample empirical moments: row j holds (1/N) sum_i x_i^ell
    for ell = 0..L of sample j, drawn with the Philox key (seed, j)."""

    seed: int
    samples: int
    table: np.ndarray

    @property
    def L(self) -> int:
        return self.table.shape[1] - 1


def _trace_moments(H: np.ndarray, L: int) -> np.ndarray:
    """(1/N) Tr H^ell for ell = 0..L of a Hermitian N x N matrix H.

    P = H^k is Hermitian, so Tr H^(2k) = ||P||_F^2 and
    Tr H^(2k+1) = <P, P H> (np.vdot conjugates its first argument):
    moment ell reads the powers up to ceil(ell/2), whatever L is.
    """
    N = H.shape[0]
    moments = np.ones(L + 1)
    if L >= 1:
        moments[1] = np.trace(H).real / N
    P = H
    for ell in range(2, L + 1):
        if ell % 2:
            Q = P @ H
            moments[ell] = np.vdot(P, Q).real / N
            P = Q
        else:
            moments[ell] = np.vdot(P, P).real / N
    return moments


def empirical_batch(spec: MatrixModelSpec, L: int, samples: int, seed: int) -> EmpiricalBatch:
    """Draw ``samples`` independent matrices and tabulate their moments."""
    if L < 0:
        raise ConfigError("need L >= 0")
    if samples < 1:
        raise ConfigError("need at least 1 sample")
    seed = int(seed)
    table = np.empty((samples, L + 1))
    for j in range(samples):
        table[j] = _trace_moments(_sample_matrix(spec, seed, j), L)
    table.setflags(write=False)
    return EmpiricalBatch(seed=seed, samples=samples, table=table)


def mc_moments(spec: MatrixModelSpec, L: int, samples: int, seed: int):
    """Empirical-moment statistics over independent samples.

    Sample j uses the Philox key (seed, j).  Returns
    (mean: MomentSequence, variance per ell, standard error per ell),
    with variance the unbiased per-ell sample variance of
    (1/N) sum_i x_i^ell and the standard error of its mean.
    """
    if samples < 2:
        raise ConfigError("need at least 2 samples")
    batch = empirical_batch(spec, L, samples, seed)
    mean = batch.table.mean(axis=0)
    var = batch.table.var(axis=0, ddof=1)
    se = np.sqrt(var / samples)
    return MomentSequence(tuple(mean)), var.tolist(), se.tolist()
