"""Monte-Carlo matrix models and empirical-moment statistics.

Four models are sampled:

- ``gue``: Hermitian with diagonal entries Normal(0, 1/N) and
  independent off-diagonal real/imaginary parts Normal(0, 1/(2N));
- ``wishart``: (1/N) G G* with G of shape N x M, M = N + N alpha,
  filled with standard complex Gaussians (N alpha must be an integer);
- ``gue_source``: a gue sample plus a fixed diagonal whose entries
  repeat each location a_d with the path multiplicity n_d;
- ``wishart_cov``: A^(1/2) W A^(1/2) for a wishart sample W and the
  same diagonal A (entrywise square root, so all a_d must be > 0).

gue and wishart are drawn from their beta = 2 band models (Dumitriu and
Edelman, J. Math. Phys. 43, 2002), which have the eigenvalue law of the
dense models from 2N - 1 draws in place of N^2 or 2 N M.  The gue model
is tridiagonal with diagonal Normal(0, 1/N) and off-diagonal entries
sqrt(Gamma(k) / N) for k = N - 1, ..., 1, Gamma(k) the standard gamma
variate of shape k.  The wishart model is B B^T for the lower
bidiagonal B with diagonal sqrt(Gamma(M - i) / N), i = 0, ..., N - 1,
and subdiagonal sqrt(Gamma(k) / N), k = N - 1, ..., 1.  A source
diagonal breaks the unitary invariance these models rest on, so
gue_source and wishart_cov are drawn dense.

Reproducibility contract (stream version 4): sample j draws from
Philox keyed by the two-word key (seed, j), that is ``seed + (j << 64)``
for a seed in [0, 2^64), so different seeds share no sample (Salmon et
al., SC11).  A batch builds one Philox and sets its state to that key,
with counter 0 and an empty buffer, for each sample: the state a new
generator starts in, at 1.6 us against 19 us for a new Philox on a
2-vCPU VM.  Version 1 keyed on ``seed XOR j``; version 2 turned
uniforms into normals by inverse CDF; version 3 drew dense gue/wishart.
The normals and gammas come from numpy's samplers
(``Generator.standard_normal``, a ziggurat, and
``Generator.standard_gamma``), whose rejections make the number of
64-bit words a sample consumes vary from sample to sample.
Independence does not rest on that count: every sample starts its own
key, so no sample reads another's words, and identical (spec, L,
samples, seed) inputs give bit-identical results.  numpy does not
promise stable distribution streams across releases (NEP 19), so
``tests/test_sampler.py`` pins the bytes of a few samples of each
stream; a release that changes them calls for a new stream version.
Accumulation across samples uses numpy pairwise summation over a
fixed-shape array, which is likewise deterministic.

Empirical moments are traces, (1/N) sum_i x_i^ell = (1/N) Tr H^ell, read
from Frobenius products of the powers H^k with k <= ceil(L/2), so no
sample needs an eigensolve.  The band models take their powers from
``bandop``'s band products over a block of samples at once (each band
array of a block holds at most 2^16 doubles), so a sample costs 2N - 1
draws and O(N L^2) arithmetic and never forms an N x N array.  At
N = 50, L = 2 on a 2-vCPU VM a gue sample takes 11 us against 54 us
dense, a wishart (alpha = 1) sample 17 us against 260 us; at N = 1e5,
100 gue samples at L = 4 take 2.0 s and 51 MB of peak memory, where one
dense complex sample would need 160 GB.  A batch of gue_source or
wishart_cov samples draws each one into the same buffers, allocated
once per batch (the draws, H, wishart_cov's conjugate factor and at
most two powers), with the arithmetic of a sample built from fresh
arrays, so every sample has the bytes it has when drawn alone.  A
gue_source sample pays ceil(L/2) - 1 N x N matrix products and a
wishart_cov sample one more, for G G*.  At N = 200 on the same VM a
product takes 0.55 ms (G G* 1.2 ms at alpha = 1) and the normals of a
sample 0.58 ms (gue_source) or 2.3 ms (wishart_cov, alpha = 1), so a
sample at L = 4 takes 1.3 or 4.5 ms, against 3.9 ms for a dense
eigvalsh alone; eigenvalues are cheaper only from L near 16.
``sample_spectrum``, the eigenvalue route, hands a band sample to
scipy's symmetric tridiagonal eigensolver, imported on first use, so it
sees the same matrices from the same draws and builds no N x N array.
The moment route loads no scipy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bandop import _powers
from .errors import ConfigError
from .measures import MomentSequence
from .mop import MultiIndexPath
from .zeros import SpectralMeasure, _tridiagonal_eigvals

__all__ = [
    "MatrixModelSpec",
    "EmpiricalBatch",
    "realize_diagonal",
    "sample_spectrum",
    "empirical_batch",
    "mc_moments",
]

_KINDS = ("gue", "wishart", "gue_source", "wishart_cov")
_BAND_KINDS = ("gue", "wishart")

# a block of band samples keeps each of its band arrays within this many
# doubles (512 KiB), or holds a single sample
_BLOCK_DOUBLES = 2**16

# written into the ``sample`` artifact; changes whenever the draws for a
# given (spec, seed) change.  Version 4 draws gue and wishart from their
# band models.
STREAM_VERSION = 4


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


def _generators(seed: int, start: int = 0):
    """Generators of samples j = start, start + 1, ... of ``seed``.

    One Philox serves every sample: for sample j its state is set to the
    key (seed, j) with counter 0 and an empty buffer, the state a fresh
    ``Philox(key=seed + (j << 64))`` starts in, so sample j reads the same
    words as from a generator of its own.  Each generator yielded is the
    same object, valid until the next one is taken.
    """
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed: must be in [0, 2**64), got {seed}")
    bits = np.random.Philox(key=seed)
    state = bits.state
    rng = np.random.Generator(bits)
    for j in itertools.count(start):
        state["state"]["key"][1] = j
        bits.state = state
        yield rng


def _sample_bands(spec: MatrixModelSpec, rngs, count: int) -> np.ndarray:
    """Bands (count, 3, N) of ``count`` gue or wishart samples, one from
    each of the next ``count`` generators in ``rngs``, in the
    ``RecurrenceScheme.band`` layout with down_band 1: row 0 holds
    H[k - 1, k], row 1 H[k, k] and row 2 H[k + 1, k] in column k."""
    N = spec.N
    off_shapes = np.arange(N - 1, 0, -1, dtype=float)
    first = np.empty((count, N))
    second = np.empty((count, N - 1))
    if spec.kind == "gue":
        for b, rng in zip(range(count), rngs):
            first[b] = rng.standard_normal(N)
            second[b] = rng.standard_gamma(off_shapes)
        diagonal = first / math.sqrt(N)
        off = np.sqrt(second / N)
    else:
        diagonal_shapes = spec.columns - np.arange(N, dtype=float)
        for b, rng in zip(range(count), rngs):
            first[b] = rng.standard_gamma(diagonal_shapes)
            second[b] = rng.standard_gamma(off_shapes)
        # B B^T for B with diagonal sqrt(first / N), subdiagonal sqrt(second / N)
        diagonal = first / N
        diagonal[:, 1:] += second / N
        off = np.sqrt(first[:, :-1] * second) / N
    bands = np.zeros((count, 3, N))
    bands[:, 0, 1:] = off
    bands[:, 1] = diagonal
    bands[:, 2, :-1] = off
    return bands


def _dense_sampler(spec: MatrixModelSpec):
    """A function rng -> H that draws a gue_source or wishart_cov sample
    from ``rng`` into one N x N buffer, overwritten by the next call.

    The buffers, and gue_source's flat indices of the strict upper and
    lower triangles, are allocated once; each call draws into them with
    the divisions, multiplications and products of a sample built from
    fresh arrays, so it returns the same bytes.
    """
    N = spec.N
    H = np.empty((N, N), dtype=complex)
    if spec.kind == "gue_source":
        diagonal = np.empty(N)
        # the strict upper triangle, row by row, as (re, im) draw pairs
        off = np.empty(N * (N - 1) // 2, dtype=complex)
        off_parts = off.view(float)
        rows, cols = np.triu_indices(N, k=1)
        upper = rows * N + cols
        lower = cols * N + rows
        flat = H.reshape(-1)
        on_diagonal = flat[:: N + 1]

        def draw(rng: np.random.Generator) -> np.ndarray:
            rng.standard_normal(out=diagonal)
            rng.standard_normal(out=off_parts)
            np.divide(off_parts, math.sqrt(2.0 * N), out=off_parts)
            flat[upper] = off
            np.conjugate(off, out=off)
            flat[lower] = off
            np.divide(diagonal, math.sqrt(N), out=diagonal)
            np.add(diagonal, spec.source, out=diagonal)
            on_diagonal[...] = diagonal
            return H

        return draw
    # A^(1/2) W A^(1/2) with W = (1/N) G G* and G = (g' + i g'') / sqrt(2)
    # scales row i of G by sqrt(a_i)
    draws = np.empty((N, 2 * spec.columns))
    scale = np.sqrt(spec.source)[:, None] / math.sqrt(2.0 * N)
    G = draws.view(complex)
    G_conj = np.empty_like(G)

    def draw(rng: np.random.Generator) -> np.ndarray:
        rng.standard_normal(out=draws)
        np.multiply(draws, scale, out=draws)
        np.conjugate(G, out=G_conj)
        np.matmul(G, G_conj.T, out=H)
        return H

    return draw


def _dense_sample(spec: MatrixModelSpec, rng: np.random.Generator) -> np.ndarray:
    """A gue_source or wishart_cov sample, drawn dense from ``rng``."""
    return _dense_sampler(spec)(rng)


def sample_spectrum(spec: MatrixModelSpec, seed: int) -> SpectralMeasure:
    """Eigenvalues of sample 0 of the stream for ``seed`` (sorted
    ascending); a gue or wishart sample is solved from its band."""
    rngs = _generators(int(seed))
    if spec.kind in _BAND_KINDS:
        vals = _tridiagonal_eigvals(_sample_bands(spec, rngs, 1)[0])
    else:
        vals = np.linalg.eigvalsh(_dense_sample(spec, next(rngs)))
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


def _product_buffers(N: int, L: int) -> list:
    """The N x N buffers ``_trace_moments`` needs for moments up to L:
    none to L = 2, one to L = 4 and two, used in turn, from L = 5."""
    return [np.empty((N, N), dtype=complex) for _ in range(min(2, max(0, (L - 1) // 2)))]


def _trace_moments(H: np.ndarray, L: int, products: list = None) -> np.ndarray:
    """(1/N) Tr H^ell for ell = 0..L of a Hermitian N x N matrix H.

    P = H^k is Hermitian, so Tr H^(2k) = ||P||_F^2 and
    Tr H^(2k+1) = <P, P H> (np.vdot conjugates its first argument):
    moment ell reads the powers up to ceil(ell/2), whatever L is.  The
    powers go to ``products`` from ``_product_buffers(N, L)``, or to
    fresh ones.
    """
    N = H.shape[0]
    if products is None:
        products = _product_buffers(N, L)
    moments = np.ones(L + 1)
    if L >= 1:
        moments[1] = np.trace(H).real / N
    P = H
    for ell in range(2, L + 1):
        if ell % 2:
            Q = np.matmul(P, H, out=products[(ell // 2 - 1) % 2])
            moments[ell] = np.vdot(P, Q).real / N
            P = Q
        else:
            moments[ell] = np.vdot(P, P).real / N
    return moments


def _band_moments(bands: np.ndarray, L: int) -> np.ndarray:
    """(1/N) Tr H^ell for ell = 0..L of each band in a stack from
    ``_sample_bands``.

    P = H^k is symmetric and its band holds each entry once, so
    Tr H^(2k) sums P^2 over the band and Tr H^(2k+1) sums P times the band
    of P H on the same entries: as in ``_trace_moments``, moment ell reads
    the powers up to ceil(ell/2), whatever L is.
    """
    count, _, N = bands.shape
    moments = np.ones((count, L + 1))
    if L >= 1:
        moments[:, 1] = bands[:, 1].sum(axis=1) / N
    previous = None
    for k, P in enumerate(_powers(bands, 1, (L + 1) // 2), 1):
        if previous is not None:
            moments[:, 2 * k - 1] = (previous * P[:, 1:-1]).reshape(count, -1).sum(axis=1) / N
        if 2 * k <= L:
            moments[:, 2 * k] = (P * P).reshape(count, -1).sum(axis=1) / N
        previous = P
    return moments


def empirical_batch(spec: MatrixModelSpec, L: int, samples: int, seed: int) -> EmpiricalBatch:
    """Draw ``samples`` independent matrices and tabulate their moments."""
    if L < 0:
        raise ConfigError("need L >= 0")
    if samples < 1:
        raise ConfigError("need at least 1 sample")
    seed = int(seed)
    rngs = _generators(seed)
    table = np.empty((samples, L + 1))
    if spec.kind in _BAND_KINDS:
        # the widest band array is the padded band of the highest power read
        top = max((L + 1) // 2, 1)
        block = max(1, _BLOCK_DOUBLES // ((2 * top + 1) * (spec.N + 2)))
        for start in range(0, samples, block):
            count = min(block, samples - start)
            table[start : start + count] = _band_moments(_sample_bands(spec, rngs, count), L)
    else:
        draw = _dense_sampler(spec)
        products = _product_buffers(spec.N, L)
        for j in range(samples):
            table[j] = _trace_moments(draw(next(rngs)), L, products)
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
        raise ConfigError(f"samples: need at least 2 samples, got {samples}")
    with np.errstate(over="ignore", invalid="ignore"):
        batch = empirical_batch(spec, L, samples, seed)
        mean = batch.table.mean(axis=0)
        var = batch.table.var(axis=0, ddof=1)
    outside = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(var)))
    if outside.size:
        raise OverflowError(f"Monte-Carlo moment of order {outside[0]}")
    se = np.sqrt(var / samples)
    return MomentSequence(tuple(mean)), var.tolist(), se.tolist()
