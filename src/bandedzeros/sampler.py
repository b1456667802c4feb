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
and subdiagonal sqrt(Gamma(k) / N), k = N - 1, ..., 1.

A source diagonal A breaks the unitary invariance these models rest on
only between its eigenspaces.  The sampler sorts the source stably, so
that atom d fills the rows [o_d, o_d + n_d) (a permutation similarity
changes no eigenvalue, so a sample depends only on the multiset of
source values).  A block-diagonal unitary V commutes with A, so
V* H V has the eigenvalues of H, and Householder steps inside each
block, which depend only on that block's own entries, leave:

- ``gue_source``: on each block the gue band model of size n_d (diagonal
  Normal(0, 1/N), off-diagonal sqrt(Gamma(k) / N), k = n_d - 1, ..., 1)
  plus a_d on the diagonal; the entries between blocks stay independent
  complex Gaussians of variance 1/N;
- ``wishart_cov``: H = K K* for the block lower-triangular N x N matrix
  K, row i scaled by sqrt(a_i / N).  Block d on the diagonal is the
  Golub-Kahan bidiagonal of an n_d x (M - o_d) Gaussian: diagonal
  sqrt(Gamma(M - o_d - i)), subdiagonal sqrt(Gamma(n_d - 1 - i)).  The
  blocks below the diagonal are standard complex Gaussians.  With every
  atom a single point, K is the Bartlett factor.

A sample so draws N^2 (1 - sum_d q_d^2) + N normals (gue_source) or
N^2 (1 - sum_d q_d^2) (wishart_cov), q_d = n_d / N, in place of N^2 or
2 N M: half and a quarter at two equal atoms and alpha = 0.  With a
single atom there are no couplings and the sample is a_d times, or plus
a_d, the band model.

Reproducibility contract (stream version 5): sample j draws from
Philox keyed by the two-word key (seed, j), that is ``seed + (j << 64)``
for a seed in [0, 2^64), so different seeds share no sample (Salmon et
al., SC11).  A batch builds one Philox and sets its state to that key,
with counter 0 and an empty buffer, for each sample: the state a new
generator starts in, at 1.6 us against 19 us for a new Philox on a
2-vCPU VM.  Version 1 keyed on ``seed XOR j``; version 2 turned
uniforms into normals by inverse CDF; version 3 drew dense gue/wishart;
version 4 drew dense gue_source/wishart_cov.  Within a sample the draws
come in this order, blocks in ascending source value:

- gue: N normals (the diagonal), then N - 1 gammas (the off-diagonal);
- wishart: N gammas (B's diagonal), then N - 1 gammas (its subdiagonal);
- gue_source: N normals (the diagonal), N - r gammas (each block's
  off-diagonal, block by block, for r atoms), then the couplings as
  (re, im) normal pairs, row by row: H[i, c] for each row i of a block
  and each column c after it;
- wishart_cov: N gammas (K's diagonal, shapes M - i), N - r gammas
  (the block subdiagonals), then the couplings as (re, im) normal
  pairs, row by row: K[i, c] for each row i of a block and each column
  c before it.

With one atom a gue_source sample reads the words of the gue sample of
the same key, and a wishart_cov sample those of the wishart one.
Version 5 changes the bytes of gue_source and wishart_cov ``sample``
artifacts; a gue or wishart artifact changes only its stream version.
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
once per batch (the draws, H, wishart_cov's couplings and at most two
powers), and a sample writes every entry it does not leave at 0, so
every sample has the bytes it has when drawn alone.  wishart_cov forms
K K* from K's parts: with D the bidiagonal and C the couplings, C C*
is one product over the rows after the first block and the columns
before the last, (N/2)^3 multiply-adds at two equal atoms against N^3
for K K*, and the rest is O(N^2).  A gue_source sample pays
ceil(L/2) - 1 N x N matrix products, and a wishart_cov sample also
C C*.  At N = 200, L = 4, two equal atoms, on the same VM
a gue_source sample takes 1.1-1.5 ms (0.4-0.5 ms of it the draw),
against 1.5-1.9 ms drawn dense, and a wishart_cov (alpha = 1) sample
1.4-1.8 ms (0.6-0.8 ms), against 4.6-5.2 ms; a dense eigvalsh alone
takes 3.9 ms.  ``sample_spectrum``, the eigenvalue route, hands a band
sample to scipy's symmetric tridiagonal eigensolver, imported on first
use, so it sees the same matrices from the same draws and builds no
N x N array.  The moment route loads no scipy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bandop import _powers
from .errors import ConfigError, as_index
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
# given (spec, seed) change.  Version 5 draws gue_source and wishart_cov
# from each atom's band model plus Gaussian couplings.
STREAM_VERSION = 5


def realize_diagonal(q, a, N: int) -> np.ndarray:
    """Length-N diagonal with each a_d repeated n_d^(N) times.

    Multiplicities follow ``MultiIndexPath(q)``, the path ``mop_scheme``
    builds from the same q, so sampled and operator-side ensembles
    describe the same source at every N.  Entries are grouped by
    component, in input order.
    """
    if len(q) != len(a):
        raise ConfigError("atoms: need one location per ratio")
    N = as_index("N", N, ConfigError)
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
        object.__setattr__(self, "N", as_index("N", self.N, ConfigError))
        if self.N < 1:
            raise ConfigError(f"need N >= 1, got {self.N}")
        if self.kind in ("gue", "gue_source") and self.alpha != 0:
            raise ConfigError(f"{self.kind} takes no alpha, got {self.alpha}")
        if self.kind in ("gue", "wishart") and self.source is not None:
            raise ConfigError(f"{self.kind} takes no source diagonal")
        if self.kind in ("wishart", "wishart_cov"):
            if not math.isfinite(self.alpha):
                raise ConfigError(f"alpha: need a finite value, got {self.alpha}")
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
            if not np.all(np.isfinite(src)):
                raise ConfigError(f"source: need finite values, got {src[~np.isfinite(src)][0]}")
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

    The sample is the atoms' band models plus Gaussian couplings, in the
    basis where the source values are sorted (stably), so that equal
    values form the blocks [o_d, o_(d+1)); the module docstring gives the
    model and its draw order.  The buffers, the gamma shapes and the
    positions of the in-block off-diagonal entries are made once.  Each
    call writes every entry that is not 0 in every sample, so it returns
    the bytes of the sample drawn alone.
    """
    N = spec.N
    values = np.sort(spec.source, kind="stable")
    offsets = np.concatenate(([0], np.flatnonzero(np.diff(values)) + 1, [N]))
    blocks = list(zip(offsets[:-1].tolist(), offsets[1:].tolist()))
    # gamma shapes n_d - 1, ..., 1 of the block off-diagonals, whose
    # entries pair k with k + 1
    off_shapes = np.concatenate([np.arange(e - o - 1, 0, -1, dtype=float) for o, e in blocks])
    inner = np.concatenate([np.arange(o, e - 1) for o, e in blocks])
    couplings = np.empty(N * N - sum((e - o) ** 2 for o, e in blocks))
    H = np.zeros((N, N), dtype=complex)
    flat = H.reshape(-1)
    on_diagonal, above, below = flat[:: N + 1], flat[1 :: N + 1], flat[N :: N + 1]
    if spec.kind == "gue_source":
        diagonal, off = np.empty(N), np.empty(off_shapes.size)
        # block d couples to every later column: H[o:e, e:] as (re, im)
        # draw pairs, row by row, and H[e:, o:e] its conjugate transpose
        pairs, slabs, start = couplings.view(complex), [], 0
        for o, e in blocks[:-1]:
            slabs.append((o, e, pairs[start : start + (e - o) * (N - e)].reshape(e - o, N - e)))
            start += (e - o) * (N - e)

        def draw(rng: np.random.Generator) -> np.ndarray:
            rng.standard_normal(out=diagonal)
            rng.standard_gamma(off_shapes, out=off)
            rng.standard_normal(out=couplings)
            np.divide(couplings, math.sqrt(2.0 * N), out=couplings)
            for o, e, slab in slabs:
                H[o:e, e:] = slab
                np.conjugate(slab.T, out=H[e:, o:e])
            np.divide(off, N, out=off)
            np.sqrt(off, out=off)
            above[inner] = off
            below[inner] = off
            np.divide(diagonal, math.sqrt(N), out=diagonal)
            np.add(diagonal, values, out=diagonal)
            on_diagonal[...] = diagonal
            return H

        return draw
    # H = K K* for the block lower-triangular K whose row i is scaled by
    # sqrt(a_i / N).  K = D + C: D is lower bidiagonal, each block's
    # bidiagonal factor with 0 between blocks, and C couples each block d
    # to every earlier column, C[o:e, :o] = (g' + i g'') / sqrt(2).  C's
    # rows start at the second block and its columns end at the last one,
    # so H = D D^T + X + X* + C C* with X = C D^T takes one
    # (N - first) x last product and O(N^2) arithmetic.
    first, last = offsets[1], offsets[-2]
    C = np.zeros((N - first, last), dtype=complex)
    C_conj, X = np.empty_like(C), np.empty_like(C)
    C_parts = C.view(float)
    # one gamma draw: K's diagonal, sqrt(Gamma(M - i)), then the block
    # subdiagonals, each entry times its row's scale
    shapes = np.concatenate((spec.columns - np.arange(N, dtype=float), off_shapes))
    gammas = np.empty(shapes.size)
    delta, off = gammas[:N], gammas[N:]
    row_scale = np.sqrt(values / N)
    gamma_scale = np.concatenate((row_scale, row_scale[inner + 1]))
    sigma, squares, products = np.zeros(N - 1), np.empty(N), np.empty(N - 1)
    coupling_scale = np.sqrt(values / (2.0 * N))[:, None]
    slabs, start = [], 0
    for o, e in blocks[1:]:
        slab = couplings[start : start + 2 * (e - o) * o].reshape(e - o, 2 * o)
        slabs.append((slab, coupling_scale[o:e], C_parts[o - first : e - first, : 2 * o]))
        start += slab.size

    def draw(rng: np.random.Generator) -> np.ndarray:
        rng.standard_gamma(shapes, out=gammas)
        rng.standard_normal(out=couplings)
        np.sqrt(gammas, out=gammas)
        np.multiply(gammas, gamma_scale, out=gammas)
        sigma[inner] = off
        if first < N:
            for slab, scale, target in slabs:
                np.multiply(slab, scale, out=target)
            # column j of D^T holds delta_j in row j and sigma_(j - 1) in row j - 1
            np.multiply(C, delta[:last], out=X)
            X[:, 1:] += C[:, :-1] * sigma[: last - 1]
            np.conjugate(C, out=C_conj)
            np.matmul(C, C_conj.T, out=H[first:, first:])
            H[first:, :first] = X[:, :first]
            np.conjugate(X[:, :first].T, out=H[:first, first:])
            H[first:, first:last] += X[:, first:]
            H[first:last, first:] += X[:, first:].conj().T
        # D D^T is tridiagonal: it is all of the first block and adds to the rest
        np.multiply(delta, delta, out=squares)
        squares[1:] += sigma * sigma
        np.multiply(delta[:-1], sigma, out=products)
        on_diagonal[:first] = squares[:first]
        on_diagonal[first:] += squares[first:]
        for band in (above, below):
            band[: first - 1] = products[: first - 1]
            band[first - 1 :] += products[first - 1 :]
        return H

    return draw


def sample_spectrum(spec: MatrixModelSpec, seed: int) -> SpectralMeasure:
    """Eigenvalues of sample 0 of the stream for ``seed`` (sorted
    ascending); a gue or wishart sample is solved from its band."""
    rngs = _generators(as_index("seed", seed, ConfigError))
    if spec.kind in _BAND_KINDS:
        vals = _tridiagonal_eigvals(_sample_bands(spec, rngs, 1)[0])
    else:
        vals = np.linalg.eigvalsh(_dense_sampler(spec)(next(rngs)))
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
    L, samples = as_index("L", L, ConfigError), as_index("samples", samples, ConfigError)
    seed = as_index("seed", seed, ConfigError)
    if L < 0:
        raise ConfigError("need L >= 0")
    if samples < 1:
        raise ConfigError("need at least 1 sample")
    rngs = _generators(seed)
    table = np.empty((samples, L + 1))
    if spec.kind in _BAND_KINDS:
        # the widest band array is the stack of bands itself (3 rows) up to
        # L = 2, and past that the pad ``_powers`` builds for the highest
        # power read: its 2 top - 1 rows plus 2 above and 2 below, N + 2 columns
        top = (L + 1) // 2
        rows = 2 * top + 3 if top > 1 else 3
        block = max(1, _BLOCK_DOUBLES // (rows * (spec.N + 2)))
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
    samples = as_index("samples", samples, ConfigError)
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
