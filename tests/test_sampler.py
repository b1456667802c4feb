"""Monte-Carlo models against the deterministic trace identities.

The sampled ensembles admit exact finite-N targets through the banded
operators (same N, same source diagonal), so consistency checks compare
MC means to those targets within a standard-error budget rather than to
asymptotic limits.  Seeds are fixed: every assertion here is
deterministic, the tolerances are sized so a correct implementation
passes with overwhelming margin at the chosen seeds.
"""

import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from bandedzeros import (
    AtomicMeasure,
    ConfigError,
    EmpiricalBatch,
    MarchenkoPasturLaw,
    MatrixModelSpec,
    SemicircleLaw,
    classical_scheme,
    empirical_batch,
    free_add,
    free_mul,
    mc_moments,
    mean_moment,
    mop_scheme,
    realize_diagonal,
    sample_spectrum,
    variance_moment,
)
from bandedzeros import cli
from bandedzeros.sampler import _dense_sampler, _generators, _sample_bands, _trace_moments

GUE = classical_scheme("gue")
HALF = Fraction(1, 2)
KINDS = ("gue", "wishart", "gue_source", "wishart_cov")


def source_spec(kind, N, q, a, alpha=0.0):
    return MatrixModelSpec(kind=kind, N=N, alpha=alpha, source=realize_diagonal(q, a, N))


def model_spec(kind, N):
    """A spec of each kind; the wishart kinds take rectangular factors."""
    alpha = 1.0 if kind.startswith("wishart") else 0.0
    if kind in ("gue_source", "wishart_cov"):
        return source_spec(kind, N, (0.5, 0.5), (1.0, 0.5), alpha=alpha)
    return MatrixModelSpec(kind=kind, N=N, alpha=alpha)


def _tridiagonal(band):
    """Dense symmetric tridiagonal matrix of a band from ``_sample_bands``."""
    return np.diag(band[1]) + np.diag(band[0, 1:], 1) + np.diag(band[2, :-1], -1)


def _sample_matrix(spec, seed, j=0):
    """Sample j of the stream for ``seed``, as a dense matrix."""
    rngs = _generators(seed, j)
    if spec.kind in ("gue", "wishart"):
        return _tridiagonal(_sample_bands(spec, rngs, 1)[0])
    return _dense_sampler(spec)(next(rngs))


# ---------------------------------------------------------------------------
# reproducibility and stream derivation


def test_bit_reproducibility():
    spec = MatrixModelSpec(kind="gue", N=12)
    first = mc_moments(spec, 3, 40, seed=2026)
    second = mc_moments(spec, 3, 40, seed=2026)
    assert first[0].values == second[0].values
    assert first[1] == second[1] and first[2] == second[2]
    other = mc_moments(spec, 3, 40, seed=2027)
    assert first[0].values != other[0].values


def test_neighbouring_seeds_share_no_samples():
    # sample j is keyed (seed, j), so seeds 5 and 6 draw disjoint streams
    spec = MatrixModelSpec(kind="wishart", N=6, alpha=1.0)
    five, six = (
        {row.tobytes() for row in empirical_batch(spec, 2, 50, seed=seed).table}
        for seed in (5, 6)
    )
    assert len(five) == len(six) == 50
    assert not five & six
    with pytest.raises(ConfigError):
        empirical_batch(spec, 2, 2, seed=-1)
    with pytest.raises(ConfigError):
        empirical_batch(spec, 2, 2, seed=2**64)


def _blocks(source):
    """Sorted source values and the (start, stop) of each run of equal ones."""
    values = np.sort(source, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(values)) + 1).tolist(), len(values)]
    return values, list(zip(cuts[:-1], cuts[1:]))


def _source_model_by_hand(spec, rng):
    """The gue_source matrix H, or the wishart_cov factor K of H = K K*,
    assembled entry by entry from ``rng`` in the draw order of the model."""
    N = spec.N
    values, blocks = _blocks(spec.source)
    if spec.kind == "gue_source":
        first = rng.standard_normal(N)
    else:
        first = rng.standard_gamma(spec.columns - np.arange(N, dtype=float))
    shapes = [k for o, e in blocks for k in range(e - o - 1, 0, -1)]
    gammas = iter(rng.standard_gamma(np.array(shapes, dtype=float)))
    normals = iter(rng.standard_normal(N * N - sum((e - o) ** 2 for o, e in blocks)))
    M = np.zeros((N, N), dtype=complex)
    if spec.kind == "gue_source":
        for i in range(N):
            M[i, i] = first[i] / math.sqrt(N) + values[i]
        for o, e in blocks:
            for k in range(o, e - 1):
                M[k, k + 1] = M[k + 1, k] = math.sqrt(next(gammas) / N)
        scale = math.sqrt(2.0 * N)
        for o, e in blocks:
            for i in range(o, e):
                for c in range(e, N):
                    z = complex(next(normals) / scale, next(normals) / scale)
                    M[i, c], M[c, i] = z, z.conjugate()
        return M
    for i in range(N):
        M[i, i] = math.sqrt(first[i]) * math.sqrt(values[i] / N)
    for o, e in blocks:
        for k in range(o, e - 1):
            M[k + 1, k] = math.sqrt(next(gammas)) * math.sqrt(values[k + 1] / N)
    for o, e in blocks:
        for i in range(o, e):
            scale = math.sqrt(values[i] / (2.0 * N))
            for c in range(o):
                M[i, c] = complex(next(normals) * scale, next(normals) * scale)
    return M


def _assert_is_the_model(H, spec, M):
    """H is the sample of M from ``_source_model_by_hand``: the same bytes
    for gue_source, and M M* up to rounding for wishart_cov, whose
    sampler forms the product from the blocks of M."""
    if spec.kind == "gue_source":
        assert H.tobytes() == M.tobytes()
    else:
        ref = M @ M.conj().T
        assert np.abs(H - ref).max() <= 1e-14 * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize(
    "kind, seed, j, digest",
    [
        ("gue_source", 0, 0, "79d7eada7e1b69ed09b6bd16bcc59b9dded4bb1a88a6eef9fd40f4c7f784de68"),
        (
            "gue_source",
            2**64 - 1,
            3,
            "e0429ceb5393d70f2f2761948fee60fa33d0900541e70bedb713f916b1c7e80b",
        ),
        ("wishart_cov", 0, 1, "e26e45e69cf901a251f94e5f7371f6c0be459cb56ef1753ff8de2cfbbc371f4f"),
        (
            "wishart_cov",
            2**64 - 1,
            3,
            "42149b56986915efbc0ef7417d334837672524ff0747255b25b2ddb629732252",
        ),
    ],
    ids=["gue_source-0-0", "gue_source-max-3", "wishart_cov-0-1", "wishart_cov-max-3"],
)
def test_golden_source_stream(kind, seed, j, digest):
    # stream 5's source models at N = 4 with two atoms, given in reverse
    # order; numpy promises no stable normal or gamma stream across
    # releases (NEP 19): a release that changes them must fail here and
    # bump STREAM_VERSION.  The digest is of H for gue_source and of the
    # factor K for wishart_cov (alpha = 1/2, so 6 columns).
    spec = source_spec(kind, 4, (0.5, 0.5), (2.0, 0.5), alpha=0.5 if kind == "wishart_cov" else 0.0)
    M = _source_model_by_hand(spec, np.random.Generator(np.random.Philox(key=seed + (j << 64))))
    _assert_is_the_model(_sample_matrix(spec, seed, j), spec, M)
    assert hashlib.sha256(M.tobytes()).hexdigest() == digest


def test_one_atom_is_the_band_model():
    # with a single atom there are no couplings: gue_source draws the gue
    # band model plus the atom, and wishart_cov the atom times the wishart
    # band model's B B^T, from the same words
    for N in (1, 2, 9):
        band = _tridiagonal(_sample_bands(MatrixModelSpec("gue", N), _generators(4), 1)[0])
        H = _sample_matrix(MatrixModelSpec("gue_source", N, source=np.full(N, 0.75)), 4)
        assert H.tobytes() == (band + np.diag(np.full(N, 0.75))).astype(complex).tobytes()
        wishart = MatrixModelSpec("wishart", N, alpha=1.0)
        band = _tridiagonal(_sample_bands(wishart, _generators(4), 1)[0])
        H = _sample_matrix(MatrixModelSpec("wishart_cov", N, 1.0, np.full(N, 2.0)), 4)
        assert np.abs(H - 2.0 * band).max() <= 1e-14 * np.abs(band).max(), N


@pytest.mark.parametrize("kind", ("gue_source", "wishart_cov"))
def test_permuting_the_source_changes_no_moment(kind):
    # equal source values are grouped by a stable sort, so a sample
    # depends only on the multiset of values
    N, rng = 9, np.random.default_rng(17)
    source = realize_diagonal((Fraction(2, 9), Fraction(1, 3), Fraction(4, 9)), (2.0, 0.5, 1.0), N)
    alpha = 1.0 if kind == "wishart_cov" else 0.0
    table = empirical_batch(MatrixModelSpec(kind, N, alpha, source), 5, 20, seed=3).table
    for _ in range(4):
        permuted = MatrixModelSpec(kind, N, alpha, rng.permutation(source))
        assert empirical_batch(permuted, 5, 20, seed=3).table.tobytes() == table.tobytes()


def _stream4_moments(spec, samples, seed, L=4):
    """Moments (samples, L + 1) of the dense model stream 4 drew: a dense
    gue sample plus the source diagonal A, or A^(1/2) G G* A^(1/2) / N
    with G an N x M matrix of standard complex Gaussians."""
    rng = np.random.default_rng(seed)
    N, chunk = spec.N, 4000
    table = np.ones((samples, L + 1))
    for start in range(0, samples, chunk):
        count = min(chunk, samples - start)
        if spec.kind == "gue_source":
            X = rng.standard_normal((count, N, 2 * N)).view(complex)
            H = (X + X.conj().transpose(0, 2, 1)) / (2.0 * math.sqrt(N)) + np.diag(spec.source)
        else:
            G = rng.standard_normal((count, N, 2 * spec.columns)).view(complex) / math.sqrt(2.0)
            G = G * np.sqrt(spec.source / N)[:, None]
            H = G @ G.conj().transpose(0, 2, 1)
        P = np.broadcast_to(np.eye(N), H.shape)
        for ell in range(1, L + 1):
            P = P @ H
            table[start : start + count, ell] = np.trace(P, axis1=1, axis2=2).real / N
    return table


def _pull_of_variances(x, y):
    """|var x - var y| in standard errors, each from the sample's fourth
    central moment."""
    def se2(z):
        c = z - z.mean()
        return (np.mean(c**4) - np.var(z) ** 2) / len(z)

    return abs(np.var(x, ddof=1) - np.var(y, ddof=1)) / math.sqrt(se2(x) + se2(y))


@pytest.mark.parametrize(
    "kind, q, a, alpha",
    [
        ("gue_source", (HALF, HALF), (1.0, -1.0), 0.0),
        ("gue_source", (Fraction(1, 6), Fraction(1, 3), HALF), (1.0, 0.0, -1.0), 0.0),
        ("gue_source", None, np.linspace(-1.0, 1.0, 12), 0.0),
        ("wishart_cov", (1,), (2.0,), 1.0),
        ("wishart_cov", (Fraction(1, 4), Fraction(3, 4)), (1.0, 0.5), 0.0),
        ("wishart_cov", (Fraction(1, 6), Fraction(1, 3), HALF), (0.5, 1.0, 2.0), 0.5),
        ("wishart_cov", None, np.linspace(0.5, 2.0, 12), 1.0),
    ],
    ids=["gue_source-2", "gue_source-3", "gue_source-distinct",
         "wishart_cov-1", "wishart_cov-2", "wishart_cov-3", "wishart_cov-distinct"],
)
def test_band_and_coupling_draw_has_the_dense_moment_law(kind, q, a, alpha):
    # the atoms' band models plus couplings keep the eigenvalue law of the
    # dense model stream 4 drew: means and variances of m_1..m_4 agree
    # within 4 standard errors (one atom with gue_source is the gue band
    # model, test_one_atom_is_the_band_model)
    N, S = 12, 20_000
    source = a if q is None else realize_diagonal(q, a, N)
    spec = MatrixModelSpec(kind, N, alpha, source)
    new = empirical_batch(spec, 4, S, seed=20261020).table
    old = _stream4_moments(spec, S, seed=4)
    for ell in range(1, 5):
        x, y = new[:, ell], old[:, ell]
        se = math.sqrt((np.var(x, ddof=1) + np.var(y, ddof=1)) / S)
        assert abs(x.mean() - y.mean()) <= 4 * se, (ell, x.mean(), y.mean(), se)
        assert _pull_of_variances(x, y) <= 4, (ell, np.var(x), np.var(y))


def _band4_by_hand(kind, seed, j):
    """Band of a gue or wishart (alpha = 1/2, so 6 columns) sample at N = 4,
    entry by entry from a fresh generator on the (seed, j) stream."""
    rng = np.random.Generator(np.random.Philox(key=seed + (j << 64)))
    band = np.zeros((3, 4))
    if kind == "gue":
        for i in range(4):
            band[1, i] = rng.standard_normal() / 2.0
        off = [math.sqrt(rng.standard_gamma(k) / 4.0) for k in (3, 2, 1)]
    else:
        g = [rng.standard_gamma(6 - i) for i in range(4)]
        h = [rng.standard_gamma(k) for k in (3, 2, 1)]
        for i in range(4):
            band[1, i] = g[i] / 4.0 + (h[i - 1] / 4.0 if i else 0.0)
        off = [math.sqrt(g[i] * h[i]) / 4.0 for i in range(3)]
        # the band is B B^T for the lower bidiagonal B of the model
        B = np.diag(np.sqrt(np.array(g) / 4.0)) + np.diag(np.sqrt(np.array(h) / 4.0), -1)
        dense = np.diag(band[1]) + np.diag(off, 1) + np.diag(off, -1)
        assert np.allclose(dense, B @ B.T, rtol=1e-15, atol=0.0)
    band[0, 1:] = off
    band[2, :-1] = off
    return band


@pytest.mark.parametrize(
    "kind, seed, j, digest",
    [
        ("gue", 0, 0, "6e95cfcc634f0fd9f95b6fd1c21d850454e78735733266c8ce6280e6fdc76f8a"),
        ("gue", 2**64 - 1, 3, "bce817569fa657758f8656c5a97b9288a50a92b30bdf3c4ef99def3bd3b96ae0"),
        ("wishart", 0, 1, "74b5014ac5419643eeec43c724ccdf47c9947d84a472efe6b5e970ab9be07ad0"),
        (
            "wishart",
            2**64 - 1,
            3,
            "7695eb1ea9fa772fc583d607b64ba68d15f9ee3cfa2ba6b707cfbdd7326e0223",
        ),
    ],
)
def test_golden_band_stream(kind, seed, j, digest):
    # stream 4's band models; samples 0..j come from one re-keyed Philox,
    # and sample j matches a fresh generator on the key (seed, j)
    spec = MatrixModelSpec(kind, 4, alpha=0.5 if kind == "wishart" else 0.0)
    band = _sample_bands(spec, _generators(seed), j + 1)[j]
    assert band.tobytes() == _band4_by_hand(kind, seed, j).tobytes()
    assert hashlib.sha256(band.tobytes()).hexdigest() == digest
    assert _sample_matrix(spec, seed, j).tobytes() == _tridiagonal(band).tobytes()


@pytest.mark.parametrize(
    "kind, N, alpha",
    [
        (kind, N, alpha)
        for kind, alphas in (("gue_source", (0.0,)), ("wishart_cov", (0.0, 0.5, 1.0)))
        for N in (1, 2, 7, 40)
        for alpha in alphas
        if N * alpha == int(N * alpha)
    ],
)
def test_reused_buffers_leak_nothing_between_samples(kind, N, alpha):
    # a batch draws every dense sample into the same buffers; row j must
    # be the moments of sample j drawn alone, from a fresh generator, and
    # that sample the one assembled entry by entry
    spec = source_spec(kind, N, (0.5, 0.5), (1.0, 0.5), alpha=alpha)
    seed = 2**63 + 5

    def fresh(j):
        return np.random.Generator(np.random.Philox(key=seed + (j << 64)))

    for L in (0, 2, 3, 4, 8):
        table = empirical_batch(spec, L, 6, seed).table
        for j, row in enumerate(table):
            H = _dense_sampler(spec)(fresh(j))
            _assert_is_the_model(H, spec, _source_model_by_hand(spec, fresh(j)))
            assert row.tobytes() == _trace_moments(H, L).tobytes(), (L, j)


def test_dense_batch_keeps_no_memory():
    # the batch owns its buffers and indices: nothing of an N = 1500
    # sample (a 36 MB matrix, 18 MB of indices) outlives the call
    spec = source_spec("gue_source", 1500, (0.5, 0.5), (1.0, -1.0))
    empirical_batch(source_spec("gue_source", 2, (0.5, 0.5), (1.0, -1.0)), 2, 1, seed=0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        empirical_batch(spec, 2, 1, seed=0)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before <= 2**20, after - before


def test_band_blocks_keep_each_array_within_the_block_bound(monkeypatch):
    # a block of more than one band sample keeps every array it allocates
    # within 2^16 doubles, the zero-padded highest power included
    sizes = []
    for name in ("zeros", "einsum"):

        def record(*args, real=getattr(np, name), **kwargs):
            out = real(*args, **kwargs)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(np, name, record)
    for N, L, samples in ((5, 9, 2000), (50, 4, 600), (50, 7, 600), (300, 6, 60)):
        sizes.clear()
        empirical_batch(MatrixModelSpec(kind="gue", N=N), L, samples, seed=1)
        assert 0 < max(sizes) <= 2**16, (N, L, max(sizes))


def test_batch_is_immutable():
    batch = empirical_batch(MatrixModelSpec(kind="gue", N=4), 2, 3, seed=0)
    assert isinstance(batch, EmpiricalBatch)
    assert batch.L == 2
    with pytest.raises(ValueError):
        batch.table[0, 0] = 1.0


# ---------------------------------------------------------------------------
# moments as traces against the eigenvalues of the same sample


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("N", [1, 2, 7, 40])
def test_trace_moments_match_eigenvalue_power_means(kind, N):
    spec = model_spec(kind, N)
    L, seed = 8, 424242
    batch = empirical_batch(spec, L, 4, seed=seed)
    for j, row in enumerate(batch.table):
        x = np.linalg.eigvalsh(_sample_matrix(spec, seed, j))
        for ell in range(L + 1):
            scale = max(1.0, float(np.mean(np.abs(x) ** ell)))
            assert abs(row[ell] - np.mean(x**ell)) <= 1e-12 * scale, (j, ell)


@pytest.mark.parametrize("kind", KINDS)
def test_moment_columns_do_not_depend_on_the_order(kind):
    spec = model_spec(kind, 7)
    short = empirical_batch(spec, 2, 20, seed=8).table
    long = empirical_batch(spec, 5, 20, seed=8).table
    assert short.tobytes() == np.ascontiguousarray(long[:, :3]).tobytes()
    assert np.all(long[:, 0] == 1.0)


# ---------------------------------------------------------------------------
# marginal distributions of the 1x1 models


def test_gue_1x1_is_standard_normal():
    spec = MatrixModelSpec(kind="gue", N=1)
    draws = empirical_batch(spec, 1, 2000, seed=11).table[:, 1]
    stat = scipy.stats.kstest(draws, "norm")
    assert stat.pvalue > 1e-3


def test_wishart_1x1_is_exponential():
    spec = MatrixModelSpec(kind="wishart", N=1, alpha=0.0)
    draws = empirical_batch(spec, 1, 2000, seed=7).table[:, 1]
    assert np.all(draws >= 0)
    stat = scipy.stats.kstest(draws, "expon")
    assert stat.pvalue > 1e-3


def test_scalar_source_shifts_the_spectrum():
    N = 20
    plain = sample_spectrum(
        MatrixModelSpec(kind="gue_source", N=N, source=np.zeros(N)), seed=3
    ).points.real
    shifted = sample_spectrum(
        MatrixModelSpec(kind="gue_source", N=N, source=np.full(N, 0.75)), seed=3
    ).points.real
    assert np.allclose(np.sort(shifted), np.sort(plain) + 0.75, atol=1e-12)


def test_spectra_are_sorted_and_wishart_nonnegative():
    pts = sample_spectrum(MatrixModelSpec(kind="wishart", N=30, alpha=1.0), seed=1).points
    assert np.all(np.diff(pts.real) >= 0)
    assert np.all(pts.real >= 0)


@pytest.mark.parametrize("kind", ("gue", "wishart"))
def test_band_spectrum_is_the_dense_spectrum_without_a_dense_solve(kind, monkeypatch):
    # the band sample goes to the tridiagonal solver; it must give the
    # eigenvalues of the same sample drawn dense, N = 1 included
    dense = {N: np.linalg.eigvalsh(_sample_matrix(model_spec(kind, N), 9)) for N in (1, 40)}

    def refuse(*args, **kwargs):
        raise AssertionError("dense eigvalsh on a band sample")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for N, ref in dense.items():
        points = sample_spectrum(model_spec(kind, N), 9).points
        assert points.shape == (N,) and np.all(points.imag == 0)
        assert np.abs(points.real - ref).max() <= 1e-12, (N, points.real - ref)


# ---------------------------------------------------------------------------
# consistency with the deterministic trace identities


def test_gue_mean_and_variance_match_exact_values():
    spec = MatrixModelSpec(kind="gue", N=50)
    mean, var, se = mc_moments(spec, 2, 10_000, seed=20260814)
    assert abs(mean.values[2] - mean_moment(GUE, 50, 2)) <= 3 * se[2]
    exact_var = variance_moment(GUE, 50, 1)
    assert exact_var == 1 / 2500
    assert 0.9 <= var[1] / exact_var <= 1.1


@pytest.mark.parametrize(
    "label",
    ["gue", "wishart", "gue_source", "wishart_cov"],
)
def test_every_model_tracks_its_operator(label):
    N = 50
    if label == "gue":
        spec = MatrixModelSpec(kind="gue", N=N)
        scheme = GUE
    elif label == "wishart":
        spec = MatrixModelSpec(kind="wishart", N=N, alpha=1.0)
        scheme = classical_scheme("wishart", alpha=1.0)
    elif label == "gue_source":
        spec = source_spec("gue_source", N, (0.5, 0.5), (1.0, -1.0))
        scheme = mop_scheme("multiple-hermite", (1, -1), (0.5, 0.5))
    else:
        # covariance diagonal holds the reciprocals of the weight scales
        spec = source_spec("wishart_cov", N, (0.5, 0.5), (1.0, 0.5))
        scheme = mop_scheme("multiple-laguerre", (1, 2), (0.5, 0.5), alpha=0)
    mean, var, se = mc_moments(spec, 2, 3000, seed=99)
    for ell in (1, 2):
        target = mean_moment(scheme, N, ell)
        assert abs(mean.values[ell] - target) <= 4 * se[ell], (label, ell)


def test_source_models_reach_free_convolution_limits():
    N = 200
    add = source_spec("gue_source", N, (0.5, 0.5), (1.0, -1.0))
    mean, _, se = mc_moments(add, 4, 300, seed=5)
    target = free_add(SemicircleLaw(), AtomicMeasure([(1, 0.5), (-1, 0.5)]), 4)
    for ell in range(1, 5):
        tol = max(3 * se[ell], 0.05)
        assert abs(mean.values[ell] - float(target.values[ell])) <= tol

    mul = source_spec("wishart_cov", N, (0.5, 0.5), (1.0, 0.5))
    mean, _, se = mc_moments(mul, 4, 300, seed=6)
    target = free_mul(MarchenkoPasturLaw(1), AtomicMeasure([(1, 0.5), (0.5, 0.5)]), 4)
    for ell in range(1, 5):
        tol = max(3 * se[ell], 0.05)
        assert abs(mean.values[ell] - float(target.values[ell])) <= tol


def test_band_gue_variance_decays_like_one_over_n_squared():
    # the paper's mechanism at scale: the sample variance of m_1 and m_2
    # follows the exact variance_moment over two decades of N, within 4
    # standard errors sqrt(2 / (S - 1)) of a sample variance, with
    # log-log slope -2
    S, sizes = 400, (100, 1000, 10_000)
    variances = {1: [], 2: []}
    for N in sizes:
        table = empirical_batch(MatrixModelSpec(kind="gue", N=N), 2, S, seed=20261019).table
        for ell in (1, 2):
            var = float(np.var(table[:, ell], ddof=1))
            exact = variance_moment(GUE, N, ell)
            assert abs(var / exact - 1) <= 4 * math.sqrt(2 / (S - 1)), (N, ell)
            variances[ell].append(var)
    for ell, var in variances.items():
        slope = np.polyfit(np.log(sizes), np.log(var), 1)[0]
        assert -2.1 <= slope <= -1.9, (ell, slope)


def test_empirical_gap_shrinks_with_dimension():
    # median over 100 samples of |m_hat_2 - mean_moment| at growing N,
    # allowed to wiggle 20% but not to grow
    medians = []
    for N in (25, 50, 100, 200):
        spec = MatrixModelSpec(kind="gue", N=N)
        batch = empirical_batch(spec, 2, 100, seed=314)
        gaps = np.abs(batch.table[:, 2] - mean_moment(GUE, N, 2))
        medians.append(float(np.median(gaps)))
    for earlier, later in zip(medians, medians[1:]):
        assert later <= 1.2 * earlier


# ---------------------------------------------------------------------------
# diagonal realization


def test_realize_diagonal_follows_path_multiplicities():
    diag = realize_diagonal((0.6, 0.4), (1.0, -1.0), 5)
    assert diag.tolist() == [1.0, 1.0, 1.0, -1.0, -1.0]
    longer = realize_diagonal((0.5, 0.5), (2.0, 3.0), 8)
    assert longer.tolist() == [2.0] * 4 + [3.0] * 4


def test_realize_diagonal_walks_the_path_of_mop_scheme():
    # `zeros --q` and `sample --ratios` both parse to Fractions; the
    # multiple Hermite diagonal a_{i_k} names each step of the scheme's path
    ratios = cli._number_list("2/5,7/20,1/4", "ratios")
    config = {"kind": "multiple-hermite", "q": ratios, "a": cli._number_list("1,0,-1", "a")}
    scheme = cli._scheme_from(config)
    a = [1.0, 0.0, -1.0]
    diagonal = scheme.band(400, 400)[scheme.down_band]
    counts = [0, 0, 0]
    for N in range(1, 401):
        counts[a.index(diagonal[N - 1])] += 1
        source = realize_diagonal(ratios, a, N)
        assert [int(np.sum(source == x)) for x in a] == counts, N


def test_realize_diagonal_counts_sum_to_n():
    for N in (1, 7, 33):
        diag = realize_diagonal((1 / 3, 2 / 3), (0.0, 1.0), N)
        assert len(diag) == N


@pytest.mark.parametrize("q, a", [((1,), (1, 2)), ((1 / 2, 1 / 2), (1,))])
def test_realize_diagonal_needs_one_location_per_ratio(q, a):
    with pytest.raises(ConfigError, match="atoms: need one location per ratio"):
        realize_diagonal(q, a, 6)


# ---------------------------------------------------------------------------
# validation


def test_spec_validation():
    with pytest.raises(ConfigError):
        MatrixModelSpec(kind="ginibre", N=4)
    with pytest.raises(ConfigError):
        MatrixModelSpec(kind="gue", N=0)
    with pytest.raises(ConfigError):
        MatrixModelSpec(kind="wishart", N=10, alpha=0.15)
    with pytest.raises(ConfigError):
        MatrixModelSpec(kind="wishart", N=10, alpha=-1.0)
    with pytest.raises(ConfigError):
        MatrixModelSpec(kind="gue_source", N=10)
    with pytest.raises(ConfigError):
        MatrixModelSpec(kind="gue_source", N=10, source=np.ones(9))
    with pytest.raises(ConfigError):
        MatrixModelSpec(kind="wishart_cov", N=4, source=np.array([1.0, 1.0, 0.0, 2.0]))
    # parameters a model would ignore are refused, not dropped
    with pytest.raises(ConfigError, match="alpha"):
        MatrixModelSpec(kind="gue", N=8, alpha=3.0)
    with pytest.raises(ConfigError, match="alpha"):
        MatrixModelSpec(kind="gue_source", N=4, alpha=1.0, source=np.ones(4))
    with pytest.raises(ConfigError, match="source"):
        MatrixModelSpec(kind="gue", N=4, source=np.ones(4))
    with pytest.raises(ConfigError, match="source"):
        MatrixModelSpec(kind="wishart", N=4, alpha=1.0, source=np.ones(4))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", ["gue_source", "wishart_cov"])
def test_nonfinite_source_is_refused(kind, bad):
    # refused up front, not left to surface as a Monte-Carlo overflow
    with pytest.raises(ConfigError, match="^source: "):
        MatrixModelSpec(kind=kind, N=3, source=[1.0, bad, 2.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("kind", ["wishart", "wishart_cov"])
def test_nonfinite_alpha_is_refused(kind, bad):
    # refused before round(N * alpha) sees it
    source = np.ones(4) if kind == "wishart_cov" else None
    with pytest.raises(ConfigError, match="^alpha: need a finite value"):
        MatrixModelSpec(kind=kind, N=4, alpha=bad, source=source)


def test_wishart_columns():
    spec = MatrixModelSpec(kind="wishart", N=10, alpha=0.5)
    assert spec.columns == 15


def test_batch_validation():
    spec = MatrixModelSpec(kind="gue", N=3)
    with pytest.raises(ConfigError):
        empirical_batch(spec, -1, 5, seed=0)
    with pytest.raises(ConfigError):
        empirical_batch(spec, 2, 0, seed=0)
    with pytest.raises(ConfigError):
        mc_moments(spec, 2, 1, seed=0)
