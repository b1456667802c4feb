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
from bandedzeros.sampler import _dense_sample, _generators, _sample_bands, _trace_moments

GUE = classical_scheme("gue")
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
    return _dense_sample(spec, next(rngs))


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


def _gue4_by_hand(seed, j):
    """Dense GUE at N = 4 assembled entry by entry from the (seed, j) stream."""
    g = np.random.Generator(np.random.Philox(key=seed + (j << 64))).standard_normal(16)
    H = np.zeros((4, 4), dtype=complex)
    k = 4
    for r in range(4):
        H[r, r] = g[r] / 2.0
        for c in range(r + 1, 4):
            z = complex(g[k] / math.sqrt(8.0), g[k + 1] / math.sqrt(8.0))
            H[r, c], H[c, r] = z, z.conjugate()
            k += 2
    return H


@pytest.mark.parametrize(
    "seed, j, digest",
    [
        (0, 0, "632dbcadc6479627ab90230fdf033b93dafa132672d2b2d31dc9945ed6c07861"),
        (0, 1, "6b14d21db59a8a6601279f1987c43914706d0ae57ab1345933fefa2de4a201af"),
        (2**64 - 1, 3, "56bbe2ec75f4dad1847e5064e3a7772734af4198113903cbeb4026a0a8c46d10"),
    ],
)
def test_golden_stream(seed, j, digest):
    # numpy promises no stable normal stream across releases (NEP 19): a
    # release that changes it must fail here and bump STREAM_VERSION.  The
    # dense gue_source draws with a zero source are stream 3's gue draws.
    H = _sample_matrix(MatrixModelSpec("gue_source", 4, source=np.zeros(4)), seed, j)
    assert H.tobytes() == _gue4_by_hand(seed, j).tobytes()
    assert hashlib.sha256(H.tobytes()).hexdigest() == digest


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


def _dense_from_fresh_arrays(spec, rng):
    """A gue_source or wishart_cov sample assembled from fresh arrays."""
    N = spec.N
    if spec.kind == "gue_source":
        g = rng.standard_normal(N * N)
        off = (g[N:] / math.sqrt(2.0 * N)).view(complex)
        upper = np.triu_indices(N, k=1)
        H = np.zeros((N, N), dtype=complex)
        H[upper] = off
        H[upper[::-1]] = off.conj()
        H[np.diag_indices(N)] = g[:N] / math.sqrt(N) + spec.source
        return H
    scale = np.sqrt(spec.source)[:, None] / math.sqrt(2.0 * N)
    G = (rng.standard_normal(2 * N * spec.columns).reshape(N, -1) * scale).view(complex)
    return G @ G.conj().T


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
    # that sample the one assembled from fresh arrays
    spec = source_spec(kind, N, (0.5, 0.5), (1.0, 0.5), alpha=alpha)
    seed = 2**63 + 5

    def fresh(j):
        return np.random.Generator(np.random.Philox(key=seed + (j << 64)))

    for L in (0, 2, 3, 4, 8):
        table = empirical_batch(spec, L, 6, seed).table
        for j, row in enumerate(table):
            H = _dense_sample(spec, fresh(j))
            assert H.tobytes() == _dense_from_fresh_arrays(spec, fresh(j)).tobytes(), (L, j)
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
    # `mop-zeros --q` and `sample --ratios` both parse to Fractions; the
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
