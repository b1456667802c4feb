"""Truncations, trace statistics, and the explicit bounds."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bandedzeros
from bandedzeros import bandop
from bandedzeros.bandop import (
    build_truncation,
    gap_bound,
    mean_moment,
    trace_table,
    variance_bound,
    variance_moment,
    window_max,
    zero_moment_trace,
)
from bandedzeros.errors import SchemeError
from bandedzeros.mop import mop_scheme
from bandedzeros.recurrence import RecurrenceScheme, classical_scheme

from test_paths_oracle import SCHEMES

GUE = classical_scheme("gue")


def test_build_gue_truncation():
    op = build_truncation(GUE, 3, 2)
    assert op.matrix.shape == (3, 5)
    band = op.matrix  # band[1 + m - k, k] = T[m, k]
    expected = [math.sqrt(k / 3.0) for k in (1, 2, 3, 4)]
    assert np.allclose(band[0, 1:], expected)  # T[k - 1, k]
    assert np.allclose(band[2, :-1], expected)  # T[k + 1, k]
    assert np.allclose(band[1], 0.0)


def test_build_one_by_one():
    s = classical_scheme("wishart", alpha=0.0)
    op = build_truncation(s, 1, 0)
    assert op.matrix.shape == (3, 1)
    assert op.matrix[1, 0] == dense_truncation(s, 1, 1)[0, 0] == pytest.approx(1.0)


def test_build_charlier_example():
    s = classical_scheme("charlier", alpha=1.0)
    op = build_truncation(s, 2, 1)
    block = dense_truncation(s, 2, 2)
    assert block[0, 0] == pytest.approx(1.0)
    assert block[1, 1] == pytest.approx(1.5)
    assert block[0, 1] == pytest.approx(math.sqrt(0.5))
    # op.matrix[1 + m - k, k] = T[m, k]
    assert [op.matrix[1, 0], op.matrix[1, 1], op.matrix[0, 1]] == [
        block[0, 0],
        block[1, 1],
        block[0, 1],
    ]


def test_nonfinite_band_entry_is_named():
    def band(N, start, stop):
        values = np.ones((3, stop - start))
        if start <= 4 < stop:
            values[2, 4 - start] = np.nan  # T[5, 4]
        return values

    scheme = RecurrenceScheme(name="one-nan", down_band=1, band_fn=band)
    with pytest.raises(SchemeError, match=r"nonfinite entry at \(5, 4\)"):
        build_truncation(scheme, 5, 1)
    # row 5 lies outside a truncation to indices < 5
    assert build_truncation(scheme, 5, 0).matrix[2, 4] == 0.0


def test_mean_moment_values():
    assert mean_moment(GUE, 5, 2) == pytest.approx(1.0, rel=1e-14)
    assert mean_moment(GUE, 9, 0) == 1.0
    w0 = classical_scheme("wishart", alpha=0.0)
    assert mean_moment(w0, 4, 1) == pytest.approx(1.0, rel=1e-14)


def test_gue_mean_second_moment_all_n():
    for n in (2, 17, 101):
        assert mean_moment(GUE, n, 2) == pytest.approx(1.0, abs=1e-13)


def test_zero_moment_values():
    assert zero_moment_trace(GUE, 5, 2) == pytest.approx(0.8, rel=1e-14)
    assert zero_moment_trace(GUE, 5, 0) == 1.0
    assert zero_moment_trace(GUE, 5, 1) == 0.0


def test_variance_values():
    for n in (3, 20, 77):
        assert variance_moment(GUE, n, 1) == pytest.approx(1.0 / n**2, rel=1e-14)
    assert variance_moment(GUE, 12, 0) == 0.0


def test_gue_variance_identity_is_exact():
    # N^2 * Var(moment 1) = a_N^2 * N^2 / N^2 with a_N^2 = N/N: no rounding
    for n in (2, 10, 250, 500):
        assert variance_moment(GUE, n, 1) * n**2 == 1.0


def test_variance_reads_a_window_around_n():
    widths = []

    def band_fn(N, start, stop):
        widths.append(stop - start)
        return GUE.band_fn(N, start, stop)

    recorded = dataclasses.replace(GUE, band_fn=band_fn)
    n = 10**6
    assert variance_moment(recorded, n, 1) * n**2 == 1.0
    for ell in (2, 3):
        assert variance_moment(recorded, n, ell) == variance_moment(GUE, n, ell)
    # ell (2 down_band + 3) columns, whatever N is
    assert max(widths) == 5 * 3


def test_variance_nonnegative():
    schemes = [
        GUE,
        classical_scheme("wishart", alpha=1.0),
        classical_scheme("charlier", alpha=1.0),
        classical_scheme("meixner", alpha=0.5, beta=1.0),
    ]
    for scheme in schemes:
        for n in (3, 9, 33):
            for ell in range(5):
                assert variance_moment(scheme, n, ell) >= 0.0


def test_gap_bound_gue_example():
    # (2*2)^2/100 * (window max)^2 with window max = sqrt(1.02)
    bound = gap_bound(GUE, 100, 2)
    assert bound == pytest.approx(0.16 * 1.02, rel=1e-12)
    gap = abs(mean_moment(GUE, 100, 2) - zero_moment_trace(GUE, 100, 2))
    assert gap == pytest.approx(0.01, rel=1e-10)
    assert gap <= bound


def test_gap_bound_dominates_single_escape():
    # at ell = 1 the only escaping weight is a_N^2 / N
    for scheme in (GUE, classical_scheme("charlier", alpha=1.0)):
        n = 64
        a_n = scheme.entry(n - 1, n, n)
        assert gap_bound(scheme, n, 1) >= a_n**2 / n - 1e-15


def test_variance_bound_dominates():
    w1 = classical_scheme("wishart", alpha=1.0)
    assert variance_bound(w1, 50, 2) >= variance_moment(w1, 50, 2)
    for n in (10, 40):
        assert variance_bound(GUE, n, 1) >= variance_moment(GUE, n, 1)


def test_window_max_examples():
    assert window_max(GUE, 100, 0.1) == pytest.approx(math.sqrt(1.1), rel=1e-12)
    charlier = classical_scheme("charlier", alpha=1.0)
    assert window_max(charlier, 100, 0.1) == pytest.approx(2.1, rel=1e-12)


def test_window_max_requires_positive_eps():
    with pytest.raises(ValueError):
        window_max(GUE, 10, 0.0)


def test_bounds_require_positive_ell():
    with pytest.raises(ValueError):
        gap_bound(GUE, 10, 0)
    with pytest.raises(ValueError):
        variance_bound(GUE, 10, 0)


@pytest.mark.parametrize(
    "bound, ell, message",
    [
        (gap_bound, 3, "gap bound at N=5, ell=3"),
        (variance_bound, 1, "variance bound at N=5, ell=1"),
        # the row ell = 1 computes both bounds; its variance bound overflows
        (trace_table, 3, "variance bound at N=5, ell=1"),
    ],
    ids=["gap_bound", "variance_bound", "trace_table"],
)
def test_a_bound_past_the_double_range_is_named(bound, ell, message):
    # the window peak is near 1e300, so float ** overflows in peak^(p ell)
    # before the product could be inf
    wide = classical_scheme("wishart", alpha=1e300)
    with pytest.raises(OverflowError, match=f"^{message}$"):
        bound(wide, 5, ell)


def test_trace_table_shape_and_consistency():
    rows = trace_table(GUE, 6, 3)
    assert len(rows) == 3
    for row in rows:
        n, ell, mean, zero, gap, gbound, var, vbound = row
        assert n == 6
        assert gap == pytest.approx(abs(mean - zero), abs=1e-15)
        assert gap <= gbound + 1e-15
        assert var <= vbound + 1e-15


def test_mop_window_max_stays_bounded():
    scheme = mop_scheme("multiple-hermite", a=(1.0, -1.0), q=(0.5, 0.5))
    values = [window_max(scheme, n, 0.1) for n in (50, 100, 200, 400)]
    assert max(values) <= values[0] * 1.5 + 1.0


def test_mop_laguerre_window_max_stays_bounded():
    scheme = mop_scheme(
        "multiple-laguerre", a=(1.0, 2.0), q=(0.5, 0.5), alpha=1.0
    )
    values = [window_max(scheme, n, 0.1) for n in (50, 100, 200, 400)]
    assert max(values) <= values[0] * 1.5 + 1.0


def test_gue_moments_match_catalan_in_the_bulk():
    # at large N the mean moments approach the semicircle values
    for ell, target in ((2, 1.0), (4, 2.0), (6, 5.0)):
        assert mean_moment(GUE, 4000, ell) == pytest.approx(target, abs=2e-2)


def dense_truncation(scheme, N, dim):
    """T[m, k] for m, k < dim, entry by entry: an oracle that shares no
    code with the band products."""
    T = np.zeros((dim, dim))
    for k in range(dim):
        for m in range(max(0, k - scheme.down_band), min(dim, k + 2)):
            T[m, k] = scheme.entry(m, k, N)
    return T


@pytest.mark.parametrize("label,scheme", SCHEMES)
def test_banded_traces_match_dense_matrix_powers(label, scheme):
    # beyond the path oracle's N <= 64: dense powers of truncations
    # assembled entry by entry
    N, L = 100, 6
    T = dense_truncation(scheme, N, N + 2 * L)
    rows = trace_table(scheme, N, L)
    for ell in range(1, L + 1):
        P = np.linalg.matrix_power(T[: N + ell, : N + ell], ell)
        Z = np.linalg.matrix_power(T[:N, :N], ell)
        V = np.linalg.matrix_power(T[: N + 2 * ell, : N + 2 * ell], ell)
        mean = math.fsum(P.diagonal()[:N]) / N
        zero = math.fsum(Z.diagonal()) / N
        var = math.fsum((V[:N, N:] * V[N:, :N].T).ravel()) / N**2
        _, _, row_mean, row_zero, _, _, row_var, _ = rows[ell - 1]
        for got, ref in (
            (mean_moment(scheme, N, ell), mean),
            (row_mean, mean),
            (zero_moment_trace(scheme, N, ell), zero),
            (row_zero, zero),
            (variance_moment(scheme, N, ell), var),
            (row_var, var),
        ):
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (ell, got, ref)


TABLE_SCHEMES = [s for s in SCHEMES if s[0] not in ("jacobi11", "meixner")]


def _brute_peaks(scheme, N, W):
    """peak[w] = max |entry(m, k, N)| over m, k >= 0 with |m - N|, |k - N| <= w,
    one entry at a time."""
    return [
        max(
            abs(scheme.entry(m, k, N))
            for m in range(max(0, N - w), N + w + 1)
            for k in range(max(0, N - w), N + w + 1)
        )
        for w in range(W + 1)
    ]


@pytest.mark.parametrize("label,scheme", TABLE_SCHEMES)
def test_trace_table_rows_match_the_public_functions(label, scheme):
    # every row comes from the N-block and one window around N; each
    # column must still be what the public function computes on its own,
    # and each bound's peak what a scan of single entries over the window
    # finds (N = 1 and 2 clip the peak window at index 0; at L = 6 the
    # table's window starts past index 0 from N = 19 for R = 1 and from
    # N = 31 for R = 2)
    for N in (1, 2, 3, 7, 18, 19, 30, 31, 50, 201):
        peaks = _brute_peaks(scheme, N, 2 * 6)
        for w, peak in enumerate(peaks[1:], 1):
            assert window_max(scheme, N, w / N) == peak
        for L in (1, 6):
            rows = trace_table(scheme, N, L)
            assert [row[:2] for row in rows] == [(N, ell) for ell in range(1, L + 1)]
            for _, ell, mean, zero, gap, gbound, var, vbound in rows:
                assert mean == mean_moment(scheme, N, ell)
                assert zero == zero_moment_trace(scheme, N, ell)
                assert gap == abs(mean - zero)
                assert gbound == gap_bound(scheme, N, ell)
                assert vbound == variance_bound(scheme, N, ell)
                assert var == variance_moment(scheme, N, ell)
                assert gbound == (2 * ell) ** ell / N * peaks[ell] ** ell
                assert vbound == (4 * ell) ** (2 * ell) / N**2 * peaks[2 * ell] ** (2 * ell)


def test_trace_table_builds_one_band():
    # one band of full length, the N-block, plus one window around N of
    # ell_max (2 down_band + 3) + 1 columns, whatever N is
    calls = []

    def band_fn(N, start, stop):
        calls.append((N, start, stop))
        return GUE.band_fn(N, start, stop)

    counted = dataclasses.replace(GUE, band_fn=band_fn)
    for N in (40, 10**6):
        calls.clear()
        trace_table(counted, N, 2)
        assert calls == [(N, N - 6, N + 5), (N, 0, N)]
    calls.clear()
    assert trace_table(counted, 40, 6) == trace_table(GUE, 40, 6)
    assert calls == [(40, 22, 53), (40, 0, 40)]
    # the public traces read the same two bands, never the block padded
    # to N + ell: the mean reads the window of ell (2 down_band + 1) + ell
    # columns and the block, the zero side the block alone
    N = 10**6
    calls.clear()
    mean_moment(counted, N, 2)
    assert calls == [(N, N - 6, N + 2), (N, 0, N)]
    calls.clear()
    zero_moment_trace(counted, N, 2)
    assert calls == [(N, 0, N)]
    # a window from column 0 holds the whole padded truncation, and then
    # the mean reads no block
    calls.clear()
    assert mean_moment(counted, 6, 2) == mean_moment(GUE, 6, 2)
    assert calls == [(6, 0, 8)]


def _shifted_copy_powers(T, r, ell_max):
    """Reference band powers: each band row i of T adds T[i] times a
    shifted copy of T^ell, one multiply-add at a time in i order."""
    *lead, width, dim = T.shape
    P = T
    for ell in range(1, ell_max + 1):
        if ell > 1:
            rows = P.shape[-2]
            padded = np.zeros((*lead, rows, dim + width - 1))
            padded[..., r : r + dim] = P
            P = np.zeros((*lead, rows + width - 1, dim))
            for i in range(width):
                P[..., i : i + rows, :] += T[..., i, None, :] * padded[..., i : i + dim]
        yield P


@pytest.mark.parametrize("R", [1, 2, 3])
def test_band_powers_match_the_shifted_copy_loop_bit_for_bit(R):
    # _powers sums over the band rows in one einsum; a numpy whose einsum
    # reorders or fuses that sum moves the bits and fails here.  Bands of
    # real schemes (zeroed past the truncation), of random signs, and stacks
    # of them as the sampler passes, down to N = 1 and 2, narrower than
    # the band
    scheme = {1: GUE, 2: SCHEMES[5][1], 3: SCHEMES[7][1]}[R]
    rng = np.random.default_rng(R)
    for N in (1, 2, 3, 7, 40, 101):
        bands = [
            scheme.band(N, N),
            scheme.band(N, N + 4, max(0, N - 5)),
            rng.standard_normal((R + 2, N)),
            rng.standard_normal((4, R + 2, N)),
            rng.standard_normal((2, 3, R + 2, N)),
        ]
        for T in bands:
            got = list(bandop._powers(T, R, 8))
            assert len(got) == 8
            for ell, (P, ref) in enumerate(zip(got, _shifted_copy_powers(T, R, 8)), 1):
                assert P.shape == ref.shape == (*T.shape[:-2], ell * (R + 1) + 1, T.shape[-1])
                assert P.tobytes() == ref.tobytes(), (N, T.shape, ell)


def _traced_peak(f, *args):
    """Peak bytes that tracemalloc sees allocated during f(*args)."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_public_traces_peak_no_higher_than_trace_table():
    # mean_moment and zero_moment_trace keep one power table at a time, as
    # trace_table does; with a per-row multiply-add step, a list of every
    # power peaked at 560 bytes per column against trace_table's 392 here
    N, ell = 50_000, 6
    table = _traced_peak(trace_table, GUE, N, ell)
    assert _traced_peak(mean_moment, GUE, N, ell) <= table
    assert _traced_peak(zero_moment_trace, GUE, N, ell) <= table


@pytest.mark.parametrize("label,limit", [("gue", 337), ("mh2", 569)])
def test_trace_table_peak_per_column(label, limit):
    # the measured peaks of trace_table(., 50_000, 6) on a fresh scheme, in
    # bytes per column, rounded up: gue 336.4, and mh2 568.6 with its band
    # built by the multi-index cascade.  At the last step _powers holds
    # T^(ell - 1), its pad of 2 R + 2 more rows and T^ell; a shifted
    # multiply-add per band row also held a full-size temporary per add,
    # 392 and 648 bytes per column
    N = 50_000
    if label == "gue":
        scheme = classical_scheme("gue")
    else:
        scheme = mop_scheme("multiple-hermite", a=(1.0, -1.0), q=(0.5, 0.5))
    assert _traced_peak(trace_table, scheme, N, 6) <= limit * N


def test_trace_table_argument_checks():
    with pytest.raises(SchemeError):
        trace_table(GUE, 5, -1)
    assert trace_table(GUE, 5, 0) == []
    for L in (0, 3):
        with pytest.raises(SchemeError):
            trace_table(GUE, 0, L)
    # N is checked before the ell = 0 shortcut
    for f in (mean_moment, zero_moment_trace, variance_moment):
        for N in (0, -3):
            for ell in (0, 2):
                with pytest.raises(SchemeError):
                    f(GUE, N, ell)


def run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports this package."""
    src = str(Path(bandedzeros.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_trace_path_loads_no_scipy():
    # the trace, path, bound and sampler layers run on numpy alone;
    # scipy.linalg loads on first use of spectrum, which must then still work
    code = """
import sys
import numpy as np
import bandedzeros as bz
from bandedzeros.bandop import trace_table

def loaded():
    return sorted(m for m in sys.modules if m.startswith(("scipy.linalg", "scipy.special")))

gue = bz.classical_scheme("gue")
assert len(trace_table(gue, 20, 4)) == 4
assert abs(bz.lattice_sum(gue, 5, 2) - 1.0) < 1e-12
assert bz.mean_moment(gue, 20, 2) == 1.0
assert bz.gap_bound(gue, 20, 2) > 0
mean, var, se = bz.mc_moments(bz.MatrixModelSpec("gue", 5), 2, 400, 1)
assert mean[0] == 1.0
assert abs(mean[1]) < 5 * se[1] and abs(mean[2] - 1.0) < 5 * se[2], (mean, se)
assert loaded() == [], loaded()

points = bz.spectrum(bz.build_truncation(gue, 5, 0)).points
r = np.sqrt(10.0)
he5 = np.array([-np.sqrt(5 + r), -np.sqrt(5 - r), 0.0, np.sqrt(5 - r), np.sqrt(5 + r)])
assert np.allclose(points.real, he5 / np.sqrt(5), rtol=0, atol=1e-13), points
assert "scipy.linalg" in loaded() and "scipy.special" not in loaded(), loaded()
"""
    run_fresh(code)


def test_limit_law_and_sampler_paths_load_no_scipy():
    # the limit-law layers and every model's sampled moments run on numpy
    # alone, so none of them pays for scipy.linalg's import
    code = """
import math
import sys
import bandedzeros as bz

for spec in (
    bz.MatrixModelSpec("gue", 6),
    bz.MatrixModelSpec("wishart", 6, alpha=1.0),
    bz.MatrixModelSpec("gue_source", 6, source=bz.realize_diagonal((0.5, 0.5), (1.0, -1.0), 6)),
    bz.MatrixModelSpec("wishart_cov", 6, alpha=1.0,
                       source=bz.realize_diagonal((0.5, 0.5), (1.0, 0.5), 6)),
):
    assert bz.mc_moments(spec, 2, 20, 1)[0][0] == 1.0, spec.kind
mixture = bz.ArcsineMixture(*bz.kva_functions("gue"))
assert abs(mixture.moment(2) - 1.0) < 1e-12
sc, mp = bz.SemicircleLaw(), bz.MarchenkoPasturLaw(1)
assert bz.free_add(sc, sc, 4).values[2] == 2
assert bz.free_mul(mp, mp, 2).values[1] == 1
curve = bz.curve_hermite((1,), (0,))
assert abs(bz.curve_moments(curve, 4).values[2] - 1.0) < 1e-9
assert abs(bz.stieltjes_density(curve, 0.0) - 1 / math.pi) < 1e-5
loaded = sorted(m for m in sys.modules if m.startswith(("scipy.linalg", "scipy.special")))
assert loaded == [], loaded
"""
    run_fresh(code)
