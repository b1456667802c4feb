"""Classical recurrence tables, their scaling limits, and band structure."""

import math

import numpy as np
import pytest

from bandedzeros.errors import SchemeError
from bandedzeros.recurrence import (
    CLASSICAL_ENSEMBLES,
    RecurrenceScheme,
    classical_scheme,
    kva_functions,
)
from bandedzeros.mop import mop_scheme


def test_gue_table_values():
    s = classical_scheme("gue")
    # a_{4,4}^2 = 4/4, b = 0
    assert s.entry(3, 4, 4) == pytest.approx(1.0)
    assert s.entry(4, 4, 4) == 0.0


def test_wishart_table_values():
    s = classical_scheme("wishart", alpha=0.0)
    # k = 1, N = 1: a^2 = 1*(1+0) = 1, b = (2*1+1)/1 + 0 = 3
    assert s.entry(0, 1, 1) == pytest.approx(1.0)
    assert s.entry(1, 1, 1) == pytest.approx(3.0)


def test_charlier_table_values():
    s = classical_scheme("charlier", alpha=2.0)
    # k = 3, N = 3: a^2 = 2*1 = 2, b = 2 + 1 = 3
    assert s.entry(2, 3, 3) == pytest.approx(math.sqrt(2.0))
    assert s.entry(3, 3, 3) == pytest.approx(3.0)


def test_coeff_k0_convention():
    # the band zeroes T[-1, 0]: a_0 = 0
    a0, b0 = classical_scheme("gue").band(10, 1, 0)[:2, 0]
    assert a0 == 0.0
    assert b0 == 0.0


def test_meixner_diagonal_value():
    s = classical_scheme("meixner", alpha=0.5, beta=1.0)
    N = 100
    a, b = s.band(N, N + 1, N)[:2, 0]
    assert b == pytest.approx(4.0)
    assert a**2 == pytest.approx(4.0 * 1.0 * (1.0 + 1.0 - 1.0 / N))


def test_jacobi_symmetric_parameters_center_diagonal():
    s = classical_scheme("jacobi", alpha=1.0, beta=1.0)
    _, b = s.band(4000, 4001, 4000)[:2, 0]
    assert abs(b) < 1e-3


def test_kva_functions_gue():
    a, b = kva_functions("gue")
    for s_val in (0.1, 0.5, 1.0):
        assert a(s_val) == pytest.approx(math.sqrt(s_val))
        assert b(s_val) == 0.0


def test_kva_functions_wishart():
    a, b = kva_functions("wishart", alpha=2.0)
    for s_val in (0.25, 1.0):
        assert a(s_val) == pytest.approx(math.sqrt(s_val * (s_val + 2.0)))
        assert b(s_val) == pytest.approx(2.0 * s_val + 2.0)


def test_kva_functions_charlier():
    a, b = kva_functions("charlier", alpha=1.0)
    assert a(0.49) == pytest.approx(0.7)
    assert b(0.5) == pytest.approx(1.5)


@pytest.mark.parametrize(
    "name,params",
    [
        ("gue", {}),
        ("wishart", {"alpha": 1.0}),
        ("jacobi", {"alpha": 1.0, "beta": 1.0}),
        ("charlier", {"alpha": 1.0}),
        ("meixner", {"alpha": 0.5, "beta": 1.0}),
    ],
)
def test_coefficients_approach_their_limits(name, params):
    scheme = classical_scheme(name, **params)
    limit_a, limit_b = kva_functions(name, **params)
    N = 1000
    for s_val in (0.25, 0.5, 1.0):
        k = int(s_val * N)
        a_k, b_k = scheme.band(N, k + 1, k)[:2, 0]
        assert abs(a_k - limit_a(s_val)) < 1e-2
        assert abs(b_k - limit_b(s_val)) < 1e-2


@pytest.mark.parametrize(
    "name, params, m, k, N, bits",
    [
        ("wishart", {"alpha": 0.37}, 3, 3, 7, "0x1.5eb851eb851ecp+0"),
        ("jacobi", {"alpha": 2.0, "beta": 0.5}, 4, 5, 11, "0x1.38b2b00cb2358p-2"),
        ("jacobi", {"alpha": 2.0, "beta": 0.5}, 5, 5, 11, "-0x1.39ae56d877402p-2"),
        # a_1 at k = 1, where meixner's -1/N correction is as large as it gets
        ("meixner", {"alpha": 0.5, "beta": 1.0}, 0, 1, 3, "0x1.279a74590331cp+0"),
        ("meixner", {"alpha": 0.5, "beta": 1.0}, 0, 1, 1000, "0x1.030dc4ea03a72p-4"),
        ("meixner", {"alpha": 0.1, "beta": 3.0}, 0, 1, 7, "0x1.746cd9dd1acd9p-1"),
    ],
)
def test_band_entries_keep_their_bits(name, params, m, k, N, bits):
    assert classical_scheme(name, **params).entry(m, k, N).hex() == bits


@pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (2.0, 0.5), (10.0, 10.0)])
def test_jacobi_limit_is_the_closed_form(alpha, beta):
    # a(s) at the continuum step is sqrt(4P / t^4); the closed form
    # writes it 2 sqrt(P) / t^2, which may round the other way by 1 ulp
    limit_a, limit_b = kva_functions("jacobi", alpha=alpha, beta=beta)
    nodes = (np.polynomial.legendre.leggauss(200)[0] + 1) / 2
    for s in nodes.tolist():
        t = 2 * s + alpha + beta
        closed = 2 * math.sqrt(s * (s + alpha) * (s + beta) * (s + alpha + beta)) / (t * t)
        assert abs(limit_a(s) - closed) <= math.ulp(closed), s
        assert limit_b(s) == (beta * beta - alpha * alpha) / (t * t), s


@pytest.mark.parametrize(
    "name,params",
    [
        ("gue", {}),
        ("wishart", {"alpha": 0.5}),
        ("jacobi", {"alpha": 2.0, "beta": 1.0}),
        ("charlier", {"alpha": 1.5}),
        ("meixner", {"alpha": 0.25, "beta": 2.0}),
    ],
)
def test_band_declaration_honored(name, params):
    scheme = classical_scheme(name, **params)
    rng = np.random.default_rng(20240811)
    N = 37
    for _ in range(10_000):
        k = int(rng.integers(0, 60))
        m = int(rng.integers(0, 60))
        if abs(m - k) <= 1:
            continue
        assert scheme.entry(m, k, N) == 0.0


def test_band_start_selects_columns(monkeypatch):
    from bandedzeros import mop
    from bandedzeros.mop import mop_scheme

    makers = [
        lambda: classical_scheme("gue"),
        lambda: classical_scheme("jacobi", alpha=1.0, beta=1.0),
        lambda: mop_scheme("multiple-hermite", a=(1.0, -1.0), q=(0.5, 0.5)),
        lambda: mop_scheme("multiple-hermite", a=(1.0, 0.0, -1.0), q=(1 / 3,) * 3),
    ]
    for make in makers:
        full = make().band(20, 30)
        assert full.shape == (make().down_band + 2, 30)
        for start in (0, 1, 5, 29, 30):
            # a fresh scheme, so no column is served from an earlier call
            assert np.array_equal(make().band(20, 30, start), full[:, start:])

    # one reused multi-index scheme keeps one window, the widest asked
    # for at the last N: requests inside it are slices (hits), others are
    # computed and replace it when wider or at another N
    computed = []
    cascade = mop._cascade

    def counting(path, coeff_fn, N, start, stop):
        computed.append((N, start, stop))
        return cascade(path, coeff_fn, N, start, stop)

    monkeypatch.setattr(mop, "_cascade", counting)
    reused = makers[2]()
    requests = [
        ((20, 0, 30), True),  # first request for N = 20
        ((20, 5, 12), False),
        ((20, 29, 30), False),
        ((20, 10, 35), True),  # past the window, and narrower: kept out
        ((20, 12, 30), False),
        ((20, 0, 30), False),
        ((20, 30, 35), True),
        ((20, 0, 40), True),  # wider: replaces the window
        ((20, 10, 35), False),
        ((21, 0, 25), True),  # another N: replaces the window
        ((20, 3, 9), True),  # back at N = 20: replaces it again
        ((20, 4, 8), False),
        ((21, 10, 25), True),
        ((21, 12, 20), False),
    ]
    for (N, start, stop), miss in requests:
        before = len(computed)
        window = reused.band(N, stop, start)
        assert len(computed) - before == miss, (N, start, stop)
        fresh = makers[2]().band(N, stop)
        assert np.array_equal(window, fresh[:, start:]), (N, start, stop)


BAND_SCHEMES = {
    "gue": lambda: classical_scheme("gue"),
    "wishart": lambda: classical_scheme("wishart", alpha=1.0),
    "jacobi": lambda: classical_scheme("jacobi", alpha=2.0, beta=1.0),
    "charlier": lambda: classical_scheme("charlier", alpha=1.5),
    "meixner": lambda: classical_scheme("meixner", alpha=0.25, beta=2.0),
    "mh2": lambda: mop_scheme("multiple-hermite", a=(1.0, -1.0), q=(0.5, 0.5)),
    "mh3": lambda: mop_scheme("multiple-hermite", a=(1.0, 0.0, -1.0), q=(0.25, 0.25, 0.5)),
    "ml2": lambda: mop_scheme("multiple-laguerre", a=(1.0, 2.0), q=(0.3, 0.7), alpha=0.5),
}


@pytest.mark.parametrize("make", BAND_SCHEMES.values(), ids=BAND_SCHEMES.keys())
def test_band_zeroes_the_entries_outside_the_truncation(make):
    # band() zeroes the entries with m < 0 or m >= stop by their position;
    # it must give the bits of the mask over the whole window
    rng = np.random.default_rng(20261020)
    for _ in range(60):
        scheme = make()
        N = int(rng.integers(1, 40))
        start = int(rng.integers(0, 12))
        stop = start + int(rng.integers(0, 12))
        band = np.array(scheme.band_fn(N, start, stop), dtype=float)
        m = np.arange(start, stop) + np.arange(-scheme.down_band, 2)[:, None]
        band[(m < 0) | (m >= stop)] = 0.0
        assert scheme.band(N, stop, start).tobytes() == band.tobytes(), (N, start, stop)


def test_tridiagonal_symmetry():
    for name, params in [
        ("gue", {}),
        ("wishart", {"alpha": 1.0}),
        ("charlier", {"alpha": 1.0}),
    ]:
        scheme = classical_scheme(name, **params)
        for k in range(0, 30, 7):
            assert scheme.entry(k + 1, k, 17) == scheme.entry(k, k + 1, 17)


def test_parameter_validation():
    with pytest.raises(SchemeError):
        classical_scheme("gue", alpha=1.0)
    with pytest.raises(SchemeError):
        classical_scheme("wishart")
    with pytest.raises(SchemeError):
        classical_scheme("meixner", alpha=1.5, beta=1.0)
    with pytest.raises(SchemeError):
        classical_scheme("charlier", alpha=-1.0)
    # a_1^2 = (1/N)(1/N + alpha) < 0 once N > -1/alpha
    with pytest.raises(SchemeError, match="wishart needs alpha >= 0"):
        classical_scheme("wishart", alpha=-0.5)
    with pytest.raises(SchemeError):
        classical_scheme("unknown-ensemble")


def test_registry_names():
    assert set(CLASSICAL_ENSEMBLES) == {
        "gue",
        "wishart",
        "jacobi",
        "charlier",
        "meixner",
    }


@pytest.mark.parametrize(
    "shape",
    [
        # numeric ids count the superdiagonals the band_fn claims
        pytest.param(lambda width: (2, width), id="0"),
        pytest.param(lambda width: (4, width), id="2"),
        pytest.param(lambda width: (5, width), id="3"),
        pytest.param(lambda width: (3, width + 1), id="extra-column"),
        pytest.param(lambda width: (width,), id="1-d"),
    ],
)
def test_scheme_needs_exactly_one_superdiagonal(shape):
    # a band_fn must give down_band + 2 rows, one column per index
    def band(N, start, stop):
        return np.ones(shape(stop - start))

    scheme = RecurrenceScheme(name="wide", down_band=1, band_fn=band)
    with pytest.raises(SchemeError, match=r"'wide' gave band shape .*, not \(3, 5\)"):
        scheme.band(4, 5)
    with pytest.raises(SchemeError, match="'wide' gave band shape"):
        scheme.entry(1, 2, 4)
