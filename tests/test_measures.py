"""Limit-law moments and densities against quadrature."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

import bandedzeros.measures as measures_mod
from bandedzeros import kva_functions
from bandedzeros.measures import (
    ArcsineLaw,
    ArcsineMixture,
    AtomicMeasure,
    MarchenkoPasturLaw,
    MomentSequence,
    SemicircleLaw,
    kva_moment,
)


def quad_moment(law, ell, lo, hi):
    val, err = integrate.quad(
        lambda x: x**ell * law.density(x), lo, hi, limit=400, points=[lo, hi]
    )
    for x, w in law.atoms():
        val += w * x**ell
    return val


def test_arcsine_point_mass():
    assert ArcsineLaw(3, 3).moment(5) == 243


def test_arcsine_symmetric_values():
    assert ArcsineLaw(-2, 2).moment(1) == 0
    assert ArcsineLaw(-2, 2).moment(2) == 2


def test_arcsine_against_quadrature():
    law = ArcsineLaw(-1.0, 2.5)
    for ell in range(13):
        ref = quad_moment(law, ell, -1.0, 2.5)
        assert math.isclose(float(law.moment(ell)), ref, rel_tol=1e-8, abs_tol=1e-10)


def test_arcsine_relabel_invariance():
    # construction sorts the endpoints, so either order is the same law
    assert ArcsineLaw(2.0, -1.0).moment(3) == ArcsineLaw(-1.0, 2.0).moment(3)


def test_arcsine_odd_moments_vanish_when_symmetric():
    law = ArcsineLaw(-1.7, 1.7)
    for ell in (1, 3, 5, 7):
        assert abs(float(law.moment(ell))) < 1e-14


def test_semicircle_moments_are_catalan():
    law = SemicircleLaw()
    assert law.moment(0) == 1
    assert law.moment(2) == 1
    assert law.moment(4) == 2
    assert law.moment(6) == 5
    assert law.moment(3) == 0


def test_semicircle_against_quadrature():
    law = SemicircleLaw()
    for ell in range(13):
        ref = quad_moment(law, ell, -2.0, 2.0)
        assert math.isclose(float(law.moment(ell)), ref, rel_tol=1e-8, abs_tol=1e-10)


def test_mp_moments():
    assert MarchenkoPasturLaw(1).moment(2) == 2
    assert MarchenkoPasturLaw(1).moment(3) == 5
    assert MarchenkoPasturLaw(0).moment(3) == 0


def test_mp_first_moment_is_rate():
    for alpha in (0.25, 1, 2, 3.5):
        assert float(MarchenkoPasturLaw(alpha).moment(1)) == pytest.approx(alpha, rel=1e-14)


def test_mp_against_quadrature():
    for alpha in (0.5, 1.0, 2.0):
        law = MarchenkoPasturLaw(alpha)
        lo = (1 - math.sqrt(alpha)) ** 2
        hi = (1 + math.sqrt(alpha)) ** 2
        for ell in range(13):
            ref = quad_moment(law, ell, lo, hi)
            assert math.isclose(
                float(law.moment(ell)), ref, rel_tol=1e-8, abs_tol=1e-10
            )


def test_mp_atom_mass():
    assert MarchenkoPasturLaw(0.25).atoms() == [(0.0, 0.75)]
    assert MarchenkoPasturLaw(2.0).atoms() == []


def test_kva_semicircle_profile():
    mix = ArcsineMixture(lambda s: np.sqrt(s), lambda s: 0.0)
    assert kva_moment(mix, 2) == pytest.approx(1.0, abs=1e-10)
    assert kva_moment(mix, 4) == pytest.approx(2.0, abs=1e-10)


def test_kva_constant_profile_is_single_arcsine():
    a, b = 0.7, -0.3
    mix = ArcsineMixture(lambda s: a, lambda s: b)
    law = ArcsineLaw(b - 2 * a, b + 2 * a)
    for ell in range(7):
        # Gauss-Legendre of a constant integrand is exact
        assert kva_moment(mix, ell) == pytest.approx(float(law.moment(ell)), abs=1e-13)


def test_kva_point_profile():
    mix = ArcsineMixture(lambda s: 0.0, lambda s: 1.5)
    assert kva_moment(mix, 1) == pytest.approx(1.5, abs=1e-13)


def test_mixture_rejects_bad_order():
    calls = []

    def a(s):
        calls.append(s)
        return 1.0

    with pytest.raises(ValueError):
        ArcsineMixture(a, lambda s: 0.0, order=0)
    assert calls == []


CLASSICAL_PROFILES = {
    "gue": {},
    "wishart": {"alpha": 1.0},
    "jacobi": {"alpha": 1.0, "beta": 1.0},
    "charlier": {"alpha": 1.0},
    "meixner": {"alpha": 0.5, "beta": 1.0},
}


def node_by_node(a, b, order, ell=None, x=None):
    """A mixture's moment ``ell`` or density at ``x``, one ArcsineLaw per
    Gauss-Legendre node."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    terms = []
    for s, w in zip(0.5 * (nodes + 1.0), 0.5 * weights):
        law = ArcsineLaw(b(s) - 2.0 * a(s), b(s) + 2.0 * a(s))
        terms.append(w * (float(law.moment(ell)) if x is None else law.density(x)))
    return math.fsum(terms)


@pytest.mark.parametrize("name", sorted(CLASSICAL_PROFILES))
def test_mixture_matches_per_node_arcsine_laws(name):
    # within 4 ulp, not bitwise: numpy's ** on arrays need not round as
    # the scalar pow does
    a, b = kva_functions(name, **CLASSICAL_PROFILES[name])
    mix = ArcsineMixture(a, b)
    for ell in range(9):
        ref = node_by_node(a, b, 200, ell=ell)
        assert abs(mix.moment(ell) - ref) <= 4 * math.ulp(ref), ell
    for x in np.linspace(-3.0, 7.0, 41):
        ref = node_by_node(a, b, 200, x=x)
        assert abs(mix.density(x) - ref) <= 4 * math.ulp(ref), x


def test_mixture_calls_each_profile_once_on_the_nodes():
    calls = []

    def profile(scale):
        def f(s):
            calls.append(s)
            return scale * np.sqrt(s)

        return f

    ArcsineMixture(profile(1.0), profile(0.5), order=40)
    nodes, _ = measures_mod._gauss_legendre(40)
    assert len(calls) == 2
    for s in calls:
        assert isinstance(s, np.ndarray) and not s.flags.writeable
        assert s.tobytes() == nodes.tobytes()


@pytest.mark.parametrize("order", [40, 200, 1000])
@pytest.mark.parametrize(
    "name, params",
    [
        ("gue", {}),
        ("wishart", {"alpha": 0.0}),
        ("wishart", {"alpha": 1.0}),
        ("jacobi", {"alpha": 1.0, "beta": 1.0}),
        ("jacobi", {"alpha": 0.3, "beta": 2.5}),
        ("charlier", {"alpha": 1.0}),
        ("meixner", {"alpha": 0.5, "beta": 1.0}),
        ("meixner", {"alpha": 0.1, "beta": 3.0}),
    ],
    ids=["gue", "wishart-0", "wishart-1", "jacobi-1-1", "jacobi-0.3-2.5", "charlier",
         "meixner-0.5-1", "meixner-0.1-3"],
)
def test_mixture_endpoints_equal_a_per_node_loop(name, params, order):
    # the profiles on the node array give the bits of one scalar call per node
    a, b = kva_functions(name, **params)
    nodes, _ = measures_mod._gauss_legendre(order)
    a_s = np.array([a(s) for s in nodes], dtype=float)
    b_s = np.array([b(s) for s in nodes], dtype=float)
    lo, hi = b_s - 2.0 * a_s, b_s + 2.0 * a_s
    mix = ArcsineMixture(a, b, order=order)
    assert mix._alpha.tobytes() == np.minimum(lo, hi).tobytes()
    assert mix._beta.tobytes() == np.maximum(lo, hi).tobytes()


def test_mixture_runs_leggauss_once_per_order(monkeypatch):
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counting(order):
        calls.append(order)
        return leggauss(order)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    measures_mod._gauss_legendre.cache_clear()
    for order in (37, 41, 37, 41):
        mix = ArcsineMixture(lambda s: 1.0, lambda s: 0.0, order=order)
        assert mix.moment(2) == pytest.approx(2.0, rel=1e-14)
    assert calls == [37, 41]


def test_density_eval_values():
    assert SemicircleLaw().density(0.0) == pytest.approx(1 / math.pi, rel=1e-14)
    assert ArcsineLaw(-2, 2).density(0.0) == pytest.approx(1 / (2 * math.pi), rel=1e-14)
    assert MarchenkoPasturLaw(1.0).density(4.5) == 0.0


def test_density_eval_never_smooths_atoms():
    assert MarchenkoPasturLaw(0.25).density(0.0) == 0.0


def test_atomic_measure_moments_exact():
    nu = AtomicMeasure([(Fraction(1), Fraction(1, 2)), (Fraction(-1), Fraction(1, 2))])
    assert nu.moment(1) == 0
    assert nu.moment(2) == 1
    assert nu.moment(7) == 0


def test_atomic_measure_validation():
    with pytest.raises(ValueError):
        AtomicMeasure([])
    with pytest.raises(ValueError):
        AtomicMeasure([(1.0, 0.5), (1.0, 0.5)])
    with pytest.raises(ValueError):
        AtomicMeasure([(0.0, 0.4), (1.0, 0.4)])


def test_moment_sequence_contract():
    seq = MomentSequence((1, 0.5, 0.75))
    assert seq.order == 2
    assert seq[1] == 0.5
    assert len(seq) == 3
    with pytest.raises(ValueError):
        MomentSequence((2.0, 0.0))
    with pytest.raises(ValueError):
        MomentSequence(())
    with pytest.raises(ValueError):
        MomentSequence((1.0, float("inf")))


def test_moment_sequence_floats():
    seq = MomentSequence(tuple(SemicircleLaw().moment(ell) for ell in range(7)))
    assert seq.floats() == [1, 0, 1, 0, 2, 0, 5]


def test_arcsine_degenerate_interval():
    law = ArcsineLaw(1.25, 1.25)
    assert law.moment(2) == pytest.approx(1.25**2)
    assert law.atoms() == [(1.25, 1.0)]


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_mixture_density_integrates_to_one():
    mix = ArcsineMixture(lambda s: np.sqrt(s), lambda s: 0.0, order=120)
    val, _ = integrate.quad(mix.density, -2.0, 2.0, limit=300)
    assert val == pytest.approx(1.0, abs=5e-3)


def mixture_reference(mix, ell):
    """A mixture's moment as a 60-digit sum over the same nodes and
    endpoints."""
    mpmath = pytest.importorskip("mpmath")
    terms = [math.comb(ell, 2 * j) * math.comb(2 * j, j) for j in range(ell // 2 + 1)]
    with mpmath.workdps(60):
        total = mpmath.mpf(0)
        for lo, hi, w in zip(mix._alpha.tolist(), mix._beta.tolist(), mix._weights.tolist()):
            c, half_rho = (mpmath.mpf(lo) + hi) / 2, (mpmath.mpf(hi) - lo) / 4
            node = mpmath.fsum(
                t * c ** (ell - 2 * j) * half_rho ** (2 * j)
                for j, t in enumerate(terms)
                if c != 0 or 2 * j == ell
            )
            total += w * node
        return total


@pytest.mark.parametrize(
    "name, params, ell",
    [
        ("jacobi", CLASSICAL_PROFILES["jacobi"], 700),
        ("jacobi", CLASSICAL_PROFILES["jacobi"], 1000),
        ("gue", {}, 700),
        ("gue", {}, 1000),
        ("wishart", CLASSICAL_PROFILES["wishart"], 405),
        ("jacobi", {"alpha": 10.0, "beta": 10.0}, 500),
    ],
    ids=["jacobi-700", "jacobi-1000", "gue-700", "gue-1000", "wishart-405", "narrow-jacobi-500"],
)
def test_high_order_mixture_moments_match_a_60_digit_sum(name, params, ell):
    # from ell = 653 some C(l, 2j) C(2j, j) pass the double range; by
    # ell = 1000 jacobi's (rho/2)^l falls below it, and by ell = 500 the
    # narrow jacobi profile's does for every node; at ell = 405 wishart's
    # largest node moments pass it while their weighted sum does not
    mix = ArcsineMixture(*kva_functions(name, **params))
    got, ref = mix.moment(ell), mixture_reference(mix, ell)
    assert math.isfinite(got) and got != 0
    assert abs(got - ref) <= 1e-12 * abs(ref)


def test_float_moments_keep_the_closed_form_bits():
    # values of the plain float sum over j, at orders where it stays in range
    pins = [
        ("gue", 600, "0x1.c5b55e7505958p+586"),
        ("wishart", 404, "0x1.1619bbc1b049ep+1014"),
        ("charlier", 401, "0x1.258079691d83bp+789"),
        ("meixner", 314, "0x1.3a22a89beb5c7p+1014"),
    ]
    for name, ell, value in pins:
        mix = ArcsineMixture(*kva_functions(name, **CLASSICAL_PROFILES[name]))
        assert mix.moment(ell) == float.fromhex(value), name


def test_arcsine_moment_past_the_binomials_double_range():
    # C(800, 400) / 2^800: every C(800, 2j) C(2j, j) with j near 200 is
    # past the double range, but only the term j = 400 is not 0
    exact = float(ArcsineLaw(-1, 1).moment(800))
    assert abs(ArcsineLaw(-1.0, 1.0).moment(800) - exact) <= 1e-13 * exact


def test_float_moments_past_the_double_range_raise():
    mix = ArcsineMixture(*kva_functions("wishart", alpha=1.0))
    with pytest.raises(OverflowError, match="order 408"):
        mix.moment(408)
    with pytest.raises(OverflowError):
        ArcsineLaw(0.5, 4.0).moment(600)
