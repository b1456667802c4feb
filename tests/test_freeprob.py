"""Free convolution: series transforms against closed forms, curves
against the series pipeline, and the analytic-branch machinery against
known Cauchy transforms.

The series layer is exact on exact input, so most equalities here are
literal Fraction comparisons.  The curve layer is numerical (contour
integration, homotopy continuation); its checks carry the 1e-8
agreement tolerance that the two routes are required to meet.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate

from bandedzeros import (
    AtomicMeasure,
    ContinuationError,
    FormalSeries,
    MarchenkoPasturLaw,
    SemicircleLaw,
    curve_hermite,
    curve_laguerre,
    curve_moments,
    free_add,
    free_mul,
    k_transform_series,
    moments_from_r,
    r_transform_series,
    s_transform_series,
    series_compose_inverse,
    solve_G,
    stieltjes_density,
)

HALF = Fraction(1, 2)
SC = SemicircleLaw()
ATOMS_PM1 = AtomicMeasure([(1, HALF), (-1, HALF)])
ATOMS_RECIP = AtomicMeasure([(1, HALF), (HALF, HALF)])


def compose(f, g, L):
    """f(g(x)) truncated at order L for dense coefficient lists."""
    out = [f[0] * 0] * (L + 1)
    out[0] = f[0]
    power = [f[0] * 0] + [c * 0 + 1 if i == 0 else c * 0 for i, c in enumerate(g[1:])]
    power = [f[0] * 0] * (L + 1)
    power[0] = f[0] * 0 + 1  # g^0
    for k in range(1, len(f)):
        nxt = [f[0] * 0] * (L + 1)
        for i, pi in enumerate(power):
            if pi == 0:
                continue
            for j, gj in enumerate(g):
                if i + j > L:
                    break
                nxt[i + j] += pi * gj
        power = nxt
        if f[k] != 0:
            for i in range(L + 1):
                out[i] += f[k] * power[i]
    return out


def mp_ratio_moments(lam, count):
    """Moments of the mean-1 Marchenko-Pastur law with ratio lam:
    sum_j Narayana(l, j) lam^(l-j)."""
    out = [Fraction(1)]
    for ell in range(1, count + 1):
        total = Fraction(0)
        for j in range(1, ell + 1):
            total += Fraction(math.comb(ell, j) * math.comb(ell, j - 1), ell) * lam ** (
                ell - j
            )
        out.append(total)
    return out


# ---------------------------------------------------------------------------
# series transforms


def test_compose_inverse_identity():
    ident = FormalSeries((1, 0, 0, 0), offset=1)
    assert series_compose_inverse(ident).coeffs == (1, 0, 0, 0)


def test_compose_inverse_roundtrip():
    f = FormalSeries((Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 3)), offset=1)
    g = series_compose_inverse(f)
    dense_f = [Fraction(0)] + list(f.coeffs)
    dense_g = [Fraction(0)] + list(g.coeffs)
    assert compose(dense_f, dense_g, 4) == [0, 1, 0, 0, 0]
    assert compose(dense_g, dense_f, 4) == [0, 1, 0, 0, 0]


def test_compose_inverse_rejects_bad_leading_terms():
    with pytest.raises(ValueError):
        series_compose_inverse(FormalSeries((1, 1), offset=0))
    with pytest.raises(ValueError):
        series_compose_inverse(FormalSeries((0, 1), offset=1))


def test_formal_series_accessors():
    s = FormalSeries((1, 0, 1), offset=-1)
    assert s.order == 1
    assert s.coefficient(-1) == 1
    assert s.coefficient(-2) == 0
    assert s.coefficient(1) == 1
    with pytest.raises(ValueError):
        s.coefficient(2)
    with pytest.raises(ValueError):
        FormalSeries(())


def test_r_transform_of_point_mass_is_constant():
    a = Fraction(7, 3)
    r = r_transform_series(AtomicMeasure([(a, 1)]), 5)
    assert r.coeffs == (a, 0, 0, 0, 0)


def test_r_transform_of_semicircle_is_linear():
    r = r_transform_series(SC, 4)
    assert r.coeffs == (0, 1, 0, 0)


def test_k_transform_has_simple_pole():
    k = k_transform_series(SC, 4)
    assert k.offset == -1
    assert k.coeffs == (1, 0, 1, 0, 0)
    assert k.coefficient(-1) == 1


def test_moments_from_r_inverts_r_transform():
    mp = MarchenkoPasturLaw(2)
    r = r_transform_series(mp, 8)
    # free Poisson cumulants are constant
    assert r.coeffs == (2,) * 8
    back = moments_from_r(r, 8)
    assert back.values == tuple(mp.moment(ell) for ell in range(9))
    with pytest.raises(ValueError):
        moments_from_r(k_transform_series(mp, 4), 4)


def test_s_transform_of_free_poisson_is_geometric():
    s = s_transform_series(MarchenkoPasturLaw(2), 4)
    assert s.coeffs == (HALF, Fraction(-1, 4), Fraction(1, 8), Fraction(-1, 16))


def test_transform_input_validation():
    with pytest.raises(ValueError):
        r_transform_series(SC, 0)
    with pytest.raises(ValueError):
        r_transform_series([2, 0, 1], 2)
    with pytest.raises(ValueError):
        r_transform_series([1, 0], 4)
    with pytest.raises(ValueError):
        s_transform_series(SC, 4)  # first moment zero


# ---------------------------------------------------------------------------
# free convolution, series route


def test_additive_point_masses_add():
    out = free_add(AtomicMeasure([(2, 1)]), AtomicMeasure([(-5, 1)]), 6)
    assert out.values == tuple(Fraction(-3) ** ell for ell in range(7))


def test_additive_shift_is_binomial_transform():
    a = Fraction(3, 2)
    out = free_add(SC, AtomicMeasure([(a, 1)]), 6)
    sc = [SC.moment(k) for k in range(7)]
    for ell in range(7):
        expected = sum(
            math.comb(ell, k) * sc[k] * a ** (ell - k) for k in range(ell + 1)
        )
        assert out.values[ell] == expected


def test_additive_semicircle_with_symmetric_atoms():
    out = free_add(SC, ATOMS_PM1, 6)
    assert out.values == (1, 0, 2, 0, 7, 0, 30)


def test_additive_identity_element():
    mp = MarchenkoPasturLaw(2)
    out = free_add(mp, AtomicMeasure([(0, 1)]), 8)
    assert out.values == tuple(mp.moment(ell) for ell in range(9))


def test_multiplicative_dilation():
    out = free_mul(MarchenkoPasturLaw(1), AtomicMeasure([(3, 1)]), 5)
    catalan = [1, 1, 2, 5, 14, 42]
    assert out.values == tuple(c * Fraction(3) ** ell for ell, c in enumerate(catalan))


def test_multiplicative_identity_element():
    mp = MarchenkoPasturLaw(2)
    out = free_mul(mp, AtomicMeasure([(1, 1)]), 8)
    assert out.values == tuple(mp.moment(ell) for ell in range(9))


def test_multiplicative_free_poisson_with_atoms():
    out = free_mul(MarchenkoPasturLaw(1), ATOMS_RECIP, 4)
    assert out.values == (
        1,
        Fraction(3, 4),
        Fraction(19, 16),
        Fraction(153, 64),
        Fraction(1389, 256),
    )


def test_first_moment_multiplicativity():
    for rate in (2, 3):
        out = free_mul(MarchenkoPasturLaw(rate), ATOMS_RECIP, 2)
        assert out.values[1] == rate * Fraction(3, 4)


def test_multiplicative_rejects_centered_input():
    with pytest.raises(ValueError):
        free_mul(SC, ATOMS_RECIP, 4)


# ---------------------------------------------------------------------------
# curve construction


def test_hermite_curve_single_location_is_semicircle_quadratic():
    curve = curve_hermite((1,), (0,))
    # w (z - w) - 1, i.e. -(w^2 - z w + 1)
    assert curve.deg_w == 2
    assert curve.table == ((-1, 0), (0, 1), (-1, 0))


def test_laguerre_curve_single_location_is_mp_quadratic():
    alpha = Fraction(1, 3)
    curve = curve_laguerre((1,), (1,), alpha)
    # -(alpha z w^2 - (z - 1 + alpha) w + 1)
    assert curve.table == ((-1, 0), (alpha - 1, 1), (0, -alpha))
    unit = curve_laguerre((1,), (1,), 1)
    assert unit.table == ((-1, 0), (0, 1), (0, -1))


def test_hermite_curve_at_w_zero():
    q = (Fraction(1, 5), Fraction(3, 10), HALF)
    a = (0, 1, -2)
    curve = curve_hermite(q, a)
    for z in (0.3, 2.7, -1.4):
        direct = -sum(
            float(qi) * np.prod([z - aj for j, aj in enumerate(a) if j != i])
            for i, qi in enumerate(q)
        )
        assert curve.wpoly_at(z)[0] == pytest.approx(direct, rel=1e-12)


def test_laguerre_curve_alpha_zero_is_atomic_transform():
    curve = curve_laguerre((HALF, HALF), (1, 2), 0)
    assert complex(solve_G(curve, 5.0)) == pytest.approx(17 / 72, abs=1e-10)
    moments = curve_moments(curve, 4)
    expected = [float(HALF + HALF * HALF**ell) for ell in range(5)]
    assert np.allclose(moments.floats(), expected, atol=1e-8)


def test_curve_input_validation():
    with pytest.raises(ValueError):
        curve_hermite((HALF, HALF), (1, 1))
    with pytest.raises(ValueError):
        curve_hermite((HALF, HALF, HALF), (0, 1, 2))
    with pytest.raises(ValueError):
        curve_hermite((1, 0), (0, 1))
    with pytest.raises(ValueError):
        curve_laguerre((HALF, HALF), (1, -2), 1)
    with pytest.raises(ValueError):
        curve_laguerre((1,), (1,), -1)


# ---------------------------------------------------------------------------
# branch solving


def test_semicircle_branch_closed_form():
    curve = curve_hermite((1,), (0,))
    assert complex(solve_G(curve, 3.0)) == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-12)


def test_asymptotic_branch_behaves_like_reciprocal():
    curves = [
        curve_hermite((HALF, HALF), (1, -1)),
        curve_laguerre((HALF, HALF), (1, 2), 1),
    ]
    for curve in curves:
        for z in (1e6, 1e6j, -1e6 + 0.5j):
            g = solve_G(curve, z)
            assert abs(g - 1 / z) <= 1e-5 * abs(1 / z)


def test_symmetric_curve_on_imaginary_axis():
    curve = curve_hermite((HALF, HALF), (1, -1))
    g = solve_G(curve, 1j)
    assert abs(g.real) < 1e-10
    assert g.imag < 0


def test_branch_is_nevanlinna_on_upper_half_plane():
    cases = [
        (curve_hermite((HALF, HALF), (1, -1)), np.linspace(-3.8, 3.8, 40)),
        (curve_laguerre((HALF, HALF), (1, 2), 1), np.linspace(-1.0, 6.0, 40)),
    ]
    for curve, reals in cases:
        for re in reals:
            for im in np.linspace(0.05, 4.0, 25):
                assert solve_G(curve, complex(re, im)).imag < 0


def test_branch_rejects_origin():
    with pytest.raises(ContinuationError):
        solve_G(curve_hermite((1,), (0,)), 0)


# ---------------------------------------------------------------------------
# density


def test_semicircle_density_at_center():
    curve = curve_hermite((1,), (0,))
    val = stieltjes_density(curve, 0.0, eps=1e-6)
    assert val == pytest.approx(1 / math.pi, abs=1e-5)
    refined = stieltjes_density(curve, 0.0, eps=1e-5, richardson=True)
    assert refined == pytest.approx(1 / math.pi, abs=1e-7)


def test_mp_density_value():
    curve = curve_laguerre((1,), (1,), 1)
    val = stieltjes_density(curve, 1.0, eps=1e-6, richardson=True)
    assert val == pytest.approx(math.sqrt(3) / (2 * math.pi), abs=1e-5)


def test_density_vanishes_off_support():
    curve = curve_hermite((1,), (0,))
    vals = [stieltjes_density(curve, 5.0, eps=e) for e in (1e-3, 1e-4, 1e-5, 1e-6)]
    assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))
    assert vals[-1] < 1e-5


def test_density_requires_positive_epsilon():
    with pytest.raises(ValueError):
        stieltjes_density(curve_hermite((1,), (0,)), 0.0, eps=0.0)


def test_density_nonnegative_on_grid():
    curve = curve_hermite((HALF, HALF), (1, -1))
    for x in np.linspace(-3.5, 3.5, 141):
        assert stieltjes_density(curve, float(x), eps=1e-6, richardson=True) >= -1e-8


def test_density_total_mass():
    curve = curve_hermite((HALF, HALF), (1, -1))
    mass, _ = scipy.integrate.quad(
        lambda x: stieltjes_density(curve, x, eps=1e-7, richardson=True),
        -3.5,
        3.5,
        limit=200,
    )
    assert abs(mass - 1.0) < 1e-3


# ---------------------------------------------------------------------------
# curve moments and the series/curve agreement


def test_semicircle_curve_moments():
    moments = curve_moments(curve_hermite((1,), (0,)), 6)
    assert np.allclose(moments.floats(), [1, 0, 1, 0, 2, 0, 5], atol=1e-8)


def test_shifted_semicircle_curve_moments():
    moments = curve_moments(curve_hermite((1,), (5,)), 2)
    assert moments.floats()[1] == pytest.approx(5.0, abs=1e-8)
    assert moments.floats()[2] == pytest.approx(26.0, abs=1e-8)


def test_mp_curve_moments_are_catalan():
    moments = curve_moments(curve_laguerre((1,), (1,), 1), 5)
    assert np.allclose(moments.floats(), [1, 1, 2, 5, 14, 42], atol=1e-8)


@pytest.mark.parametrize(
    "q,a",
    [
        ((HALF, HALF), (1, -1)),
        ((Fraction(1, 5), Fraction(3, 10), HALF), (0, 1, -2)),
    ],
)
def test_hermite_curve_agrees_with_series(q, a):
    curve = curve_hermite(q, a)
    atoms = AtomicMeasure(list(zip(a, q)))
    series = [float(v) for v in free_add(SC, atoms, 8).values]
    numeric = curve_moments(curve, 8).floats()
    assert np.allclose(numeric, series, atol=1e-8)


@pytest.mark.parametrize(
    "q,a,alpha",
    [
        ((HALF, HALF), (1, 2), 1),
        ((Fraction(1, 4), Fraction(1, 4), HALF), (1, 2, 4), 2),
    ],
)
def test_laguerre_curve_agrees_with_series(q, a, alpha):
    curve = curve_laguerre(q, a, alpha)
    atoms = AtomicMeasure([(Fraction(1, ai), qi) for ai, qi in zip(a, q)])
    series = [float(v) for v in free_mul(mp_ratio_moments(alpha, 8), atoms, 8).values]
    numeric = curve_moments(curve, 8).floats()
    assert np.allclose(numeric, series, atol=1e-8)


def test_curve_moments_rejects_negative_order():
    with pytest.raises(ValueError):
        curve_moments(curve_hermite((1,), (0,)), -1)
