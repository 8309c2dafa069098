import cmath
import math
import random

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddbalanced.decomposition import (
    DEFAULT_GRID,
    MAX_RESIDUAL,
    T1,
    T2,
    T_mid,
    _theta_of_tau,
    run_grid,
    series_lhs,
    verify_decomposition,
)
from oddbalanced.modular import PoleError, eta, q0pow, qpow, theta
from mpmath_references import appell_sum, theta_sum
from test_modular import POLE_OFFSETS, POLE_TAUS, appell_refused, refused

SQRT2_OVER_4 = math.sqrt(2) / 4


def T2_limit_w1(tau):
    """Closed form of lim_{z->0} T2(z,tau), via d/dz theta(z;tau)|_0 = -2*pi*eta(tau)^3:

        (i/4) q^(11/8) theta(4tau;12tau)^3/theta(2tau;6tau)^3
              * eta(tau)^3 theta(tau;2tau) / eta(4tau)^3.

    The 1/4 comes from the theta(4z;4tau) denominator differentiating to
    4 * theta'(0;4tau); the two-point Richardson test pins it down.
    """
    ratio = (theta(4 * tau, 12 * tau).value / theta(2 * tau, 6 * tau).value) ** 3
    return (0.25j * qpow(tau, 11.0 / 8.0) * ratio
            * eta(tau).value ** 3 * theta(tau, 2 * tau).value / eta(4 * tau).value ** 3)


def test_T1_finite_and_periodic():
    val = T1(1 / 3, 0.9j).value
    assert abs(val) > 0 and abs(val) < 10
    # mu flips sign under z -> z+1 while w^(-1/2) contributes e^(-pi i)
    assert abs(T1(1 / 3 + 1, 0.9j).value - val) < 1e-10 * abs(val)


def test_T1_bounded_towards_real_axis():
    for t in (0.1, 0.05, 0.02):
        assert abs(T1(0.0, t * 1j).value) < 1.0


def test_T_mid_growth_constant():
    # T(0;it) * q0^(1/16) settles towards sqrt(2)/4
    devs = []
    for t in (0.1, 0.05, 0.02):
        tau = t * 1j
        val = T_mid(0.0, tau).value * q0pow(tau, 1 / 16)
        devs.append(abs(val - SQRT2_OVER_4))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 0.02


def test_T_mid_finite_generic():
    assert abs(T_mid(1 / 3, 0.9j).value) < 10


def test_T_mid_tracks_its_main_term_at_third():
    # on (1/4,1/2) the T piece itself follows
    # -w^(-1/2) (sqrt2/4) h(1-2z;2tau) q^(1/8) q0^(z^2/2-1/16)
    # even though the full generating function is dominated by T2 there
    from oddbalanced.modular import mordell, qpow

    z = 1 / 3
    devs = []
    for t in (0.1, 0.05, 0.025):
        tau = t * 1j
        main = (-qpow(z, -0.5) * SQRT2_OVER_4
                * mordell(1 - 2 * z, 2 * tau).value
                * q0pow(tau, z * z / 2 - 1 / 16) * qpow(tau, 0.125))
        devs.append(abs(T_mid(z, tau).value / main - 1))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 1e-4


@pytest.mark.parametrize("t", [0.015, 0.012, 0.01])
def test_small_tau_theta_factors_take_the_S_law(t):
    # theta(tau;2tau) is 8.1e-14 at Im tau = 0.012, and summed directly its
    # bound of 1.4e-12 is above it; by the S law its nome is e^(-pi/(2t))
    tau = t * 1j
    for k, m in ((1, 2), (2, 6), (4, 12)):
        got = _theta_of_tau(k, m, tau)
        with mp.workdps(40):
            assert abs(got.value - theta_sum(k * tau, m * tau)) <= got.truncation_bound
            assert got.truncation_bound < 1e-12 * abs(got.value)
    assert verify_decomposition(0.2, tau, 3000).residual <= MAX_RESIDUAL


def T_references(z, tau):
    """T1, T and T2 at 40 digits, each from appell_sum and theta_sum by its definition."""
    with mp.workdps(40):
        z, tau, half = mp.mpc(z), mp.mpc(tau), mp.mpf(1) / 2
        w_half = mp.exp(-1j * mp.pi * z)

        def q(exponent):
            return mp.exp(2j * mp.pi * tau * exponent)

        def mu(u, t):
            return appell_sum(1, u, half, t) / theta_sum(half, t)

        t1 = -1j * q(mp.mpf(1) / 8) * w_half * mu(z + half, tau)
        t = (-q(-mp.mpf(1) / 8) * w_half * theta_sum(half + z, tau) / theta_sum(tau, 2 * tau)
             * mu(2 * z + half, 2 * tau))
        t2 = (1j * q(mp.mpf(11) / 8) * w_half
              * (theta_sum(4 * tau, 12 * tau) / theta_sum(2 * tau, 6 * tau)) ** 3
              * theta_sum(z, tau) * theta_sum(2 * z + tau, 2 * tau) / theta_sum(4 * z, 4 * tau))
        return t1, t, t2


_SEEDED = random.Random(44)
T_POINTS = ([(z, tau) for z, tau, _ in DEFAULT_GRID]
            + [(0.2, 0.015j), (0.2, 0.03j), (0.25 + 1e-6, 0.8j)]
            + [(complex(_SEEDED.uniform(0, 1), _SEEDED.uniform(-0.3, 0.3)),
                complex(_SEEDED.uniform(-0.5, 0.5), _SEEDED.uniform(0.15, 1.0)))
               for _ in range(20)])


@pytest.mark.parametrize("z, tau", T_POINTS)
def test_each_term_is_within_its_radius_of_its_40_digit_value(z, tau):
    # the default grid, the S law's small tau, a point near an Appell pole,
    # and seeded points of the strip
    for got, want in zip((T1(z, tau), T_mid(z, tau), T2(z, tau)), T_references(z, tau)):
        assert abs(got.value - want) <= got.truncation_bound


def test_T2_pole_at_zero():
    with pytest.raises(PoleError):
        T2(0.0, 0.8j)
    with pytest.raises(PoleError):
        T2(0.25, 0.8j)


@pytest.mark.parametrize("tau", POLE_TAUS)
@pytest.mark.parametrize("dz", POLE_OFFSETS)
@pytest.mark.parametrize("pole", [0.0, 0.25, 0.5, 0.75])
def test_each_term_refuses_exactly_where_a_divisor_is_not_above_its_bound(pole, dz, tau):
    # the divisors: mu's theta(1/2) and Appell denominators in T1 and T,
    # theta(tau;2tau) in T, theta(4z;4tau) and theta(2tau;6tau) in T2
    z = pole + dz
    expected = {
        T1: refused(theta(0.5, tau)) or appell_refused(z + 0.5, tau),
        T_mid: (refused(theta(tau, 2 * tau)) or refused(theta(0.5, 2 * tau))
                or appell_refused(2 * z + 0.5, 2 * tau)),
        T2: refused(theta(4 * z, 4 * tau)) or refused(theta(2 * tau, 6 * tau)),
    }
    assert any(expected.values()) or dz  # every pole of the band is refused
    for term, refuses in expected.items():
        if refuses:
            with pytest.raises(PoleError):
                term(z, tau)
        else:
            assert cmath.isfinite(term(z, tau).value)


def test_T2_finite_generic():
    assert abs(T2(1 / 3, 0.8j).value) < 10


def test_T2_magnitude_tracks_exponent():
    # on (0,1/4) the T2 magnitude scales like q0^(1/8 - z^2/2 - z/2) / sqrt(t)
    z = 0.1
    expo = 0.125 - z * z / 2 - z / 2
    norm = []
    for t in (0.1, 0.05):
        tau = t * 1j
        norm.append(abs(T2(z, tau).value) * math.sqrt(t) / abs(q0pow(tau, expo)))
    assert 0.8 < norm[0] / norm[1] < 1.25


def test_T2_limit_extrapolation():
    # symmetric average kills the odd-in-z part; two-point Richardson in z^2
    # then reproduces the closed-form limit
    for tau in (0.9j, 0.7j, 1.1j):
        z1, z2 = 1e-2, 1e-3
        s1 = (T2(z1, tau).value + T2(-z1, tau).value) / 2
        s2 = (T2(z2, tau).value + T2(-z2, tau).value) / 2
        extrap = (z1 * z1 * s2 - z2 * z2 * s1) / (z1 * z1 - z2 * z2)
        limit = T2_limit_w1(tau)
        assert abs(extrap - limit) < 1e-6 * abs(limit)


def test_T2_limit_smoke_and_scaling():
    assert abs(T2_limit_w1(1j)) > 0
    # |limit| stays within the q0^(1/8)/sqrt(t) envelope
    for t in (0.3, 0.2, 0.1):
        tau = t * 1j
        ratio = abs(T2_limit_w1(tau)) * math.sqrt(t) / abs(q0pow(tau, 0.125))
        assert ratio < 1.2


@pytest.mark.parametrize("z,tau,order,limit", [
    (1 / 3, 0.9j, 300, 1e-8),
    (0.2 + 0.0j, 0.5 + 0.9j, 400, 1e-8),
    (0.45, 1.2j, 200, 1e-9),
])
def test_pointwise_residuals(z, tau, order, limit):
    sample = verify_decomposition(z, tau, order)
    assert sample.residual < limit
    assert sample.lhs_tail < 1e-10 * max(1.0, abs(sample.lhs))


def test_default_grid_residuals():
    samples = run_grid(DEFAULT_GRID)
    assert len(samples) == 12
    assert max(s.residual for s in samples) < 1e-7


def test_series_lhs_truncation_stable():
    # doubling the truncation order moves every grid point by < 1e-11
    for z, tau, order in DEFAULT_GRID:
        v1, _ = series_lhs(z, tau, 200)
        v2, _ = series_lhs(z, tau, 400)
        assert abs(v1 - v2) < 1e-11 * max(1.0, abs(v2))


def lhs_reference(z, tau, terms=120):
    """(1 + 1/w) q V(w;q) at 40 digits, from 120 terms of the outer series,
    and the scale of float rounding in it: (1 + |1/w|) |q| sum |t_n|.  The
    first factor keeps the scale honest near w = -1, where the value
    vanishes but the float w = e^(2 pi i z) is off by one ulp."""
    with mp.workdps(40):
        z, tau = mp.mpc(z.real, z.imag), mp.mpc(tau.real, tau.imag)
        w, q = mp.exp(2j * mp.pi * z), mp.exp(2j * mp.pi * tau)
        term = 1 / (1 - q)
        total, size, qn = term, abs(term), mp.mpf(1)
        for _ in range(terms):
            qn *= q
            term *= (1 + w * qn) * (1 + qn / w) * q / (1 - qn * qn * q)
            total += term
            size += abs(term)
        assert abs(term) < mp.mpf(10) ** -30 * abs(total)
        factor = (1 + 1 / w) * q
        return complex(factor * total), float((1 + 1 / abs(w)) * abs(q) * size)


def assert_tail_bound_holds(z, tau, order):
    lhs, tail = series_lhs(z, tau, order)
    exact, scale = lhs_reference(complex(z), complex(tau))
    assert abs(lhs - exact) <= tail + 1e-14 * scale


def test_tail_bound_holds_for_complex_z():
    # the coefficient-growth bound claimed a 1.6e-12 tail here while the
    # truncated expansion was off by 2.7e-4
    assert_tail_bound_holds(0.2 + 0.8j, 0.2j, 40)


@settings(max_examples=40, deadline=None)
@given(z_re=st.floats(0.0, 1.0), z_im=st.floats(-0.8, 0.8),
       tau_re=st.floats(-0.5, 0.5), tau_im=st.floats(0.15, 1.0),
       order=st.integers(10, 60))
def test_tail_bound_property(z_re, z_im, tau_re, tau_im, order):
    # the series side is analytic in z (only T1, T and T2 have poles), so
    # every point of the strip is valid here
    assert_tail_bound_holds(complex(z_re, z_im), complex(tau_re, tau_im), order)


def test_grid_avoids_known_poles():
    for z, tau, order in DEFAULT_GRID:
        assert min(abs(z - b) for b in (0.0, 0.25, 0.5, 0.75, 1.0)) > 0.04
