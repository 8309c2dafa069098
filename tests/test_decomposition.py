import cmath
import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddbalanced.decomposition import (
    DEFAULT_GRID,
    T1,
    T2,
    T2_limit_w1,
    T_mid,
    run_grid,
    series_lhs,
    verify_decomposition,
)
from oddbalanced.modular import PoleError, q0pow

SQRT2_OVER_4 = math.sqrt(2) / 4


def test_T1_finite_and_periodic():
    val = T1(1 / 3, 0.9j)
    assert abs(val) > 0 and abs(val) < 10
    # mu flips sign under z -> z+1 while w^(-1/2) contributes e^(-pi i)
    assert abs(T1(1 / 3 + 1, 0.9j) - val) < 1e-10 * abs(val)


def test_T1_bounded_towards_real_axis():
    for t in (0.1, 0.05, 0.02):
        assert abs(T1(0.0, t * 1j)) < 1.0


def test_T_mid_growth_constant():
    # T(0;it) * q0^(1/16) settles towards sqrt(2)/4
    devs = []
    for t in (0.1, 0.05, 0.02):
        tau = t * 1j
        val = T_mid(0.0, tau) * q0pow(tau, 1 / 16)
        devs.append(abs(val - SQRT2_OVER_4))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 0.02


def test_T_mid_finite_generic():
    assert abs(T_mid(1 / 3, 0.9j)) < 10


def test_T_mid_tracks_its_main_term_at_third():
    # on (1/4,1/2) the T piece itself follows
    # -w^(-1/2) (sqrt2/4) h(1-2z;2tau) q^(1/8) q0^(z^2/2-1/16)
    # even though the full generating function is dominated by T2 there
    from oddbalanced.decomposition import w_half_power
    from oddbalanced.modular import mordell, qpow

    z = 1 / 3
    devs = []
    for t in (0.1, 0.05, 0.025):
        tau = t * 1j
        main = (-w_half_power(z, -1) * SQRT2_OVER_4
                * mordell(1 - 2 * z, 2 * tau).value
                * q0pow(tau, z * z / 2 - 1 / 16) * qpow(tau, 0.125))
        devs.append(abs(T_mid(z, tau) / main - 1))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 1e-4


def test_T2_pole_at_zero():
    with pytest.raises(PoleError):
        T2(0.0, 0.8j)
    with pytest.raises(PoleError):
        T2(0.25, 0.8j)


def test_T2_finite_generic():
    assert abs(T2(1 / 3, 0.8j)) < 10


def test_T2_magnitude_tracks_exponent():
    # on (0,1/4) the T2 magnitude scales like q0^(1/8 - z^2/2 - z/2) / sqrt(t)
    z = 0.1
    expo = 0.125 - z * z / 2 - z / 2
    norm = []
    for t in (0.1, 0.05):
        tau = t * 1j
        norm.append(abs(T2(z, tau)) * math.sqrt(t) / abs(q0pow(tau, expo)))
    assert 0.8 < norm[0] / norm[1] < 1.25


def test_T2_limit_extrapolation():
    # symmetric average kills the odd-in-z part; two-point Richardson in z^2
    # then reproduces the closed-form limit
    for tau in (0.9j, 0.7j, 1.1j):
        z1, z2 = 1e-2, 1e-3
        s1 = (T2(z1, tau) + T2(-z1, tau)) / 2
        s2 = (T2(z2, tau) + T2(-z2, tau)) / 2
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


def test_sample_exposes_half_plane_point():
    sample = verify_decomposition(0.2, 0.9j, 200)
    pt = sample.point
    assert abs(pt.q) < 1 and abs(pt.q0) < 1
    assert pt.z == sample.z


def test_grid_avoids_known_poles():
    for z, tau, order in DEFAULT_GRID:
        assert min(abs(z - b) for b in (0.0, 0.25, 0.5, 0.75, 1.0)) > 0.04
