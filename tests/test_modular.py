import cmath
import math
import random

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oddbalanced import InputError, modular, transforms
from oddbalanced.genfunc import evaluate_V
from oddbalanced.modular import (
    DomainError,
    PoleError,
    _require_upper_half,
    appell,
    eta,
    evaluate_V_bounded,
    mordell,
    mu,
    q0pow,
    qpow,
    sqrt_neg_itau,
    theta,
)

from mpmath_references import appell_sum, eta_product, mordell_integral, theta_sum, zwegers_R

PI_I = 1j * math.pi

# verify-transforms' default --seed
SEED = 20260810


def test_theta_odd_vanishes_at_zero():
    for tau in (0.3j, 1j, 0.4 + 0.8j):
        assert abs(theta(0, tau).value) < 1e-13


def test_theta_rejects_lower_half_plane():
    with pytest.raises(DomainError):
        theta(0.2, -1j)
    with pytest.raises(DomainError):
        eta(0.5)


def test_theta_shift_and_inversion_examples():
    z, tau = 0.17 + 0.05j, 0.3j
    assert abs(theta(z + 1, tau).value + theta(z, tau).value) < 1e-12
    z, tau = 0.23 + 0.11j, 0.4 + 0.8j
    lhs = theta(z / tau, -1 / tau).value
    rhs = -1j * sqrt_neg_itau(tau) * cmath.exp(PI_I * z * z / tau) * theta(z, tau).value
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def _theta_sum(z, tau, J):
    """The theta series over the half-integer window [-J, J)."""
    return sum(cmath.exp(PI_I * tau * (k + 0.5) ** 2 + 2 * PI_I * (k + 0.5) * (z + 0.5))
               for k in range(-J, J))


def test_theta_cutoff_stability():
    for z, tau in ((0.3, 0.4j), (0.2 + 0.4j, 0.15j), (0.8, 1.5j)):
        # theta's own window: its Gaussian majorant, with 4 terms to spare
        J = int(modular.gaussian_window(math.pi * tau.imag, 2 * math.pi * abs(z.imag), 0.0)) + 4
        a = theta(z, tau).value
        b = _theta_sum(z, tau, 2 * J)
        assert abs(a - b) <= 1e-14 * max(1.0, abs(b))


def test_theta_tail_bound_is_honest():
    # the bound covers the discarded tail and the rounding
    r = theta(0.3 + 0.2j, 0.5j)
    exact = _theta_sum(0.3 + 0.2j, 0.5j, 200)
    assert abs(r.value - exact) <= r.truncation_bound


def test_eta_transformations():
    tau = 0.7j
    assert abs(eta(tau + 1).value - cmath.exp(PI_I / 12) * eta(tau).value) < 1e-13
    tau = 0.4 + 0.8j
    assert abs(eta(tau).value - eta(-1 / tau).value / sqrt_neg_itau(tau)) < 1e-13


def test_eta_ratio_at_i():
    # eta(2i)/eta(i) = 2^(-3/8), reachable from the inversion/shift chain;
    # both values computed directly from the pentagonal sum to < 1e-12
    ratio = eta(2j).value / eta(1j).value
    assert abs(ratio - 2.0 ** -0.375) < 1e-12
    assert eta(2j).truncation_bound < 1e-12
    assert eta(1j).truncation_bound < 1e-12


def _law_rows(prefixes):
    """verify-transforms' rows at SEED of the laws named by prefixes."""
    return [r for r in transforms.all_rows(SEED) if r.law.startswith(prefixes)]


def test_prop_grid_residuals():
    rows = _law_rows(("theta_", "eta_"))
    assert len(rows) == 120
    assert max(r.residual for r in rows) < 1e-9


def test_mordell_origin_and_monotone_approach():
    assert abs(mordell(0, 0).value - 1.0) < 1e-10
    vals = [mordell(0, t * 1j).value.real for t in (0.5, 0.1, 0.02)]
    assert vals[0] < vals[1] < vals[2] < 1.05
    assert all(0 < v for v in vals)


def test_mordell_positive_window():
    for t in (1.0, 0.5, 0.25, 0.1, 0.05):
        v = mordell(0, t * 1j).value
        assert 0 < v.real < 1.05 and abs(v.imag) < 1e-10


def test_mordell_transformation_example():
    z, tau = 0.2, 0.6j
    lhs = mordell(z / tau, -1 / tau).value
    rhs = sqrt_neg_itau(tau) * cmath.exp(-PI_I * z * z / tau) * mordell(z, tau).value
    assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_mordell_grid():
    rows = _law_rows("mordell_inversion")
    assert max(r.residual for r in rows) < 1e-8


def test_every_law_has_one_threshold():
    # verify-transforms holds each law's rows to transforms.THRESHOLDS
    rows = transforms.all_rows(SEED)
    assert {r.law for r in rows} == set(transforms.THRESHOLDS)
    assert all(r.residual < transforms.THRESHOLDS[r.law] for r in rows)


def test_mordell_divergent_domain():
    with pytest.raises(DomainError):
        mordell(0.6, 0)
    with pytest.raises(DomainError):
        mordell(0.5, 0)
    # fine with the Gaussian damping present
    assert abs(mordell(0.6, 1j).value) > 0


@pytest.mark.parametrize("z, tau", [
    (0, -1j),
    (0.1, 5 + 0j),  # h converges on the real axis, but R needs Im tau > 0
    (0.3, 0.3),
], ids=["lower half-plane", "real tau", "real tau 0.3"])
def test_mordell_refusals(z, tau):
    with pytest.raises(DomainError, match=r"needs Im tau > 0, or tau = 0 with \|Re z\| < 1/2"):
        mordell(z, tau)


def test_mordell_refuses_a_sum_past_its_term_cap():
    # R(z;tau) at Im tau = 1e-12 would need about 8e6 terms
    with pytest.raises(DomainError, match=f"over {modular.V_MAX_TERMS} terms"):
        mordell(0.1, 1e-12j)
    with pytest.raises(DomainError, match=f"over {modular.V_MAX_TERMS} terms"):
        modular.R(0.1, 1e-12j)


def test_mordell_on_the_boundary_is_sec():
    # h(z;0) = sec(pi z) in closed form, up to |Re z| < 1/2: at 0.4995 the
    # integrand decays like e^(-0.001 pi |x|), where a quadrature would need
    # nodes out past x = 1e4
    for z in (0.4995, -0.4995 + 0.3j, 0.25):
        got = mordell(z, 0)
        with mp.workdps(40):
            want = mp.sec(mp.pi * mp.mpc(z))
            assert abs(got.value - want) <= got.truncation_bound, z


def _assert_within_bound(z, tau, result, dps=30):
    with mp.workdps(dps):
        err = abs(mp.mpc(result.value) - mordell_integral(z, tau, dps))
    assert err <= result.truncation_bound, (z, tau, float(err), result.truncation_bound)


def _uniform(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _cplx(re, im):
    return st.builds(complex, re, im)


def _lemma_point(x, t):
    # lemma_main_term's h(2z;2tau) for z < 1/4 and h(2-2z;2tau) for
    # z > 3/4: the same x = 2z or 2-2z in (0, 1/2), at tau = 2it
    return x, 2j * t


def _inverted(z, tau):
    # the Mordell law's left side in verify-transforms
    return z / tau, -1 / tau


# the (z, tau) at which the commands evaluate h: verify-transforms' Mordell
# grid (both sides) and its Appell grid (h(u-v;tau)), lemma-ratios, and the
# decomposition grid's ranges
MORDELL_POINTS = st.one_of(
    st.tuples(_cplx(_uniform(-0.3, 0.3), _uniform(-0.1, 0.1)),
              _cplx(_uniform(-0.2, 0.2), _uniform(0.4, 1.5))),
    st.builds(_inverted, _cplx(_uniform(-0.3, 0.3), _uniform(-0.1, 0.1)),
              _cplx(_uniform(-0.2, 0.2), _uniform(0.4, 1.5))),
    st.builds(lambda u, v, tau: (u - v, tau),
              _cplx(_uniform(0.08, 0.42), _uniform(0.02, 0.25)), _uniform(0.1, 0.45),
              _cplx(_uniform(-0.3, 0.3), _uniform(0.5, 1.5))),
    st.builds(_lemma_point, _uniform(0.02, 0.48), _uniform(0.0125, 0.1)),
    st.tuples(_cplx(_uniform(0.0, 1.0), _uniform(-0.8, 0.8)),
              _cplx(_uniform(-0.5, 0.5), _uniform(0.15, 1.0))),
)


@given(MORDELL_POINTS)
@example((0.3, 5 + 0.5j))  # a fast-turning Gaussian
@example((0.2, -6 + 0.4j))  # the same, turning the other way
@example((0, 0))  # the boundary tau = 0, where only 1/cosh damps
@example((0.45, 0))  # the same, with the slowest decay the commands meet
@example(_lemma_point(0.48, 0.0125))  # the smallest lemma point
@settings(max_examples=30, deadline=None)
def test_mordell_bound_holds_against_mpmath(point):
    z, tau = point
    _assert_within_bound(z, tau, mordell(z, tau))


def _mordell_box(count, seed):
    """count points of verify-transforms' Mordell box, drawn as _mordell_point draws them."""
    rng = random.Random(seed)
    return [(complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.1, 0.1)),
             complex(rng.uniform(-0.2, 0.2), rng.uniform(0.4, 1.5))) for _ in range(count)]


# both sides of the Mordell law at 50 seeded points of its box; the points at
# which lemma-ratios takes h(2z;2tau), z = j/c folded below 1/4, tau = it, down to
# t = 0.001; and the boundary tau = 0
MORDELL_60_DIGIT_POINTS = [
    *(p for z, tau in _mordell_box(50, 41) for p in ((z, tau), _inverted(z, tau))),
    *(_lemma_point(2 / c, t) for c in (5, 7) for t in (0.1, 0.05, 0.025, 0.0125, 0.001)),
    *((z, 0) for z in (0, 0.2, -0.15 + 0.2j)),
]


def test_mordell_bound_holds_against_mpmath_at_60_digits():
    for z, tau in MORDELL_60_DIGIT_POINTS:
        _assert_within_bound(z, tau, mordell(z, tau), dps=60)


def test_mordell_bound_charges_each_rounding_once():
    # lemma-ratios' h(2z;2tau) for c = 7, t = 0.001, where R(z;0.002i) sums about 180
    # terms: a bound that charged every term the rounding of the whole sum read
    # 1.4e-11 here, against an error near 1e-15
    z, tau = _lemma_point(2 / 7, 0.001)
    got = mordell(z, tau)
    assert got.truncation_bound <= 1e-12
    _assert_within_bound(z, tau, got, dps=60)


def test_log_erfc_across_its_asymptotic_series():
    # math.erfc below x = 26, the series past it, where erfc nears the subnormals
    for x in (-3.0, 0.0, 5.0, 25.99, 26.0, 26.5, 27.0, 40.0, 1e3, 1e8):
        with mp.workdps(40):
            want = mp.log(mp.erfc(x))
            assert abs(modular._log_erfc(x) - want) <= 4 * modular.UNIT * abs(want), x


# R's terms, each one exponential, at points where a factor taken apart would
# overflow or underflow: e^log_factor near the float limits, and Im tau = 1000,
# where the dominant terms take log erfc from its asymptotic series
_rng = random.Random(7)
R_POINTS = [(0.3 + 0.2j, 1j, 700), (0.3 + 0.2j, 1j, -700), (0.3 + 0.2j, 1j, 300 + 50j),
            (0, 1000j, 790), (0.1, 1000j, 790), (0.3 + 2j, 300j, 0), (0.2 + 0.3j, 300j, 240),
            *((complex(_rng.uniform(-1, 1), _rng.uniform(-1.5, 1.5)),
               complex(_rng.uniform(-1, 1), _rng.uniform(0.05, 2)), 0) for _ in range(30))]


@pytest.mark.parametrize("u, tau, log_factor", R_POINTS)
def test_R_bound_holds_against_mpmath(u, tau, log_factor):
    got = modular.R(u, tau, log_factor)
    with mp.workdps(70):
        assert abs(got.value - zwegers_R(u, tau, log_factor, dps=60)) <= got.truncation_bound


def _residual(lhs, rhs):
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))


def _R(u, tau):
    return modular.R(u, tau).value


def test_R_satisfies_its_three_laws():
    # Zwegers, thesis, Ch. 1: R(u+1) = -R(u), R(-u) = R(u) and
    # R(u) + e^(-2 pi i u - pi i tau) R(u+tau) = 2 e^(-pi i u - pi i tau/4)
    rng = random.Random(1102)
    for _ in range(100):
        u = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.3, 1.5))
        r = _R(u, tau)
        assert _residual(_R(u + 1, tau), -r) < 1e-12, (u, tau)
        assert _residual(_R(-u, tau), r) < 1e-12, (u, tau)
        assert _residual(r + cmath.exp(-2 * PI_I * u - PI_I * tau) * _R(u + tau, tau),
                         2 * cmath.exp(-PI_I * u - PI_I * tau / 4)) < 1e-12, (u, tau)


def _mu_hat(u, v, tau):
    """mu's completion mu + (i/2) R(u - v;tau) (Zwegers, thesis, Ch. 1)."""
    return mu(u, v, tau).value + 0.5j * _R(u - v, tau)


def test_completed_mu_satisfies_its_three_laws():
    # Zwegers, thesis, Thm 1.11, in this module's conventions: the S law's
    # exponent takes a minus sign; on verify-transforms' Appell box
    rng = random.Random(1111)
    for _ in range(100):
        u = complex(rng.uniform(0.08, 0.42), rng.uniform(0.02, 0.25))
        v = complex(rng.uniform(0.1, 0.45), rng.uniform(-0.1, 0.1))
        tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.5, 1.5))
        m = _mu_hat(u, v, tau)
        assert _residual(_mu_hat(u / tau, v / tau, -1 / tau),
                         -sqrt_neg_itau(tau) * cmath.exp(-PI_I * (u - v) ** 2 / tau) * m) < 1e-12
        assert _residual(_mu_hat(u, v, tau + 1), cmath.exp(-PI_I / 4) * m) < 1e-12
        assert _residual(_mu_hat(u + tau, v, tau),
                         -cmath.exp(PI_I * tau + 2 * PI_I * (u - v)) * m) < 1e-12


def test_theta_takes_a_factor_into_its_exponent():
    for z, tau in ((0.3 + 0.2j, 0.5j), (0.17, 0.4 + 0.8j), (-0.5, 1j)):
        for log_factor in (-300 + 2j, 5.0, 1j):
            got = theta(z, tau, log_factor)
            with mp.workdps(40):
                want = mp.exp(log_factor) * theta_sum(z, tau)
                assert abs(got.value - want) <= got.truncation_bound, (z, tau, log_factor)


@pytest.mark.parametrize("t", [650, 690, 700, 1000])
def test_eta_bound_holds_far_up_the_imaginary_axis(t):
    # q^(1/6) is subnormal past t = 680 and underflows at 1000; in theta's
    # exponent it costs no digit: eta(1000i) = 2.0043e-114
    got = eta(t * 1j)
    with mp.workdps(80):
        assert abs(got.value - eta_product(t * 1j, dps=60)) <= got.truncation_bound


def test_appell_and_theta_bounds_hold_against_mpmath():
    # each sum's window, tail and rounding budget, against 40-digit sums over
    # windows from the same majorants (eta against its product, mu against
    # the quotient of the two sums): levels 1 to 3, Im tau down to 0.05
    rng = random.Random(2002)
    for _ in range(64):
        ell = rng.choice((1, 2, 3))
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.05, 1.5))
        u, v = (complex(rng.uniform(0, 1), rng.uniform(-0.2, 0.2)) for _ in "uv")
        with mp.workdps(40):
            cases = [(appell(ell, u, v, tau), appell_sum(ell, u, v, tau)),
                     (theta(v, tau), theta_sum(v, tau)), (eta(tau), eta_product(tau))]
            try:
                cases.append((mu(u, v, tau), appell_sum(1, u, v, tau) / theta_sum(v, tau)))
            except PoleError:
                pass
            for got, want in cases:
                assert abs(got.value - want) <= got.truncation_bound, (ell, u, v, tau)


def test_appell_transformation_example():
    u, v, tau = 0.23 + 0.1j, 0.37, 0.8j
    assert transforms.appell_transformation_residual(u, v, tau) < 1e-10


def test_appell_grid():
    rows = _law_rows("appell_level1_inversion")
    assert max(r.residual for r in rows) < 1e-8


def test_appell_pole_detected():
    with pytest.raises(PoleError):
        appell(1, 0, 0.3, 0.8j)
    with pytest.raises(PoleError):
        appell(1, 1.0, 0.3, 0.8j)


def test_appell_shift_antiperiodicity():
    # e^(pi i u) picks up a sign under u -> u+1 while the sum is unchanged
    u, v, tau = 0.21 + 0.05j, 0.37, 0.9j
    a0 = appell(1, u, v, tau).value
    a1 = appell(1, u + 1, v, tau).value
    assert abs(a1 + a0) < 1e-12 * abs(a0)


def test_appell_level2_converges():
    r = appell(2, 0.21 + 0.07j, 0.33, 0.9j)
    assert r.truncation_bound < 1e-12 * max(1.0, abs(r.value))


def test_appell_level_validation():
    # a level that is not a positive integer is refused, 1.5 included
    for ell in (1.5, 0, -1):
        with pytest.raises(DomainError, match="positive integer"):
            appell(ell, 0.2 + 0.05j, 0.3, 1j)
    for ell in (1, 2, 3, 2.0):
        assert cmath.isfinite(appell(ell, 0.2 + 0.05j, 0.3, 1j).value)


# far from the real axis in u, where e^(pi i ell u) or d = e^(2 pi i (u + n tau)) can
# pass e^709: each term is one exponential taken where |d| <= 1, so only a value
# past the floats overflows (A_3 at Im u = -300 is 2.1e409)
FAR_APPELL_POINTS = [(1, 0.3 - 150j, 0.2, 0.8j), (1, 0.3 + 150j, 0.2, 0.8j),
                     (2, 0.1 - 120j, 0.3, 0.5 + 0.9j),
                     *((ell, 0.3 + s, 0.2, 0.8j) for ell in (1, 2, 3) for s in (300j, -300j))]


@pytest.mark.parametrize("point", FAR_APPELL_POINTS)
def test_appell_bound_holds_far_from_the_real_axis(point):
    with mp.workdps(70):
        want = appell_sum(*point, dps=60)
        if abs(want) > mp.mpf(2) ** 1024:  # the value itself is past the floats
            with pytest.raises(OverflowError):
                appell(*point)
            return
        got = appell(*point)
        assert abs(got.value - want) <= got.truncation_bound, point


@pytest.mark.parametrize("f", [lambda tau: theta(0.1, tau), eta, lambda tau: mu(0.2, 0.3, tau)],
                         ids=["theta", "eta", "mu"])
@pytest.mark.parametrize("tau", [1e-12j, 1e-300j])
def test_theta_refuses_a_sum_past_its_term_cap(f, tau):
    # 2J terms grow like 1/sqrt(Im tau): at 1e-300 the sum would never end
    with pytest.raises(DomainError, match=f"over {modular.V_MAX_TERMS} terms"):
        f(tau)


def test_theta_sums_up_to_its_term_cap():
    # about 757 000 terms, under the cap of 2^20
    assert cmath.isfinite(theta(0.1, 1e-10j).value)


def test_appell_refuses_a_sum_past_its_term_cap():
    # at Im tau = 1e-6 the sum would need about 10^5 terms a side
    with pytest.raises(DomainError, match="Appell sum needs over 20000 terms a side"):
        appell(1, 0.3 + 0.1j, 0.2, 1e-6j)


def test_mu_definition_and_antiperiodicity():
    u, v, tau = 0.23 + 0.1j, 0.37, 0.8j
    m = mu(u, v, tau).value
    assert abs(m * theta(v, tau).value - appell(1, u, v, tau).value) < 1e-13
    assert abs(mu(u + 1, v, tau).value + m) < 1e-11 * abs(m)


def test_mu_half_half_limit():
    # mu(1/2,1/2;2*i*t) approaches 1/(2i) as t -> 0, dominated by the
    # Mordell factor h(0;2it) -> 1
    devs = [abs(mu(0.5, 0.5, 2j * t).value - 1 / 2j) for t in (0.15, 0.05, 0.02)]
    assert devs[0] > devs[1] > devs[2]
    assert devs[0] < 0.1


def test_mu_pole_on_theta_zero():
    with pytest.raises(PoleError):
        mu(0.2, 0.0, 0.8j)  # theta(0;tau) = 0


def test_mu_refuses_a_theta_below_its_bound():
    # at Im tau = 1e300 theta(1/2;tau) underflows to 0: no pole, but no
    # digit of the quotient is known (it once divided by zero)
    with pytest.raises(DomainError, match="below its error bound"):
        mu(0.2, 0.5, 1e300j)


def test_every_refusal_is_an_input_error():
    # the CLI turns one error type into exit 2; a pole stays arithmetic
    assert issubclass(DomainError, InputError) and issubclass(PoleError, InputError)
    assert issubclass(PoleError, ArithmeticError)


def test_a_pole_is_a_domain_error():
    assert issubclass(PoleError, DomainError)


def _appell_direct(u, v, tau, N=30):
    """A_1(u,v,tau) at 60 digits over -N <= n < N, with no window and no reciprocal."""
    with mp.workdps(60):
        u, v, tau = mp.mpc(u), mp.mpc(v), mp.mpc(tau)
        q, e = mp.exp(2j * mp.pi * tau), mp.exp(2j * mp.pi * u)
        return mp.exp(1j * mp.pi * u) * mp.fsum(
            (-1) ** n * mp.exp(2j * mp.pi * n * v) * q ** (n * (n + 1) // 2) / (1 - e * q ** n)
            for n in range(-N, N))


def test_bounds_cover_underflow():
    # theta(0.4; 1200i) is 9.25e-410 and A_1(0.3 + 300i, 0.2; 0.8i) 5.66e-410,
    # below the least subnormal: every theta term, the Appell terms past
    # n = -18 and the product with e^(pi i u) underflow, and both sums
    # return 0 (with a bound of 0, before one ulp(0) per term and tail)
    with mp.workdps(60):
        cases = [(theta(0.4, 1200j), theta_sum(0.4, 1200j, dps=60)),
                 (appell(1, 0.3 + 300j, 0.2, 0.8j), _appell_direct(0.3 + 300j, 0.2, 0.8j))]
        for got, want in cases:
            assert got.value == 0 and 0 < abs(want) < mp.mpf("1e-400")
            assert abs(got.value - want) <= got.truncation_bound


# the pole band: exact poles and points just off them, on the grids'
# two tau; every refusal is recomputed by the divisor rule
POLE_TAUS = (0.8j, 0.5 + 0.8j)
POLE_OFFSETS = (0.0, 1e-13, 1e-12, 1e-9)


def refused(result):
    """The one divisor rule: no digit of a quotient by result is known."""
    return not abs(result.value) > result.truncation_bound


def appell_refused(u, tau):
    """Whether a denominator 1 - d of A_1(u, v, tau), n in -3..3, is not above
    d's rounding, d taken as appell takes it (1/d where |d| > 1)."""
    u = complex(u)
    for n in range(-3, 4):
        x = 2j * math.pi * (u + n * tau)
        d = cmath.exp(x)
        if abs(d) > 1.0:
            d = cmath.exp(-x)
        size_x = modular.TWO_PI * (abs(u) + abs(n) * abs(tau))
        if not abs(1.0 - d) > modular.ROUND_TERM * modular.UNIT * abs(d) * (1.0 + size_x):
            return True
    return False


@pytest.mark.parametrize("tau", POLE_TAUS)
@pytest.mark.parametrize("dv", POLE_OFFSETS)
@pytest.mark.parametrize("pole", ["0", "1", "tau"])
def test_mu_refuses_exactly_where_theta_is_not_above_its_bound(pole, dv, tau):
    v = {"0": 0.0, "1": 1.0, "tau": tau}[pole] + dv
    expected = refused(theta(v, tau))
    assert expected or dv  # every zero of theta(v;tau) is refused
    if expected:
        with pytest.raises(PoleError, match="below its error bound"):
            mu(0.23 + 0.1j, v, tau)
    else:
        assert cmath.isfinite(mu(0.23 + 0.1j, v, tau).value)


@pytest.mark.parametrize("tau", POLE_TAUS)
@pytest.mark.parametrize("du", POLE_OFFSETS)
@pytest.mark.parametrize("pole", ["0", "1", "tau", "1+tau"])
def test_appell_refuses_exactly_where_a_denominator_is_not_above_its_rounding(pole, du, tau):
    u = {"0": 0.0, "1": 1.0, "tau": tau, "1+tau": 1 + tau}[pole] + du
    expected = appell_refused(u, tau)
    assert expected or du  # every pole u in Z + tau Z is refused
    if expected:
        with pytest.raises(PoleError, match="Appell denominator vanishes"):
            appell(1, u, 0.3, tau)
    else:
        assert cmath.isfinite(appell(1, u, 0.3, tau).value)


# ---------------------------------------------------------------------------
# Decay main terms as tau -> 0, in closed form through the dual nome
# q0 = exp(-2*pi*i/tau); no command evaluates them, so they live here
# ---------------------------------------------------------------------------

def theta_mainterm_lattice(alpha, tau):
    """Leading behaviour of theta(alpha*tau; tau) as tau -> 0:
    -2i sin(pi*alpha) q^(-alpha^2/2) q0^(1/8) / sqrt(-i*tau)."""
    if not 0 <= alpha < 1:
        raise DomainError("alpha must lie in [0, 1)")
    tau = _require_upper_half(tau)
    return (-2j * math.sin(math.pi * alpha) * qpow(tau, -alpha * alpha / 2.0)
            * q0pow(tau, 0.125) / sqrt_neg_itau(tau))


def test_theta_lattice_mainterm_ratio():
    alpha = 0.25
    # at moderately small t the main term is already exact to double noise
    for t in (0.2, 0.1, 0.05):
        tau = t * 1j
        ratio = theta(alpha * tau, tau).value / theta_mainterm_lattice(alpha, tau)
        assert abs(ratio - 1) < 1e-9
    # in the regime where the q0 correction is visible it must shrink
    devs = []
    for t in (1.0, 0.7, 0.5):
        tau = t * 1j
        ratio = theta(alpha * tau, tau).value / theta_mainterm_lattice(alpha, tau)
        devs.append(abs(ratio - 1))
    assert devs[0] > devs[1] > devs[2]


def theta_mainterm_shifted(alpha, k, tau):
    """Leading behaviour of theta(1/k + alpha*tau; tau) as tau -> 0:
    -(q^(-alpha^2/2) e^(pi*i*alpha(1-2/k)) / sqrt(-i*tau)) * q0^(1/(2k^2)-1/(2k)+1/8)."""
    if not 0 <= alpha < 1:
        raise DomainError("alpha must lie in [0, 1)")
    if not k > 1:
        raise DomainError("k must be > 1")
    tau = _require_upper_half(tau)
    expo = 1.0 / (2.0 * k * k) - 1.0 / (2.0 * k) + 0.125
    return (-(qpow(tau, -alpha * alpha / 2.0)
              * cmath.exp(1j * math.pi * alpha * (1.0 - 2.0 / k)))
            / sqrt_neg_itau(tau) * q0pow(tau, expo))


def test_theta_shifted_mainterm_ratio():
    # k=2, alpha=0: the q0 exponent 1/(2k^2)-1/(2k)+1/8 collapses to 0 and
    # theta(1/2;tau) ~ -1/sqrt(-i tau)
    for t in (0.2, 0.1, 0.05):
        tau = t * 1j
        main = theta_mainterm_shifted(0.0, 2.0, tau)
        assert abs(main - (-1) / sqrt_neg_itau(tau)) < 1e-12 * abs(main)
        ratio = theta(0.5, tau).value / main
        assert abs(ratio - 1) < 1e-6
    devs = []
    for t in (1.0, 0.7, 0.5):
        tau = t * 1j
        ratio = theta(0.5 + 0.3 * tau, tau).value / theta_mainterm_shifted(0.3, 2.0, tau)
        devs.append(abs(ratio - 1))
    assert devs[0] > devs[1] > devs[2]


def eta_mainterm(tau):
    """Leading behaviour of eta(tau) as tau -> 0: q0^(1/24)/sqrt(-i*tau)."""
    tau = _require_upper_half(tau)
    return q0pow(tau, 1.0 / 24.0) / sqrt_neg_itau(tau)


def test_eta_mainterm_ratio():
    for t in (0.2, 0.1, 0.05):
        tau = t * 1j
        assert abs(eta(tau).value / eta_mainterm(tau) - 1) < 1e-9
    devs = [abs(eta(t * 1j).value / eta_mainterm(t * 1j) - 1) for t in (1.0, 0.7, 0.5)]
    assert devs[0] > devs[1] > devs[2]


def theta_decay_mainterm(alpha, k, tau):
    """Dispatcher: k=None gives the theta(alpha*tau;tau) main term, a
    rational k>1 the theta(1/k + alpha*tau;tau) one."""
    if k is None:
        return theta_mainterm_lattice(alpha, tau)
    return theta_mainterm_shifted(alpha, float(k), tau)


def test_mainterm_dispatcher_and_validation():
    tau = 0.3j
    assert theta_decay_mainterm(0.25, None, tau) == theta_mainterm_lattice(0.25, tau)
    assert theta_decay_mainterm(0.0, 2, tau) == theta_mainterm_shifted(0.0, 2.0, tau)
    with pytest.raises(DomainError):
        theta_decay_mainterm(1.0, None, tau)
    with pytest.raises(DomainError):
        theta_decay_mainterm(0.2, 1.0, tau)


def test_nome_helpers():
    tau = 0.3 + 0.7j
    assert abs(qpow(tau, 1) - cmath.exp(2j * math.pi * tau)) < 1e-15
    assert abs(q0pow(tau, 1) - cmath.exp(-2j * math.pi / tau)) < 1e-15
    assert abs(qpow(tau, 0.5) ** 2 - qpow(tau, 1)) < 1e-15


# ---------------------------------------------------------------------------
# V(w;q) at a point
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("w", [cmath.exp(2j * math.pi * 0.3), 0.7 - 1.9j, -1.0],
                         ids=["unit-circle", "off-circle", "minus-one"])
def test_evaluator_matches_rank_table(rank_table_60, w):
    # second route to V(w;q): the exact counts v(m,n), n <= 60, summed at a
    # small q where the omitted q^61 tail is far below rounding
    q = 0.04 * cmath.exp(0.7j)
    direct = sum(cnt * w ** m * q ** n
                 for n in range(61)
                 for m, cnt in rank_table_60.rank_polynomial(n).items())
    got = evaluate_V_bounded(w, q)
    assert abs(got.value - direct) < 1e-14 * abs(direct)
    assert got.truncation_bound < 1e-17 * abs(direct)


def test_evaluator_term_cap_keeps_a_true_bound():
    w, q = 0.2 + 0.5j, 0.6 * cmath.exp(1j)
    full = evaluate_V_bounded(w, q)
    for cap in (0, 3, 10, 30):
        capped = evaluate_V_bounded(w, q, cap)
        assert abs(capped.value - full.value) <= capped.truncation_bound + 1e-14 * abs(full.value)
    assert evaluate_V(w, q, 30) == capped.value


@pytest.mark.parametrize("w,q", [(0, 0.5), (1.0, 1.0), (1.0, -1.2j), (1.0, complex("nan"))],
                         ids=["w-zero", "q-one", "q-outside", "q-nan"])
def test_evaluator_rejects_points_outside_the_domain(w, q):
    with pytest.raises(DomainError):
        evaluate_V_bounded(w, q)


def test_evaluator_stops_when_q_nears_one(monkeypatch):
    # on the real axis V overflows first; off it the sum would need ~10^7
    # terms, past the ceiling (lowered here to keep the test fast)
    with pytest.raises(DomainError, match="overflows"):
        evaluate_V_bounded(1.0, 1.0 - 1e-12)
    monkeypatch.setattr(modular, "V_MAX_TERMS", 1000)
    with pytest.raises(DomainError, match="more than 1000 terms"):
        evaluate_V_bounded(1.0, (1 - 1e-6) * 1j)
    assert evaluate_V_bounded(1.0, (1 - 1e-6) * 1j, 500).truncation_bound > 0
