import cmath
import math
import random

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oddbalanced import modular, transforms
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

from mpmath_references import appell_sum, eta_product, mordell_integral, theta_sum

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


def test_prop_grid_residuals():
    rows = transforms.theta_eta_grid(SEED)
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
    rows = transforms.mordell_grid(SEED)
    assert max(r.residual for r in rows) < 1e-8


def test_mordell_divergent_domain():
    with pytest.raises(DomainError):
        mordell(0.6, 0)
    with pytest.raises(DomainError):
        mordell(0.5, 0)
    # fine with the Gaussian damping present
    assert abs(mordell(0.6, 1j).value) > 0


def _assert_within_bound(z, tau, result):
    with mp.workdps(30):
        err = abs(mp.mpc(result.value) - mordell_integral(z, tau))
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
    # mordell_grid's left side
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
    rows = transforms.appell_grid(SEED)
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
    with pytest.raises(DomainError):
        appell(0, 0.2, 0.3, 1j)


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
