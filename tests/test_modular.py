import cmath
import math

import pytest

from oddbalanced import transforms
from oddbalanced.modular import (
    DomainError,
    PoleError,
    appell,
    eta,
    eta_mainterm,
    gauss_legendre,
    mordell,
    mu,
    q0pow,
    qpow,
    sqrt_neg_itau,
    theta,
    theta_decay_mainterm,
    theta_mainterm_lattice,
    theta_mainterm_shifted,
)

PI_I = 1j * math.pi


def test_gauss_legendre_rule_is_exact_to_degree_79():
    nodes, weights = gauss_legendre(40)
    assert len(nodes) == len(weights) == 40
    assert list(nodes) == sorted(nodes) and -1 < nodes[0] and nodes[-1] < 1
    assert all(x == -y for x, y in zip(nodes, reversed(nodes)))
    assert all(w == v for w, v in zip(weights, reversed(weights)))
    assert abs(math.fsum(weights) - 2.0) <= 1e-14
    for k in range(80):
        integral = math.fsum(w * x ** k for x, w in zip(nodes, weights))
        if k % 2:
            assert integral == 0.0  # the symmetric terms cancel exactly
        else:
            assert abs(integral - 2.0 / (k + 1)) <= 1e-13 * 2.0 / (k + 1)


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


def test_theta_cutoff_stability():
    from oddbalanced.modular import theta_cutoff
    for z, tau in ((0.3, 0.4j), (0.2 + 0.4j, 0.15j), (0.8, 1.5j)):
        J = theta_cutoff(complex(z), complex(tau))
        a = theta(z, tau, cutoff=J).value
        b = theta(z, tau, cutoff=2 * J).value
        assert abs(a - b) <= 1e-14 * max(1.0, abs(b))


def test_theta_tail_bound_is_honest():
    # the bound covers the discarded tail; allow summation roundoff on top
    r = theta(0.3 + 0.2j, 0.5j)
    exact = theta(0.3 + 0.2j, 0.5j, cutoff=200).value
    roundoff = 1e-14 * (1.0 + abs(exact))
    assert abs(r.value - exact) <= r.truncation_bound + roundoff


def test_eta_transformations():
    tau = 0.7j
    assert abs(eta(tau + 1).value - cmath.exp(PI_I / 12) * eta(tau).value) < 1e-13
    tau = 0.4 + 0.8j
    assert abs(eta(tau).value - eta(-1 / tau).value / sqrt_neg_itau(tau)) < 1e-13


def test_eta_ratio_at_i():
    # eta(2i)/eta(i) = 2^(-3/8), reachable from the inversion/shift chain;
    # both values computed directly from the product to < 1e-12
    ratio = eta(2j).value / eta(1j).value
    assert abs(ratio - 2.0 ** -0.375) < 1e-12
    assert eta(2j).truncation_bound < 1e-12
    assert eta(1j).truncation_bound < 1e-12


def test_prop_grid_residuals():
    rows = transforms.theta_eta_grid(npoints=20, seed=20260810)
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
    rows = transforms.mordell_grid()
    assert max(r.residual for r in rows) < 1e-8


def test_mordell_divergent_domain():
    with pytest.raises(DomainError):
        mordell(0.6, 0)
    with pytest.raises(DomainError):
        mordell(0.5, 0)
    # fine with the Gaussian damping present
    assert abs(mordell(0.6, 1j).value) > 0


def test_appell_transformation_example():
    u, v, tau = 0.23 + 0.1j, 0.37, 0.8j
    assert transforms.appell_transformation_residual(u, v, tau) < 1e-10


def test_appell_grid():
    rows = transforms.appell_grid()
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
# Decay main terms
# ---------------------------------------------------------------------------

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


def test_eta_mainterm_ratio():
    for t in (0.2, 0.1, 0.05):
        tau = t * 1j
        assert abs(eta(tau).value / eta_mainterm(tau) - 1) < 1e-9
    devs = [abs(eta(t * 1j).value / eta_mainterm(t * 1j) - 1) for t in (1.0, 0.7, 0.5)]
    assert devs[0] > devs[1] > devs[2]


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


def test_half_plane_point():
    from oddbalanced.modular import HalfPlanePoint
    pt = HalfPlanePoint(tau=0.3 + 0.7j, z=0.2)
    assert abs(pt.q) < 1 and abs(pt.q0) < 1
    assert abs(pt.w - cmath.exp(2j * math.pi * 0.2)) < 1e-15
    with pytest.raises(DomainError):
        HalfPlanePoint(tau=0.3 - 0.7j)
    with pytest.raises(DomainError):
        pt._replace(tau=0.3 - 0.7j)
