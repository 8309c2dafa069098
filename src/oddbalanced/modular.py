"""Numerical evaluators for the modular building blocks.

Implements, for tau in the upper half-plane:

* theta(z;tau) = sum over half-integers n of exp(pi*i*n^2*tau + 2*pi*i*n*(z+1/2)),
* Dedekind eta(tau) = q^(1/24) * prod_{k>=1} (1-q^k),
* the Mordell integral h(z;tau) = int exp(pi*i*tau*x^2 - 2*pi*z*x)/cosh(pi*x) dx,
* level-ell Appell sums A_ell(u,v,tau) and the normalised quotient
  mu(u,v,tau) = A_1(u,v,tau)/theta(v;tau),

plus the closed-form decay main terms of theta and eta as tau -> 0 along
rays, expressed through the dual nome q0 = exp(-2*pi*i/tau).

Each evaluator returns an EvalResult carrying the value and a bound on the
discarded tail (rigorous for theta/eta, heuristic-but-conservative for the
quadrature).  sqrt(-i*tau) always means the principal branch, which is the
convention validated by the transformation-law tests.

All evaluators are plain cmath/math loops; the Gauss-Legendre nodes of the
quadrature are computed on first use, so importing this module costs
nothing beyond the standard library.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import namedtuple

TWO_PI = 2.0 * math.pi
LOG_EPS = -45.0  # e^-45 ~ 3e-20, comfortably below double precision noise


class DomainError(ValueError):
    """Parameters outside the evaluator's convergence region."""


class PoleError(ArithmeticError):
    """Evaluation point sits on (or within tolerance of) a pole."""


class EvalResult(namedtuple("EvalResult", "value truncation_bound")):
    __slots__ = ()

    def __complex__(self):
        return self.value


class HalfPlanePoint(namedtuple("HalfPlanePoint", "tau z")):
    """A point tau in the upper half-plane with an elliptic variable z.

    The nome q = e^(2*pi*i*tau) and the dual nome q0 = e^(-2*pi*i/tau) are
    derived; both lie strictly inside the unit disc."""

    __slots__ = ()

    def __new__(cls, tau, z=0j):
        if complex(tau).imag <= 0:
            raise DomainError(f"tau={tau} is not in the upper half-plane")
        return super().__new__(cls, tau, z)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, so it checks the domain too
        return cls(*iterable)

    @property
    def q(self):
        return qpow(self.tau, 1)

    @property
    def q0(self):
        return q0pow(self.tau, 1)

    @property
    def w(self):
        return cmath.exp(2j * math.pi * self.z)


def qpow(tau, exponent):
    """q^exponent = exp(2*pi*i*tau*exponent), branch-free for real exponents."""
    return cmath.exp(2j * math.pi * tau * exponent)


def q0pow(tau, exponent):
    """q0^exponent = exp(-2*pi*i*exponent/tau)."""
    return cmath.exp(-2j * math.pi * exponent / tau)


def sqrt_neg_itau(tau):
    """Principal branch of sqrt(-i*tau); positive real for tau on the
    imaginary axis."""
    return cmath.sqrt(-1j * tau)


def _require_upper_half(tau):
    tau = complex(tau)
    if tau.imag <= 0:
        raise DomainError(f"tau={tau} is not in the upper half-plane")
    return tau


# ---------------------------------------------------------------------------
# Jacobi theta
# ---------------------------------------------------------------------------

def theta_cutoff(z, tau):
    """Smallest half-integer window [-J, J) making the Gaussian tail of the
    theta sum fall below exp(LOG_EPS)."""
    t = tau.imag
    b = abs(complex(z).imag)
    # solve pi*t*n^2 - 2*pi*b*n + LOG_EPS = 0 for the positive root
    disc = (TWO_PI * b) ** 2 - 4.0 * math.pi * t * LOG_EPS
    j = (TWO_PI * b + math.sqrt(disc)) / (2.0 * math.pi * t)
    return int(j) + 4


def theta(z, tau, cutoff=None):
    """Jacobi theta with half-integer characteristics; odd in z."""
    tau = _require_upper_half(tau)
    z = complex(z)
    J = cutoff if cutoff is not None else theta_cutoff(z, tau)
    a = 1j * math.pi * tau
    b = 2j * math.pi * (z + 0.5)
    exp = cmath.exp
    value = 0j
    for k in range(-J, J):
        n = k + 0.5
        value += exp((a * n + b) * n)
    # tail bound: 2 * sum_{n >= J+1/2} exp(-pi t n^2 + 2 pi b n), geometric from
    # the first omitted term
    t, b = tau.imag, abs(z.imag)
    n0 = J + 0.5
    g0 = math.exp(-math.pi * t * n0 * n0 + TWO_PI * b * n0)
    ratio = math.exp(-math.pi * t * (2 * n0 + 1) + TWO_PI * b)
    tail = 2.0 * g0 / (1.0 - ratio) if ratio < 1.0 else math.inf
    return EvalResult(value, tail)


# ---------------------------------------------------------------------------
# Dedekind eta
# ---------------------------------------------------------------------------

def eta(tau):
    """eta(tau) = q^(1/24) * prod (1-q^k), truncated once |q|^k < e^LOG_EPS."""
    tau = _require_upper_half(tau)
    q = qpow(tau, 1)
    absq = abs(q)
    K = int(LOG_EPS / math.log(absq)) + 2
    prod = 1.0 + 0j
    qk = 1.0 + 0j
    for _ in range(K):
        qk *= q
        prod *= 1.0 - qk
    # log-product tail: |log prod_{k>K}(1-q^k)| <= sum_{k>K} |q|^k / (1-|q|)
    tail_log = absq ** (K + 1) / ((1.0 - absq) ** 2)
    value = qpow(tau, 1.0 / 24.0) * prod
    return EvalResult(value, abs(value) * 2.0 * tail_log)


# ---------------------------------------------------------------------------
# Mordell integral
# ---------------------------------------------------------------------------

GL_POINTS = 40  # nodes of the Gauss-Legendre rule on each panel


@functools.cache
def gauss_legendre(npoints):
    """Nodes (ascending) and weights of the npoints-point Gauss-Legendre rule
    on [-1, 1], by Newton's method on the three-term recurrence
    k P_k = (2k-1) x P_{k-1} - (k-1) P_{k-2}.  The rule is symmetric, so only
    the nodes in (0, 1) (and 0 for odd npoints) are solved for."""
    upper = []
    for i in range(npoints // 2 + npoints % 2):
        x = math.cos(math.pi * (i + 0.75) / (npoints + 0.5))
        for _ in range(100):
            p_prev, p = 1.0, x
            for k in range(2, npoints + 1):
                p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
            dp = npoints * (x * p - p_prev) / (x * x - 1.0)
            step = p / dp
            x -= step
            if abs(step) <= 1e-16:
                break
        upper.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    if npoints % 2:
        upper[-1] = (0.0, upper[-1][1])
    lower = [(-x, w) for x, w in upper[:npoints // 2]]
    rule = lower + upper[::-1]
    return tuple(x for x, _ in rule), tuple(w for _, w in rule)


def _mordell_halfwidth(z, tau):
    """X with |integrand| < e^LOG_EPS outside [-X, X]."""
    a = math.pi * tau.imag  # Gaussian decay
    b = TWO_PI * abs(z.real) - math.pi  # worst-case exponential growth vs cosh
    X = 1.0
    while -a * X * X + b * X > LOG_EPS:
        X += 0.5
        if X > 1e4:
            raise DomainError(
                f"integrand decays too slowly for quadrature (z={z}, tau={tau})")
    return X


def mordell(z, tau):
    """h(z;tau) by panelwise Gauss-Legendre quadrature on [-X, X], with the
    panel count doubled until two refinements agree to 1e-12 relative.

    Allows Im(tau) = 0 (the boundary case) when |Re z| < 1/2, where the
    1/cosh factor alone makes the integral converge.
    """
    z, tau = complex(z), complex(tau)
    if tau.imag < 0:
        raise DomainError(f"tau={tau} below the real axis")
    if tau.imag == 0 and abs(z.real) >= 0.5:
        raise DomainError(
            f"divergent parameter regime: Im(tau)=0 needs |Re z| < 1/2, got z={z}")
    X = _mordell_halfwidth(z, tau)
    rule = tuple(zip(*gauss_legendre(GL_POINTS)))
    a = 1j * math.pi * tau
    b = -TWO_PI * z
    pi, exp, cexp = math.pi, math.exp, cmath.exp
    npanels = max(8, int(X))
    prev = None
    value = 0j
    delta = math.inf
    for _ in range(10):
        half = X / npanels
        value = 0j
        for p in range(npanels):
            mid = -X + (2 * p + 1) * half
            for node, weight in rule:
                x = mid + half * node
                # 1/cosh(pi x) as 2 e^(-pi|x|)/(1 + e^(-2 pi|x|)), which
                # cannot overflow where the integrand is negligible
                ax = pi * abs(x)
                value += weight / (1.0 + exp(-2.0 * ax)) * cexp((a * x + b) * x - ax)
        value *= 2.0 * half
        if prev is not None:
            delta = abs(value - prev)
            if delta <= 1e-12 * max(1.0, abs(value)):
                break
        prev = value
        npanels *= 2
    tail = math.exp(LOG_EPS)  # discarded |x| > X region
    return EvalResult(value, delta + tail)


# ---------------------------------------------------------------------------
# Appell sums
# ---------------------------------------------------------------------------

_POLE_TOL = 1e-13
_APPELL_MAX_TERMS = 20000


def _appell_term(ell, n, u, v, tau):
    """One bilateral term, arranged so no intermediate overflows: for large
    |e^{2pi i u} q^n| the geometric factor is folded into the exponent."""
    sign = -1.0 if (ell * n) % 2 else 1.0
    log_num = 2j * math.pi * (n * v + tau * ell * n * (n + 1) / 2.0)
    d = cmath.exp(2j * math.pi * (u + n * tau))
    if abs(d) <= 1.0:
        if abs(1.0 - d) < _POLE_TOL:
            raise PoleError(f"Appell denominator vanishes at n={n} (u={u}, tau={tau})")
        return sign * cmath.exp(log_num) / (1.0 - d)
    dinv = cmath.exp(-2j * math.pi * (u + n * tau))
    if abs(1.0 - dinv) < _POLE_TOL:
        raise PoleError(f"Appell denominator vanishes at n={n} (u={u}, tau={tau})")
    # 1/(1-d) = -d^-1/(1-d^-1)
    return -sign * cmath.exp(log_num - 2j * math.pi * (u + n * tau)) / (1.0 - dinv)


def appell(ell, u, v, tau):
    """Level-ell Appell sum
    A_ell(u,v,tau) = e^(pi*i*ell*u) * sum_n (-1)^(ell*n) e^(2*pi*i*n*v)
                     q^(ell*n(n+1)/2) / (1 - e^(2*pi*i*u) q^n),
    truncated symmetrically once terms drop below 1e-18 of the running
    magnitude."""
    if ell < 1:
        raise DomainError("Appell level must be a positive integer")
    tau = _require_upper_half(tau)
    u, v = complex(u), complex(v)
    total = 0j
    scale = 1.0
    last = 0.0
    for n in range(_APPELL_MAX_TERMS):
        term = _appell_term(ell, n, u, v, tau)
        total += term
        scale = max(scale, abs(total))
        last = abs(term)
        if n > 2 and last < 1e-18 * scale:
            break
    else:
        raise DomainError("Appell sum did not converge (positive side)")
    last_neg = 0.0
    for n in range(-1, -_APPELL_MAX_TERMS, -1):
        term = _appell_term(ell, n, u, v, tau)
        total += term
        scale = max(scale, abs(total))
        last_neg = abs(term)
        if n < -3 and last_neg < 1e-18 * scale:
            break
    else:
        raise DomainError("Appell sum did not converge (negative side)")
    value = cmath.exp(1j * math.pi * ell * u) * total
    return EvalResult(value, (last + last_neg) * 10.0)


def mu(u, v, tau):
    """mu(u,v;tau) = A_1(u,v,tau) / theta(v;tau)."""
    th = theta(v, tau)
    # compare against the natural q^(1/8) scale of theta, not an absolute cut
    if abs(th.value) < 1e-10 * abs(qpow(tau, 0.125)):
        raise PoleError(f"theta({v};{tau}) vanishes; mu undefined")
    ap = appell(1, u, v, tau)
    value = ap.value / th.value
    bound = (ap.truncation_bound + abs(value) * th.truncation_bound) / abs(th.value)
    return EvalResult(value, bound)


# ---------------------------------------------------------------------------
# Decay main terms as tau -> 0
# ---------------------------------------------------------------------------

def theta_mainterm_lattice(alpha, tau):
    """Leading behaviour of theta(alpha*tau; tau) as tau -> 0:
    -2i sin(pi*alpha) q^(-alpha^2/2) q0^(1/8) / sqrt(-i*tau)."""
    if not 0 <= alpha < 1:
        raise DomainError("alpha must lie in [0, 1)")
    tau = _require_upper_half(tau)
    return (-2j * math.sin(math.pi * alpha) * qpow(tau, -alpha * alpha / 2.0)
            * q0pow(tau, 0.125) / sqrt_neg_itau(tau))


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


def eta_mainterm(tau):
    """Leading behaviour of eta(tau) as tau -> 0: q0^(1/24)/sqrt(-i*tau)."""
    tau = _require_upper_half(tau)
    return q0pow(tau, 1.0 / 24.0) / sqrt_neg_itau(tau)


def theta_decay_mainterm(alpha, k, tau):
    """Dispatcher: k=None gives the theta(alpha*tau;tau) main term, a
    rational k>1 the theta(1/k + alpha*tau;tau) one."""
    if k is None:
        return theta_mainterm_lattice(alpha, tau)
    return theta_mainterm_shifted(alpha, float(k), tau)
