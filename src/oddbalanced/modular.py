"""Numerical evaluators for the modular building blocks and for V(w;q).

Implements, for tau in the upper half-plane:

* theta(z;tau) = sum over half-integers n of exp(pi*i*n^2*tau + 2*pi*i*n*(z+1/2)),
* Dedekind eta(tau) = q^(1/24) * prod_{k>=1} (1-q^k),
* the Mordell integral h(z;tau) = int exp(pi*i*tau*x^2 - 2*pi*z*x)/cosh(pi*x) dx,
* level-ell Appell sums A_ell(u,v,tau) and the normalised quotient
  mu(u,v,tau) = A_1(u,v,tau)/theta(v;tau),
* the rank generating function V(w;q) at a point (evaluate_V_bounded), the
  one numeric evaluator of V that the decomposition check and the lemma
  ratios share.

Each evaluator returns an EvalResult carrying the value and a bound on the
discarded tail.  The truncation bounds of theta, eta and V are rigorous;
the quadrature's bound adds, to the tail, a per-panel error estimate from the
highest Legendre coefficients of the same pass and a rounding allowance,
and is checked against 30-digit quadrature in the tests.
sqrt(-i*tau) always means the principal branch, which is the convention
validated by the transformation-law tests.

All evaluators are plain cmath/math loops; the Gauss-Legendre nodes of the
quadrature are computed on first use, so importing this module costs
nothing beyond the standard library.
"""

import cmath
import functools
import math
from collections import namedtuple
from operator import mul

TWO_PI = 2.0 * math.pi
LOG_EPS = -45.0  # e^-45 ~ 3e-20, comfortably below double precision noise


class DomainError(ValueError):
    """Parameters outside the evaluator's convergence region."""


class PoleError(ArithmeticError):
    """Evaluation point sits on (or within tolerance of) a pole."""


EvalResult = namedtuple("EvalResult", "value truncation_bound")


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

def theta_window(z, tau):
    """J of the smallest half-integer window [-J, J) making the Gaussian
    tail of the theta sum fall below exp(LOG_EPS)."""
    t = tau.imag
    b = abs(complex(z).imag)
    # solve pi*t*n^2 - 2*pi*b*n + LOG_EPS = 0 for the positive root
    disc = (TWO_PI * b) ** 2 - 4.0 * math.pi * t * LOG_EPS
    j = (TWO_PI * b + math.sqrt(disc)) / (2.0 * math.pi * t)
    return int(j) + 4


def theta(z, tau):
    """Jacobi theta with half-integer characteristics; odd in z.  Sums the
    half-integer window [-J, J) of theta_window, with its tail bound."""
    tau = _require_upper_half(tau)
    z = complex(z)
    J = theta_window(z, tau)
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
def gauss_legendre():
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on
    [-1, 1], n = GL_POINTS, by Newton's method on the three-term recurrence
    k P_k = (2k-1) x P_{k-1} - (k-1) P_{k-2}.  The rule is symmetric, so only
    the nodes in (0, 1) (and 0 for odd n) are solved for."""
    n = GL_POINTS
    upper = []
    for i in range(n // 2 + n % 2):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(100):
            p_prev, p = 1.0, x
            for k in range(2, n + 1):
                p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
            dp = n * (x * p - p_prev) / (x * x - 1.0)
            step = p / dp
            x -= step
            if abs(step) <= 1e-16:
                break
        upper.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    if n % 2:
        upper[-1] = (0.0, upper[-1][1])
    lower = [(-x, w) for x, w in upper[:n // 2]]
    rule = lower + upper[::-1]
    return tuple(x for x, _ in rule), tuple(w for _, w in rule)


@functools.cache
def _legendre_top():
    """Row vectors that map the values of f at the n = GL_POINTS
    Gauss-Legendre nodes to the coefficients of P_(n-2) and P_(n-1) in the
    Legendre expansion of f's interpolant: (2k+1)/2 * w_j * P_k(x_j)."""
    n = GL_POINTS
    nodes, weights = gauss_legendre()
    lower, upper = [], []
    for x, w in zip(nodes, weights):
        p_prev, p = 1.0, x
        for k in range(2, n):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        lower.append((n - 1.5) * w * p_prev)
        upper.append((n - 0.5) * w * p)
    return tuple(lower), tuple(upper)


def _mordell_range(z, tau):
    """X with |integrand| < e^LOG_EPS outside [-X, X], and a bound on the
    integral over the discarded |x| > X."""
    a = math.pi * tau.imag  # Gaussian decay
    b = TWO_PI * abs(z.real) - math.pi  # worst-case exponential growth vs cosh
    X = 1.0
    while -a * X * X + b * X > LOG_EPS:
        X += 0.5
        if X > 1e4:
            raise DomainError(
                f"integrand decays too slowly for quadrature (z={z}, tau={tau})")
    # |integrand| <= 2 e^(-a x^2 + b |x|), and beyond X the exponent falls
    # at least as fast as its slope at X, so each side is below
    # 2 e^(-a X^2 + b X)/slope
    return X, 4.0 * math.exp(-a * X * X + b * X) / (2.0 * a * X - b)


def _mordell_pass(a, b, X, npanels):
    """One Gauss-Legendre pass over npanels equal panels of [0, X] for

        int_0^X e^(a x^2) (e^(b x) + e^(-b x)) / cosh(pi x) dx,

    the Mordell integral folded onto x >= 0.  Returns (value, estimate,
    l1): the estimate is the size of the two highest Legendre coefficients
    of each panel's interpolant, summed over the panels, which for an
    integrand analytic around the panel is far above the error of the
    rule; l1 is the same rule applied to |integrand|."""
    nodes, weights = gauss_legendre()
    lower, upper = _legendre_top()
    half = X / (2 * npanels)
    pi, exp, cexp = math.pi, math.exp, cmath.exp
    value = estimate = l1 = 0.0
    for p in range(npanels):
        mid = (2 * p + 1) * half
        # 1/cosh(pi x) as 2 e^(-pi x)/(1 + e^(-2 pi x)), which cannot
        # overflow where the integrand is negligible
        f = [(cexp(u + bx) + cexp(u - bx)) / (1.0 + exp(-2.0 * pi * x))
             for t in nodes for x in [mid + half * t]
             for u in [(a * x - pi) * x] for bx in [b * x]]
        value += sum(map(mul, weights, f))
        estimate += abs(sum(map(mul, lower, f))) + abs(sum(map(mul, upper, f)))
        l1 += sum(map(mul, weights, map(abs, f)))
    return 2.0 * half * value, 4.0 * half * estimate, 2.0 * half * l1


def mordell(z, tau):
    """h(z;tau) by panelwise Gauss-Legendre quadrature of the integrand
    folded onto [0, X], on panels at most one unit wide (the nearest poles
    of 1/cosh(pi x), at +-i/2, lie half a unit off the real axis), with the
    panel count doubled while the error estimate of _mordell_pass is above
    1e-12 relative.

    The bound adds the estimate, 64 ulps of the quadrature of |integrand|
    for rounding, and the discarded tail beyond X.  Allows Im(tau) = 0
    (the boundary case) when |Re z| < 1/2, where the 1/cosh factor alone
    makes the integral converge.
    """
    z, tau = complex(z), complex(tau)
    if tau.imag < 0:
        raise DomainError(f"tau={tau} below the real axis")
    if tau.imag == 0 and abs(z.real) >= 0.5:
        raise DomainError(
            f"divergent parameter regime: Im(tau)=0 needs |Re z| < 1/2, got z={z}")
    X, tail = _mordell_range(z, tau)
    a = 1j * math.pi * tau
    b = -TWO_PI * z
    npanels = math.ceil(X)
    for _ in range(10):
        value, estimate, l1 = _mordell_pass(a, b, X, npanels)
        if estimate <= 1e-12 * max(1.0, abs(value)):
            break
        npanels *= 2
    return EvalResult(value, estimate + 2.0 ** -46 * l1 + tail)


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
    last = 0.0  # the sum of the last term of each side
    for side, terms in (("positive", range(_APPELL_MAX_TERMS)),
                        ("negative", range(-1, -_APPELL_MAX_TERMS, -1))):
        for i, n in enumerate(terms):
            term = _appell_term(ell, n, u, v, tau)
            total += term
            scale = max(scale, abs(total))
            if i > 2 and abs(term) < 1e-18 * scale:
                last += abs(term)
                break
        else:
            raise DomainError(f"Appell sum did not converge ({side} side)")
    value = cmath.exp(1j * math.pi * ell * u) * total
    return EvalResult(value, last * 10.0)


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
# The rank generating function at a point
# ---------------------------------------------------------------------------

# relative size of the remainder at which evaluate_V_bounded stops summing
V_REL_TOL = 2.0 ** -60
# most terms one evaluation may sum: |q| too close to 1 raises instead of
# running for hours
V_MAX_TERMS = 1 << 20


def evaluate_V_bounded(w, q, max_terms=None):
    """V(w;q) at numeric arguments, summing the outer series term by term:

        t_0 = 1/(1-q),   t_n = t_{n-1} (1+w q^n)(1+q^n/w) q / (1-q^(2n+1)).

    For k >= n every ratio |t_{k+1}/t_k| is at most

        r_n = (1+|w||q|^(n+1)) (1+|q|^(n+1)/|w|) |q| / (1-|q|^(2n+3)),

    and r_n does not increase with n, so once r_n < 1 the remainder after
    t_n is at most |t_n| r_n/(1-r_n), for any complex w.  Summation stops
    when that bound drops below V_REL_TOL of the partial sum, or after
    t_{max_terms} when a cap is given.  Returns EvalResult(value, bound);
    the bound covers truncation, not float rounding.
    """
    w, q = complex(w), complex(q)
    absq = abs(q)
    if w == 0 or not absq < 1:
        raise DomainError(f"V(w;q) needs w != 0 and |q| < 1, got w={w}, q={q}")
    limit = V_MAX_TERMS if max_terms is None else min(max_terms, V_MAX_TERMS)
    absw, winv = abs(w), 1 / w
    term = total = 1 / (1 - q)
    qn = 1.0  # q^n
    a = absq  # |q|^(n+1)
    n = 0
    while True:
        r = (1 + absw * a) * (1 + a / absw) * absq / (1 - a * a * absq)
        bound = abs(term) * r / (1 - r) if r < 1 else math.inf
        # "not >" also stops on a NaN partial sum
        if not bound > V_REL_TOL * abs(total) or n >= limit:
            break
        n += 1
        qn *= q
        term *= (1 + w * qn) * (1 + qn * winv) * q / (1 - qn * qn * q)
        total += term
        a *= absq
    if not cmath.isfinite(total):
        raise DomainError(f"V(w;q) overflows at w={w}, q={q}")
    if n == V_MAX_TERMS and bound > V_REL_TOL * abs(total):
        raise DomainError(f"V(w;q) needs more than {V_MAX_TERMS} terms at |q|={absq}")
    return EvalResult(total, bound)
