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
discarded tail.  The truncation bounds of theta, eta and V are rigorous.
The Mordell integral is the trapezoidal rule, whose error for an integrand
analytic in a strip has an a-priori bound (see mordell); its bound adds the
strip term, the tail beyond the truncation point and a rounding allowance,
and is checked against 30-digit quadrature in the tests.
sqrt(-i*tau) always means the principal branch, which is the convention
validated by the transformation-law tests.

All evaluators are plain cmath/math loops, so importing this module costs
nothing beyond the standard library.
"""

import cmath
import math
from collections import namedtuple

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

def _mordell_range(z, tau):
    """X with |integrand| < e^LOG_EPS outside [-X, X], and a bound on the
    integral over |x| > X of a majorant of |integrand| that decreases there."""
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


# half-widths a of the strips |Im x| < a in which the trapezoidal rule may
# bound the integrand; the poles of 1/cosh(pi x) sit at +-i/2
STRIP_WIDTHS = (0.1, 0.2, 0.3, 0.4, 0.45, 0.49)
# the strip term's target, relative to the bound on the integral of
# |integrand| along the real axis: a sixteenth of the rounding allowance
STRIP_REL = 2.0 ** -50


def _strip_l1(z, tau, a):
    """M(a) >= int |f(u+iy)| du for every |y| <= a, where f is the Mordell
    integrand (inf when the bound overflows or the integral diverges).

    With A = pi Im(tau),

        |e^(pi i tau x^2 - 2 pi z x)| = e^(-A (u^2 - y^2) - 2 pi (Re tau u y
                                         + Re z u - Im z y))

    at x = u+iy; |cosh(pi(u+iy))| >= cosh(pi u) cos(pi y) and
    1/cosh(pi u) <= 2 e^(-pi|u|).  So for |y| <= a,
    |f(u+iy)| <= 2 e^(A a^2 + 2 pi |Im z| a)/cos(pi a) * e^(-A u^2 + c|u|)
    with c = 2 pi (|Re tau| a + |Re z|) - pi, and

        int_0^inf e^(-A u^2 + c u) du = sqrt(pi/A)/2 e^(s^2) erfc(-s),
        s = c/(2 sqrt A),

    which is at most 1/|c| for c < 0 (the bound used past s = -20, where
    erfc underflows, and at A = 0: the boundary tau = 0, |Re z| < 1/2)."""
    A = math.pi * tau.imag
    c = TWO_PI * (abs(tau.real) * a + abs(z.real)) - math.pi
    try:
        scale = 4.0 * math.exp(A * a * a + TWO_PI * abs(z.imag) * a) / math.cos(math.pi * a)
        if A == 0 or c < -40.0 * math.sqrt(A):
            return scale / -c if c < 0 else math.inf
        s = c / (2.0 * math.sqrt(A))
        return scale * math.sqrt(math.pi / A) / 2.0 * math.exp(s * s) * math.erfc(-s)
    except OverflowError:
        return math.inf


def mordell(z, tau):
    """h(z;tau) = int f, f(x) = exp(pi i tau x^2 - 2 pi z x)/cosh(pi x), by
    the trapezoidal rule folded onto x >= 0,

        h * [f(0) + sum_{k=1..n} (f(kh) + f(-kh))],   n = ceil(X/h),

    with X and the tail bound from _mordell_range.  f is analytic in every
    strip |Im x| < a < 1/2, so the infinite rule h sum_k f(kh) differs from
    the integral by at most 2M/(e^(2 pi a/h) - 1), where M bounds
    int |f(u+iy)| du for |y| <= a (Trefethen and Weideman, SIAM Review 56,
    2014, Theorem 5.1; M in closed form from _strip_l1).  Each a of
    STRIP_WIDTHS with a finite M gives the h at which that term is
    STRIP_REL of M(0), and the widest such h is taken; DomainError if no M
    is finite.  The terms of the infinite rule past n sum to at most the
    tail bound of _mordell_range, since nh >= X.

    The bound is the strip term, plus that tail, plus 64 ulps of
    h * sum |f(kh)| for rounding; the sum is compensated, so that its own
    error does not grow with the number of nodes.  Allows Im(tau) = 0 (the boundary case)
    when |Re z| < 1/2, where the 1/cosh factor alone makes the integral
    converge.
    """
    z, tau = complex(z), complex(tau)
    if tau.imag < 0:
        raise DomainError(f"tau={tau} below the real axis")
    if tau.imag == 0 and abs(z.real) >= 0.5:
        raise DomainError(
            f"divergent parameter regime: Im(tau)=0 needs |Re z| < 1/2, got z={z}")
    X, tail = _mordell_range(z, tau)
    target = STRIP_REL * _strip_l1(z, tau, 0.0)
    rules = [(TWO_PI * a / math.log1p(2.0 * M / target), a, M)
             for a in STRIP_WIDTHS for M in [_strip_l1(z, tau, a)]
             if 2.0 * M / target < 1e300]
    if not rules:
        raise DomainError(f"no strip bound is finite (z={z}, tau={tau})")
    h, a, M = max(rules)
    strip = 2.0 * M / math.expm1(TWO_PI * a / h)
    alpha = 1j * math.pi * tau
    # f(+-x) = e^((alpha x - pi (1 +- 2z)) x) w with w = e^(pi x)/cosh(pi x)
    # = 2/(1 + e^(-2 pi x)), which cannot overflow; 1 +- 2z is exact where it
    # is small (Re z near -+1/2), where pi +- 2 pi z would lose the digits
    # that the slow decay needs.  The sum is Kahan's.
    plus, minus = math.pi * (1 + 2 * z), math.pi * (1 - 2 * z)
    pi, exp, cexp = math.pi, math.exp, cmath.exp
    value, carry, l1 = 1.0, 0.0, 1.0  # f(0) = 1
    for k in range(1, math.ceil(X / h) + 1):
        x = k * h
        w = 2.0 / (1.0 + exp(-2.0 * pi * x))
        fp, fm = cexp((alpha * x - plus) * x) * w, cexp((alpha * x - minus) * x) * w
        term = fp + fm - carry
        total = value + term
        carry = (total - value) - term
        value = total
        l1 += abs(fp) + abs(fm)
    return EvalResult(h * value, strip + tail + 2.0 ** -46 * h * l1)


# ---------------------------------------------------------------------------
# Appell sums
# ---------------------------------------------------------------------------

_POLE_TOL = 1e-13
_APPELL_MAX_TERMS = 20000


def _appell_term(ell, n, u, v, tau):
    """One bilateral term, arranged so no intermediate overflows: where
    |d| = |e^{2pi i u} q^n| > 1 the term is taken in the reciprocal form
    1/(1-d) = -d^-1/(1-d^-1), the geometric factor folded into the
    exponent."""
    sign = -1.0 if (ell * n) % 2 else 1.0
    log_num = 2j * math.pi * (n * v + tau * ell * n * (n + 1) / 2.0)
    x = 2j * math.pi * (u + n * tau)
    d = cmath.exp(x)
    if abs(d) > 1.0:
        sign, log_num, d = -sign, log_num - x, cmath.exp(-x)
    if abs(1.0 - d) < _POLE_TOL:
        raise PoleError(f"Appell denominator vanishes at n={n} (u={u}, tau={tau})")
    return sign * cmath.exp(log_num) / (1.0 - d)


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
