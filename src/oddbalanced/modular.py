"""Numerical evaluators for the modular building blocks and for V(w;q).

Implements, for tau in the upper half-plane:

* theta(z;tau) = sum over half-integers n of exp(pi*i*n^2*tau + 2*pi*i*n*(z+1/2)),
* Dedekind eta(tau) = q^(1/24) * prod_{k>=1} (1-q^k) = -i q^(1/6) theta(-tau;3tau),
* the Mordell integral h(z;tau) = int exp(pi*i*tau*x^2 - 2*pi*z*x)/cosh(pi*x) dx,
* level-ell Appell sums A_ell(u,v,tau) and the normalised quotient
  mu(u,v,tau) = A_1(u,v,tau)/theta(v;tau),
* the rank generating function V(w;q) at a point (evaluate_V_bounded), the
  one numeric evaluator of V that the decomposition check and the lemma
  ratios share.

Each evaluator returns an EvalResult: the value and a bound on its error.
theta, the Appell sums and the Mordell rule's nodes stop where a Gaussian
majorant of their terms is below e^LOG_EPS (gaussian_window) and bound the
rest by a geometric series (gaussian_tail); eta is a theta value.  Each
term is one exponential, an Appell term's prefactor e^(pi i ell u) inside
it, so nothing multiplies a sum after it is taken.  Every bound covers
float rounding too, by one rule (ROUND_TERM, ROUND_SUM), and underflow, by
one TINY = ulp(0.0) per summed term and per tail, except that of
evaluate_V_bounded, which covers truncation only.  theta and V refuse a sum
past V_MAX_TERMS terms.

One rule refuses a divisor, the ball rule of Arb (Johansson, IEEE TC 2017):
a value whose error bound reaches its magnitude cannot divide, since no
digit of the quotient would be known.  divisor() applies it to mu's theta
and to the theta divisors of decomposition, and appell inline to each
1 - e^(2 pi i u) q^n against that term's own rounding.  It raises PoleError,
a DomainError, so the CLI's one refusal (exit 2) covers poles too; no cut
is set by hand.

sqrt(-i*tau) always means the principal branch, which is the convention
validated by the transformation-law tests.

All evaluators are plain cmath/math loops, so importing this module costs
nothing beyond the standard library.
"""

import cmath
import math
from collections import namedtuple

from . import InputError

TWO_PI = 2.0 * math.pi
LN2 = math.log(2.0)
LOG_EPS = -45.0  # e^-45 ~ 3e-20, comfortably below double precision noise
# exp turns an exponent's absolute error into a relative one: a term built from magnitudes
# summing to s is good to ROUND_TERM (1 + s) UNITs, K such terms to K + ROUND_SUM times that
UNIT, ROUND_TERM, ROUND_SUM = 2.0 ** -53, 4.0, 4.0
# what a term, tail or product that underflows loses, beyond any relative budget
TINY = math.ulp(0.0)
# most terms one evaluation of theta or V may sum: Im tau too near 0, or |q|
# too near 1, raises instead of running for hours
V_MAX_TERMS = 1 << 20


class DomainError(InputError):
    """Parameters outside the evaluator's convergence region."""


class PoleError(DomainError, ArithmeticError):
    """A divisor that is not above its own error bound: on a pole, or too near one."""


EvalResult = namedtuple("EvalResult", "value truncation_bound")


def divisor(result, message):
    """result, if |value| > its bound; else PoleError(message): no digit of a quotient is known."""
    if not abs(result.value) > result.truncation_bound:
        raise PoleError(message)
    return result


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

def gaussian_window(alpha, beta, gamma):
    """The x past which g(x) = e^(-alpha x^2 + beta x + gamma) is below e^LOG_EPS and
    falls: the larger root of g(x) = e^LOG_EPS, or the vertex where there is none.  For
    beta < 0 the root is taken rationalised, which loses no digits and holds at alpha = 0."""
    disc = beta * beta + 4.0 * alpha * (gamma - LOG_EPS)
    if beta < 0 < disc:
        return 2.0 * (gamma - LOG_EPS) / (math.sqrt(disc) - beta)
    return (beta + math.sqrt(max(disc, 0.0))) / (2.0 * alpha)


def gaussian_tail(alpha, beta, gamma, x):
    """g(x) + g(x+1) + ... <= g(x)/(1 - g(x+1)/g(x)) for x past gaussian_window."""
    ratio = math.exp(-alpha * (2.0 * x + 1.0) + beta)
    return math.exp((-alpha * x + beta) * x + gamma) / (1.0 - ratio)


def theta(z, tau):
    """Jacobi theta with half-integer characteristics; odd in z.  Sums the half-integers
    in [-J, J), J = int(gaussian_window) + 4 for g(|n|), alpha = pi Im tau, beta = 2 pi |Im z|."""
    tau = _require_upper_half(tau)
    z = complex(z)
    alpha, beta = math.pi * tau.imag, TWO_PI * abs(z.imag)
    window = gaussian_window(alpha, beta, 0.0)
    if not window < V_MAX_TERMS // 2 - 3:  # else the 2J terms would pass V_MAX_TERMS
        raise DomainError(f"theta sum needs over {V_MAX_TERMS} terms (tau={tau})")
    J = int(window) + 4
    a = 1j * math.pi * tau
    b = 2j * math.pi * (z + 0.5)
    size_a, size_b = abs(a), abs(b)
    exp = cmath.exp
    value, weight = 0j, 0.0
    for k in range(-J, J):
        n = k + 0.5
        term = exp((a * n + b) * n)
        value += term
        weight += abs(term) * (1.0 + size_a * n * n + size_b * abs(n))
    return EvalResult(value, 2.0 * gaussian_tail(alpha, beta, 0.0, J + 0.5)
                      + (2 * J + ROUND_SUM) * ROUND_TERM * UNIT * weight + (2 * J + 2) * TINY)


# ---------------------------------------------------------------------------
# Dedekind eta
# ---------------------------------------------------------------------------

def eta(tau):
    """eta(tau) = sum_n (-1)^n q^((6n-1)^2/24) = -i q^(1/6) theta(-tau; 3tau) (the
    pentagonal number theorem), good to |q^(1/6)| times theta's bound plus ROUND_TERM
    (1 + |2 pi tau/6|) UNITs of |eta| for the prefactor."""
    tau = _require_upper_half(tau)
    th = theta(-tau, 3 * tau)
    prefactor = qpow(tau, 1.0 / 6.0)
    value = -1j * prefactor * th.value
    return EvalResult(value, abs(prefactor) * th.truncation_bound
                      + ROUND_TERM * (1.0 + abs(TWO_PI * tau / 6.0)) * UNIT * abs(value))


# ---------------------------------------------------------------------------
# Mordell integral
# ---------------------------------------------------------------------------

# half-widths a of the strips |Im x| < a in which the trapezoidal rule may
# bound the integrand; the poles of 1/cosh(pi x) sit at +-i/2
STRIP_WIDTHS = (0.1, 0.2, 0.3, 0.4, 0.45, 0.49)
# the strip term's target, relative to the bound on the integral of
# |integrand| along the real axis: the least that the rounding budget can be
STRIP_REL = (ROUND_TERM + ROUND_SUM) * UNIT


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

        h * [f(0) + sum_{k=1..n} (f(kh) + f(-kh))].

    f is analytic in every strip |Im x| < a < 1/2, so the infinite rule
    h sum_k f(kh) differs from the integral by at most 2M/(e^(2 pi a/h) - 1),
    where M bounds int |f(u+iy)| du for |y| <= a (Trefethen and Weideman,
    SIAM Review 56, 2014, Theorem 5.1; M in closed form from _strip_l1).
    Each a of STRIP_WIDTHS with a finite M gives the h at which that term is
    STRIP_REL of M(0), and the widest such h is taken; DomainError if no M
    is finite.  Then |f(+-kh)| <= g(k) = 2 e^(-A k^2 + B k), A = pi Im(tau) h^2,
    B = (2 pi |Re z| - pi) h, so n = ceil(gaussian_window) and the nodes past n
    on both sides sum to at most 2h gaussian_tail(n + 1); DomainError where
    nh would pass 1e4.

    The bound is the strip term, plus that tail, plus ROUND_TERM + ROUND_SUM
    UNITs of h times the rounding weight: each node adds |f| (1 + s), s the
    magnitudes |pi i tau| x^2 + |pi (1 +- 2z)| x that form its exponent; plus
    a TINY for each node and for the tail.  The sum is compensated, so that
    its own error does not grow with the number of nodes.  Allows Im(tau) = 0 (the boundary case) when |Re z| < 1/2,
    where the 1/cosh factor alone makes the integral converge.
    """
    z, tau = complex(z), complex(tau)
    if tau.imag < 0:
        raise DomainError(f"tau={tau} below the real axis")
    if tau.imag == 0 and abs(z.real) >= 0.5:
        raise DomainError(
            f"divergent parameter regime: Im(tau)=0 needs |Re z| < 1/2, got z={z}")
    target = STRIP_REL * _strip_l1(z, tau, 0.0)
    rules = [(TWO_PI * a / math.log1p(2.0 * M / target), a, M)
             for a in STRIP_WIDTHS for M in [_strip_l1(z, tau, a)]
             if 2.0 * M / target < 1e300]
    if not rules:
        raise DomainError(f"no strip bound is finite (z={z}, tau={tau})")
    h, a, M = max(rules)
    strip = 2.0 * M / math.expm1(TWO_PI * a / h)
    majorant = (math.pi * tau.imag * h * h, (TWO_PI * abs(z.real) - math.pi) * h, LN2)
    window = gaussian_window(*majorant)
    if not window * h <= 1e4:
        raise DomainError(f"integrand decays too slowly for quadrature (z={z}, tau={tau})")
    n = math.ceil(window)
    alpha = 1j * math.pi * tau
    # f(+-x) = e^((alpha x - pi (1 +- 2z)) x) w with w = e^(pi x)/cosh(pi x)
    # = 2/(1 + e^(-2 pi x)), which cannot overflow; 1 +- 2z is exact where it
    # is small (Re z near -+1/2), where pi +- 2 pi z would lose the digits
    # that the slow decay needs.  The sum is Kahan's.
    plus, minus = math.pi * (1 + 2 * z), math.pi * (1 - 2 * z)
    size_a, size_p, size_m = abs(alpha), abs(plus), abs(minus)
    pi, exp, cexp = math.pi, math.exp, cmath.exp
    value, carry, weight = 1.0, 0.0, 1.0  # f(0) = 1
    for k in range(1, n + 1):
        x = k * h
        w = 2.0 / (1.0 + exp(-2.0 * pi * x))
        fp, fm = cexp((alpha * x - plus) * x) * w, cexp((alpha * x - minus) * x) * w
        term = fp + fm - carry
        total = value + term
        carry = (total - value) - term
        value = total
        common = 1.0 + size_a * x * x
        weight += abs(fp) * (common + size_p * x) + abs(fm) * (common + size_m * x)
    return EvalResult(h * value, strip + 2.0 * h * gaussian_tail(*majorant, n + 1)
                      + (ROUND_TERM + ROUND_SUM) * UNIT * h * weight + (2 * n + 2) * TINY)


# ---------------------------------------------------------------------------
# Appell sums
# ---------------------------------------------------------------------------

_APPELL_MAX_TERMS = 20000


def appell(ell, u, v, tau):
    """Level-ell Appell sum
    A_ell(u,v,tau) = sum_n (-1)^(ell*n) e^(pi*i*ell*u + 2*pi*i*n*v)
                     q^(ell*n(n+1)/2) / (1 - d),   d = e^x,  x = 2*pi*i*(u + n*tau),
    over -bottom < n < top.  With t = Im tau and s = Im u, |d| is <= 1/2 for
    n >= (ln 2/(2 pi) - s)/t and >= 2 for n = -m, m >= (ln 2/(2 pi) + s)/t; past those
    points terms n and -m are at most g(n) and g(m), with alpha = pi ell t and beta,
    gamma below; top and bottom pass gaussian_window too.
        n:  beta = -(pi ell t + 2 pi Im v),        gamma = ln 2 - pi ell s,
        m:  beta = pi ell t - 2 pi t + 2 pi Im v,  gamma = ln 2 + (2 - ell) pi s.
    Each term is one exponential over 1 - d, d taken where |d| <= 1: where Re x > 0 the
    term is -e^(... - x)/(1 - 1/d), so no term overflows that is itself finite.  1/(1-d)
    scales d's rounding by 1/|1-d|, and a 1 - d not above it is a pole (divisor's rule)."""
    if not (ell >= 1 and ell % 1 == 0):
        raise DomainError("Appell level must be a positive integer")
    tau = _require_upper_half(tau)
    u, v = complex(u), complex(v)
    t, alpha = tau.imag, math.pi * ell * tau.imag
    pos = (alpha, -(alpha + TWO_PI * v.imag), LN2 - math.pi * ell * u.imag)
    neg = (alpha, alpha - TWO_PI * (t - v.imag), LN2 + math.pi * (2 - ell) * u.imag)
    top = max((LN2 / TWO_PI - u.imag) / t, gaussian_window(*pos), 0.0)
    bottom = max((LN2 / TWO_PI + u.imag) / t, gaussian_window(*neg), 1.0)
    if not max(top, bottom) <= _APPELL_MAX_TERMS:
        raise DomainError(f"Appell sum needs over {_APPELL_MAX_TERMS} terms a side (tau={tau})")
    top, bottom = math.ceil(top), math.ceil(bottom)
    exp = cmath.exp
    value, weight = 0j, 0.0
    for n in [*range(top), *range(-1, -bottom, -1)]:
        sign = -1.0 if (ell * n) % 2 else 1.0
        log_num = 1j * math.pi * (ell * u + 2 * n * v + ell * n * (n + 1) * tau)
        x = 2j * math.pi * (u + n * tau)
        size_x = TWO_PI * (abs(u) + abs(n) * abs(tau))
        if x.real > 0:
            sign, log_num, x = -sign, log_num - x, -x
        d = exp(x)
        slack, gap = abs(d) * (1.0 + size_x), abs(1.0 - d)
        if not gap > ROUND_TERM * UNIT * slack:
            raise PoleError(f"Appell denominator vanishes at n={n} (u={u}, tau={tau})")
        term = sign * exp(log_num) / (1.0 - d)
        value += term
        size = math.pi * (ell * (abs(u) + abs(n * (n + 1)) * abs(tau)) + 2 * abs(n * v))
        weight += abs(term) * (1.0 + size + size_x + slack / gap)
    K = top + bottom - 1
    return EvalResult(value, gaussian_tail(*pos, top) + gaussian_tail(*neg, bottom)
                      + (K + ROUND_SUM) * ROUND_TERM * UNIT * weight + (K + 2) * TINY)


def mu(u, v, tau):
    """A_1(u,v,tau)/theta(v;tau), good to (a + |mu| b)/(|theta| - b) + 4 |mu| UNITs;
    PoleError where theta(v;tau) is not above its bound (divisor)."""
    th = divisor(theta(v, tau), f"theta({v};{tau}) is below its error bound; mu undefined")
    ap = appell(1, u, v, tau)
    value = ap.value / th.value
    a, b = ap.truncation_bound, th.truncation_bound
    return EvalResult(value, (a + abs(value) * b) / (abs(th.value) - b) + abs(value) * 4 * UNIT)


# ---------------------------------------------------------------------------
# The rank generating function at a point
# ---------------------------------------------------------------------------

# relative size of the remainder at which evaluate_V_bounded stops summing
V_REL_TOL = 2.0 ** -60


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
