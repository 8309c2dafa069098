"""Numerical evaluators for the modular building blocks and for V(w;q).

Implements, for tau in the upper half-plane:

* theta(z;tau) = sum over half-integers n of exp(pi*i*n^2*tau + 2*pi*i*n*(z+1/2)),
* Dedekind eta(tau) = q^(1/24) * prod_{k>=1} (1-q^k) = -i q^(1/6) theta(-tau;3tau),
* Zwegers' R(u;tau), the non-holomorphic part of mu's completion,
* the Mordell integral h(z;tau) = int exp(pi*i*tau*x^2 - 2*pi*z*x)/cosh(pi*x) dx,
  which is R(z;tau) + e^(pi i z^2/tau) R(z/tau;-1/tau)/sqrt(-i tau) (Zwegers,
  thesis, Ch. 1), and sec(pi z) on the boundary tau = 0,
* level-ell Appell sums A_ell(u,v,tau) and the normalised quotient
  mu(u,v,tau) = A_1(u,v,tau)/theta(v;tau),
* the rank generating function V(w;q) at a point (evaluate_V_bounded), the
  one numeric evaluator of V that the decomposition check and the lemma
  ratios share.

Each evaluator returns an EvalResult: the value and a bound on its error.
theta, R and the Appell sums are Gaussian sums, and one rule, written once,
counts, refuses and bounds them.  gaussian_count ends each side where a
Gaussian majorant of the terms is below e^LOG_EPS (gaussian_window), and
refuses a sum past its cap: V_MAX_TERMS terms for theta and R, as for V,
and 20000 a side for an Appell sum.  gaussian_result bounds the rest by a
geometric series a side (gaussian_tail) and adds rounding, each error
once: a term whose exponent is built from magnitudes summing to s is good
to ROUND_TERM (1 + s) UNITs of itself, adding K terms costs K + ROUND_SUM
UNITs of the sum of their sizes, and a term or tail that underflows loses
one TINY = ulp(0.0).  eta and h are theta and R values.  Every bound covers
rounding but that of evaluate_V_bounded, which covers truncation only.  Each
term is one exponential, and a prefactor goes into it: the log_factor
argument of theta and R (eta's q^(1/6), h's e^(pi i z^2/tau)/sqrt(-i tau))
and an Appell term's e^(pi i ell u), so nothing multiplies a sum after it is
taken and no factor overflows or underflows apart.

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
# summing to s is good to ROUND_TERM (1 + s) UNITs of itself, and adding K terms costs
# K + ROUND_SUM UNITs of the sum of their sizes (gaussian_result)
UNIT, ROUND_TERM, ROUND_SUM = 2.0 ** -53, 4.0, 4.0
# what a term, tail or product that underflows loses, beyond any relative budget
TINY = math.ulp(0.0)
# most terms one evaluation of theta, R or V may sum: Im tau too near 0, or |q|
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


def gaussian_count(majorant, least, cap, refusal, tau):
    """The terms a Gaussian sum takes a side: the least integer at or past both least and
    gaussian_window(*majorant), past which every term is at most g, below e^LOG_EPS and
    falling.  DomainError "refusal (tau=...)" where that passes cap, or is not a number."""
    x = max(gaussian_window(*majorant), least)
    if not x <= cap:
        raise DomainError(f"{refusal} (tau={tau})")
    return math.ceil(x)


def gaussian_result(value, tails, K, norm, weight):
    """The EvalResult of a Gaussian sum: value, the float sum of its K terms t_k, and tails,
    the bounds on its two omitted tails.  norm = sum |t_k|, and weight = sum |t_k| (1 + s_k),
    s_k the magnitudes that form t_k's exponent (and, for an Appell term, its denominator).

    Rounding, each error counted once.  exp turns an exponent's absolute error into a
    relative one, so t_k is good to ROUND_TERM (1 + s_k) UNITs of itself, and the K terms
    together to ROUND_TERM UNIT weight.  Recursive summation then rounds each of its K - 1
    partial sums, each at most norm, by at most one UNIT of itself, so it adds at most
    (K - 1) UNIT norm; ROUND_SUM covers the second-order terms and the bound's own
    rounding.  A term or tail that underflows loses up to TINY beyond any relative budget:
    K + 2 of them."""
    return EvalResult(value, tails + ROUND_TERM * UNIT * weight + (K + ROUND_SUM) * UNIT * norm
                      + (K + 2) * TINY)


def theta(z, tau, log_factor=0):
    """e^log_factor theta(z;tau), theta with half-integer characteristics; odd in z.  Sums
    the half-integers in [-J, J), J = 3 + gaussian_count (at least 1) for g(|n|),
    alpha = pi Im tau, beta = 2 pi |Im z|, gamma = Re log_factor, at most V_MAX_TERMS in all:
    log_factor goes into each term's exponent, so a prefactor that would underflow or
    overflow alone costs no digit."""
    tau = _require_upper_half(tau)
    z, log_factor = complex(z), complex(log_factor)
    g = (math.pi * tau.imag, TWO_PI * abs(z.imag), log_factor.real)
    J = 3 + gaussian_count(g, 1, V_MAX_TERMS // 2 - 3,
                           f"theta sum needs over {V_MAX_TERMS} terms", tau)
    a, b = 1j * math.pi * tau, 2j * math.pi * (z + 0.5)
    size_a, size_b, size_l = abs(a), abs(b), abs(log_factor)
    exp = cmath.exp
    value, norm, weight = 0j, 0.0, 0.0
    for k in range(-J, J):
        n = k + 0.5
        term = exp((a * n + b) * n + log_factor)
        value += term
        norm += (mag := abs(term))
        weight += mag * (1.0 + size_a * n * n + size_b * abs(n) + size_l)
    return gaussian_result(value, 2.0 * gaussian_tail(*g, J + 0.5), 2 * J, norm, weight)


# ---------------------------------------------------------------------------
# Dedekind eta
# ---------------------------------------------------------------------------

def eta(tau):
    """eta(tau) = sum_n (-1)^n q^((6n-1)^2/24) = -i q^(1/6) theta(-tau; 3tau) (the
    pentagonal number theorem), q^(1/6) in theta's exponent: theta's bound."""
    tau = _require_upper_half(tau)
    th = theta(-tau, 3 * tau, 2j * math.pi * tau / 6.0)
    return EvalResult(-1j * th.value, th.truncation_bound)


# ---------------------------------------------------------------------------
# Zwegers' R and the Mordell integral
# ---------------------------------------------------------------------------

def _log_erfc(x):
    """log erfc(x).  Past x = 26, where erfc nears the subnormals, by the asymptotic series
    erfc(x) = e^(-x^2)/(x sqrt(pi)) sum_k (-1)^k (2k-1)!!/(2x^2)^k, whose first 8 terms
    leave under 3e-21 there."""
    if x < 26.0:
        return math.log(math.erfc(x))
    s = t = 1.0
    for k in range(1, 9):
        t *= -(2 * k - 1) / (2.0 * x * x)
        s += t
    return -x * x - math.log(x * math.sqrt(math.pi) / s)


def R(u, tau, log_factor=0):
    """e^log_factor R(u;tau), Zwegers' R (thesis, Ch. 1):

        R = sum over half-integers n of sgn(n) erfc(sgn(n) (n + a) sqrt(2 pi y))
                                         (-1)^(n-1/2) e^(-pi i n^2 tau - 2 pi i n u),

    y = Im tau, a = Im u/y.  Each term is one exponential, log erfc inside it, so
    no factor of a term overflows apart.  By erfc(X) <= min(2, e^(-X^2)) a term is at
    most g(|n|), alpha = pi y, beta = 2 pi |Im u|, gamma = ln 2 + Re log_factor; the sum
    runs over [-J, J) as theta's does.  Rounding as theta's, the exponent's magnitudes
    counting, beyond exp's 1, 2 for erfc's few ulps, |log erfc|, and X's rounding, at
    most |a| sqrt(2 pi y) + 4 |X| UNITs, scaled by |d log erfc/dX| <= 2 (|X| + 1)."""
    tau = _require_upper_half(tau)
    u, log_factor = complex(u), complex(log_factor)
    y = tau.imag
    g = (math.pi * y, TWO_PI * abs(u.imag), LN2 + log_factor.real)
    J = 3 + gaussian_count(g, 1, V_MAX_TERMS // 2 - 3, f"R sum needs over {V_MAX_TERMS} terms", tau)
    a, root = u.imag / y, math.sqrt(TWO_PI * y)
    A, B = -1j * math.pi * tau, -2j * math.pi * (u - 0.5)
    size_a, size_b, size_l, size_x = abs(A), abs(B), abs(log_factor), abs(a) * root
    exp = cmath.exp
    value, norm, weight = 0j, 0.0, 0.0
    for k in range(-J, J):
        n = k + 0.5
        sign = 1.0 if n > 0 else -1.0
        X = sign * (n + a) * root
        log_erfc = _log_erfc(X)
        # (-1)^(n-1/2) = -i e^(pi i n): -i sign is exact
        term = -1j * sign * exp(log_erfc + (A * n + B) * n + log_factor)
        value += term
        norm += (mag := abs(term))
        weight += mag * (3.0 + abs(log_erfc) + 2.0 * (abs(X) + 1.0) * (abs(X) + size_x)
                         + size_a * n * n + size_b * abs(n) + size_l)
    return gaussian_result(value, 2.0 * gaussian_tail(*g, J + 0.5), 2 * J, norm, weight)


def mordell(z, tau):
    """h(z;tau) = int e^(pi i tau x^2 - 2 pi z x)/cosh(pi x) dx, for Im tau > 0 by Zwegers'
    law h(z;tau) = R(z;tau) + e^(pi i z^2/tau) R(z/tau;-1/tau)/sqrt(-i tau) (thesis, Ch. 1),
    the prefactor in the second sum's exponent, and at tau = 0, |Re z| < 1/2, by the
    closed form h(z;0) = sec(pi z).  Good to the two sums' bounds plus the UNIT of their
    sum; sec to ROUND_TERM (2 + |w tan w|) UNITs of its value, w = pi z, the 2 for cos and
    the reciprocal, w tan w for the rounding of w."""
    z, tau = complex(z), complex(tau)
    if tau == 0 and abs(z.real) < 0.5:
        w = math.pi * z
        value = 1.0 / cmath.cos(w)
        return EvalResult(value, ROUND_TERM * UNIT * abs(value) * (2.0 + abs(w * cmath.tan(w))))
    if not tau.imag > 0:
        raise DomainError(f"h(z;tau) needs Im tau > 0, or tau = 0 with |Re z| < 1/2: "
                          f"got z={z}, tau={tau}")
    near = R(z, tau)
    far = R(z / tau, -1 / tau, 1j * math.pi * z * z / tau - 0.5 * cmath.log(-1j * tau))
    value = near.value + far.value
    return EvalResult(value, near.truncation_bound + far.truncation_bound + UNIT * abs(value))


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
    s, t, alpha = u.imag, tau.imag, math.pi * ell * tau.imag
    pos = (alpha, -(alpha + TWO_PI * v.imag), LN2 - math.pi * ell * s)
    neg = (alpha, alpha - TWO_PI * (t - v.imag), LN2 + math.pi * (2 - ell) * s)
    refusal = f"Appell sum needs over {_APPELL_MAX_TERMS} terms a side"
    top = gaussian_count(pos, max((LN2 / TWO_PI - s) / t, 0.0), _APPELL_MAX_TERMS, refusal, tau)
    bottom = gaussian_count(neg, max((LN2 / TWO_PI + s) / t, 1.0), _APPELL_MAX_TERMS, refusal, tau)
    exp = cmath.exp
    value, norm, weight = 0j, 0.0, 0.0
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
        norm += (mag := abs(term))
        size = math.pi * (ell * (abs(u) + abs(n * (n + 1)) * abs(tau)) + 2 * abs(n * v))
        weight += mag * (1.0 + size + size_x + slack / gap)
    return gaussian_result(value, gaussian_tail(*pos, top) + gaussian_tail(*neg, bottom),
                           top + bottom - 1, norm, weight)


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
