"""Main-term formulas, exponent bookkeeping, and convergence reports.

High-precision arithmetic (mpmath, default 50 digits) keeps e^(pi*sqrt(n))
exact-enough for ratio columns up to n ~ 10^4; exact integers from the
expansion modules are only ever floated inside a ratio.  mpmath is
imported inside the functions that evaluate a main term, so only
asym_report and the main-term functions load it: the other reports, and
every CLI command but asym-report, run on the standard library alone.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from fractions import Fraction

from .genfunc import evaluate_V_bounded
from .modular import DomainError, mordell, qpow, q0pow, sqrt_neg_itau

DEFAULT_DPS = 50


class EvenModulusError(ValueError):
    """The residue main term is only established for odd moduli."""


def _workdps(dps):
    import mpmath as mp

    return mp.workdps(max(dps, 30))


# ---------------------------------------------------------------------------
# Tauberian main term and its specialisations
# ---------------------------------------------------------------------------

def tauberian_apply(lam, alpha, A, n, dps=DEFAULT_DPS):
    """Coefficient main term lam * A^(alpha/2+1/4) / (2 sqrt(pi) n^(alpha/2+3/4))
    * e^(2 sqrt(A n)) transferred from C(e^-t) ~ lam * t^alpha * e^(A/t)."""
    import mpmath as mp

    if n < 1:
        raise ValueError("n must be >= 1")
    with _workdps(dps):
        A = mp.mpf(A)
        if A <= 0:
            raise ValueError("growth constant A must be positive")
        lam = mp.mpf(lam)
        alpha = mp.mpf(alpha)
        nn = mp.mpf(n)
        return (lam * A ** (alpha / 2 + mp.mpf(1) / 4)
                / (2 * mp.sqrt(mp.pi) * nn ** (alpha / 2 + mp.mpf(3) / 4))
                * mp.e ** (2 * mp.sqrt(A * nn)))


def main_term_v(n, dps=DEFAULT_DPS):
    """e^(pi sqrt n) / (16 n^(3/4)); equals tauberian_apply(sqrt(2)/8, 0, pi^2/4, n)."""
    import mpmath as mp

    if n < 1:
        raise ValueError("n must be >= 1")
    with _workdps(dps):
        nn = mp.mpf(n)
        return mp.e ** (mp.pi * mp.sqrt(nn)) / (16 * nn ** (mp.mpf(3) / 4))


def main_term_v_mod(a, c, n, dps=DEFAULT_DPS):
    """Residue-class main term e^(pi sqrt n)/(16 c n^(3/4)); independent of a.

    Only valid for odd c > 1 (the generating function stops being a sum of
    modular-times-mock pieces at w = -1, which every even modulus needs)."""
    if c <= 1 or c % 2 == 0:
        raise EvenModulusError(f"modulus must be odd and > 1, got c={c}")
    if not 0 <= a < c:
        raise ValueError("residue must satisfy 0 <= a < c")
    return main_term_v(n, dps) / c


def hardy_ramanujan_p(n, dps=DEFAULT_DPS):
    """Partition main term e^(pi sqrt(2n/3)) / (4 sqrt(3) n)."""
    import mpmath as mp

    if n < 1:
        raise ValueError("n must be >= 1")
    with _workdps(dps):
        nn = mp.mpf(n)
        return mp.e ** (mp.pi * mp.sqrt(2 * nn / 3)) / (4 * mp.sqrt(3) * nn)


def overpartition_asym(n, dps=DEFAULT_DPS):
    """Overpartition main term e^(pi sqrt n) / (8 n)."""
    import mpmath as mp

    if n < 1:
        raise ValueError("n must be >= 1")
    with _workdps(dps):
        nn = mp.mpf(n)
        return mp.e ** (mp.pi * mp.sqrt(nn)) / (8 * nn)


# ---------------------------------------------------------------------------
# Exponent polynomials on (0,1)
# ---------------------------------------------------------------------------

class ExponentPolynomial(namedtuple("ExponentPolynomial", "a b c lo hi")):
    """Quadratic a*z^2 + b*z + c with an interval of validity (lo, hi) in
    (0,1); every field a Fraction."""

    __slots__ = ()

    def __call__(self, z):
        z = Fraction(z)
        if not self.lo < z < self.hi:
            raise DomainError(f"z={z} outside ({self.lo}, {self.hi})")
        return self.a * z * z + self.b * z + self.c


# dual-nome growth exponents of the dominant piece, interval by interval
GAP_POLYNOMIALS = (
    ExponentPolynomial(Fraction(1, 2), Fraction(0), Fraction(-1, 16),
                       Fraction(0), Fraction(1, 2)),
    ExponentPolynomial(Fraction(-1, 2), Fraction(1, 2), Fraction(-1, 8),
                       Fraction(1, 2), Fraction(3, 4)),
    ExponentPolynomial(Fraction(1, 2), Fraction(-1), Fraction(7, 16),
                       Fraction(3, 4), Fraction(1)),
)

# same list with (1/4,1/2) carrying the theta-quotient exponent that the
# ratio measurements show actually dominates there; kept alongside so the
# positivity sweep can cover both readings
GAP_POLYNOMIALS_MEASURED = (
    ExponentPolynomial(Fraction(1, 2), Fraction(0), Fraction(-1, 16),
                       Fraction(0), Fraction(1, 4)),
    ExponentPolynomial(Fraction(-1, 2), Fraction(1, 2), Fraction(-1, 8),
                       Fraction(1, 4), Fraction(3, 4)),
    ExponentPolynomial(Fraction(1, 2), Fraction(-1), Fraction(7, 16),
                       Fraction(3, 4), Fraction(1)),
)

CRITICAL_EXPONENT = Fraction(-1, 16)


def interval_exponent(z, polynomials=GAP_POLYNOMIALS):
    """Value of the interval polynomial at z in (0,1) (z != boundary points)."""
    z = Fraction(z)
    for poly in polynomials:
        if poly.lo < z < poly.hi:
            return poly(z)
    raise DomainError(f"z={z} hits an interval boundary")


def exponent_gap(c, polynomials=GAP_POLYNOMIALS):
    """min_j interval_exponent(j/c) + 1/16 over j=1..c-1; positivity is what
    makes the uniform residue-class main term e^(pi sqrt n)/(16 c n^(3/4)) win."""
    if c <= 1 or c % 2 == 0:
        raise EvenModulusError(f"modulus must be odd and > 1, got c={c}")
    gap = min(interval_exponent(Fraction(j, c), polynomials) for j in range(1, c))
    return gap - CRITICAL_EXPONENT


# ---------------------------------------------------------------------------
# Interval main terms for V(w;q) on vertical rays
# ---------------------------------------------------------------------------

def lemma_main_term(z, tau):
    """Closed-form main term of V(e^(2*pi*i*z*); q) as tau -> 0, for real
    z in (0,1) away from {1/4, 1/2, 3/4}.

    All four intervals share the prefactor
        pref = w^(-1/2)/(1+w^(-1)) * q^(-7/8),
    where q^(-7/8) collects the exact nome powers of the dominant term (it
    tends to 1 on vertical rays but matters at finite t: without it the
    ratio tests lose monotonicity).  The interval shapes are

        (0,1/4):   pref * (sqrt2/4) h(2z;2tau)   * q0^(z^2/2 - 1/16)
        (1/4,1/2): pref * 1/(2 sqrt(-i tau))     * q0^(-z^2/2 + z/2 - 1/8)
        (1/2,3/4): -pref * 1/(2 sqrt(-i tau))    * q0^(-z^2/2 + z/2 - 1/8)
        (3/4,1):   -pref * (sqrt2/4) h(2-2z;2tau) * q0^(z^2/2 - z + 7/16)

    with h the Mordell integral.  The two middle intervals carry the
    quotient-of-thetas term; the outer ones the Appell/Mordell term.  The
    sign alternation makes the whole expression symmetric under z -> 1-z,
    matching the w <-> 1/w symmetry of V itself.
    """
    z = float(z)
    if not 0 < z < 1 or z in (0.25, 0.5, 0.75):
        raise DomainError(f"z={z} outside the four open intervals")
    w = cmath.exp(2j * math.pi * z)
    pref = cmath.exp(-1j * math.pi * z) / (1 + 1 / w) * qpow(tau, -7.0 / 8.0)
    root = sqrt_neg_itau(tau)
    if z < 0.25:
        return (pref * math.sqrt(2) / 4 * mordell(2 * z, 2 * tau).value
                * q0pow(tau, z * z / 2 - 1.0 / 16.0))
    if z < 0.5:
        return pref / (2 * root) * q0pow(tau, -z * z / 2 + z / 2 - 0.125)
    if z < 0.75:
        return -pref / (2 * root) * q0pow(tau, -z * z / 2 + z / 2 - 0.125)
    return (-pref * math.sqrt(2) / 4 * mordell(2 - 2 * z, 2 * tau).value
            * q0pow(tau, z * z / 2 - z + 7.0 / 16.0))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

class ReportRow(namedtuple("ReportRow", "n exact main_term ratio")):
    """One checkpoint: main_term and ratio are mpf, or None when no main
    term applies (even modulus)."""

    __slots__ = ()

    def as_dict(self, digits=DEFAULT_DPS):
        import mpmath as mp

        return {
            "n": self.n,
            "exact": str(self.exact),
            "main_term": mp.nstr(self.main_term, digits) if self.main_term is not None else None,
            "ratio": mp.nstr(self.ratio, digits) if self.ratio is not None else None,
        }


class AsymptoticReport:
    def __init__(self, residue, modulus, formula):
        self.residue = residue
        self.modulus = modulus
        self.formula = formula
        self.rows = []
        self.equidistribution = []  # (n, max_a |c v(a,c;n)/v(n) - 1|)


def asym_report(a, c, checkpoints, table=None, totals=None, dps=DEFAULT_DPS,
                allow_even=False):
    """Rows (n, exact v(a,c;n), main term, ratio) at the given checkpoints,
    plus the equidistribution statistic for c > 1.

    For c == 1 exact totals may be passed directly (cheap scalar expansion);
    otherwise a RankTable covering max(checkpoints) is required, either the
    full table or one reduced mod a multiple of c.  Even c > 1
    is allowed only with allow_even=True, which suppresses the main-term
    column (exact counts stay available)."""
    import mpmath as mp

    checkpoints = sorted(checkpoints)
    if c == 1:
        seq = totals if totals is not None else table.totals()
    else:
        if table is None:
            raise ValueError("residue classes need the rank table")
        seq = table.residue_sequence(a, c)
    if checkpoints and not 0 <= checkpoints[0] <= checkpoints[-1] < len(seq):
        raise IndexError(f"checkpoints {checkpoints[0]}..{checkpoints[-1]} "
                         f"outside 0..{len(seq) - 1}")
    even = c > 1 and c % 2 == 0
    if even and not allow_even:
        raise EvenModulusError(f"c={c} is even; pass allow_even to tabulate exact counts only")

    report = AsymptoticReport(residue=a, modulus=c,
                              formula="exp(pi*sqrt(n))/(16*c*n^(3/4))" if not even else "none")
    with _workdps(dps):
        for n in checkpoints:
            exact = seq[n]
            if even:
                main, ratio = None, None
            else:
                main = main_term_v(n, dps) / c
                ratio = mp.mpf(exact) / main
            report.rows.append(ReportRow(n=n, exact=exact, main_term=main, ratio=ratio))
            if c > 1:
                report.equidistribution.append((n, equidistribution_stat(table, c, n)))
    return report


def equidistribution_stat(table, c, n):
    """max_a |c * v(a,c;n) / v(n) - 1|, correctly rounded to a float.

    The difference c * v(a,c;n) - v(n) is taken in integers and divided
    once: in floats, c * v(a,c;n) / v(n) - 1 cancels to rounding noise
    (2.2e-16 or 0.0) once the statistic drops below ~1e-16, which it does
    by n = 600 at c = 3."""
    total = table.total(n)
    return max(abs(c * table.residue_class(a, c, n) - total) for a in range(c)) / total


# ---------------------------------------------------------------------------
# Log-concavity style scan
# ---------------------------------------------------------------------------

class LogConcavityReport:
    def __init__(self, residue, modulus, n_max):
        self.residue = residue
        self.modulus = modulus
        self.n_max = n_max
        # reading (i): v(a,c;n)^2 <= v(a,c;n-1) v(a,c;n+1)
        self.square_threshold = None
        self.square_violations = []
        # reading (ii): v(a,c;2n) <= v(a,c;n-1) v(a,c;n+1), where 2n is in range
        self.double_threshold = None
        self.double_scan_max = 0
        self.double_violations = []
        # upper bound: v(a,c;n-1) v(a,c;n+1) < sqrt(n) pbar(n-1) pbar(n+1)
        self.bound_threshold = None
        self.bound_violations = []

    @property
    def square_fails_to_end(self):
        """Reading (i) violated at the top of the scanned range: the scan
        found no tail on which it holds.  Reported as a finding, since the
        exact counts grow log-concavely and the squared reading is then
        false for every large n."""
        return self.square_threshold >= self.n_max

    @property
    def double_fails_to_end(self):
        return self.double_threshold >= self.double_scan_max

    @property
    def bound_fails_to_end(self):
        return self.bound_threshold >= self.n_max


def _least_threshold(violations):
    """Least N0 with the property holding for every scanned n > N0."""
    return max(violations, default=0)


def logconcavity_scan(a, c, n_max, table, overpartitions):
    """Scan both readings of the product inequality plus the overpartition
    upper bound; exact integer arithmetic throughout (the sqrt(n) factor is
    compared via squares)."""
    if n_max + 1 > table.max_n:
        raise IndexError(f"need table up to {n_max + 1}, have {table.max_n}")
    if len(overpartitions) < n_max + 2:
        raise IndexError("need overpartition counts up to n_max+1")
    seq = table.residue_sequence(a, c)
    report = LogConcavityReport(residue=a, modulus=c, n_max=n_max)
    report.double_scan_max = min(n_max, table.max_n // 2)
    for n in range(1, n_max + 1):
        prod = seq[n - 1] * seq[n + 1]
        if seq[n] ** 2 > prod:
            report.square_violations.append(n)
        if n <= report.double_scan_max and seq[2 * n] > prod:
            report.double_violations.append(n)
        pbar_prod = overpartitions[n - 1] * overpartitions[n + 1]
        if prod * prod >= n * pbar_prod * pbar_prod:
            report.bound_violations.append(n)
    report.square_threshold = _least_threshold(report.square_violations)
    report.double_threshold = _least_threshold(report.double_violations)
    report.bound_threshold = _least_threshold(report.bound_violations)
    return report


# ---------------------------------------------------------------------------
# Ratio tests against the interval main terms
# ---------------------------------------------------------------------------

class LemmaRatioRow(namedtuple("LemmaRatioRow", "modulus j t series_value main_term "
                                               "series_tail_bound")):
    __slots__ = ()

    @property
    def deviation(self):
        return abs(self.series_value / self.main_term - 1.0)


def lemma_ratio_report(moduli=(3, 5), t_values=(0.1, 0.05, 0.025)):
    """For every z=j/c, compare the series value V(e^(2*pi*i*z); e^(-2*pi*t))
    with the interval main term along the vertical ray tau = i*t.  The series
    is summed to convergence and its truncation bound kept in each row."""
    rows = []
    for c in moduli:
        for j in range(1, c):
            z = j / c
            for t in sorted(t_values, reverse=True):
                val = evaluate_V_bounded(cmath.exp(2j * math.pi * z),
                                         math.exp(-2 * math.pi * t))
                rows.append(LemmaRatioRow(
                    modulus=c, j=j, t=t,
                    series_value=val.value, main_term=lemma_main_term(z, 1j * t),
                    series_tail_bound=val.truncation_bound))
    return rows
