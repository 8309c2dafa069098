"""Main-term formulas and convergence reports.

Main terms are evaluated in the standard library's decimal arithmetic, in
a local context of max(dps, 30) + GUARD_DIGITS significant digits (default
dps 50), so every one of the dps printed digits is correct; they are
printed in mpmath.nstr's format.  Exact integers from the expansion modules
enter only the ratio, as one correctly rounded division.  No third-party
package is needed, and decimal is imported inside the functions that
evaluate a main term, so only asym-report loads it.  modular is imported
inside the lemma functions, so the exact reports (asym-report,
equidistribution, logconcavity-scan) never load it.
"""

import cmath
import math
from collections import namedtuple
from functools import cache

DEFAULT_DPS = 50

# digits carried beyond the requested precision, so that the last printed
# digit of a main term or ratio is not rounding noise
GUARD_DIGITS = 10


class EvenModulusError(ValueError):
    """The residue main term is only established for odd moduli."""


def _context(dps):
    """The decimal context main terms and ratios are rounded to."""
    from decimal import MAX_EMAX, Context

    return Context(prec=max(dps, 30) + GUARD_DIGITS, Emax=MAX_EMAX)


@cache
def _pi(prec):
    """pi to prec digits by Machin's formula 16 atan(1/5) - 4 atan(1/239),
    summed in integers fixed at prec + 10 digits; each of the terms is
    truncated by less than one unit there."""
    from decimal import Context, Decimal

    one = 10 ** (prec + 10)

    def atan_inv(x):
        total, power, sign, k = 0, one // x, 1, 1
        while power:
            total += sign * (power // k)
            power //= x * x
            sign, k = -sign, k + 2
        return total

    fixed = 16 * atan_inv(5) - 4 * atan_inv(239)
    return Context(prec=prec).scaleb(Decimal(fixed), -(prec + 10))


# ---------------------------------------------------------------------------
# Main terms
# ---------------------------------------------------------------------------

def main_term_v(n, dps=DEFAULT_DPS):
    """e^(pi sqrt n) / (16 n^(3/4)), a Decimal of max(dps, 30) + GUARD_DIGITS
    digits; the Tauberian transfer of C(e^-t) ~ (sqrt2/8) e^(pi^2/(4t))."""
    from decimal import MAX_EMAX, Context

    if n < 1:
        raise ValueError("n must be >= 1")
    ctx = _context(dps)
    # e^x is e^(x/2^k) squared k times: libmpdec's exp slows sharply with
    # the argument at thousands of digits.  The squarings multiply the
    # relative error by about 2^(k+1), which the extra digits absorb.
    k = 2 * math.isqrt(ctx.prec)
    work = Context(prec=ctx.prec + math.ceil(k * math.log10(2)) + 2, Emax=MAX_EMAX)
    root = work.sqrt(n)
    power = work.exp(work.divide(work.multiply(_pi(work.prec), root), 2 ** k))
    for _ in range(k):
        power = work.multiply(power, power)
    return ctx.divide(power, work.multiply(16, work.sqrt(work.multiply(n, root))))


def main_term_v_mod(a, c, n, dps=DEFAULT_DPS):
    """Residue-class main term e^(pi sqrt n)/(16 c n^(3/4)); independent of a.

    Only valid for odd c > 1 (the generating function stops being a sum of
    modular-times-mock pieces at w = -1, which every even modulus needs)."""
    if c <= 1 or c % 2 == 0:
        raise EvenModulusError(f"modulus must be odd and > 1, got c={c}")
    if not 0 <= a < c:
        raise ValueError("residue must satisfy 0 <= a < c")
    return _context(dps).divide(main_term_v(n, dps), c)


def _nstr(x, digits):
    """A Decimal x >= 0 to `digits` significant digits, as mpmath.nstr
    prints it: rounded half up on the first dropped digit alone; fixed
    notation iff the leading digit's exponent is strictly between
    min(-(digits//3), -5) and digits; trailing zeros stripped but a ".0"
    kept.  mpmath reads its digits from a binary value truncated a few
    places past the cut, so where the dropped digits are 5 then four zeros
    it may round down where this rounds up."""
    if not x:
        return "0.0"
    mantissa = "".join(map(str, x.as_tuple().digits))
    exponent = x.adjusted()
    head = mantissa[:digits]
    if len(mantissa) > digits and mantissa[digits] >= "5":
        kept = head.rstrip("9")
        if kept:
            head = kept[:-1] + str(int(kept[-1]) + 1)
        else:
            head, exponent = "1", exponent + 1
    head = head.ljust(digits, "0")
    if min(-(digits // 3), -5) < exponent < digits:
        if exponent < 0:
            text = "0." + "0" * (-exponent - 1) + head
        else:
            text = head[:exponent + 1] + "." + head[exponent + 1:]
        exponent = 0
    else:
        text = head[0] + "." + head[1:]
    text = text.rstrip("0")
    if text.endswith("."):
        text += "0"
    return f"{text}e{exponent:+d}" if exponent else text


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
    from .modular import DomainError, mordell, q0pow, qpow, sqrt_neg_itau

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
    """One checkpoint: main_term and ratio are Decimals, or None when no
    main term applies (even modulus)."""

    __slots__ = ()

    def as_dict(self, digits=DEFAULT_DPS):
        return {
            "n": self.n,
            "exact": str(self.exact),
            "main_term": _nstr(self.main_term, digits) if self.main_term is not None else None,
            "ratio": _nstr(self.ratio, digits) if self.ratio is not None else None,
        }


class AsymptoticReport:
    def __init__(self, residue, modulus):
        self.residue = residue
        self.modulus = modulus
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

    report = AsymptoticReport(residue=a, modulus=c)
    ctx = _context(dps)
    for n in checkpoints:
        exact = seq[n]
        if even:
            main, ratio = None, None
        else:
            main = main_term_v(n, dps) if c == 1 else main_term_v_mod(a, c, n, dps)
            ratio = ctx.divide(exact, main)
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
    from .modular import evaluate_V_bounded

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
