"""Main-term formulas and convergence reports.

One main term serves every report: main_term_v(n, dps) is
e^(pi sqrt n)/(16 n^(3/4)), and asym_report divides it by c for the
residue classes of an odd c.  Main terms are evaluated in the standard
library's decimal arithmetic, in a local context of max(dps, 30) +
GUARD_DIGITS significant digits, so every one of the dps printed digits is
correct; nstr prints them in mpmath.nstr's format.  Exact integers from
the expansion modules enter only the ratio, as one correctly rounded
division.  Each exact report is one function from a RankTable to its rows:
asym_report returns a list of ReportRow (at c = 1 from the table reduced
mod 1, the totals), logconcavity_scan one LogConcavityReport.  Each
report's command has its entry here (cmd_asym_report, cmd_equidistribution,
cmd_logconcavity_scan, cmd_lemma_ratios), which passes the report its
settings and holds the command's pass rule and default checkpoints; only
asym_report's dps has a default, DEFAULT_DPS.  No third-party
package is needed, and decimal is imported inside the functions that
evaluate a main term, so only asym-report loads it.  modular is
imported inside the lemma functions (every power of w there is
modular.qpow), so the exact reports (asym-report, equidistribution,
logconcavity-scan) never load it.
"""

import math
from collections import namedtuple
from functools import cache

from . import InputError

DEFAULT_DPS = 50

# digits carried beyond the requested precision, so that the last printed
# digit of a main term or ratio is not rounding noise
GUARD_DIGITS = 10


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

def main_term_v(n, dps):
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


def nstr(x, digits):
    """A Decimal x >= 0 to `digits` significant digits as mpmath.nstr
    prints it (None for None): rounded half up on the first dropped digit
    alone; fixed notation iff the leading digit's exponent is strictly
    between min(-(digits//3), -5) and digits; trailing zeros stripped but
    a ".0" kept.  mpmath reads its digits from a binary value truncated a few
    places past the cut, so where the dropped digits are 5 then four zeros
    it may round down where this rounds up."""
    from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_UP, Context

    if x is None:
        return None
    if not x:
        return "0.0"
    x = Context(prec=digits, rounding=ROUND_HALF_UP, Emax=MAX_EMAX, Emin=MIN_EMIN).plus(x)
    head = "".join(map(str, x.as_tuple().digits)).ljust(digits, "0")
    exponent = x.adjusted()
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

    With pref = w^(-1/2)/(1+w^(-1)) * q^(-7/8), where q^(-7/8) collects
    the exact nome powers of the dominant term (it tends to 1 on vertical
    rays but matters at finite t: without it the ratio tests lose
    monotonicity), the two shapes are

        (0,1/4):   pref * (sqrt2/4) h(2z;2tau) * q0^(z^2/2 - 1/16)
        (1/4,1/2): pref * 1/(2 sqrt(-i tau))   * q0^(-z^2/2 + z/2 - 1/8)

    with h the Mordell integral: the Appell/Mordell term, then the
    quotient-of-thetas term.  The right half folds onto them: V(w;q) =
    V(1/w;q) pairs z with 1 - z, so a z in (1/2,1) is taken at 1 - z,
    pref included (pref(1 - z) = -pref(z)).
    """
    from .modular import DomainError, mordell, q0pow, qpow, sqrt_neg_itau

    z = float(z)
    if not 0 < z < 1 or z in (0.25, 0.5, 0.75):
        raise DomainError(f"z={z} outside the four open intervals")
    if z > 0.5:
        z = 1 - z
    pref = qpow(z, -0.5) / (1 + 1 / qpow(z, 1)) * qpow(tau, -7.0 / 8.0)
    if z < 0.25:
        return (pref * math.sqrt(2) / 4 * mordell(2 * z, 2 * tau).value
                * q0pow(tau, z * z / 2 - 1.0 / 16.0))
    return pref / (2 * sqrt_neg_itau(tau)) * q0pow(tau, -z * z / 2 + z / 2 - 0.125)


# ---------------------------------------------------------------------------
# Exact reports: functions from the counts to rows
# ---------------------------------------------------------------------------

# One checkpoint of asym_report.  main_term and ratio are Decimals, or
# None for an even c > 1, where no main term applies;
# equidistribution_stat is None at c = 1.
ReportRow = namedtuple("ReportRow", "n exact main_term ratio equidistribution_stat")


def asym_report(a, c, checkpoints, table, dps=DEFAULT_DPS):
    """One ReportRow per checkpoint, in increasing n: the exact v(a,c;n),
    the main term e^(pi sqrt n)/(16 c n^(3/4)) for odd c, their ratio and,
    for c > 1, the equidistribution statistic.

    The counts are table.residue_sequence(a, c), from a RankTable covering
    max(checkpoints): the full table or one reduced mod a multiple of c
    (at c = 1, the totals)."""
    checkpoints = sorted(checkpoints)
    seq = table.residue_sequence(a, c)
    if checkpoints and not 0 <= checkpoints[0] <= checkpoints[-1] < len(seq):
        raise IndexError(f"checkpoints {checkpoints[0]}..{checkpoints[-1]} "
                         f"outside 0..{len(seq) - 1}")
    ctx = _context(dps)
    rows = []
    for n in checkpoints:
        if c % 2 == 0:
            main = ratio = None
        else:
            main = ctx.divide(main_term_v(n, dps), c)
            ratio = ctx.divide(seq[n], main)
        stat = None if c == 1 else equidistribution_stat(table, c, n)
        rows.append(ReportRow(n, seq[n], main, ratio, stat))
    return rows


def equidistribution_stat(table, c, n):
    """max_a |c * v(a,c;n) / v(n) - 1|, correctly rounded to a float.

    The difference c * v(a,c;n) - v(n) is taken in integers and divided
    once: in floats, c * v(a,c;n) / v(n) - 1 cancels to rounding noise
    (2.2e-16 or 0.0) once the statistic drops below ~1e-16, which it does
    by n = 600 at c = 3."""
    total = table.residue_class(0, 1, n)
    return max(abs(c * table.residue_class(a, c, n) - total) for a in range(c)) / total


# logconcavity_scan's report.  Per reading: the scanned n where it fails, the least N0 past which it
# holds for every scanned n, and whether it fails to the top of the range.
#   square: v(a,c;n)^2 <= v(a,c;n-1) v(a,c;n+1); failing to the end is a
#     finding, since the exact counts grow log-concavely;
#   double: v(a,c;2n) <= v(a,c;n-1) v(a,c;n+1), scanned where 2n is in range;
#   bound: v(a,c;n-1) v(a,c;n+1) < sqrt(n) pbar(n-1) pbar(n+1).
LogConcavityReport = namedtuple("LogConcavityReport", (
    "residue modulus n_max "
    "square_threshold square_violations square_fails_to_end "
    "double_threshold double_scan_max double_violations double_fails_to_end "
    "bound_threshold bound_violations bound_fails_to_end"))


def logconcavity_scan(a, c, n_max, table, overpartitions):
    """Scan both readings of the product inequality plus the overpartition
    upper bound; exact integer arithmetic throughout (the sqrt(n) factor is
    compared via squares)."""
    if n_max + 1 > table.max_n:
        raise IndexError(f"need table up to {n_max + 1}, have {table.max_n}")
    if len(overpartitions) < n_max + 2:
        raise IndexError("need overpartition counts up to n_max+1")
    seq = table.residue_sequence(a, c)
    double_scan_max = min(n_max, table.max_n // 2)
    square, double, bound = [], [], []
    for n in range(1, n_max + 1):
        prod = seq[n - 1] * seq[n + 1]
        if seq[n] ** 2 > prod:
            square.append(n)
        if n <= double_scan_max and seq[2 * n] > prod:
            double.append(n)
        pbar_prod = overpartitions[n - 1] * overpartitions[n + 1]
        if prod * prod >= n * pbar_prod * pbar_prod:
            bound.append(n)
    square_threshold = max(square, default=0)
    double_threshold = max(double, default=0)
    bound_threshold = max(bound, default=0)
    return LogConcavityReport(
        residue=a, modulus=c, n_max=n_max,
        square_threshold=square_threshold, square_violations=square,
        square_fails_to_end=square_threshold >= n_max,
        double_threshold=double_threshold, double_scan_max=double_scan_max,
        double_violations=double,
        double_fails_to_end=double_threshold >= double_scan_max,
        bound_threshold=bound_threshold, bound_violations=bound,
        bound_fails_to_end=bound_threshold >= n_max)


# ---------------------------------------------------------------------------
# Ratio tests against the interval main terms
# ---------------------------------------------------------------------------

# One row of lemma_ratio_report, in the columns lemma-ratios prints: the
# modulus c, the point z = j/c, the ray tau = i*t, the series value of
# V(e^(2*pi*i*z); e^(-2*pi*t)), the interval main term, the deviation
# |series_value / main_term - 1| and the series' truncation bound.
LemmaRatioRow = namedtuple("LemmaRatioRow", "c j t series_value main_term deviation "
                                            "series_tail_bound")


def lemma_ratio_report(moduli, t_values):
    """For every z=j/c, compare the series value V(e^(2*pi*i*z); e^(-2*pi*t))
    with the interval main term along the vertical ray tau = i*t.  The series
    is summed to convergence and its truncation bound kept in each row."""
    from .modular import evaluate_V_bounded, qpow

    rows = []
    for c in moduli:
        for j in range(1, c):
            z = j / c
            for t in sorted(t_values, reverse=True):
                val = evaluate_V_bounded(qpow(z, 1),
                                         math.exp(-2 * math.pi * t))
                main = lemma_main_term(z, 1j * t)
                rows.append(LemmaRatioRow(
                    c=c, j=j, t=t, series_value=val.value, main_term=main,
                    deviation=abs(val.value / main - 1.0),
                    series_tail_bound=val.truncation_bound))
    return rows


# ---------------------------------------------------------------------------
# The commands: each runs its report and applies its pass rule
# ---------------------------------------------------------------------------

# the default checkpoints: equidistribution's and asym-report's at a
# residue class, and asym-report's totals (--c 1)
RESIDUE_CHECKPOINTS = (150, 600)
TOTAL_CHECKPOINTS = (100, 400, 1600)


def _fmt(x):
    # str of a float or complex is its shortest round-trip repr
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    return str(x)


def _check_residue(config):
    if config.residue >= config.modulus:
        raise InputError(f"need a < c, got a={config.residue}, c={config.modulus}")


def cmd_asym_report(config):
    """The `asym-report` command: asym_report's rows, the main term and ratio to
    --precision digits; it checks nothing.  An even c needs --allow-even."""
    from . import genfunc

    _check_residue(config)
    if config.modulus % 2 == 0 and not config.allow_even:
        raise InputError(f"c={config.modulus} is even, so no main term applies; "
                         "pass --allow-even to tabulate the exact counts only")
    c = config.modulus
    checkpoints = config.checkpoints or (TOTAL_CHECKPOINTS if c == 1 else RESIDUE_CHECKPOINTS)
    # the table reduced mod c; at c = 1 its one column is the totals v(n)
    table = genfunc.expand_V_rank(max(checkpoints), c)
    rows = asym_report(config.residue, c, checkpoints, table, dps=config.precision)
    header = ReportRow._fields[:4 if c == 1 else 5]  # one class: no statistic
    digits = config.precision
    return [(r.n, r.exact, _fmt(nstr(r.main_term, digits)), _fmt(nstr(r.ratio, digits)),
             r.equidistribution_stat)[:len(header)] for r in rows], header, None


def cmd_equidistribution(config):
    """The `equidistribution` command: each modulus's statistic at each checkpoint; a
    modulus fails where it does not shrink from the least checkpoint to the largest."""
    from . import genfunc

    checkpoints = config.checkpoints or RESIDUE_CHECKPOINTS
    genfunc.check_budget(max(checkpoints), max(config.moduli))  # before any expansion
    rows, failures = [], []
    for c in config.moduli:
        table = genfunc.expand_V_rank(max(checkpoints), c)
        stats = [(n, equidistribution_stat(table, c, n)) for n in sorted(checkpoints)]
        rows += [(c, n, stat) for n, stat in stats]
        if stats[-1][1] >= stats[0][1]:
            failures.append({"c": c, "stats": dict(stats)})
    return rows, ("c", "n", "stat"), failures


def cmd_logconcavity_scan(config):
    """The `logconcavity-scan` command: logconcavity_scan's report as one row (the
    pass rule is in the comment below)."""
    from . import genfunc

    _check_residue(config)
    n_max = config.n_max
    table = genfunc.expand_V_rank(n_max + 1, config.modulus)
    pbar = genfunc.expand_overpartition(n_max + 1)
    r = logconcavity_scan(config.residue, config.modulus, n_max, table, pbar)
    row = {"residue": r.residue, "modulus": r.modulus, "n_max": r.n_max,
           "square_threshold": r.square_threshold,
           "square_violation_count": len(r.square_violations),
           "square_fails_to_end": r.square_fails_to_end,
           "double_threshold": r.double_threshold, "double_scan_max": r.double_scan_max,
           "double_violation_count": len(r.double_violations),
           "bound_threshold": r.bound_threshold,
           "bound_violation_count": len(r.bound_violations)}
    # The squared reading failing all the way to the top is an expected
    # finding (the counts grow log-concavely): it is reported in the
    # square_fails_to_end column, loudly, but does not fail the run.  The
    # doubled-argument reading and the overpartition bound are unambiguous
    # claims and must stabilise below the top of the range.
    failure = ({"reading": "doubled-argument", "threshold": r.double_threshold}
               if r.double_fails_to_end else
               {"reading": "overpartition-bound", "threshold": r.bound_threshold}
               if r.bound_fails_to_end else None)
    return [tuple(map(_fmt, row.values()))], tuple(row), failure


def cmd_lemma_ratios(config):
    """The `lemma-ratios` command: lemma_ratio_report's rows; a (c, j) fails where its
    deviation at the least t is not below its deviation at the largest."""
    rows = lemma_ratio_report(config.moduli, config.t_values)
    devs = {}  # (c, j) -> {t: deviation}, in the order of the rows
    for r in rows:
        devs.setdefault((r.c, r.j), {})[r.t] = r.deviation
    failures = [{"c": c, "j": j, "devs": d} for (c, j), d in devs.items()
                if not d[min(d)] < d[max(d)]]
    return rows, LemmaRatioRow._fields, failures
