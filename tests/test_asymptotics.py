import cmath
import math
import sys
from decimal import Context, Decimal
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oddbalanced import genfunc
from oddbalanced.asymptotics import (
    DEFAULT_DPS,
    GUARD_DIGITS,
    asym_report,
    equidistribution_stat,
    lemma_main_term,
    lemma_ratio_report,
    logconcavity_scan,
    main_term_v,
    nstr,
)
from oddbalanced.modular import DomainError, mordell, q0pow, qpow, sqrt_neg_itau
from exponents import (
    CRITICAL_EXPONENT,
    GAP_POLYNOMIALS,
    EvenModulusError,
    exponent_gap,
    interval_exponent,
)
from mpmath_references import hardy_ramanujan_p, overpartition_asym, tauberian_apply


def test_tauberian_prefactor_collapses_to_sixteenth():
    with mp.workdps(60):
        for n in (1, 10, 1000):
            via_tauberian = tauberian_apply(mp.sqrt(2) / 8, 0, mp.pi ** 2 / 4, n, dps=60)
            direct = mp.mpf(str(main_term_v(n, dps=60)))
            assert abs(via_tauberian / direct - 1) < mp.mpf(10) ** -40


def test_tauberian_direct_arithmetic():
    with mp.workdps(40):
        val = tauberian_apply(1, 0, mp.pi ** 2 / 4, 4, dps=40)
        expected = (mp.pi ** 2 / 4) ** mp.mpf("0.25") / (2 * mp.sqrt(mp.pi) * 4 ** mp.mpf("0.75")) \
            * mp.e ** (2 * mp.sqrt(mp.pi ** 2))
        assert abs(val / expected - 1) < mp.mpf(10) ** -35


def test_tauberian_monotone_in_n():
    vals = [tauberian_apply(0.5, 1.0, 2.0, n) for n in (5, 10, 20, 40)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_tauberian_validation():
    with pytest.raises(ValueError):
        tauberian_apply(1, 0, -1, 5)
    with pytest.raises(ValueError):
        tauberian_apply(1, 0, 1, 0)


def test_main_term_v_needs_n_at_least_1():
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        main_term_v(0, 50)


def _report_main_term(a, c, n, table):
    [row] = asym_report(a, c, (n,), table)
    return row.main_term


def test_main_term_v_mod(rank_table_60):
    # the residue-class main term of v(a,c;n) is main_term_v / c, the
    # quotient taken at the working precision, as main_term_v's is; the
    # same for every class, and main_term_v itself at c = 1
    reference = Context(prec=DEFAULT_DPS + GUARD_DIGITS).divide(
        main_term_v(50, DEFAULT_DPS), 3)
    assert abs(_report_main_term(0, 3, 50, rank_table_60) - reference) == 0
    assert (_report_main_term(1, 5, 50, rank_table_60)
            == _report_main_term(4, 5, 50, rank_table_60))
    assert _report_main_term(0, 1, 50, rank_table_60) == main_term_v(50, DEFAULT_DPS)


def test_main_term_v_mod_keeps_every_digit():
    # every digit of e^(pi sqrt 600) / (16 * 3 * 600^(3/4))
    # = 452276648384950938093786961120.78...
    with mp.workdps(60):
        got = mp.mpf(str(_report_main_term(0, 3, 600, genfunc.expand_V_rank(600, 3))))
        want = mp.e ** (mp.pi * mp.sqrt(600)) / (48 * mp.mpf(600) ** mp.mpf(0.75))
        assert abs(got / want - 1) < mp.mpf(10) ** -DEFAULT_DPS


def test_main_term_identities():
    with mp.workdps(50):
        for n in (1, 7, 100, 4096):
            lhs = mp.mpf(str(main_term_v(n, DEFAULT_DPS)))
            rhs = mp.mpf(n) ** mp.mpf("0.25") / 2 * overpartition_asym(n)
            assert abs(lhs / rhs - 1) < mp.mpf(10) ** -45
        # spot values of the other two main terms
        p_direct = mp.e ** (mp.pi * mp.sqrt(mp.mpf(200) / 3)) / (400 * mp.sqrt(3))
        assert abs(hardy_ramanujan_p(100) / p_direct - 1) < mp.mpf(10) ** -45
        pbar_direct = mp.e ** (10 * mp.pi) / 800
        assert abs(overpartition_asym(100) / pbar_direct - 1) < mp.mpf(10) ** -45


def test_interval_exponent_values():
    # z = 1/3 and 2/3 mirror each other: -1/18 + 1/6 - 1/8 = -1/72
    assert interval_exponent(Fraction(1, 3)) == Fraction(-1, 72)
    assert interval_exponent(Fraction(2, 3)) == Fraction(-1, 72)
    assert interval_exponent(Fraction(4, 5)) == Fraction(-17, 400)
    for z in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        with pytest.raises(DomainError):
            interval_exponent(z)


def test_exponent_gap_small_cases():
    # z = 1/3 and z = 2/3 both contribute -1/72 + 1/16 = 7/144
    assert interval_exponent(Fraction(1, 3)) - CRITICAL_EXPONENT == Fraction(7, 144)
    assert exponent_gap(3) == Fraction(7, 144)
    assert exponent_gap(5) > 0
    with pytest.raises(EvenModulusError):
        exponent_gap(4)


def test_exponent_gap_sweep():
    for c in range(3, 100, 2):
        assert exponent_gap(c) > 0


def test_gap_polynomials_stay_above_critical_value():
    # dense rational sweep of the polynomials over (0,1)
    for poly in GAP_POLYNOMIALS:
        span = poly.hi - poly.lo
        for i in range(1, 400):
            z = poly.lo + span * Fraction(i, 400)
            if z == poly.hi:
                continue
            assert poly(z) > CRITICAL_EXPONENT


@pytest.mark.parametrize("c, j", [(3, 1), (5, 2), (7, 2), (7, 3)])
def test_interval_exponents_predict_the_twist_growth(c, j):
    # The twist T(n) = sum_a cos(2 pi a j/c) v(a,c;n) is the q^n coefficient
    # of V(e^(2 pi i j/c); q).  On (1/4, 3/4) the main term's Bessel
    # transfer gives T(n) ~ C n^(-1/2) e^(4 pi sqrt(-E) sqrt n), with E the
    # interval exponent at j/c, so the least-squares slope of
    # log|T(n)| + log(n)/2 against sqrt n over n = 1500..3000 is
    # 4 pi sqrt(-E).  (Without the n^(1/2) the slopes read 0.02-0.03 lower.)
    # The counts are exact and the twist is formed at 400 digits: float
    # cosines would lose it to cancellation.
    table = genfunc.expand_V_rank(3000, c)
    classes = [table.residue_sequence(a, c) for a in range(c)]
    with mp.workdps(400):
        cosines = [mp.cos(2 * mp.pi * a * j / c) for a in range(c)]
        xs, ys = [], []
        for n in range(1500, 3001, 50):
            twist = mp.fsum(cos * col[n] for cos, col in zip(cosines, classes))
            xs.append(mp.sqrt(n))
            ys.append(mp.log(abs(twist)) + mp.log(n) / 2)
        mx, my = mp.fsum(xs) / len(xs), mp.fsum(ys) / len(ys)
        slope = (mp.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
                 / mp.fsum((x - mx) ** 2 for x in xs))
        exponent = interval_exponent(Fraction(j, c))
        assert exponent < 0
        predicted = 4 * mp.pi * mp.sqrt(-mp.mpf(exponent.numerator) / exponent.denominator)
        assert abs(slope - predicted) < 0.02, (float(slope), float(predicted))


def test_lemma_main_term_dispatch():
    tau = 0.05j
    vals = {z: lemma_main_term(z, tau) for z in (0.15, 0.35, 0.6, 0.85)}
    for v in vals.values():
        assert abs(v) > 0
    # outer intervals carry the Mordell factor; the q0 exponent at z=0.15 is
    # f(z) = z^2/2 - 1/16 < 0, so the value grows as t shrinks
    assert abs(lemma_main_term(0.15, 0.02j)) > abs(lemma_main_term(0.15, 0.05j))
    for z in (0.25, 0.5, 0.75, 0.0, 1.0):
        with pytest.raises(DomainError):
            lemma_main_term(z, tau)


def _right_half_main_term(z, tau):
    """The (1/2,3/4) and (3/4,1) shapes written out, not folded onto the
    left half: -pref over 2 sqrt(-i tau), and -pref times the Mordell term
    at 2 - 2z."""
    w = cmath.exp(2j * math.pi * z)
    pref = cmath.exp(-1j * math.pi * z) / (1 + 1 / w) * qpow(tau, -7.0 / 8.0)
    if z < 0.75:
        return -pref / (2 * sqrt_neg_itau(tau)) * q0pow(tau, -z * z / 2 + z / 2 - 0.125)
    return (-pref * math.sqrt(2) / 4 * mordell(2 - 2 * z, 2 * tau).value
            * q0pow(tau, z * z / 2 - z + 7.0 / 16.0))


def test_lemma_main_term_mirror_symmetry():
    # V(w;q) = V(1/w;q) forces main(z) = main(1-z)
    for z in (0.15, 0.3, 0.4, 0.6):
        tau = 0.04j
        a = lemma_main_term(z, tau)
        b = lemma_main_term(1 - z, tau)
        assert abs(a - b) < 1e-10 * abs(a)
    # the fold agrees with the right half's own closed forms
    for z in (0.6, 0.7, 0.8, 0.9):
        for t in (0.04, 0.01, 0.001):
            want = _right_half_main_term(z, 1j * t)
            assert abs(lemma_main_term(z, 1j * t) - want) < 1e-12 * abs(want), (z, t)


def test_lemma_ratio_quick():
    rows = lemma_ratio_report(moduli=(3,), t_values=(0.1, 0.05))
    assert all(r.series_tail_bound < 1e-17 * abs(r.series_value) for r in rows)
    for j in (1, 2):
        devs = {r.t: r.deviation for r in rows if r.j == j}
        assert devs[0.05] < devs[0.1]


def test_asym_report_c1():
    totals = genfunc.expand_v_totals(10)
    rows = asym_report(0, 1, (2, 10), genfunc.expand_V_rank(10, 1))
    assert rows[0].exact == 5
    assert rows[0].ratio is not None
    assert rows[1].exact == totals[10]
    assert [r.equidistribution_stat for r in rows] == [None, None]
    # the full table and one reduced mod 3 give the same one class mod 1
    assert asym_report(0, 1, (2, 10), table=genfunc.expand_V_rank(10)) == rows
    assert asym_report(0, 1, (2, 10), table=genfunc.expand_V_rank(10, 3)) == rows


@pytest.mark.parametrize("dps", [200, 1000])
def test_main_term_v_at_high_precision(dps):
    # e^x through k squarings of e^(x/2^k) still gives every working digit
    with mp.workdps(dps + 2 * GUARD_DIGITS):
        for n in (1, 600, 40000):
            want = mp.e ** (mp.pi * mp.sqrt(n)) / (16 * mp.mpf(n) ** mp.mpf(0.75))
            got = mp.mpf(str(main_term_v(n, dps)))
            assert abs(got / want - 1) < mp.mpf(10) ** -(dps + GUARD_DIGITS - 1), n


def _mp_nstr(x, digits):
    # the working digits cover both the mantissa and the printed digits: a
    # short mantissa at its own length would print binary noise
    with mp.workdps(max(len(x.as_tuple().digits), digits) + 10):
        return mp.nstr(mp.mpf(str(x)), digits)


@st.composite
def _decimals_and_digits(draw):
    # at least digits + 10 significant digits, the last one nonzero, so no
    # draw is an exact tie at the rounding position; runs of nines carry,
    # and the leading exponent spans both edges of fixed notation and far
    # beyond them
    digits = draw(st.integers(30, 120))
    alphabet = draw(st.sampled_from(["0123456789", "9", "09", "459"]))
    coefficient = (draw(st.sampled_from("123456789"))
                   + draw(st.text(alphabet, min_size=digits + 8, max_size=digits + 40))
                   + draw(st.sampled_from("123456789")))
    exponent = draw(st.integers(-(digits // 3) - 3, digits + 3) | st.integers(-400, 400))
    return Decimal(f"{coefficient[0]}.{coefficient[1:]}e{exponent}"), digits


@settings(max_examples=300, deadline=None)
@given(_decimals_and_digits())
def test_nstr_matches_mpmath(case):
    x, digits = case
    # mpmath takes its digits from the binary value truncated about four
    # places past the cut (2e-5 of the last printed unit at most), so it may
    # round down a 5 followed by four zeros there
    assume(not "".join(map(str, x.as_tuple().digits))[digits:].startswith("50000"))
    assert nstr(x, digits) == _mp_nstr(x, digits)


@pytest.mark.parametrize("text, digits, printed", [
    # the carry through a string of nines reaches the exponent
    ("9." + "9" * 35 + "6", 30, "10.0"),
    ("9." + "9" * 35 + "6e29", 30, "1.0e+30"),
    ("0.00" + "9" * 38 + "7", 30, "0.01"),
    # the leading digit's exponent at the edges of fixed notation
    ("1." + "2345678901" * 4 + "e29", 30, "123456789012345678901234567890.0"),
    ("1." + "2345678901" * 4 + "e30", 30, "1.2345678901234567890123456789e+30"),
    ("1." + "2345678901" * 4 + "e-9", 30, "0.0000000012345678901234567890123456789"),
    ("1." + "2345678901" * 4 + "e-10", 30, "1.2345678901234567890123456789e-10"),
    ("1.23456789012345678901234567e-4", 15, "0.000123456789012346"),
    ("1.23456789012345678901234567e-5", 15, "1.23456789012346e-5"),
    ("1.23456789012345678901234567e-5", 12, "1.23456789012e-5"),
    ("0", 30, "0.0"),
    # 9.99... rounds to 10.0, its leading exponent moving past each edge
    # of fixed notation (fixed iff -5 < exponent < digits)
    ("9.97e-6", 1, "1.0e-5"),
    ("9.97e-5", 1, "0.0001"),
    ("9.97e0", 1, "1.0e+1"),
    ("9.97e1", 1, "1.0e+2"),
    ("9.9997e-6", 3, "1.0e-5"),
    ("9.9997e-5", 3, "0.0001"),
    ("9.9997e2", 3, "1.0e+3"),
    ("9.9997e3", 3, "1.0e+4"),
    ("9.9999999999999997e-6", 15, "1.0e-5"),
    ("9.9999999999999997e-5", 15, "0.0001"),
    ("9.9999999999999997e14", 15, "1.0e+15"),
    ("9.9999999999999997e15", 15, "1.0e+16"),
    # exact ties that binary holds exactly, so mpmath sees them too
    ("9.5", 1, "1.0e+1"),
    ("999.5", 3, "1.0e+3"),
    ("999999999999999.5", 15, "1.0e+15"),
    ("9995e4", 3, "1.0e+8"),
    ("0.125", 2, "0.13"),
    ("0.0625", 2, "0.063"),
    # a mantissa shorter than the digits printed
    ("0.95", 15, "0.95"),
    ("1.1", 30, "1.1"),
])
def test_nstr_hand_cases(text, digits, printed):
    x = Decimal(text)
    assert nstr(x, digits) == printed == _mp_nstr(x, digits)


@pytest.mark.parametrize("digits", [1, 3, 15])
def test_nstr_carries_through_nines_at_every_place(digits):
    # the kept digits are ones up to place p and nines from it, so rounding
    # up carries into place p - 1 or, at p = 0, into the exponent.  An exact
    # tie (5000) rounds up, as the value just above it (5001) does: mpmath
    # reads a decimal tie through a binary value just below it
    for p in range(digits):
        head = "1" * p + "9" * (digits - p)
        for exponent in (-6, -5, 0, digits - 1, digits):
            def at(tail):
                return Decimal(f"{head}{tail}e{exponent - digits - len(tail) + 1}")

            for tail in ("6", "4999"):
                assert nstr(at(tail), digits) == _mp_nstr(at(tail), digits), at(tail)
            assert nstr(at("5000"), digits) == _mp_nstr(at("5001"), digits), at("5000")


def test_nstr_at_5000_digits():
    # nstr never converts the mantissa to an int, so it stays within
    # Python's 4300-digit int/str limit; mpmath's parser does not
    x = main_term_v(600, 5000)
    printed = nstr(x, 5000)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert printed == _mp_nstr(x, 5000)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("dps", [30, 50])
def test_asym_report_prints_only_correct_digits(dps):
    # every printed digit agrees with the same quantity at twice the precision
    checkpoints = [*range(1, 3600, 97), 3600]
    rows = asym_report(0, 1, checkpoints, genfunc.expand_V_rank(3600, 1), dps=dps)
    with mp.workdps(2 * dps):
        for row in rows:
            main = mp.e ** (mp.pi * mp.sqrt(row.n)) / (16 * mp.mpf(row.n) ** mp.mpf(0.75))
            assert nstr(row.main_term, dps) == mp.nstr(main, dps), row.n
            assert nstr(row.ratio, dps) == mp.nstr(row.exact / main, dps), row.n


def test_asym_report_residue_classes(rank_table_60):
    rows = asym_report(1, 3, (60, 30), table=rank_table_60)
    assert [r.n for r in rows] == [30, 60]
    assert rows[0].exact == rank_table_60.residue_class(1, 3, 30)
    stat = equidistribution_stat(rank_table_60, 3, 60)
    assert 0 <= stat < 1
    assert [r.equidistribution_stat for r in rows] == [
        equidistribution_stat(rank_table_60, 3, n) for n in (30, 60)]


@pytest.mark.parametrize("c", [3, 5, 7])
def test_equidistribution_stat_is_correctly_rounded(c):
    # from n = 600 on (c = 3) the statistic is below 1e-16, where the float
    # difference c * v(a,c;n) / v(n) - 1 would read 2.2e-16 or 0.0
    table = genfunc.expand_V_rank(1200, c)
    for n in (150, 600, 1200):
        total = sum(table.residue_class(a, c, n) for a in range(c))
        exact = float(max(abs(Fraction(c * table.residue_class(a, c, n), total) - 1)
                          for a in range(c)))
        assert exact > 0
        assert abs(equidistribution_stat(table, c, n) - exact) <= math.ulp(exact)


def test_equidistribution_stat_at_c_1000_is_its_fraction_definition():
    # the classes filtered from the full rank table by m % c, against the
    # table reduced mod 1000 that the statistic reads column by column
    c, order = 1000, 300
    full = genfunc.expand_V_rank(order)
    table = genfunc.expand_V_rank(order, c)
    for n in (1, 10, 150, 300):
        counts = [sum(col[n] for m, col in full.columns.items() if m % c == a)
                  for a in range(c)]
        exact = max(abs(Fraction(c * k, sum(counts)) - 1) for k in counts)
        assert equidistribution_stat(table, c, n) == float(exact)


def test_asym_report_even_modulus(rank_table_60):
    # no main term applies, so none is printed; the cli refuses an even c
    # unless --allow-even is given (test_cli)
    [row] = asym_report(0, 2, (30,), table=rank_table_60)
    assert row.main_term is None and row.ratio is None
    assert row.exact == rank_table_60.residue_class(0, 2, 30) > 0
    assert row.equidistribution_stat == equidistribution_stat(rank_table_60, 2, 30)
    assert nstr(row.main_term, DEFAULT_DPS) is None


def test_asym_report_checkpoint_bounds(rank_table_60):
    with pytest.raises(IndexError):
        asym_report(0, 3, (100,), table=rank_table_60)


def test_logconcavity_scan_refuses_short_inputs(rank_table_60):
    # the scan to n_max reads both sequences at n_max + 1: each input here
    # ends one entry short, at n_max
    with pytest.raises(IndexError, match="^need table up to 61, have 60$"):
        logconcavity_scan(0, 1, 60, rank_table_60, genfunc.expand_overpartition(61))
    with pytest.raises(IndexError, match="^need overpartition counts up to n_max\\+1$"):
        logconcavity_scan(0, 1, 59, rank_table_60, genfunc.expand_overpartition(59))


def test_logconcavity_scan_small(rank_table_60):
    pbar = genfunc.expand_overpartition(61)
    report = logconcavity_scan(0, 1, 59, rank_table_60, pbar)
    # the very first window: v(1)^2 = 4 <= v(0)v(2) = 5, but already at n=2
    # the counts turn log-concave (25 > 2*9) and stay that way
    assert 1 not in report.square_violations
    assert 2 in report.square_violations and 3 in report.square_violations
    assert report.square_fails_to_end
    # the doubled-argument reading holds from the start: v(2n) is tiny next
    # to v(n-1)v(n+1)
    assert report.double_scan_max == 30
    assert report.double_violations == []
    assert not report.double_fails_to_end
    # the overpartition bound fails only in the degenerate n=1 window
    assert report.bound_violations == [1]
    assert report.bound_threshold == 1
    assert not report.bound_fails_to_end
