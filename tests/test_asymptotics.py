import math
from fractions import Fraction

import mpmath as mp
import pytest

from oddbalanced import genfunc
from oddbalanced.asymptotics import (
    GAP_POLYNOMIALS,
    GAP_POLYNOMIALS_MEASURED,
    CRITICAL_EXPONENT,
    EvenModulusError,
    asym_report,
    equidistribution_stat,
    exponent_gap,
    hardy_ramanujan_p,
    interval_exponent,
    lemma_main_term,
    lemma_ratio_report,
    logconcavity_scan,
    main_term_v,
    main_term_v_mod,
    overpartition_asym,
    tauberian_apply,
)
from oddbalanced.modular import DomainError


def test_tauberian_prefactor_collapses_to_sixteenth():
    with mp.workdps(60):
        for n in (1, 10, 1000):
            via_tauberian = tauberian_apply(mp.sqrt(2) / 8, 0, mp.pi ** 2 / 4, n, dps=60)
            direct = main_term_v(n, dps=60)
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


def test_main_term_v_mod():
    assert abs(main_term_v_mod(0, 3, 50) - main_term_v(50) / 3) == 0
    assert main_term_v_mod(1, 5, 50) == main_term_v_mod(4, 5, 50)
    with pytest.raises(EvenModulusError):
        main_term_v_mod(0, 2, 50)
    with pytest.raises(EvenModulusError):
        main_term_v_mod(0, 1, 50)
    with pytest.raises(ValueError):
        main_term_v_mod(7, 5, 50)


def test_main_term_identities():
    with mp.workdps(50):
        for n in (1, 7, 100, 4096):
            lhs = main_term_v(n)
            rhs = mp.mpf(n) ** mp.mpf("0.25") / 2 * overpartition_asym(n)
            assert abs(lhs / rhs - 1) < mp.mpf(10) ** -45
        # spot values of the other two main terms
        p_direct = mp.e ** (mp.pi * mp.sqrt(mp.mpf(200) / 3)) / (400 * mp.sqrt(3))
        assert abs(hardy_ramanujan_p(100) / p_direct - 1) < mp.mpf(10) ** -45
        pbar_direct = mp.e ** (10 * mp.pi) / 800
        assert abs(overpartition_asym(100) / pbar_direct - 1) < mp.mpf(10) ** -45


def test_interval_exponent_values():
    assert interval_exponent(Fraction(1, 3)) == Fraction(-1, 144)
    assert interval_exponent(Fraction(2, 3)) == Fraction(-1, 72)
    assert interval_exponent(Fraction(4, 5)) == Fraction(-17, 400)
    with pytest.raises(DomainError):
        interval_exponent(Fraction(1, 2))
    with pytest.raises(DomainError):
        interval_exponent(Fraction(1, 4), GAP_POLYNOMIALS_MEASURED)


def test_exponent_gap_small_cases():
    # z=1/3 contributes -1/144 + 1/16 = 1/18; z=2/3 the smaller 7/144
    assert interval_exponent(Fraction(1, 3)) - CRITICAL_EXPONENT == Fraction(1, 18)
    assert exponent_gap(3) == Fraction(7, 144)
    assert exponent_gap(5) > 0
    with pytest.raises(EvenModulusError):
        exponent_gap(4)


def test_exponent_gap_sweep():
    for c in range(3, 100, 2):
        assert exponent_gap(c) > 0
        assert exponent_gap(c, GAP_POLYNOMIALS_MEASURED) > 0


def test_gap_polynomials_stay_above_critical_value():
    # dense rational sweep of both polynomial families over (0,1)
    for polys in (GAP_POLYNOMIALS, GAP_POLYNOMIALS_MEASURED):
        for poly in polys:
            span = poly.hi - poly.lo
            for i in range(1, 400):
                z = poly.lo + span * Fraction(i, 400)
                if z == poly.hi:
                    continue
                assert poly(z) > CRITICAL_EXPONENT


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


def test_lemma_main_term_mirror_symmetry():
    # V(w;q) = V(1/w;q) forces main(z) = main(1-z)
    for z in (0.15, 0.3, 0.4, 0.6):
        tau = 0.04j
        a = lemma_main_term(z, tau)
        b = lemma_main_term(1 - z, tau)
        assert abs(a - b) < 1e-10 * abs(a)


def test_lemma_ratio_quick():
    rows = lemma_ratio_report(moduli=(3,), t_values=(0.1, 0.05))
    assert all(r.series_tail_bound < 1e-17 * abs(r.series_value) for r in rows)
    for j in (1, 2):
        devs = {r.t: r.deviation for r in rows if r.j == j}
        assert devs[0.05] < devs[0.1]


def test_asym_report_c1():
    totals = genfunc.expand_v_totals(10)
    report = asym_report(0, 1, (2, 10), totals=totals)
    assert report.rows[0].exact == 5
    assert report.rows[0].ratio is not None
    assert report.rows[1].exact == totals[10]
    assert not report.equidistribution


def test_asym_report_residue_classes(rank_table_60):
    report = asym_report(1, 3, (30, 60), table=rank_table_60)
    assert [r.n for r in report.rows] == [30, 60]
    assert report.rows[0].exact == rank_table_60.residue_class(1, 3, 30)
    assert len(report.equidistribution) == 2
    stat = equidistribution_stat(rank_table_60, 3, 60)
    assert 0 <= stat < 1
    assert report.equidistribution == [(n, equidistribution_stat(rank_table_60, 3, n))
                                       for n in (30, 60)]


@pytest.mark.parametrize("c", [3, 5, 7])
def test_equidistribution_stat_is_correctly_rounded(c):
    # from n = 600 on (c = 3) the statistic is below 1e-16, where the float
    # difference c * v(a,c;n) / v(n) - 1 would read 2.2e-16 or 0.0
    table = genfunc.expand_V_rank(1200, c)
    for n in (150, 600, 1200):
        total = table.total(n)
        exact = float(max(abs(Fraction(c * table.residue_class(a, c, n), total) - 1)
                          for a in range(c)))
        assert exact > 0
        assert abs(equidistribution_stat(table, c, n) - exact) <= math.ulp(exact)


def test_asym_report_even_modulus(rank_table_60):
    with pytest.raises(EvenModulusError):
        asym_report(0, 2, (30,), table=rank_table_60)
    report = asym_report(0, 2, (30,), table=rank_table_60, allow_even=True)
    assert report.rows[0].main_term is None
    assert report.rows[0].exact > 0


def test_asym_report_checkpoint_bounds(rank_table_60):
    with pytest.raises(IndexError):
        asym_report(0, 3, (100,), table=rank_table_60)


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
