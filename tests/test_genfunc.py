import json
import math
import random

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddbalanced import InputError, cli, genfunc
from oddbalanced.enumerator import count_rank_table
from oddbalanced.genfunc import (
    evaluate_V,
    expand_overpartition,
    expand_V_rank,
    expand_v_totals,
    rank_support_bound,
)

from conftest import expand_partition
from reference import expand_mod, full_recurrence_table


def test_known_small_coefficients():
    table = expand_V_rank(2)
    assert table.rank_polynomial(0) == {0: 1}
    assert table.rank_polynomial(1) == {0: 2}
    assert table.rank_polynomial(2) == {-1: 1, 0: 3, 1: 1}
    assert table.residue_sequence(0, 1) == [1, 2, 5]


def test_rank_support_bound_is_the_largest_admitted_rank():
    # the largest m with m(m+3)/2 <= N, walking m up with N
    m = 0
    for order in range(10 ** 5):
        while (m + 1) * (m + 4) // 2 <= order:
            m += 1
        assert rank_support_bound(order) == m, order
    for order in (10 ** 12, 10 ** 18):
        m = rank_support_bound(order)
        assert m * (m + 3) // 2 <= order < (m + 1) * (m + 4) // 2


def test_rank_symmetry(rank_table_60):
    for m, col in rank_table_60.columns.items():
        assert col == rank_table_60.columns[-m]


def test_rank_support(rank_table_60):
    assert rank_support_bound(60) == 9
    # the full table holds exactly the ranks -mmax..mmax: each occurs
    for order in (0, 1, 60, 600):
        mmax = rank_support_bound(order)
        assert sorted(expand_V_rank(order).columns) == list(range(-mmax, mmax + 1))
    for n in range(20):
        for m in rank_table_60.columns:
            if abs(m) > n + 1 or abs(m) * (abs(m) + 3) // 2 > n:
                assert rank_table_60.rank_polynomial(n).get(m, 0) == 0
    # the bound is attained: rank m first occurs at n = m(m+3)/2
    for m in range(rank_support_bound(60) + 1):
        assert rank_table_60.rank_polynomial(m * (m + 3) // 2).get(m, 0) == 1


def test_totals_consistency(rank_table_60):
    assert rank_table_60.residue_sequence(0, 1) == expand_v_totals(60)


def test_matches_enumeration():
    table = expand_V_rank(8)
    enum = count_rank_table(8)
    for n in range(9):
        for m in range(-(n + 2), n + 3):
            assert table.rank_polynomial(n).get(m, 0) == enum.counts.get((m, n), 0)


def test_enumerator_holds_the_generating_function_at_30():
    # the enumerator is the one route that checks the combinatorial
    # definition itself: its 697 181 sequences of n <= 30 give the full
    # rank table at every (m, n), and so every table reduced mod c
    order = 30
    counts = count_rank_table(order).counts
    assert sum(counts.values()) == 697_181
    table = expand_V_rank(order)
    assert {(m, n): cnt for n in range(order + 1)
            for m, cnt in table.rank_polynomial(n).items()} == counts
    for c in range(2, 8):
        buckets = [[0] * (order + 1) for _ in range(c)]
        for (m, n), cnt in counts.items():
            buckets[m % c][n] += cnt
        assert expand_V_rank(order, c).columns == dict(enumerate(buckets)), c


def test_residue_class_examples(rank_table_60):
    assert rank_table_60.residue_sequence(0, 1) == [
        sum(rank_table_60.rank_polynomial(n).values()) for n in range(61)]
    assert rank_table_60.residue_class(0, 3, 2) == 3
    assert rank_table_60.residue_class(1, 3, 2) == 1
    assert rank_table_60.residue_class(2, 3, 2) == 1  # m=-1 lands in class 2
    for n in (2, 10, 40):
        assert sum(rank_table_60.residue_class(a, 3, n) for a in range(3)) \
            == rank_table_60.residue_class(0, 1, n)
    assert expand_V_rank(2, 3).columns == {0: [1, 2, 3], 1: [0, 0, 1], 2: [0, 0, 1]}


def test_residue_monotonicity(rank_table_60):
    for c in range(1, 10):
        for a in range(c):
            seq = rank_table_60.residue_sequence(a, c)
            assert all(x <= y for x, y in zip(seq, seq[1:]))


# the program's engine and the tests' recurrence, as columns {a: counts};
# the engine's cases keep their plain ids
ROUTES = {"": lambda order, c: expand_V_rank(order, c).columns,
          "recurrence-": lambda order, c: dict(enumerate(expand_mod(order, c)))}


@pytest.mark.parametrize("route,c", [pytest.param(route, c, id=f"{name}{c}")
                                     for name, route in ROUTES.items()
                                     for c in (1, 2, 3, 4, 5, 9)])
def test_reduced_expansion_matches_enumerator(route, c):
    # each exact route is held to the brute-force counts, not only to the
    # other route
    order = 10
    buckets = [[0] * (order + 1) for _ in range(c)]
    for (m, n), cnt in count_rank_table(order).counts.items():
        buckets[m % c][n] += cnt
    assert route(order, c) == dict(enumerate(buckets))


@pytest.mark.parametrize("c", [1, 2, 3, 4, 5, 9])
def test_cyclotomic_twist_matches_table(c):
    # the twisted counts v(a,c;n) read off V mod w^c - 1 equal the full rank
    # table bucketed by m mod c
    order = 24
    reduced = expand_V_rank(order, c)
    table = expand_V_rank(order)
    for a in range(c):
        assert reduced.residue_sequence(a, c) == table.residue_sequence(a, c)


def test_root_expansion_is_substitution_hom():
    # w -> zeta^j on Z[w]/(w^c - 1) sends column a to class j*a mod c; the
    # reduced table must agree with substituting into every rank polynomial
    order = 20
    c = 5
    reduced = expand_V_rank(order, c)
    table = expand_V_rank(order)
    for j in (1, 2):
        for n in range(order + 1):
            expected = [0] * c
            for m, cnt in table.rank_polynomial(n).items():
                expected[(j * m) % c] += cnt
            got = [0] * c
            for a in range(c):
                got[(j * a) % c] += reduced.columns[a][n]
            assert got == expected


def test_root_expansion_c1_equals_totals():
    assert expand_V_rank(12, 1).columns[0] == expand_v_totals(12) \
        == expand_V_rank(12).residue_sequence(0, 1)


def test_root_expansion_known_value():
    # at the cube root of unity the q^2 coefficient collapses to 2:
    # classes (3, 1, 1) give 3 + zeta + zeta^2 = 2
    cols = expand_V_rank(4, 3).columns
    assert cols[1][2] == cols[2][2]
    assert cols[0][2] - cols[1][2] == 2


def test_root_expansion_trivial_root_consistency():
    # zeta_1 = 1 and the fifth root to the zeroth power describe the same
    # numbers: the mod-1 column is the sum of the mod-5 columns
    mod1 = expand_V_rank(10, 1).columns[0]
    mod5 = expand_V_rank(10, 5).columns
    assert mod1 == [sum(mod5[a][n] for a in range(5)) for n in range(11)]


@pytest.mark.parametrize("fixture,moduli", [("rank_table_60", range(1, 10)),
                                            ("rank_table_604", (3, 5, 7))])
def test_reduced_table_buckets_the_rank_table(request, fixture, moduli):
    table = request.getfixturevalue(fixture)
    for c in moduli:
        reduced = expand_V_rank(table.max_n, c)
        for a in range(c):
            assert reduced.columns[a] == table.residue_sequence(a, c)


# v(a,3;n) as computed by the separate Laurent-column expansion that preceded
# the reduced engine (also recorded in perfbench/reference.json)
PINNED_MOD_3 = {
    150: (26710495794354, 26710493508824, 26710493508824),
    600: (468314350712677827518026016744, 468314350712677743377298797916,
          468314350712677743377298797916),
}


def test_reduced_table_pinned_values():
    reduced = expand_V_rank(600, 3)
    for n, counts in PINNED_MOD_3.items():
        assert tuple(reduced.residue_class(a, 3, n) for a in range(3)) == counts


@settings(max_examples=25, deadline=None)
@given(c=st.integers(1, 12), order=st.integers(0, 80))
def test_residue_classes_sum_to_totals_and_mirror(c, order):
    reduced = expand_V_rank(order, c)
    assert reduced.residue_sequence(0, 1) == expand_v_totals(order)
    for a in range(c):
        # w <-> 1/w symmetry: v(a,c;n) = v(-a mod c,c;n)
        assert reduced.columns[a] == reduced.columns[-a % c]


@pytest.mark.parametrize("expand", [expand_V_rank, expand_overpartition])
def test_negative_order_rejected(expand):
    with pytest.raises(ValueError, match="^order must be >= 0$"):
        expand(-1)


def test_bad_modulus_rejected():
    with pytest.raises(ValueError):
        expand_V_rank(4, 0)
    with pytest.raises(ValueError):
        expand_V_rank(4).residue_class(0, 0, 2)


@pytest.mark.parametrize("order, modulus", [(60, None), (60, 3), (60, 7), (40, 12),
                                            (20, 1000)])
def test_class_views_equal_the_filter_over_every_column(order, modulus):
    # the views step through the residues from the first key; the filter
    # m % c == a % c reads every column
    table = expand_V_rank(order, modulus)
    moduli = range(1, 50) if modulus is None else [
        d for d in range(1, modulus + 1) if modulus % d == 0]
    for c in moduli:
        for a in (range(-c, 2 * c) if c < 50 else (0, 1, c // 2, c - 1, -1, c + 1)):
            seq = [sum(col[n] for m, col in table.columns.items() if m % c == a % c)
                   for n in range(order + 1)]
            assert table.residue_sequence(a, c) == seq, (a, c)
            assert [table.residue_class(a, c, n) for n in (0, order)] == [seq[0], seq[-1]]


def test_reduced_table_refuses_rank_queries_and_foreign_moduli():
    reduced = expand_V_rank(8, 6)
    full = expand_V_rank(8)
    for d in (1, 2, 3, 6):
        assert reduced.residue_sequence(1, d) == full.residue_sequence(1, d)
    assert reduced.residue_sequence(0, 1) == full.residue_sequence(0, 1)
    for query in (lambda: reduced.rank_polynomial(2),
                  reduced.nonzero_items,
                  lambda: reduced.residue_class(0, 4, 2),
                  lambda: reduced.residue_sequence(0, 5)):
        with pytest.raises(ValueError):
            query()


@pytest.mark.parametrize("order,c", [(600, 1), (600, 3), (600, 5), (600, 7), (600, 9),
                                     (600, 2), (600, 4), (400, 6), (600, 12), (3600, 1)])
def test_identity_route_equals_recurrence(order, c):
    # the two exact routes share no code: the partial theta identity
    # divided by phi(-q) against the outer-sum recurrence
    assert genfunc._expand_partial_theta(order, c) == expand_mod(order, c)


@pytest.mark.parametrize("c", [1, 2, 3, 4, 7])
def test_identity_route_low_orders(c):
    for order in range(6):
        assert genfunc._expand_partial_theta(order, c) == expand_mod(order, c)


@settings(max_examples=25, deadline=None)
@given(c=st.integers(1, 16), order=st.integers(0, 150))
def test_identity_route_property(c, order):
    assert genfunc._expand_partial_theta(order, c) == expand_mod(order, c)


def test_full_table_equals_recurrence():
    # the full table runs the identity at c = 2*mmax+1, where nothing wraps
    order = 150
    assert expand_V_rank(order).columns == full_recurrence_table(order)


def test_full_table_equals_recurrence_at_200():
    assert expand_V_rank(200).columns == full_recurrence_table(200)


def _outer_sum_on_the_circle(w_sum, q, eps):
    """V(w;q) for |w| = 1 and real 0 < q < 1, given w_sum = w + 1/w: the
    outer sum sum_n (-wq;q)_n (-q/w;q)_n q^n / (q;q^2)_{n+1} in mpmath.
    Each term is the last times q |1 + w q^(n+1)|^2 / (1 - q^(2n+3)), so
    all are positive and every later ratio is at most
    r = q (1 + q^(n+1))^2 / (1 - q^(2n+3)), which falls with n: once r < 1
    the tail is at most term r / (1 - r), and the sum stops when that is
    below eps of it."""
    term = total = 1 / (1 - q)
    qn, odd, n = q, q ** 3, 0  # q^(n+1) and q^(2n+3)
    while True:
        term *= (1 + qn * (w_sum + qn)) * q / (1 - odd)
        total += term
        qn, odd, n = qn * q, odd * q * q, n + 1
        if n % 64 == 0:
            r = q * (1 + qn) ** 2 / (1 - odd)
            if r < 1 and term * r / (1 - r) < eps * total:
                return total


def _count_tail(order, t):
    """A bound on sum_{n > order} v(a,c;n) e^(-2 pi t n), from
    v(a,c;n) <= v(n) <= (1 + 2 sqrt(n)/pi) e^(pi sqrt n): the log of the
    bound's terms falls by at least -g = 2 pi t - pi/(2 sqrt n) - 1/(2n)
    a step past n = order + 1, so the tail is at most its first term over
    1 - e^g."""
    n = order + 1
    g = 1 / (2 * n) + mp.pi / (2 * mp.sqrt(n)) - 2 * mp.pi * t
    assert g < 0
    return ((1 + 2 * mp.sqrt(n) / mp.pi) * mp.exp(mp.pi * mp.sqrt(n) - 2 * mp.pi * t * n)
            / (1 - mp.exp(g)))


@pytest.mark.parametrize("order, c, t", [
    (20_000, 1, 0.005), (20_000, 3, 0.005), (5000, 7, 0.01),
    pytest.param(100_000, 1, 0.002, marks=pytest.mark.slow)])
def test_classes_equal_the_outer_sum_at_a_point(order, c, t):
    # An independent route at orders the recurrence cannot reach: for
    # q = e^(-2 pi t) and zeta = e^(2 pi i/c), sum_n v(a,c;n) q^n equals
    # (1/c) sum_j zeta^(-aj) V(zeta^j;q), where each V(zeta^j;q) is real
    # and equals V(zeta^(c-j);q).  The count at n = order weighs about
    # e^(pi sqrt N - 2 pi t N) against the sum's e^(pi/(8t)); the digits
    # cover that with 10 to spare, so a count off by its own size at any
    # n <= order shows, and the table runs past order until the tail
    # beyond it is below the digits.  The row (10^5, 1, 0.002) needs 210
    # digits and about 8 s, so it runs in the slow tier only.
    digits = math.ceil((2 * math.pi * t * order + math.pi / (8 * t)
                        - math.pi * math.sqrt(order)) / math.log(10)) + 10
    with mp.workdps(digits + 10):
        q, eps = mp.exp(-2 * mp.pi * t), mp.mpf(10) ** -(digits + 5)
        V = [_outer_sum_on_the_circle(2 * mp.cospi(mp.mpf(2 * j) / c), q, eps)
             for j in range(c // 2 + 1)]
        V += V[1:(c + 1) // 2][::-1]
        # the classes -a and a are equal
        classes = [mp.fsum(mp.cospi(mp.mpf(2 * a * j) / c) * V[j] for j in range(c)) / c
                   for a in range(c // 2 + 1)]
        top = order
        while _count_tail(top, t) > eps * min(classes):
            top += 100
        table = expand_V_rank(top, c)
        # Horner's rule in fixed point: each step truncates by less than
        # one unit of 2^-bits, far below the digits compared
        bits = mp.mp.prec + 20
        q_fixed = int(mp.ldexp(q, bits))
        for a, want in enumerate(classes):
            total = 0
            for count in reversed(table.residue_sequence(a, c)):
                total = (total * q_fixed >> bits) + (count << bits)
            assert abs(mp.ldexp(total, -bits) / want - 1) < mp.mpf(10) ** -digits, a


def _factorizations(top):
    """For each n <= top, the prime powers (p, e) of 8n + 7, by a
    smallest-prime-factor sieve."""
    size = 8 * top + 8
    spf = list(range(size))
    for p in range(2, math.isqrt(size - 1) + 1):
        if spf[p] == p:
            for k in range(p * p, size, p):
                if spf[k] == k:
                    spf[k] = p
    out = []
    for n in range(top + 1):
        rest, powers = 8 * n + 7, []
        while rest > 1:
            p, e = spf[rest], 0
            while rest % p == 0:
                rest //= p
                e += 1
            powers.append((p, e))
        out.append(powers)
    return out


def test_totals_obey_the_congruences_at_the_inert_primes():
    # Write 8n+7 = p^e m with p not dividing m, and call p = +-3 (mod 8)
    # inert (it stays prime in Z[sqrt 2]).  v(n) = 0 (mod 4) when an inert p
    # divides 8n+7 to an odd power e with e = 3 (mod 4) or m a square mod p;
    # v(n) = 0 (mod 3) when 3 divides it to an odd power e >= 3 and
    # m = 1 (mod 3).  And v(n) is odd exactly when one prime divides 8n+7 to
    # an odd power, and that power is 1 (mod 4).  No rule shares code with
    # the packed division.
    top = 20_000
    totals = expand_V_rank(top, 1).residue_sequence(0, 1)
    by_four, by_three, odd = [], [], []
    for n, powers in enumerate(_factorizations(top)):
        odd_powers = [e for p, e in powers if e % 2]
        if len(odd_powers) == 1 and odd_powers[0] % 4 == 1:
            odd.append(n)
        for p, e in powers:
            m = (8 * n + 7) // p ** e
            if p % 8 in (3, 5) and e % 2 and (e % 4 == 3 or pow(m, (p - 1) // 2, p) == 1):
                by_four.append(n)
            if p == 3 and e % 2 and e >= 3 and m % 3 == 1:
                by_three.append(n)
    by_four = sorted(set(by_four))
    assert (len(by_four), len(by_three), len(odd)) == (7712, 277, 4971)
    assert [n for n in by_four if totals[n] % 4] == []
    assert [n for n in by_three if totals[n] % 3] == []
    assert [n for n, v in enumerate(totals) if v % 2] == odd


@pytest.mark.parametrize("modulus,top", [(None, 6373), (1, 151145), (3, 95191),
                                          (4, 72627), (5, 72627), (1000, 2308)])
def test_budget_admits_the_quoted_orders(modulus, top):
    # the largest orders the packed-size budget admits, as --help, the
    # README and the ceiling tests quote them; an order whose float root
    # would overflow is refused all the same
    genfunc.check_budget(top, modulus)
    for past in (top + 1, 10 ** 400):
        with pytest.raises(InputError, match="is not supported"):
            genfunc.check_budget(past, modulus)


@pytest.mark.parametrize("expand,top", [
    (genfunc.expand_V_rank, 6373),
    (lambda order: genfunc.expand_V_rank(order, 1000), 2308),
    (genfunc.expand_v_totals, 151145)])
def test_each_packed_expansion_refuses_past_its_budget(monkeypatch, expand, top):
    # the engine holds its own budget: one past the top is refused before
    # the packed division allocates, whoever the caller is
    def allocate(*args):
        raise AssertionError("allocated past the budget")

    monkeypatch.setattr(genfunc, "_expand_partial_theta", allocate)
    with pytest.raises(InputError, match=f"n = {top + 1}.* is not supported"):
        expand(top + 1)


def test_packed_width_bounds_every_count():
    # the packed division puts each class in a field of _field_bits(N)
    # bits on the strength of v(n) <= (1 + 2 sqrt(n)/pi) e^(pi sqrt(n)).
    # The totals are one field wide (c = 1), so they are read without the
    # width, and they agree with the recurrence to N = 3600 (above).
    from mpmath import iv

    iv.prec = 80
    totals = expand_v_totals(10_000)
    slack = []
    for n in range(1, len(totals)):
        root = iv.sqrt(n)
        bound = (1 + 2 * root / iv.pi) * iv.exp(iv.pi * root)
        # the interval's lower end, so the comparison is exact
        assert totals[n] <= bound.a, n
        slack.append(math.log2(float(bound.a)) - math.log2(totals[n]))
    assert totals[0] == 1  # the bound at n = 0
    assert 4 < min(slack) == slack[0] < 4.3
    assert 19.9 < slack[-1] < 20
    widest = 0
    for order, count in enumerate(totals):
        widest = max(widest, count.bit_length())
        assert genfunc._field_bits(order) > widest + 1, order
        assert genfunc._field_bits(order) % 8 == 0


@pytest.mark.parametrize("order, modulus", [(300, None), (600, 7), (3600, 1), (600, 4)])
def test_one_division_per_expansion(monkeypatch, order, modulus):
    # every class of one expansion is divided by phi(-q) in one pass, and
    # no other division (of the totals, say) sets the packing
    divide = genfunc._div_phi_minus_q
    calls = []

    def counted(x):
        calls.append(len(x))
        return divide(x)

    monkeypatch.setattr(genfunc, "_div_phi_minus_q", counted)
    expand_V_rank(order, modulus)
    assert calls == [order + 1]


def test_packed_division_rejects_a_negative_middle_class(monkeypatch):
    # 48 extra -1 terms at q^9 in both G_0 and G_1 change only class 1 mod
    # 7: kappa_0 = e_0 and kappa_1 = e_1 - e_0 on the classes 0..3, so the
    # numerator of class 1 drops by 48 q^9.  v(1,7;9) = 47, so class 1
    # turns negative at n = 9, where classes 2 and 3 are positive: the
    # packed quotients stay positive and only the borrow into class 2
    # shows it
    partial_theta = genfunc._partial_theta
    divide = genfunc._div_phi_minus_q
    quotients = []

    def perturbed(t, limit):
        plus, minus = partial_theta(t, limit)
        return plus, (minus + [9] * 48 if t < 2 else minus)

    def kept(x):
        quotients.extend(divide(x))
        return quotients[-len(x):]

    assert genfunc._expand_partial_theta(20, 7)[1][9] == 47
    assert min(col[9] for col in genfunc._expand_partial_theta(20, 7)[2:4]) > 0
    monkeypatch.setattr(genfunc, "_partial_theta", perturbed)
    monkeypatch.setattr(genfunc, "_div_phi_minus_q", kept)
    with pytest.raises(ArithmeticError):
        genfunc._expand_partial_theta(20, 7)
    # a guard on the sign alone would have let these through
    assert len(quotients) == 21 and min(quotients) >= 0


def _times_phi_minus_q(x):
    """x * phi(-q) = x * sum_j (-1)^j q^(j^2), truncated to len(x)."""
    out = list(x)
    j = 1
    while j * j < len(x):
        for k in range(j * j, len(x)):
            out[k] += 2 * (-1) ** j * x[k - j * j]
        j += 1
    return out


@pytest.mark.parametrize("seed", range(4))
def test_division_by_phi_minus_q_round_trips(seed):
    # signed entries of every size up to the packed width of an expansion
    rng = random.Random(seed)
    width = genfunc._field_bits(600) * 4
    # every size to 40 crosses each square boundary, where a reader is rebuilt
    for size in (*range(41), 50, 200):
        x = [rng.choice((-1, 1)) * rng.getrandbits(rng.randrange(1, width))
             for _ in range(size)]
        assert _times_phi_minus_q(genfunc._div_phi_minus_q(x)) == x


def test_partial_theta_numerators():
    # phi(-q) (V_m + V_{m+1}) = G_m = sum_{k>=0} (-1)^k q^(k^2 + 2k(m+1) + m(m+3)/2),
    # checked on the recurrence's table, so the identity itself is tested
    order = 300
    cols = full_recurrence_table(order)
    zero = [0] * (order + 1)
    for m in range(rank_support_bound(order) + 1):
        g = list(zero)
        k = 0
        while k * k + 2 * k * (m + 1) + m * (m + 3) // 2 <= order:
            g[k * k + 2 * k * (m + 1) + m * (m + 3) // 2] = (-1) ** k
            k += 1
        pair = [x + y for x, y in zip(cols.get(m, zero), cols.get(m + 1, zero))]
        assert _times_phi_minus_q(pair) == g, m


def test_totals_numerator_obeys_the_zero_rule():
    # h = [q^n] sum_t G_t, the numerator of v(n) over phi(-q): with
    # j = t+1+k its exponents are j^2 - t(t+1)/2 - 1, so 8n+7 = 8j^2 - (2t+1)^2
    # is, up to sign, a norm from Z[sqrt 2], where the primes = +-3 (mod 8)
    # are inert; so h(n) = 0 whenever 8n+7 has such a prime to an odd power
    top = 20_000
    h = [0] * (top + 1)
    t = 0
    while t * (t + 3) // 2 <= top:
        plus, minus = genfunc._partial_theta(t, top + 1)
        for e in plus:
            h[e] += 1
        for e in minus:
            h[e] -= 1
        t += 1
    # smallest-prime-factor sieve to 8*top + 7
    size = 8 * top + 8
    spf = list(range(size))
    for p in range(2, math.isqrt(size - 1) + 1):
        if spf[p] == p:
            for k in range(p * p, size, p):
                if spf[k] == k:
                    spf[k] = p

    def inert_to_odd_power(m):
        while m > 1:
            p, e = spf[m], 0
            while m % p == 0:
                m //= p
                e += 1
            if e % 2 and p % 8 in (3, 5):
                return True
        return False

    forced = [n for n in range(top + 1) if inert_to_odd_power(8 * n + 7)]
    assert len(forced) == 11_915
    assert [n for n in forced if h[n]] == []
    assert max(map(abs, h[:1201])) == 3
    assert max(map(abs, h)) == 6


def test_identity_route_rejects_a_negative_count(monkeypatch):
    # a wrong numerator must raise, never pass as counts
    partial_theta = genfunc._partial_theta

    def perturbed(t, limit):
        plus, minus = partial_theta(t, limit)
        return plus, (minus + [1] * 5 if t == 0 else minus)

    monkeypatch.setattr(genfunc, "_partial_theta", perturbed)
    for c in (1, 2, 3):
        with pytest.raises(ArithmeticError):
            genfunc._expand_partial_theta(20, c)


def test_range_checks_residue_class():
    table = expand_V_rank(20, 3)
    assert table.residue_class(0, 3, 20) == 3365
    for n in (-1, 21):
        with pytest.raises(IndexError):
            table.residue_class(0, 3, n)


def test_range_checks_total():
    for table in (expand_V_rank(20, 3), expand_V_rank(20)):
        assert table.residue_class(0, 1, 20) == expand_v_totals(20)[20]
        for n in (-1, 21):
            with pytest.raises(IndexError):
                table.residue_class(0, 1, n)


def test_range_checks_rank_polynomial():
    table = expand_V_rank(20)
    assert sum(table.rank_polynomial(20).values()) == expand_v_totals(20)[20]
    for n in (-1, 21):
        with pytest.raises(IndexError):
            table.rank_polynomial(n)


def test_range_checks_residue_sequence_callers():
    from oddbalanced.asymptotics import asym_report
    table = expand_V_rank(20, 3)
    assert len(table.residue_sequence(0, 3)) == 21
    for checkpoints in ((-1, 10), (10, 21)):
        with pytest.raises(IndexError):
            asym_report(0, 3, checkpoints, table=table)
        with pytest.raises(IndexError):
            asym_report(0, 1, checkpoints, table=expand_V_rank(20, 1))


def _overpartitions_by_product(order):
    """prod (1+q^k)/(1-q^k): times 1 + q^k from the top down, then
    divided by 1 - q^k from the bottom up."""
    out = [1] + [0] * order
    for k in range(1, order + 1):
        for i in range(order, k - 1, -1):
            out[i] += out[i - k]
        for i in range(k, order + 1):
            out[i] += out[i - k]
    return out


def _partitions_by_product(order):
    out = [1] + [0] * order
    for k in range(1, order + 1):
        for i in range(k, order + 1):
            out[i] += out[i - k]
    return out


def test_divisions_equal_the_product_forms():
    assert expand_overpartition(601) == _overpartitions_by_product(601)
    assert expand_partition(601) == _partitions_by_product(601)
    for order in range(4):
        assert expand_overpartition(order) == _overpartitions_by_product(order)
        assert expand_partition(order) == _partitions_by_product(order)


def _brute_overpartitions(n):
    """Partitions of n with the first occurrence of each part optionally
    overlined: sum over partitions of 2^(number of distinct parts)."""
    def partitions(total, max_part):
        if total == 0:
            yield ()
            return
        for p in range(min(total, max_part), 0, -1):
            for rest in partitions(total - p, p):
                yield (p,) + rest

    return sum(2 ** len(set(lam)) for lam in partitions(n, n)) if n else 1


def test_overpartition_counts():
    pbar = expand_overpartition(10)
    assert pbar[:4] == [1, 2, 4, 8]
    for n in range(9):
        assert pbar[n] == _brute_overpartitions(n)
    assert all(x <= y for x, y in zip(pbar, pbar[1:]))


def test_partition_counts():
    assert expand_partition(10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_evaluate_V_small_q():
    # V(1;q) = 1 + 2q + 5q^2 + 9q^3 + 16q^4 + ..., so the value at tiny q is
    # predictable to the next coefficient
    val = evaluate_V(1.0, 0.01, 16)
    expected = 1 + 2 * 0.01 + 5 * 1e-4 + 9 * 1e-6 + 16 * 1e-8
    assert abs(val - expected) < 5e-9


def test_csv_and_json_shapes(tmp_path):
    # tables are written by the CLI's one row writer
    csv_path, json_path = tmp_path / "t.csv", tmp_path / "t.json"
    assert cli.main(["expand", "--n-max", "4", "--output", str(csv_path)]) == 0
    assert cli.main(["expand", "--n-max", "4", "--format", "json",
                     "--output", str(json_path)]) == 0
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "n,m,count"
    assert "2,-1,1" in rows and "2,0,3" in rows
    payload = json.loads(json_path.read_text())
    assert max(int(entry["n"]) for entry in payload) == 4
    assert {"n": "0", "m": "0", "count": "1"} in payload
    assert len(payload) == len(rows) - 1
