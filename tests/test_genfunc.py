import cmath
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddbalanced import _kernels_py, cli, genfunc
from oddbalanced.enumerator import count_rank_table
from oddbalanced.genfunc import (
    RankTable,
    evaluate_V,
    evaluate_V_bounded,
    expand_overpartition,
    expand_partition,
    expand_V_rank,
    expand_v_totals,
    rank_support_bound,
)
from oddbalanced.modular import DomainError


def test_known_small_coefficients():
    table = expand_V_rank(2)
    assert table.rank_polynomial(0) == {0: 1}
    assert table.rank_polynomial(1) == {0: 2}
    assert table.rank_polynomial(2) == {-1: 1, 0: 3, 1: 1}
    assert table.totals() == [1, 2, 5]


def test_rank_symmetry(rank_table_60):
    for m, col in rank_table_60.columns.items():
        assert col == rank_table_60.columns[-m]


def test_rank_support(rank_table_60):
    assert rank_support_bound(60) == 10
    for n in range(20):
        for m in rank_table_60.columns:
            if abs(m) > n + 1 or abs(m) * (abs(m) + 1) // 2 > n:
                assert rank_table_60.v(m, n) == 0


def test_totals_consistency(rank_table_60):
    assert rank_table_60.totals() == expand_v_totals(60)


def test_matches_enumeration():
    table = expand_V_rank(8)
    enum = count_rank_table(8)
    for n in range(9):
        for m in range(-(n + 2), n + 3):
            assert table.v(m, n) == enum.v(m, n)


def test_residue_class_examples(rank_table_60):
    assert rank_table_60.residue_sequence(0, 1) == rank_table_60.totals()
    assert rank_table_60.residue_class(0, 3, 2) == 3
    assert rank_table_60.residue_class(1, 3, 2) == 1
    assert rank_table_60.residue_class(2, 3, 2) == 1  # m=-1 lands in class 2
    for n in (2, 10, 40):
        assert sum(rank_table_60.residue_class(a, 3, n) for a in range(3)) \
            == rank_table_60.total(n)
    assert expand_V_rank(2, 3).columns == {0: [1, 2, 3], 1: [0, 0, 1], 2: [0, 0, 1]}


def test_residue_monotonicity(rank_table_60):
    for c in range(1, 10):
        for a in range(c):
            seq = rank_table_60.residue_sequence(a, c)
            assert all(x <= y for x, y in zip(seq, seq[1:]))


@pytest.mark.parametrize("c", [1, 2, 3, 4, 5, 9])
def test_reduced_expansion_matches_enumerator(c):
    order = 10
    reduced = expand_V_rank(order, c)
    buckets = [[0] * (order + 1) for _ in range(c)]
    for (m, n), cnt in count_rank_table(order).counts.items():
        buckets[m % c][n] += cnt
    assert reduced.columns == dict(enumerate(buckets))


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
        == expand_V_rank(12).totals()


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
    assert reduced.totals() == expand_v_totals(order)
    for a in range(c):
        # w <-> 1/w symmetry: v(a,c;n) = v(-a mod c,c;n)
        assert reduced.columns[a] == reduced.columns[-a % c]


def test_bad_modulus_rejected():
    with pytest.raises(ValueError):
        expand_V_rank(4, 0)
    with pytest.raises(ValueError):
        expand_V_rank(4).residue_class(0, 0, 2)


def test_reduced_table_refuses_rank_queries_and_foreign_moduli():
    reduced = expand_V_rank(8, 6)
    full = expand_V_rank(8)
    for d in (1, 2, 3, 6):
        assert reduced.residue_sequence(1, d) == full.residue_sequence(1, d)
    assert reduced.totals() == full.totals()
    for query in (lambda: reduced.v(0, 2), lambda: reduced.rank_polynomial(2),
                  reduced.nonzero_items,
                  lambda: reduced.residue_class(0, 4, 2),
                  lambda: reduced.residue_sequence(0, 5)):
        with pytest.raises(ValueError):
            query()


@pytest.mark.parametrize("order,c", [(600, 1), (600, 3), (600, 5), (600, 7), (600, 9),
                                     (3600, 1)])
def test_identity_route_equals_recurrence(order, c):
    # the two exact routes share no code: the three-term identity as
    # q-series against the outer-sum recurrence
    assert genfunc._expand_identity(order, c) == genfunc._expand_mod(order, c)


@pytest.mark.parametrize("c", [1, 3])
def test_identity_route_low_orders(c):
    for order in range(6):
        assert genfunc._expand_identity(order, c) == genfunc._expand_mod(order, c)


@settings(max_examples=25, deadline=None)
@given(c=st.integers(0, 7).map(lambda i: 2 * i + 1), order=st.integers(0, 120))
def test_identity_route_property(c, order):
    assert genfunc._expand_identity(order, c) == genfunc._expand_mod(order, c)


def test_full_table_equals_recurrence():
    # the full table runs the identity at c = 2*mmax+1, where nothing wraps
    order = 150
    mmax = rank_support_bound(order)
    c = 2 * mmax + 1
    cols = genfunc._expand_mod(order, c)
    assert expand_V_rank(order).columns == {
        m: cols[m % c] for m in range(-mmax, mmax + 1) if any(cols[m % c])}


def test_identity_route_checks_its_exact_division(monkeypatch):
    # a wrong piece must raise, never be floored into plausible counts
    s_hat = genfunc._s_hat

    def perturbed(size, c, j):
        cols = s_hat(size, c, j)
        cols[0][5] += 1
        return cols

    monkeypatch.setattr(genfunc, "_s_hat", perturbed)
    for c in (1, 3):
        with pytest.raises(ArithmeticError):
            genfunc._expand_identity(20, c)


def test_r_cubed_by_the_triple_product():
    # R = sum (-1)^k q^(6k^2+10k+4) / sum (-1)^k q^(3k^2+5k+2); the identity
    # route uses R^3 = (q^4;q^4)^3 / (q^2;q^2)^3 instead
    size = 400
    ks = range(-20, 21)
    num = genfunc._sparse(((6 * k * k + 10 * k + 4, (-1) ** abs(k)) for k in ks), size)
    den = genfunc._sparse(((3 * k * k + 5 * k + 2, (-1) ** abs(k)) for k in ks), size)
    jac = {d: genfunc._sparse(((d * e, (-1) ** k * (2 * k + 1))
                               for k, e in genfunc._triangular(size)), size)
           for d in (2, 4)}
    r3 = [1] + [0] * (size - 1)
    for _ in range(3):
        r3 = genfunc._div_sparse(genfunc._mul_sparse(r3, num), den)
    unit = [1] + [0] * (size - 1)
    assert r3 == genfunc._div_sparse(genfunc._mul_sparse(unit, jac[4]), jac[2])


def test_sparse_division_needs_a_unit_constant_term():
    with pytest.raises(ValueError):
        genfunc._div_sparse([1, 0, 0], {2: [0], 1: [1]})


def test_range_checks_residue_class():
    table = expand_V_rank(20, 3)
    assert table.residue_class(0, 3, 20) == 3365
    for n in (-1, 21):
        with pytest.raises(IndexError):
            table.residue_class(0, 3, n)


def test_range_checks_total():
    for table in (expand_V_rank(20, 3), expand_V_rank(20)):
        assert table.total(20) == expand_v_totals(20)[20]
        for n in (-1, 21):
            with pytest.raises(IndexError):
                table.total(n)


def test_range_checks_residue_sequence_callers():
    from oddbalanced.asymptotics import asym_report
    table = expand_V_rank(20, 3)
    assert len(table.residue_sequence(0, 3)) == 21
    for checkpoints in ((-1, 10), (10, 21)):
        with pytest.raises(IndexError):
            asym_report(0, 3, checkpoints, table=table)
        with pytest.raises(IndexError):
            asym_report(0, 1, checkpoints, totals=expand_v_totals(20))


def _overpartitions_by_product(order):
    out = [0] * (order + 1)
    out[0] = 1
    for k in range(1, order + 1):
        _kernels_py.shifted_add_one(out, k)
        _kernels_py.geometric_add(out, k)
    return out


def _partitions_by_product(order):
    out = [0] * (order + 1)
    out[0] = 1
    for k in range(1, order + 1):
        _kernels_py.geometric_add(out, k)
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


@pytest.mark.parametrize("w", [cmath.exp(2j * math.pi * 0.3), 0.7 - 1.9j, -1.0],
                         ids=["unit-circle", "off-circle", "minus-one"])
def test_evaluator_matches_rank_table(rank_table_60, w):
    # second route to V(w;q): the exact counts v(m,n), n <= 60, summed at a
    # small q where the omitted q^61 tail is far below rounding
    q = 0.04 * cmath.exp(0.7j)
    direct = sum(cnt * w ** m * q ** n
                 for n in range(61)
                 for m, cnt in rank_table_60.rank_polynomial(n).items())
    got = evaluate_V_bounded(w, q)
    assert abs(got.value - direct) < 1e-14 * abs(direct)
    assert got.truncation_bound < 1e-17 * abs(direct)


def test_evaluator_term_cap_keeps_a_true_bound():
    w, q = 0.2 + 0.5j, 0.6 * cmath.exp(1j)
    full = evaluate_V_bounded(w, q)
    for cap in (0, 3, 10, 30):
        capped = evaluate_V_bounded(w, q, cap)
        assert abs(capped.value - full.value) <= capped.truncation_bound + 1e-14 * abs(full.value)
    assert evaluate_V(w, q, 30) == capped.value


@pytest.mark.parametrize("w,q", [(0, 0.5), (1.0, 1.0), (1.0, -1.2j), (1.0, complex("nan"))],
                         ids=["w-zero", "q-one", "q-outside", "q-nan"])
def test_evaluator_rejects_points_outside_the_domain(w, q):
    with pytest.raises(DomainError):
        evaluate_V_bounded(w, q)


def test_evaluator_stops_when_q_nears_one(monkeypatch):
    # on the real axis V overflows first; off it the sum would need ~10^7
    # terms, past the ceiling (lowered here to keep the test fast)
    with pytest.raises(DomainError, match="overflows"):
        evaluate_V_bounded(1.0, 1.0 - 1e-12)
    monkeypatch.setattr(genfunc, "V_MAX_TERMS", 1000)
    with pytest.raises(DomainError, match="more than 1000 terms"):
        evaluate_V_bounded(1.0, (1 - 1e-6) * 1j)
    assert evaluate_V_bounded(1.0, (1 - 1e-6) * 1j, 500).truncation_bound > 0


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
