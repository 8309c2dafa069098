"""reference.json confirmed by routes other than the one that wrote it."""

from collections import Counter

import pytest

import checks
from oddbalanced import genfunc
from oddbalanced.enumerator import count_rank_table, enumerate_sequences

REF = checks.reference()


@pytest.fixture(scope="module")
def totals():
    return genfunc.expand_v_totals(3600)


def test_residue_classes_sum_to_scalar_totals(totals):
    for c, by_a in REF["residue"].items():
        for n in ("150", "600"):
            assert sum(by_a[a][n] for a in by_a) == totals[int(n)], (c, n)


def test_totals_match_scalar_expansion(totals):
    for n, value in REF["total"].items():
        assert value == totals[int(n)]


def test_residue_classes_are_symmetric():
    for c, by_a in REF["residue"].items():
        for a in by_a:
            assert by_a[a] == by_a[str(-int(a) % int(c))]


def test_rank_digests_match_the_enumerator():
    table = count_rank_table(12)
    for n in range(13):
        poly = {m: cnt for (m, nn), cnt in table.counts.items() if nn == n}
        assert checks.rank_digest(poly) == REF["rank_digest"][n], n


def test_enumerate_reference_matches_the_enumerator():
    n = REF["enumerate"]["n"]
    got = Counter(seq.rank for seq in enumerate_sequences(n))
    assert {str(m): cnt for m, cnt in got.items()} == REF["enumerate"]["by_rank"]


def _thresholds(seq, overpartitions, n_max):
    """The logconcavity scan written out again from its definitions."""
    square = [n for n in range(1, n_max + 1) if seq[n] ** 2 > seq[n - 1] * seq[n + 1]]
    top = min(n_max, (len(seq) - 1) // 2)
    double = [n for n in range(1, top + 1) if seq[2 * n] > seq[n - 1] * seq[n + 1]]
    bound = [n for n in range(1, n_max + 1)
             if (seq[n - 1] * seq[n + 1]) ** 2
             >= n * (overpartitions[n - 1] * overpartitions[n + 1]) ** 2]
    return {
        "square_threshold": max(square, default=0),
        "square_violation_count": len(square),
        "square_fails_to_end": max(square, default=0) >= n_max,
        "double_threshold": max(double, default=0),
        "double_scan_max": top,
        "double_violation_count": len(double),
        "bound_threshold": max(bound, default=0),
        "bound_violation_count": len(bound),
    }


def test_logconcavity_reference_matches_its_definition():
    table = genfunc.expand_V_rank(601)
    pbar = genfunc.expand_overpartition(601)
    for c, by_a in REF["logconcavity"].items():
        for a, want in by_a.items():
            seq = [sum(col[n] for m, col in table.columns.items() if m % int(c) == int(a))
                   for n in range(602)]
            assert _thresholds(seq, pbar, 600) == want, (c, a)
