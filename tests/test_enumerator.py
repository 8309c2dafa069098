from collections import Counter

import pytest

from oddbalanced import enumerator
from oddbalanced.enumerator import (
    OddBalancedSequence,
    count_rank_table,
    enumerate_sequences,
    rank_of,
)


def flattened(n):
    return sorted(s.flatten() for s in enumerate_sequences(n))


def test_smallest_sizes_exact():
    assert flattened(0) == [(2,)]
    assert flattened(1) == [(1, 2, 1), (4,)]
    # size 6: three rank-0, one rank -1, one rank +1
    seqs = enumerate_sequences(2)
    by_rank = Counter(s.rank for s in seqs)
    assert by_rank == {0: 3, -1: 1, 1: 1}
    assert sorted(s.flatten() for s in seqs) == [
        (1, 1, 2, 1, 1), (1, 4, 1), (2, 4), (4, 2), (6,)]


def test_size_12_contains_known_examples():
    flats = set(flattened(5))
    for known in [(1, 1, 2, 4, 2, 1, 1), (1, 3, 4, 3, 1), (12,), (1, 8, 2, 1)]:
        assert known in flats


def test_all_sequences_distinct_and_valid():
    for n in range(8):
        seqs = enumerate_sequences(n)
        flats = [s.flatten() for s in seqs]
        assert len(set(flats)) == len(flats)
        for s in seqs:
            assert s.size == 2 * n + 2
            assert s.is_unimodal_with_strict_evens()


def test_rank_examples():
    assert rank_of((1, 2, 1)) == 0
    assert rank_of((1, 8, 2, 1)) == 1
    assert rank_of((2, 4)) == -1
    seq = OddBalancedSequence(peak=8, left_evens=(), right_evens=(2,), side_odds=(1,))
    assert seq.rank == 1
    assert rank_of(seq.flatten()) == 1


def test_mirror_involution_negates_rank():
    for n in range(8):
        counts = Counter(s.rank for s in enumerate_sequences(n))
        for m, c in counts.items():
            assert counts[-m] == c


def test_adding_ones_injects_into_next_size():
    # appending an extra odd part 1 preserves validity and rank, size += 2
    for n in range(6):
        for s in enumerate_sequences(n):
            bigger = OddBalancedSequence(
                peak=s.peak,
                left_evens=s.left_evens,
                right_evens=s.right_evens,
                side_odds=tuple(sorted(s.side_odds + (1,), reverse=True)),
            )
            assert bigger.size == s.size + 2
            assert bigger.rank == s.rank
            assert bigger.is_unimodal_with_strict_evens()


def test_residue_counts_weakly_increase():
    table = count_rank_table(8)
    for c in (1, 2, 3, 4):
        for a in range(c):
            seq = [sum(cnt for (m, nn), cnt in table.counts.items()
                       if nn == n and m % c == a) for n in range(9)]
            assert all(x <= y for x, y in zip(seq, seq[1:]))


def test_count_rank_table_values():
    table = count_rank_table(2)
    assert table.counts[(0, 0)] == 1
    assert table.counts[(0, 1)] == 2
    assert table.counts[(-1, 2)] == 1
    assert table.counts[(0, 2)] == 3
    assert table.counts[(1, 2)] == 1
    assert table.total(2) == 5


INVALID = [
    dict(peak=3, left_evens=(), right_evens=(), side_odds=()),
    dict(peak=4, left_evens=(4,), right_evens=(), side_odds=()),
    dict(peak=4, left_evens=(), right_evens=(), side_odds=(5,)),
]


def test_invalid_sequences_rejected():
    valid = OddBalancedSequence(peak=4, left_evens=(), right_evens=(), side_odds=())
    for fields in INVALID:
        with pytest.raises(AssertionError):
            OddBalancedSequence(**fields)
        with pytest.raises(AssertionError):
            valid._replace(**fields)
    with pytest.raises(ValueError):
        enumerate_sequences(-1)


def clear_check_caches():
    for check in (enumerator._increasing_evens, enumerator._decreasing_evens,
                  enumerator._odds_below):
        check.cache_clear()


def test_cached_checks_reject_after_warm_up():
    enumerate_sequences(8)
    for fields in INVALID:
        with pytest.raises(AssertionError):
            OddBalancedSequence(**fields)
    # a decreasing left side and an increasing right side
    for fields in (dict(left_evens=(4, 2), right_evens=()),
                   dict(left_evens=(), right_evens=(2, 4)),
                   dict(left_evens=(2, 2), right_evens=()),
                   dict(left_evens=(), right_evens=(2, 2))):
        with pytest.raises(AssertionError):
            OddBalancedSequence(peak=6, side_odds=(), **fields)


@pytest.mark.parametrize("accepted_first", [True, False])
@pytest.mark.parametrize("component", [dict(left_evens=(2, 4)),
                                       dict(right_evens=(4, 2)),
                                       dict(side_odds=(5,))])
def test_cached_checks_depend_on_the_peak(component, accepted_first):
    # (component, peak) is the cache key: a part below peak 6 is not below
    # peak 4, whichever of the two is checked first
    fields = {"left_evens": (), "right_evens": (), "side_odds": (), **component}

    def accept():
        OddBalancedSequence(peak=6, **fields)

    def reject():
        with pytest.raises(AssertionError):
            OddBalancedSequence(peak=4, **fields)

    clear_check_caches()
    for check in ((accept, reject) if accepted_first else (reject, accept)):
        check()
