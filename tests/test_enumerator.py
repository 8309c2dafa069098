import gc
from collections import Counter

import pytest

from oddbalanced import enumerator
from oddbalanced.enumerator import (
    OddBalancedSequence,
    count_rank_table,
    enumerate_sequences,
)


def size(seq):
    """Sum of the parts of an OddBalancedSequence."""
    return (seq.peak + sum(seq.left_evens) + sum(seq.right_evens)
            + 2 * sum(seq.side_odds))


def flatten(seq):
    """An OddBalancedSequence as actually written: ascending left side,
    peak, descending right side."""
    left = tuple(sorted(seq.left_evens + seq.side_odds))
    right = tuple(sorted(seq.right_evens + seq.side_odds, reverse=True))
    return left + (seq.peak,) + right


def rank_of(seq):
    """Rank statistic: parts after the peak minus parts before it."""
    if isinstance(seq, OddBalancedSequence):
        return seq.rank
    # tuple form: the peak is the unique maximal element (even, strict
    # against its even neighbours)
    p = seq.index(max(seq))
    return (len(seq) - 1 - p) - p


def is_unimodal_with_strict_evens(seq):
    """Check the defining chain on a flattened sequence: weakly monotone
    to/from the peak, strict wherever two even parts (or an even part and
    the peak) are adjacent."""
    p = seq.index(max(seq))
    for i in range(len(seq) - 1):
        a, b = seq[i], seq[i + 1]
        if i < p:
            ok = a < b if (a % 2 == 0 and b % 2 == 0) else a <= b
        else:
            ok = a > b if (a % 2 == 0 and b % 2 == 0) else a >= b
        if not ok:
            return False
    return True


def flattened(n):
    return sorted(flatten(s) for s in enumerate_sequences(n))


def test_smallest_sizes_exact():
    assert flattened(0) == [(2,)]
    assert flattened(1) == [(1, 2, 1), (4,)]
    # size 6: three rank-0, one rank -1, one rank +1
    seqs = enumerate_sequences(2)
    by_rank = Counter(s.rank for s in seqs)
    assert by_rank == {0: 3, -1: 1, 1: 1}
    assert sorted(flatten(s) for s in seqs) == [
        (1, 1, 2, 1, 1), (1, 4, 1), (2, 4), (4, 2), (6,)]


def test_size_12_contains_known_examples():
    flats = set(flattened(5))
    for known in [(1, 1, 2, 4, 2, 1, 1), (1, 3, 4, 3, 1), (12,), (1, 8, 2, 1)]:
        assert known in flats


def test_all_sequences_distinct_and_valid():
    for n in range(8):
        seqs = enumerate_sequences(n)
        flats = [flatten(s) for s in seqs]
        assert len(set(flats)) == len(flats)
        for s in seqs:
            assert size(s) == 2 * n + 2
            assert is_unimodal_with_strict_evens(flatten(s))


def test_rank_examples():
    assert rank_of((1, 2, 1)) == 0
    assert rank_of((1, 8, 2, 1)) == 1
    assert rank_of((2, 4)) == -1
    seq = OddBalancedSequence(peak=8, left_evens=(), right_evens=(2,), side_odds=(1,))
    assert seq.rank == 1
    assert rank_of(flatten(seq)) == 1


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
            assert size(bigger) == size(s) + 2
            assert bigger.rank == s.rank
            assert is_unimodal_with_strict_evens(flatten(bigger))


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
    assert sum(cnt for (m, n), cnt in table.counts.items() if n == 2) == 5


INVALID = [
    dict(peak=3, left_evens=(), right_evens=(), side_odds=()),
    dict(peak=4, left_evens=(4,), right_evens=(), side_odds=()),
    dict(peak=4, left_evens=(), right_evens=(), side_odds=(5,)),
    dict(peak=4, left_evens=(), right_evens=(), side_odds=(1, 3)),
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


# enumerate_sequences and the JSON lines the enumerate command writes
# build sequences without the constructor, so both must make its checks
# themselves


def inject_even_part(monkeypatch):
    # an even part below the peak: only the parity check can see it
    odd_partitions = enumerator._odd_partitions

    def with_even_part(total, max_part):
        parts = odd_partitions(total, max_part)
        return parts + ((2,),) if total == 2 and max_part >= 2 else parts

    monkeypatch.setattr(enumerator, "_odd_partitions", with_even_part)


def inject_large_part(monkeypatch):
    # an odd part past the cap min(peak - 1, r) is at least the peak, so
    # only the bound by the peak can see it
    odd_partitions = enumerator._odd_partitions

    def with_large_part(total, max_part):
        parts = odd_partitions(total, max_part)
        return parts + ((total,),) if total % 2 and max_part < total else parts

    monkeypatch.setattr(enumerator, "_odd_partitions", with_large_part)


def test_enumeration_checks_its_components(monkeypatch):
    inject_even_part(monkeypatch)
    with pytest.raises(AssertionError):
        enumerate_sequences(4)


def test_json_lines_check_their_components(monkeypatch):
    inject_even_part(monkeypatch)
    with pytest.raises(AssertionError):
        enumerator.json_lines(4)


def test_enumeration_checks_the_peak_bound(monkeypatch):
    inject_large_part(monkeypatch)
    with pytest.raises(AssertionError):
        enumerate_sequences(4)


def test_json_lines_check_the_peak_bound(monkeypatch):
    inject_large_part(monkeypatch)
    with pytest.raises(AssertionError):
        enumerator.json_lines(4)


def test_json_lines_leave_no_garbage():
    # the side tables are freed by reference counting alone: a reference
    # cycle would keep them alive until the next collection
    gc.disable()
    try:
        gc.collect()
        enumerator.json_lines(12)
        assert gc.collect() == 0
    finally:
        gc.enable()


def clear_check_caches():
    for check in (enumerator._increasing_evens, enumerator._decreasing_evens,
                  enumerator._odd_parts):
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
    # the component alone is the cache key, so the bound by the peak must
    # be checked apart: a part below peak 6 is not below peak 4, whichever
    # of the two is checked first
    fields = {"left_evens": (), "right_evens": (), "side_odds": (), **component}

    def accept():
        OddBalancedSequence(peak=6, **fields)

    def reject():
        with pytest.raises(AssertionError):
            OddBalancedSequence(peak=4, **fields)

    clear_check_caches()
    for check in ((accept, reject) if accepted_first else (reject, accept)):
        check()
