"""Brute-force generation of odd-balanced unimodal sequences.

A sequence of size 2n+2 has an even peak, distinct even parts strictly
below the peak on each side, and a multiset of odd parts (all below the
peak) repeated identically on both sides.  These are the exact objects
counted by the rank generating function, so the enumeration here serves as
the independent oracle for the series expansion.

The number of sequences grows like e^(pi sqrt(n)) times a power of n;
n = 24 (size 50, 32 769 sequences) takes about 0.07 s in process, and
`enumerate --n 24`, with its JSON lines, about 0.36 s as a fresh process
(pure Python, 2 vCPU).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache


class OddBalancedSequence(namedtuple("OddBalancedSequence",
                                     "peak left_evens right_evens side_odds")):
    """peak; left_evens strictly increasing and right_evens strictly
    decreasing, each even and < peak; side_odds one side's odd multiset,
    sorted descending."""

    __slots__ = ()

    def __new__(cls, peak, left_evens, right_evens, side_odds):
        assert peak % 2 == 0 and peak >= 2
        assert _increasing_evens(left_evens, peak)
        assert _decreasing_evens(right_evens, peak)
        assert _odds_below(side_odds, peak)
        return super().__new__(cls, peak, left_evens, right_evens, side_odds)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, so it asserts the shape too
        return cls(*iterable)

    @property
    def size(self):
        return (self.peak + sum(self.left_evens) + sum(self.right_evens)
                + 2 * sum(self.side_odds))

    @property
    def rank(self):
        # odd parts appear on both sides, so only the even parts count
        return len(self.right_evens) - len(self.left_evens)

    def flatten(self):
        """The sequence as actually written: ascending left side, peak,
        descending right side."""
        left = tuple(sorted(self.left_evens + self.side_odds))
        right = tuple(sorted(self.right_evens + self.side_odds, reverse=True))
        return left + (self.peak,) + right

    def is_unimodal_with_strict_evens(self):
        """Check the defining chain on the flattened sequence: weakly
        monotone to/from the peak, strict wherever two even parts (or an
        even part and the peak) are adjacent."""
        seq = self.flatten()
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


# The component checks are pure functions of an immutable tuple and the
# peak, so each distinct (component, peak) pair is checked once per process.

@lru_cache(maxsize=None)
def _increasing_evens(parts, peak):
    return (all(e % 2 == 0 and 0 < e < peak for e in parts)
            and tuple(sorted(parts)) == parts and len(set(parts)) == len(parts))


@lru_cache(maxsize=None)
def _decreasing_evens(parts, peak):
    return _increasing_evens(parts[::-1], peak)


@lru_cache(maxsize=None)
def _odds_below(parts, peak):
    return all(o % 2 == 1 and 0 < o < peak for o in parts)


def rank_of(seq):
    """Rank statistic: parts after the peak minus parts before it."""
    if isinstance(seq, OddBalancedSequence):
        return seq.rank
    # tuple form: the peak is the unique maximal element (even, strict
    # against its even neighbours)
    p = seq.index(max(seq))
    return (len(seq) - 1 - p) - p


def _subsets_bounded(values, bound):
    """All subsets of values (distinct positive ints, ascending) with
    sum <= bound, as (ascending subset, sum) pairs."""
    out = [((), 0)]
    for v in values:
        out += [(s + (v,), t + v) for s, t in out if t + v <= bound]
    return out


@lru_cache(maxsize=None)
def _odd_partitions(total, max_part):
    """Partitions of total into odd parts <= max_part, parts descending."""
    if total == 0:
        return ((),)
    if max_part < 1:
        return ()
    if max_part % 2 == 0:
        max_part -= 1
    out = []
    p = min(max_part, total if total % 2 == 1 else total - 1)
    while p >= 1:
        for rest in _odd_partitions(total - p, p):
            out.append((p,) + rest)
        p -= 2
    return tuple(out)


def enumerate_sequences(n):
    """All odd-balanced unimodal sequences of size 2n+2, each exactly once."""
    if n < 0:
        raise ValueError("n must be >= 0")
    size = 2 * n + 2
    out = []
    for peak in range(2, size + 1, 2):
        budget = size - peak
        subsets = _subsets_bounded(range(2, peak, 2), budget)
        # the right side runs through the same subsets, descending; a
        # subset list for a smaller bound is this one filtered by sum, in
        # the same order
        descending = [(s[::-1], t) for s, t in subsets]
        for left, lsum in subsets:
            room = budget - lsum
            for right, rsum in descending:
                if rsum > room:
                    continue
                rem = room - rsum
                assert rem % 2 == 0
                for odds in _odd_partitions(rem // 2, peak - 1):
                    out.append(OddBalancedSequence(peak, left, right, odds))
    return out


class EnumeratedTable:
    """Exact v(m,n) counts gathered from enumeration."""

    def __init__(self, max_n):
        self.max_n = max_n
        self.counts = {}  # (m, n) -> count

    def v(self, m, n):
        return self.counts.get((m, n), 0)

    def total(self, n):
        return sum(c for (m, nn), c in self.counts.items() if nn == n)


def count_rank_table(n_max):
    """Exact v(m,n) for all n <= n_max via enumeration."""
    table = EnumeratedTable(max_n=n_max)
    for n in range(n_max + 1):
        for seq in enumerate_sequences(n):
            key = (seq.rank, n)
            table.counts[key] = table.counts.get(key, 0) + 1
    return table
