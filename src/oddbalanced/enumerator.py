"""Brute-force generation of odd-balanced unimodal sequences.

A sequence of size 2n+2 has an even peak, distinct even parts strictly
below the peak on each side, and a multiset of odd parts (all below the
peak) repeated identically on both sides.  These are the exact objects
counted by the rank generating function, so the enumeration here serves as
the independent oracle for the series expansion.

One engine (_peak_groups) generates the sequences in groups that share
the peak and both sides' even parts; at each peak it pairs a left side
only with the right sides that fit in the room it leaves.
enumerate_sequences flattens the groups into records; json_lines writes
the `enumerate` command's text from the same groups, one join per peak.
Its sides come from two tables (ascending, descending) keyed by the even
parts, whose row r holds the side texts for the odd multisets of sum r
that some peak admits, largest part first.  Each row is built once, at
the cap of the largest peak that reads it, each text from a shorter one
(_side_rows), and a smaller peak reads the row's suffix.

The number of sequences grows like e^(pi sqrt(n)) times a power of n:
n = 24 (size 50) is 32 769 sequences, 2.29 MB of JSON lines.  Each
sequence costs one join of texts built before it, so the work grows
with the output's length; at such sizes a fresh `enumerate` spends more
on the interpreter's start-up and on compiling the package than on the
sequences.
"""

from bisect import bisect
from collections import Counter, namedtuple
from functools import lru_cache
from itertools import chain
from types import SimpleNamespace


class OddBalancedSequence(namedtuple("OddBalancedSequence",
                                     "peak left_evens right_evens side_odds")):
    """peak; left_evens strictly increasing and right_evens strictly
    decreasing, each even and < peak; side_odds one side's odd multiset,
    sorted descending."""

    __slots__ = ()

    def __new__(cls, peak, left_evens, right_evens, side_odds):
        assert peak % 2 == 0 and peak >= 2
        assert _increasing_evens(left_evens) and _decreasing_evens(right_evens)
        assert _odd_parts(side_odds)
        assert max(left_evens + right_evens + side_odds, default=0) < peak
        return super().__new__(cls, peak, left_evens, right_evens, side_odds)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, so it asserts the shape too
        return cls(*iterable)

    @property
    def rank(self):
        # odd parts appear on both sides, so only the even parts count
        return len(self.right_evens) - len(self.left_evens)


# The component checks leave out the peak, so each distinct component is
# checked once per process, whatever the peak: enumerate_sequences makes
# them for every component it uses, and the constructor finds them in the
# cache.  The bound by the peak is one max over the parts.

@lru_cache(maxsize=None)
def _increasing_evens(parts):
    return (all(e % 2 == 0 and e > 0 for e in parts)
            and tuple(sorted(parts)) == parts and len(set(parts)) == len(parts))


@lru_cache(maxsize=None)
def _decreasing_evens(parts):
    return _increasing_evens(parts[::-1])


@lru_cache(maxsize=None)
def _odd_parts(parts):
    return all(o % 2 == 1 and o > 0 for o in parts)


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


def _peak_groups(n):
    """The sequences of size 2n+2 peak by peak, in groups that share the
    peak and both sides' even parts.  For each peak, ascending, it yields
    (peak, lefts, rights, odds, fits): the left sides' even parts
    (increasing), the right sides' (decreasing, lefts reversed), odds[r]
    the odd multisets of one side with sum r (descending), and fits[i]
    the (j, r) of every group with left side i, whose sequences are
    (peak, lefts[i], rights[j], o) for o in odds[r].  fits[i] lists the
    rights whose even parts fit in the room that left i leaves, in the
    rights' order, and is one list shared by every left that leaves the
    same room.  The groups come left side first, then right side, with
    the odd multiset innermost in its group: the order of
    enumerate_sequences."""
    if n < 0:
        raise ValueError("n must be >= 0")
    size = 2 * n + 2
    for peak in range(2, size + 1, 2):
        budget = size - peak
        subsets = _subsets_bounded(range(2, peak, 2), budget)
        lefts = [s for s, _ in subsets]
        rights = [s[::-1] for s in lefts]
        # no part of an odd multiset exceeds its sum, so a cap of r gives
        # the same partitions as peak - 1 and one cached tuple for every
        # peak above r
        odds = [_odd_partitions(r, min(peak - 1, r)) for r in range(budget // 2 + 1)]
        # the constructor's checks, made once per component and, for the
        # bound by the peak, once per peak on the largest part, rather than
        # once per sequence, so that each sequence is built by
        # tuple.__new__, past the constructor
        assert peak % 2 == 0 and peak >= 2
        assert all(_increasing_evens(s) and _decreasing_evens(d) for s, d in zip(lefts, rights))
        assert all(_odd_parts(o) for parts in odds for o in parts)
        assert max(chain.from_iterable(chain(lefts, rights, *odds)), default=0) < peak
        # a subset list for a smaller bound is this one filtered by sum, in
        # the same order, so the right side runs through lefts too; what
        # the two sides leave is even, twice the odd parts' sum r, so the
        # room is counted in halves
        sums = [t for _, t in subsets]
        assert budget % 2 == 0 and all(t % 2 == 0 for t in sums)
        halves = [t // 2 for t in sums]
        fits = [[(j, room - half) for j, half in enumerate(halves) if half <= room]
                for room in range(budget // 2 + 1)]
        yield peak, lefts, rights, odds, [fits[budget // 2 - half] for half in halves]


def enumerate_sequences(n):
    """All odd-balanced unimodal sequences of size 2n+2, each exactly once."""
    make = tuple.__new__
    out = []
    for peak, lefts, rights, odds, fits in _peak_groups(n):
        out += [make(OddBalancedSequence, (peak, left, rights[j], o))
                for left, fit in zip(lefts, fits) for j, r in fit for o in odds[r]]
    return out


def _side_rows(ascending, descending, evens, size, before, after):
    """Enter every side with these even parts (increasing) in both tables,
    as text by the sum r of its odd parts: row r holds evens merged with
    each multiset of _odd_partitions(r, cap), in that order (largest part
    first), sorted ascending (each part written as before[part]) or
    descending (after[part]).  The cap is that of the largest peak that
    reads row r, the one with an empty other side, so a smaller peak
    reads a suffix of the row; the rows run to the largest r that the
    smallest peak above the evens reads.

    Each side is built from a smaller one: with p the largest odd part,
    the ascending side is the side of the evens below p and the rest of
    the multiset, then p, then the evens above p, and the descending side
    is its mirror image.  The evens below p are a prefix of evens, a side
    of the same peak or a smaller one, so its rows are in the tables
    already (or, for the whole of evens, are the rows below r)."""
    total = sum(evens)
    rows = (size - total - max(evens, default=0)) // 2
    above_asc = ["".join([before[e] for e in evens[k:]]) for k in range(len(evens) + 1)]
    above_desc = ["".join([after[e] for e in reversed(evens[k:])]) for k in range(len(evens) + 1)]
    asc = ascending[evens] = [[above_asc[0]]]
    desc = descending[evens] = [[above_desc[0]]]
    below_asc = [ascending[evens[:k]] for k in range(len(evens) + 1)]
    below_desc = [descending[evens[:k]] for k in range(len(evens) + 1)]
    for r in range(1, rows):
        cap = min(r, size - total - 2 * r - 1)
        asc_row, desc_row = [], []
        for p in range(cap - 1 + cap % 2, 0, -2):
            k = bisect(evens, p)
            count = -len(_odd_partitions(r - p, p))
            middle = before[p] + above_asc[k]
            asc_row += [side + middle for side in below_asc[k][r - p][count:]]
            middle = above_desc[k] + after[p]
            desc_row += [middle + side for side in below_desc[k][r - p][count:]]
        asc.append(asc_row)
        desc.append(desc_row)


def json_lines(n):
    """The sequences of size 2n+2 as JSON lines, in the order of
    enumerate_sequences: one compact json.dumps of {"size", "sequence",
    "peak", "rank"} per sequence, "sequence" the parts as written.

    A line is a head, the ascending side, the peak, the descending side
    and a tail that holds the peak and the rank.  Each side is built once,
    when its even parts first come up (see _side_rows), and read by every
    peak as the suffix of its row that the peak's odd multisets admit,
    after _peak_groups has checked them.  At a peak, the lefts of one sum
    leave one room and meet the same rights, so a room's descending sides
    are listed once, in the order of its lines; each left adds its
    ascending sides and the tails of its ranks.  A peak's text is one join
    of every line's four parts, with no string per line or group."""
    size = 2 * n + 2
    before = [str(k) + "," for k in range(size + 1)]
    after = ["," + str(k) for k in range(size + 1)]
    head = '{"size":%d,"sequence":[' % size
    ascending, descending = {}, {}
    texts = [head]
    for peak, lefts, rights, odds, fits in _peak_groups(n):
        for left in lefts:
            if left not in ascending:
                _side_rows(ascending, descending, left, size, before, after)
        # each row ends with the len(odds[r]) sides this peak admits
        counts = [-len(parts) for parts in odds]
        sizes = [len(left) for left in lefts]
        tails = [['],"peak":%d,"rank":%d}\n%s' % (peak, right - left, head)
                  for right in range(max(sizes) + 1)] for left in range(max(sizes) + 1)]
        # per room (the sum of the lefts that leave it): the descending
        # sides of its lines, their even parts' sizes, and each group's r
        rooms = {}
        asc_sides, desc_sides, line_tails = [], [], []
        for left, fit in zip(lefts, fits):
            total = sum(left)
            if total not in rooms:
                rooms[total] = (
                    [side for j, r in fit for side in descending[lefts[j]][r][counts[r]:]],
                    [sizes[j] for j, r in fit for _ in odds[r]],
                    [r for _, r in fit])
            desc, right_sizes, sums = rooms[total]
            rows = ascending[left]
            asc_sides += chain.from_iterable([rows[r][counts[r]:] for r in sums])
            desc_sides += desc
            line_tails += map(tails[len(left)].__getitem__, right_sizes)
        # a line's parts: its ascending side, the peak, its descending side
        # and its tail
        parts = [str(peak)] * (4 * len(asc_sides))
        parts[0::4] = asc_sides
        parts[2::4] = desc_sides
        parts[3::4] = line_tails
        texts.append("".join(parts))
    # the top peak's last tail starts no line
    texts[-1] = texts[-1][:-len(head)]
    return "".join(texts)


def count_rank_table(n_max):
    """Exact v(m,n) for all n <= n_max via enumeration, as .counts[(m, n)]."""
    return SimpleNamespace(counts=Counter((seq.rank, n) for n in range(n_max + 1)
                                          for seq in enumerate_sequences(n)))
