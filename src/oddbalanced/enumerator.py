"""Brute-force generation of odd-balanced unimodal sequences.

A sequence of size 2n+2 has an even peak, distinct even parts strictly
below the peak on each side, and a multiset of odd parts (all below the
peak) repeated identically on both sides.  These are the exact objects
counted by the rank generating function, so the enumeration here serves as
the independent oracle for the series expansion.

One engine (_peak_groups) generates the sequences in groups that share
the peak and both sides' even parts.  enumerate_sequences flattens the
groups into records; json_lines writes the `enumerate` command's text
from the same groups, one join per group.

The number of sequences grows like e^(pi sqrt(n)) times a power of n;
n = 24 (size 50, 32 769 sequences) takes about 0.017 s in process as
records and 0.038 s as `enumerate`'s 2.29 MB of JSON lines.  A fresh
`enumerate --n 24` takes 0.06 s above a bare interpreter (0.045 s):
0.007 s to compile the package, the rest the work (medians of 31, pure
Python, 2 vCPU, Python 3.11).
"""

from collections import Counter, namedtuple
from functools import lru_cache
from itertools import chain
from operator import add
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
    (peak, lefts, rights, odds, groups): the left sides' even parts
    (increasing), the right sides' (decreasing, lefts reversed), odds[r]
    the odd multisets of one side with sum r (descending), and the
    (i, j, r) of every group, whose sequences are
    (peak, lefts[i], rights[j], o) for o in odds[r].  The groups come
    left side first, then right side, with the odd multiset innermost in
    its group: the order of enumerate_sequences."""
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
        # the two sides leave is even, twice the odd parts' sum r
        sums = [t for _, t in subsets]
        assert budget % 2 == 0 and all(t % 2 == 0 for t in sums)
        yield peak, lefts, rights, odds, [
            (i, j, (budget - lsum - rsum) // 2) for i, lsum in enumerate(sums)
            for j, rsum in enumerate(sums) if rsum <= budget - lsum]


def enumerate_sequences(n):
    """All odd-balanced unimodal sequences of size 2n+2, each exactly once."""
    make = tuple.__new__
    out = []
    for peak, lefts, rights, odds, groups in _peak_groups(n):
        out += [make(OddBalancedSequence, (peak, lefts[i], rights[j], o))
                for i, j, r in groups for o in odds[r]]
    return out


def _sides(cache, evens, odds, text, reverse):
    """Every side with these even parts, as text, by the sum r of its odd
    parts: entry r holds evens merged with each multiset of odds[r],
    sorted (descending if reverse), each part written as text[part].

    The entries are cached per evens and built for the first odds[r]
    asked for.  The peaks run from the top down, so that is the largest
    cap on the odd parts, and a smaller cap keeps a suffix of the
    multisets (they come largest part first): entry r ends with the
    len(odds[r]) sides asked for."""
    row = cache.setdefault(evens, [])
    row += [["".join([text[k] for k in sorted(evens + o, reverse=reverse)]) for o in parts]
            for parts in odds[len(row):]]
    return row


def json_lines(n):
    """The sequences of size 2n+2 as JSON lines, in the order of
    enumerate_sequences: one compact json.dumps of {"size", "sequence",
    "peak", "rank"} per sequence, "sequence" the parts as written.

    A line is a head, the ascending side, the peak, the descending side
    and a tail that holds the peak and the rank.  The sides are built
    once per even parts and odd multiset and shared by every peak (see
    _sides); per peak the ascending sides gain the peak, and each group's
    lines are one join of its sides, paired in order."""
    size = 2 * n + 2
    before = [str(k) + "," for k in range(size + 1)]
    after = ["," + str(k) for k in range(size + 1)]
    head = '{"size":%d,"sequence":[' % size
    ascending, descending = {}, {}
    texts = [head]
    for peak, lefts, rights, odds, groups in reversed(list(_peak_groups(n))):
        top = str(peak)
        budget = size - peak
        # this peak's sides by the position of the even parts and by r;
        # each list ends with "", so that a group's join ends with a tail
        asc = [[[s + top for s in side[-len(parts):]] + [""] for side, parts in zip(
            _sides(ascending, left, odds[:(budget - sum(left)) // 2 + 1], before, False),
            odds)] for left in lefts]
        desc = [[side[-len(parts):] + [""] for side, parts in zip(
            _sides(descending, right, odds[:(budget - sum(right)) // 2 + 1], after, True),
            odds)] for right in rights]
        sizes = [len(left) for left in lefts]
        tails = {rank: '],"peak":%d,"rank":%d}\n%s' % (peak, rank, head)
                 for rank in range(-max(sizes), max(sizes) + 1)}
        texts.append("".join([tails[sizes[j] - sizes[i]].join(map(add, asc[i][r], desc[j][r]))
                              for i, j, r in groups]))
    # the top peak's text comes last, and its last tail starts no line
    texts[1] = texts[1][:-len(head)]
    return "".join([texts[0], *reversed(texts[1:])])


def count_rank_table(n_max):
    """Exact v(m,n) for all n <= n_max via enumeration, as .counts[(m, n)]."""
    return SimpleNamespace(counts=Counter((seq.rank, n) for n in range(n_max + 1)
                                          for seq in enumerate_sequences(n)))
