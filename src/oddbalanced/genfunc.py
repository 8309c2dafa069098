"""Exact expansions of the rank generating function and its relatives.

The central object is V(w;q) = sum_{n>=0} (-wq;q)_n (-q/w;q)_n q^n / (q;q^2)_{n+1},
whose q^n coefficient is the Laurent polynomial sum_m v(m,n) w^m counting
odd-balanced unimodal sequences of size 2n+2 by rank m.  Every exact count
is read off V on c integer q-series columns with w reduced mod w^c - 1, so
that a factor of w is a cyclic shift of the columns.  The reduction picks
what is counted:

* c = 1 sets w = 1 and gives the totals v(n);
* c > 1 gives the residue-class counts v(a,c;n) directly, column a;
* c = 2*mmax+1 gives the full rank table, because rank m first occurs at
  q^{m(m+3)/2}, so no rank with |m| > mmax ~ sqrt(2N) appears and nothing
  wraps.

One route (_expand_partial_theta) computes the columns for every c, odd
and even.  It rests on the identity

    phi(-q) (1 + w^-1) V(w;q) = sum_{t>=0} (w^t + w^{-t-1}) G_t(q),
    G_t(q) = sum_{k>=0} (-1)^k q^{k^2 + 2k(t+1) + t(t+3)/2},

where phi(-q) = sum_{j in Z} (-1)^j q^{j^2} and 1/phi(-q) is the
overpartition generating function.  The right side is a Hecke-type double
sum (with j = t+1+k the exponent is j^2 - t(t+1)/2 - 1) whose
coefficients are all +-1.  Rank by rank it reads
phi(-q) (V_m + V_{m+1}) = G_m for m >= 0, so
phi(-q) V_m = sum_{t>=|m|} (-1)^{t-|m|} G_t.  At w = 1 every G_t counts
once: v(n) = sum_k h(k) pbar(n-k) with h = sum_t G_t, the paper's
overpartition relation as an exact convolution.  h is small but not
bounded by 3: max |h(n)| is 3 for n <= 1200 and 6 for n <= 2*10^4, and
h(n) = 0 whenever 8n+7 has a prime = +-3 (mod 8) to an odd power.  At
w = -1 it gives phi(-q) V(-1;q) = sum_t (-1)^t (2t+1) G_t.

The identity is verified, not proved: tests/test_genfunc.py holds it to
the outer-sum recurrence (O(c N^2), in tests/reference.py) for c <= 16 at
orders to 150 and for chosen c at 600 and 3600, and to the outer sum
taken at a point in mpmath for c = 1 and 3 at N = 2*10^4 and c = 7 at
N = 5000 (test_classes_equal_the_outer_sum_at_a_point).  Neither route
shares code with this module.  The cost is O(c N)
plus one division: the c//2 + 1 class numerators (class -a equals class
a) are packed into one integer per power of q and divided by phi(-q)
together, O(N^1.5) operations on integers of about c/2 times the width
of v(N).  The route raises ArithmeticError if a count comes out negative
or past the bound that sets the packing (see _expand_partial_theta).

The packed division sets the budget: expand_V_rank and expand_v_totals
call check_budget before they allocate, so no caller can pack more than
MAX_PACKED_BITS bits.  expand_overpartition packs nothing and is not
held to it; its one command caller expands the rank table to the same
order first.

Overpartitions are 1/phi(-q), one division by phi(-q), the module's
only divisor (_div_phi_minus_q).  This module is exact only: numeric
values of V come from modular.evaluate_V_bounded, the outer sum taken at
a point in O(terms) complex operations with a ratio tail bound;
evaluate_V here is a thin caller of it.  cmd_expand is the `expand`
command's entry, and checks nothing.
"""

from functools import reduce
from math import isqrt, log, log2, pi, sqrt
from operator import itemgetter, or_

from . import InputError


def rank_support_bound(order):
    """Largest m with m(m+3)/2 <= order; v(m,n)=0 for |m| above it when
    n <= order, because the smallest sequence of rank m (right evens
    2..2m, peak 2m+2) has n = m(m+3)/2.  Exact, since m(m+3)/2 <= N iff
    (2m+3)^2 <= 8N+9 iff 2m+3 <= isqrt(8N+9)."""
    return (isqrt(8 * order + 9) - 3) // 2


class RankTable:
    """Exact counts for n <= max_n, one integer column per rank m, or, when
    the ranks were reduced mod `modulus`, one column per residue class
    a = 0..modulus-1.  One view per question: rank_polynomial(n) for the
    ranks, residue_class(a, c, n) and residue_sequence(a, c) for the
    classes, whose c = 1 is the totals v(n).  A reduced table answers
    residue classes mod divisors of its modulus, and raises ValueError on
    anything else.  Immutable once built; safe to share."""

    def __init__(self, max_n, columns, modulus=None):
        self.max_n = max_n
        # m in -mmax..mmax (or a in 0..modulus-1, when reduced), in
        # ascending order -> list of counts indexed by n
        self.columns = columns
        self.modulus = modulus  # None for the full rank table

    def _require_ranks(self):
        if self.modulus is not None:
            raise ValueError(f"ranks were reduced mod {self.modulus}; "
                             "only residue classes are known")

    def _check_modulus(self, c):
        if c < 1:
            raise ValueError("modulus must be >= 1")
        if self.modulus is not None and self.modulus % c:
            raise ValueError(f"residues mod {c} are not known from a table "
                             f"reduced mod {self.modulus}")

    def _check_n(self, n):
        if not 0 <= n <= self.max_n:
            raise IndexError(f"n={n} outside 0..{self.max_n}")

    def _class_columns(self, a, c):
        """The columns of the ranks (or classes) congruent to a mod c, in
        steps of c from the first key (the keys are contiguous)."""
        self._check_modulus(c)
        lo = next(iter(self.columns))
        return [self.columns[m] for m in range(lo + (a - lo) % c, lo + len(self.columns), c)]

    def residue_class(self, a, c, n):
        """v(a,c;n): ranks congruent to a mod c."""
        cols = self._class_columns(a, c)
        self._check_n(n)
        return sum(col[n] for col in cols)

    def residue_sequence(self, a, c):
        out = [0] * (self.max_n + 1)
        for col in self._class_columns(a, c):
            for n, cnt in enumerate(col):
                out[n] += cnt
        return out

    def nonzero_items(self):
        """(n, m, count) triples with count > 0, sorted by n then m."""
        self._require_ranks()
        cols = sorted(self.columns.items())
        return ((n, m, col[n]) for n in range(self.max_n + 1)
                for m, col in cols if col[n])

    def rank_polynomial(self, n):
        """{m: v(m,n)} for one n, nonzero entries only."""
        self._require_ranks()
        self._check_n(n)
        return {m: col[n] for m, col in sorted(self.columns.items()) if col[n]}


# ---------------------------------------------------------------------------
# Expansions
# ---------------------------------------------------------------------------

def _reader(offsets):
    """The function y -> the items y[o] for o in offsets: one itemgetter,
    read at C level, once there are two offsets (an itemgetter of one
    index returns the bare item, and of none is an error)."""
    if len(offsets) > 1:
        return itemgetter(*offsets)
    return lambda y: [y[o] for o in offsets]


def _div_phi_minus_q(x):
    """The q-series x divided by phi(-q) = 1 + 2 sum_{j>=1} (-1)^j q^{j^2},
    truncated to len(x):

        y[k] = x[k] + 2 (sum_{j odd} y[k-j^2] - sum_{j even >= 2} y[k-j^2]).

    y grows by one term a step, so at step k it holds k terms and y[k-j^2]
    is y[-j^2]: the odd-j and the even-j terms are each read by one reader
    of those offsets, rebuilt only when a square enters (sqrt(N) times)."""
    y = []
    odd, even = [], []  # the offsets -j^2, j^2 <= k, by the parity of j
    read_odd = read_even = _reader(())
    j = 1
    for k, xk in enumerate(x):
        if k == j * j:
            if j & 1:
                odd.append(-k)
                read_odd = _reader(odd)
            else:
                even.append(-k)
                read_even = _reader(even)
            j += 1
        y.append(xk + 2 * (sum(read_odd(y)) - sum(read_even(y))))
    return y


def _partial_theta(t, limit):
    """G_t(q) = sum_{k>=0} (-1)^k q^{k^2 + 2k(t+1) + t(t+3)/2} below q^limit,
    as the exponents of its +1 terms and of its -1 terms."""
    plus, minus = [], []
    k, e = 0, t * (t + 3) // 2
    while e < limit:
        (minus if k & 1 else plus).append(e)
        e += 2 * k + 2 * t + 3
        k += 1
    return plus, minus


def _field_bits(order):
    """Bits per class in the packed division to q^order: the bit count of
    the bound (1 + 2 sqrt(N)/pi) e^(pi sqrt(N)) >= v(n) for n <= N (see
    _expand_partial_theta), plus 2, in whole bytes."""
    root = sqrt(order)
    bits = int(log2(1 + 2 * root / pi) + pi * root / log(2)) + 1
    return -(-(bits + 2) // 8) * 8


# The packed division holds (N+1)(c//2+1)B bits, B = _field_bits(N), and
# the numerators, the quotients and the columns read back each take about
# that much.  2^28 bits, 32 MiB a copy, admits the totals (c = 1) to
# N = 151145 and the full rank table to 6373; the README lists the other
# tops.
MAX_PACKED_BITS = 1 << 28


def check_budget(order, modulus=None):
    """Refuse, with an InputError, an expand_V_rank(order, modulus) that
    would pack more than MAX_PACKED_BITS bits into its division, before
    any of it is allocated.  A field is at least 8 bits, so an order past
    the budget is refused before _field_bits takes its float root."""
    c = modulus or 2 * rank_support_bound(order) + 1
    if not (order < MAX_PACKED_BITS
            and (order + 1) * (c // 2 + 1) * _field_bits(order) <= MAX_PACKED_BITS):
        at = f" at c = {modulus}" if modulus else ""
        raise InputError(f"n = {order}{at} is not supported: the exact expansion "
                         f"would pack more than 2^{MAX_PACKED_BITS.bit_length() - 1} bits")


def _expand_partial_theta(order, c):
    """Coefficients of V(w;q) for n <= order with w reduced mod w^c - 1:
    the numerator of each class, a sum of partial theta series G_t, divided
    by phi(-q).  Class a is the sum over t of kappa_{a,t} G_t with
    kappa_{a,t} = sum_{|m|<=t, m = a mod c} (-1)^(t-|m|), built as
    kappa_0 = e_0, kappa_t = -kappa_{t-1} + e_{t mod c} + e_{-t mod c};
    G_t starts at q^{t(t+3)/2}.  Class -a equals class a (w <-> 1/w), so
    the classes a = 0..c//2 serve every class.

    They are divided together: class a sits at bit B*a of one integer per
    power of q, and one division by phi(-q) divides every class, because
    the division is linear and each count fits its field.  B is the bit
    count of a bound on v(n) >= v(a,c;n), plus 2, in whole bytes:

        v(n) <= (1 + 2 sqrt(n)/pi) e^(pi sqrt(n)),

    which increases with n, so its value at n = order serves every n.
    Proof: each term of V(1;q) = sum_n (-q;q)_n^2 q^n / (q;q^2)_{n+1} is
    coefficientwise at most (-q;q)_oo^2 q^n / (q;q^2)_oo, and
    (-q;q)_oo = 1/(q;q^2)_oo, so V(1;q) <= F(q) = 1/((1-q) (q;q^2)_oo^3)
    coefficientwise.  F has nonnegative coefficients, so for s > 0,
    [q^n]F <= F(e^-s) e^(ns).  At q = e^-s,
    log 1/(q;q^2)_oo = sum_{m>=1} 1/(2m sinh(sm)) <= sum 1/(2 s m^2)
    = pi^2/(12 s), and 1/(1 - e^-s) <= (1+s)/s.  At s = pi/(2 sqrt(n))
    this gives v(n) <= (1 + 2 sqrt(n)/pi) e^(pi^2/(4s) + ns), and the
    exponent is pi sqrt(n).  (v(0) = 1 is the bound at n = 0.)  Against
    the exact v(n) for n <= 10^4 the bound is 4.2 to 20 bits loose.

    So every true count sits below bit B-2 of its field.  A negative
    class (of size below 2^(B-1)) borrows from the class above it and
    sets the top bit B*(a+1)-1 of its own field, and a negative top class
    makes the whole integer negative.  One AND of the OR of all quotients
    with a mask of the top bits and of every bit beyond the last field
    finds either, or a count past the bound, and raises ArithmeticError
    (a sign test alone would miss the borrow).  The fields are read back with a shift and a mask;
    with one field (c = 1) the quotients are the counts."""
    size = order + 1
    fields = c // 2 + 1
    width = _field_bits(order)
    num = [0] * size
    kappa = 0  # kappa_{a,t} of a = 0..c//2, packed like the counts
    t = 0
    while t * (t + 3) // 2 < size:
        kappa = -kappa
        for a in ((t % c, -t % c) if t else (0,)):
            if a < fields:
                kappa += 1 << (width * a)
        plus, minus = _partial_theta(t, size)
        for e in plus:
            num[e] += kappa
        for e in minus:
            num[e] -= kappa
        t += 1
    quot = _div_phi_minus_q(num)
    tops = sum(1 << (width * a - 1) for a in range(1, fields + 1))
    if reduce(or_, quot, 0) & (tops | -(1 << (width * fields))):
        raise ArithmeticError("a count of V came out negative or beyond its bound")
    if fields == 1:
        return [quot] * c
    mask = (1 << width) - 1
    cols = [[y >> shift & mask for y in quot] for shift in range(0, width * fields, width)]
    return [cols[min(a, c - a)] for a in range(c)]


def expand_V_rank(order, modulus=None):
    """Exact counts for n <= order: the full rank table of v(m,n), or with
    a modulus c the table of v(a,c;n) reduced mod c.  Every modulus, odd
    or even, and the full table run the partial theta route."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if modulus is not None and modulus < 1:
        raise ValueError("modulus must be >= 1")
    check_budget(order, modulus)
    if modulus is not None:
        return RankTable(max_n=order,
                         columns=dict(enumerate(_expand_partial_theta(order, modulus))),
                         modulus=modulus)
    # |m| never exceeds mmax, so with 2*mmax+1 columns nothing wraps and
    # column m mod c holds rank m exactly; every rank |m| <= mmax occurs,
    # first at n = |m|(|m|+3)/2 <= order, so no column is all zeros
    mmax = rank_support_bound(order)
    c = 2 * mmax + 1
    cols = _expand_partial_theta(order, c)
    return RankTable(max_n=order, columns={m: cols[m % c] for m in range(-mmax, mmax + 1)})


def expand_v_totals(order):
    """Exact v(n) = coefficient of q^n in V(1;q), for n <= order."""
    check_budget(order, 1)
    return _expand_partial_theta(order, 1)[0]


def evaluate_V(w, q, order=None):
    """V(w;q) at numeric arguments; order caps the number of terms.  The
    numeric evaluator lives in modular (evaluate_V_bounded), so that the
    numeric commands never load the exact engine."""
    from .modular import evaluate_V_bounded

    return evaluate_V_bounded(w, q, order).value


def expand_overpartition(order):
    """Overpartition counts: coefficients of prod (1+q^k)/(1-q^k) = 1/phi(-q),
    one division."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return _div_phi_minus_q([1] + [0] * order)


def cmd_expand(config):
    """The `expand` command: the rank table to --n-max as (n, m, count) rows;
    it checks nothing."""
    return expand_V_rank(config.n_max).nonzero_items(), ("n", "m", "count"), None
