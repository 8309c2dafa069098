"""Exact expansions of the rank generating function and its relatives.

The central object is V(w;q) = sum_{n>=0} (-wq;q)_n (-q/w;q)_n q^n / (q;q^2)_{n+1},
whose q^n coefficient is the Laurent polynomial sum_m v(m,n) w^m counting
odd-balanced unimodal sequences of size 2n+2 by rank m.  Every exact count
is read off V on c integer q-series columns with w reduced mod w^c - 1, so
that a factor of w is a cyclic shift of the columns.  The reduction picks
what is counted:

* c = 1 sets w = 1 and gives the totals v(n);
* c > 1 gives the residue-class counts v(a,c;n) directly, column a;
* c = 2*mmax+1 gives the full rank table, because a monomial w^m q^k only
  occurs for k >= m(m+1)/2, so no rank with |m| > mmax ~ sqrt(2N) appears
  and nothing wraps.

Two routes compute the columns, and each c has exactly one of them:

* odd c, which covers the totals, the residue classes of the paper and the
  full table, runs the identity route (_expand_identity): the three-term
  decomposition of (1 + w^-1) q V as an exact identity of q-series, built
  from sparse theta-type series by multiplications and divisions by
  sparse series with constant term +-1, O(c N^1.5).  It works in integers
  throughout, scaled by 16, and raises ArithmeticError unless the
  constant term vanishes and the final division by 16 is exact;
* even c, where 1 + w is a zero divisor and the identity cannot be
  divided out, runs the outer sum as a recurrence (_expand_mod),

      P_0 = 1/(1-q),   P_n = P_{n-1} * q * (1+w q^n)(1+w^-1 q^n) / (1-q^{2n+1}),

  one kernel pass per factor, O(c N^2).  The tests also use it as the
  independent second route for odd c.

Overpartitions and partitions are one sparse division each, by phi(-q) and
by the pentagonal series.  This module is exact only: numeric values of V
come from modular.evaluate_V_bounded, the outer sum taken at a point in
O(terms) complex operations with a ratio tail bound; evaluate_V here is a
thin caller of it.
"""

from __future__ import annotations

from itertools import accumulate
from math import isqrt

from . import kernels


def rank_support_bound(order):
    """Largest m with m(m+1)/2 <= order; v(m,n)=0 for |m| above it when
    n <= order."""
    m = (isqrt(8 * order + 1) - 1) // 2
    while m * (m + 1) // 2 > order:
        m -= 1
    return m


class RankTable:
    """Exact counts for n <= max_n, one integer column per rank m, or, when
    the ranks were reduced mod `modulus`, one column per residue class
    a = 0..modulus-1.  A reduced table answers totals and residue classes
    mod divisors of its modulus, and raises ValueError on anything else.
    Immutable once built; safe to share."""

    def __init__(self, max_n, columns, modulus=None):
        self.max_n = max_n
        self.columns = columns  # m (or a, when reduced) -> list of counts indexed by n
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

    def v(self, m, n):
        self._require_ranks()
        self._check_n(n)
        col = self.columns.get(m)
        return col[n] if col is not None else 0

    def total(self, n):
        """v(n) = sum over all ranks."""
        self._check_n(n)
        return sum(col[n] for col in self.columns.values())

    def totals(self):
        out = [0] * (self.max_n + 1)
        for col in self.columns.values():
            for n, c in enumerate(col):
                out[n] += c
        return out

    def residue_class(self, a, c, n):
        """v(a,c;n): ranks congruent to a mod c."""
        self._check_modulus(c)
        self._check_n(n)
        return sum(col[n] for m, col in self.columns.items() if m % c == a % c)

    def residue_sequence(self, a, c):
        self._check_modulus(c)
        out = [0] * (self.max_n + 1)
        for m, col in self.columns.items():
            if m % c == a % c:
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
        return {m: col[n] for m, col in sorted(self.columns.items()) if col[n]}


# ---------------------------------------------------------------------------
# Expansions
# ---------------------------------------------------------------------------

def _expand_mod(order, c):
    """Coefficients of V(w;q) for n <= order with w reduced mod w^c - 1:
    c integer columns, column i holding the q-series of the ranks
    congruent to i mod c.  Runs the outer-sum recurrence, O(c N^2).

    Multiplying by w moves column i to column i+1 mod c.  The table
    kernels shift between neighbouring columns, so the column that wraps
    round is handed to them as a saved copy placed beyond the far end.
    """
    prod = [[0] * (order + 1) for _ in range(c)]
    prod[0] = [1] * (order + 1)  # 1/(1-q)
    acc = [list(col) for col in prod]
    for n in range(1, order + 1):
        for col in prod:
            kernels.shift_up(col, 1, 0)
        kernels.table_mul_w([list(prod[-1])] + prod, n, n)
        kernels.table_mul_winv(prod + [list(prod[0])], n, n)
        kernels.table_geometric(prod, 2 * n + 1, n)
        kernels.table_acc(acc, prod, n)
    return acc


def _sign(k):
    """(-1)^k as an int, also for negative k."""
    return -1 if k & 1 else 1


def _sparse(pairs, limit):
    """The series sum s*q^e over the (e, s) pairs with e < limit, as
    {coefficient: sorted exponents}, so that a pass can sum all the terms
    that share a coefficient before multiplying by it."""
    merged = {}
    for e, s in pairs:
        if e < limit:
            merged[e] = merged.get(e, 0) + s
    out = {}
    for e in sorted(merged):
        if merged[e]:
            out.setdefault(merged[e], []).append(e)
    return out


def _mul_sparse(x, sparse):
    """The q-series x times a sparse series, truncated to len(x)."""
    size = len(x)
    y = [0] * size
    for s, exps in sparse.items():
        for e in exps:
            if e >= size:
                break
            if s == 1:
                y[e:] = [a + b for a, b in zip(y[e:], x)]
            elif s == -1:
                y[e:] = [a - b for a, b in zip(y[e:], x)]
            else:
                y[e:] = [a + s * b for a, b in zip(y[e:], x)]
    return y


def _div_sparse(x, sparse):
    """The q-series x divided by a sparse series whose constant term is
    +-1, truncated to len(x): y[k] = (x[k] - sum_{e>0} d_e y[k-e]) / d_0.
    Terms that share a coefficient are summed first; the rest go through
    one sum of products."""
    unit = None
    shared, single = {}, []
    for s, exps in sparse.items():
        if exps[0] == 0:
            unit, exps = s, exps[1:]
        if len(exps) > 1:
            shared[s] = exps
        elif exps:
            single.append((exps[0], s))
    if unit not in (1, -1):
        raise ValueError("the divisor's constant term must be 1 or -1")
    size = len(x)
    y = [0] * size
    # between consecutive exponents of the divisor the set of terms that
    # reach back inside the series is fixed
    exps = {e for group in shared.values() for e in group} | {e for e, _ in single}
    start = 0
    for stop in sorted({e for e in exps if e < size} | {size}):
        groups = [(s, [e for e in group if e <= start]) for s, group in shared.items()]
        groups = [(s, group) for s, group in groups if group]
        rest = [(e, s) for e, s in single if e <= start]
        for k in range(start, stop):
            acc = x[k]
            for s, group in groups:
                t = sum([y[k - e] for e in group])
                if s == 1:
                    acc -= t
                elif s == -1:
                    acc += t
                else:
                    acc -= s * t
            if rest:
                acc -= sum([s * y[k - e] for e, s in rest])
            y[k] = acc if unit == 1 else -acc
        start = stop
    return y


def _phi_minus_q(limit):
    """phi(-q) = sum_{j in Z} (-1)^j q^{j^2} below q^limit, sparse."""
    return _sparse([(0, 1)] + [(j * j, 2 * _sign(j)) for j in range(1, isqrt(limit) + 1)],
                   limit)


def _triangular(limit):
    """(k, k(k+1)/2) for k >= 0 while k(k+1)/2 < limit."""
    k = 0
    while k * (k + 1) // 2 < limit:
        yield k, k * (k + 1) // 2
        k += 1


def _mirrored(column, c, mirror):
    """[column(a) for a in range(c)] for a table whose column a equals
    column mirror - a (mod c): each pair is computed once and shared."""
    out = [None] * c
    for a in range(c):
        twin = out[(mirror - a) % c]
        out[a] = column(a) if twin is None else twin
    return out


def _iota(cols, j):
    """iota_j X = 2(1 + w^j)^-1 X = sum_{i<c} (-w^j)^i X mod w^c - 1 (c odd,
    gcd(j, c) = 1): column 0 by the alternating sum, every other column
    from (1 + w^j) Y = 2X along the cycle t -> t + j."""
    c = len(cols)
    first = [0] * len(cols[0])
    for i in range(c):
        src = cols[-j * i % c]
        first = [a - b if i & 1 else a + b for a, b in zip(first, src)]
    out = [None] * c
    out[0] = first
    t = 0
    for _ in range(c - 1):
        nxt = (t + j) % c
        out[nxt] = [2 * a - b for a, b in zip(cols[nxt], out[t])]
        t = nxt
    return out


def _s_hat(size, c, j):
    """2 S1(w^j; q^j) mod w^c - 1, with S1(w;q) = sum_{n in Z} q^{n(n+1)/2}/(1 + w q^n)
    expanded geometrically: the n = 0 term is iota_j, the others are
    2 sum_{n>=1, k>=0} (-1)^k q^{j(n(n+1)/2 + nk)} (w^{jk} + w^{-j(k+1)})."""
    cols = [[0] * size for _ in range(c)]
    for i in range(c):
        cols[j * i % c][0] += _sign(i)
    n = 1
    while j * n * (n + 1) // 2 < size:
        e, k = j * n * (n + 1) // 2, 0
        while e < size:
            s = 2 * _sign(k)
            cols[j * k % c][e] += s
            cols[-j * (k + 1) % c][e] += s
            e += j * n
            k += 1
        n += 1
    return cols


def _r3_ab_over_c_prime(ab, jac2, jac4):
    """R^3 A'B / C' mod w^c - 1 from the table A'B, with R^3 = jac4/jac2.

    C' = sum_{k>=0} (-1)^k q^{2k(k+1)} u_k with u_k = w^{-4k}(1 + w^4 + ... + w^{8k})
    is the one divisor that mixes columns.  In the order p -> column 4p mod
    c, u_k is the window p in [-k, k]: (2k+1)//c full cycles, which add
    (2k+1)//c times the column sum, and a remainder of (2k+1) % c
    consecutive positions, a difference of two prefix sums.  At w = 1,
    C'(1) = (q^4;q^4)^3 = jac4 cancels the numerator of R^3, so the column
    sum is A'B(1)/jac2, one scalar division, and for c = 1 it is the
    answer.
    """
    c, size = len(ab), len(ab[0])
    total = _div_sparse([sum(col) for col in zip(*ab)], jac2)
    if c == 1:
        return [total]
    x = _mirrored(lambda a: _div_sparse(_mul_sparse(ab[a], jac4), jac2), c, -4)
    terms = [(2 * k * (k + 1), _sign(k), 2 * k + 1) for k in range(1, size)
             if 2 * k * (k + 1) < size]
    full = _mul_sparse(total, _sparse(((e, s * (width // c)) for e, s, width in terms), size))
    windows = [(e, s, width % c, (k - width % c + 1) % c)
               for k, (e, s, width) in enumerate(terms, 1) if width % c]
    perm = [4 * p % c for p in range(c)]
    out = [[0] * size for _ in range(c)]
    prefix = []  # per n: prefix sums of the row, in p order, over three cycles
    for n in range(size):
        row = [x[t][n] - full[n] for t in perm]
        for e, s, r, start in windows:
            if e > n:
                break
            pre = prefix[n - e]
            if s == 1:
                row = [v - hi + lo for v, hi, lo in zip(row, pre[start + r:], pre[start:])]
            else:
                row = [v + hi - lo for v, hi, lo in zip(row, pre[start + r:], pre[start:])]
        prefix.append(list(accumulate(row * 3, initial=0)))
        for t, v in zip(perm, row):
            out[t][n] = v
    return out


def _expand_identity(order, c):
    """Coefficients of V(w;q) for n <= order with w reduced mod w^c - 1, c
    odd, from the three-term decomposition read as an exact identity of
    q-series, O(c N^1.5):

        8(1+w^-1) q V = -2 S1^/Delta + 2w Delta~ S2^/(phi(-q) Delta(q^2))
                        + 2w^3 iota_1 iota_2 R^3 A' B / C'
        16 V          = iota_{c-1} (the above) / q

    with iota_j = 2(1 + w^j)^-1, S1^ = 2 S1(w;q), S2^ = 2 S1(w^2;q^2) and

        Delta(q) = sum_{k>=0} q^{k(k+1)/2},   phi(-q) = sum_{j in Z} (-1)^j q^{j^2},
        Delta~   = sum_{k in Z} w^k q^{k(k+1)/2},
        A'       = sum_{k>=0} (-1)^k q^{k(k+1)/2} w^-k (1 + w + ... + w^2k),
        B        = sum_{k in Z} (-1)^k w^2k q^{(k+1)^2},
        C'       = sum_{k>=0} (-1)^k q^{2k(k+1)} w^-4k (1 + w^4 + ... + w^8k),
        R        = sum_k (-1)^k q^{6k^2+10k+4} / sum_k (-1)^k q^{3k^2+5k+2}.

    By the triple product both sums in R are -(q^4;q^4) and -(q^2;q^2), so
    R^3 = (q^4;q^4)^3/(q^2;q^2)^3, two sparse series by Jacobi's
    (q;q)^3 = sum_{k>=0} (-1)^k (2k+1) q^{k(k+1)/2}.  Every step multiplies
    or divides by a sparse series; only C' mixes the columns, and a power
    of w is a cyclic shift.  Columns are integers throughout, and the last
    step divides by 16, which must be exact.
    """
    if c % 2 == 0:
        raise ValueError(f"the identity needs an odd modulus, got c={c}")
    size = order + 2  # (1 + w^-1) q V through q^(order+1)
    tri = list(_triangular(size))
    psi = _sparse(((e, 1) for _, e in tri), size)
    psi2 = _sparse(((2 * e, 1) for _, e in tri), size)
    phi = _phi_minus_q(size)
    jac2 = _sparse(((2 * e, _sign(k) * (2 * k + 1)) for k, e in tri), size)
    jac4 = _sparse(((4 * e, _sign(k) * (2 * k + 1)) for k, e in tri), size)

    s1 = _s_hat(size, c, 1)
    t1 = _mirrored(lambda a: _div_sparse(s1[a], psi), c, -1)

    # w Delta~ = sum_{k>=0} (w^{k+1} + w^-k) q^{k(k+1)/2}, one sparse series per shift
    shifts = {}
    for k, e in tri:
        for j in (k + 1, -k):
            shifts.setdefault(j % c, []).append((e, 1))
    shifts = {j: _sparse(pairs, size) for j, pairs in shifts.items()}
    s2 = _s_hat(size, c, 2)

    def mid(a):
        acc = [0] * size
        for j, sparse in shifts.items():
            kernels.acc_add(acc, _mul_sparse(s2[(a - j) % c], sparse))
        return _div_sparse(_div_sparse(acc, phi), psi2)

    t_mid = _mirrored(mid, c, -1)

    # A' B: a sparse product, laid out as a table
    ab = [[0] * size for _ in range(c)]
    r = isqrt(size - 1)  # B has the terms with |k+1| <= r
    b_terms = [((k + 1) ** 2, 2 * k % c, _sign(k)) for k in range(-r - 1, r)]
    for k, e in tri:
        u = [0] * c
        for i in range(-k, k + 1):
            u[i % c] += _sign(k)
        for eb, jb, sb in b_terms:
            if e + eb < size:
                for i, v in enumerate(u):
                    if v:
                        ab[(i + jb) % c][e + eb] += sb * v
    t2 = _iota(_iota(_r3_ab_over_c_prime(ab, jac2, jac4), 1), 2)

    rhs = [[2 * (xm - x1 + x2) for x1, xm, x2 in zip(t1[a], t_mid[a], t2[(a - 3) % c])]
           for a in range(c)]
    if any(col[0] for col in rhs):
        raise ArithmeticError("the identity's right side has a nonzero constant term")
    v16 = _iota([col[1:] for col in rhs], c - 1)
    if any(v & 15 for col in v16 for v in col):
        raise ArithmeticError("a coefficient of 16 V is not divisible by 16")
    return [[v >> 4 for v in col] for col in v16]


def expand_V_rank(order, modulus=None):
    """Exact counts for n <= order: the full rank table of v(m,n), or with
    a modulus c the table of v(a,c;n) reduced mod c.  An odd modulus, and
    the full table, run the identity route; an even modulus runs the
    outer-sum recurrence."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if modulus is not None:
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        expand = _expand_identity if modulus % 2 else _expand_mod
        return RankTable(max_n=order, columns=dict(enumerate(expand(order, modulus))),
                         modulus=modulus)
    # |m| never exceeds mmax, so with 2*mmax+1 columns nothing wraps and
    # column m mod c holds rank m exactly
    mmax = rank_support_bound(order)
    c = 2 * mmax + 1
    cols = _expand_identity(order, c)
    return RankTable(max_n=order, columns={
        m: cols[m % c] for m in range(-mmax, mmax + 1) if any(cols[m % c])})


def expand_v_totals(order):
    """Exact v(n) = coefficient of q^n in V(1;q), for n <= order."""
    return _expand_identity(order, 1)[0]


def evaluate_V(w, q, order=None):
    """V(w;q) at numeric arguments; order caps the number of terms.  The
    numeric evaluator lives in modular (evaluate_V_bounded), so that the
    numeric commands never load the exact engine."""
    from .modular import evaluate_V_bounded

    return evaluate_V_bounded(w, q, order).value


def expand_overpartition(order):
    """Overpartition counts: coefficients of prod (1+q^k)/(1-q^k) = 1/phi(-q),
    one sparse division."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return _div_sparse([int(n == 0) for n in range(order + 1)], _phi_minus_q(order + 1))


def expand_partition(order):
    """Partition counts: coefficients of prod 1/(1-q^k), the reciprocal of
    the pentagonal series sum_k (-1)^k q^{k(3k-1)/2}, one sparse division."""
    if order < 0:
        raise ValueError("order must be >= 0")
    pentagonal = []
    k = 0
    while k * (3 * k - 1) // 2 <= order:
        pentagonal += [(k * (3 * k - 1) // 2, _sign(k)), (k * (3 * k + 1) // 2, _sign(k))]
        k += 1
    return _div_sparse([int(n == 0) for n in range(order + 1)],
                       _sparse(pentagonal[1:], order + 1))
