"""Exact expansions of the rank generating function and its relatives.

The central object is V(w;q) = sum_{n>=0} (-wq;q)_n (-q/w;q)_n q^n / (q;q^2)_{n+1},
whose q^n coefficient is the Laurent polynomial sum_m v(m,n) w^m counting
odd-balanced unimodal sequences of size 2n+2 by rank m.  Everything is
computed by running the outer sum as a recurrence on a truncated series:

    P_0 = 1/(1-q),   P_n = P_{n-1} * q * (1+w q^n)(1+w^-1 q^n) / (1-q^{2n+1})

where each factor is a single O(N) kernel pass.  Rank tracking keeps one
series per power of w; a monomial w^m q^k can only occur for k >= m(m+1)/2,
which caps the number of columns at ~sqrt(2N) and keeps the table small.

Numeric values of V come from the same outer sum taken at a point
(evaluate_V_bounded): O(terms) complex operations and a ratio tail bound,
with no series built.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from math import isqrt

from . import kernels
from .modular import DomainError, EvalResult
from .rings import CyclotomicRing
from .series import TruncatedSeries


def rank_support_bound(order):
    """Largest m with m(m+1)/2 <= order; v(m,n)=0 for |m| above it when
    n <= order."""
    m = (isqrt(8 * order + 1) - 1) // 2
    while m * (m + 1) // 2 > order:
        m -= 1
    return m


@dataclass
class RankTable:
    """Exact table of v(m,n) for n <= max_n, stored as one integer column
    per rank m.  Immutable once built; safe to share."""

    max_n: int
    columns: dict  # m -> list of counts indexed by n

    def v(self, m, n):
        if not 0 <= n <= self.max_n:
            raise IndexError(f"n={n} outside 0..{self.max_n}")
        col = self.columns.get(m)
        return col[n] if col is not None else 0

    def total(self, n):
        """v(n) = sum over all ranks."""
        return sum(col[n] for col in self.columns.values())

    def totals(self):
        out = [0] * (self.max_n + 1)
        for col in self.columns.values():
            for n, c in enumerate(col):
                out[n] += c
        return out

    def residue_class(self, a, c, n):
        """v(a,c;n): ranks congruent to a mod c."""
        if c < 1:
            raise ValueError("modulus must be >= 1")
        return sum(col[n] for m, col in self.columns.items() if m % c == a % c)

    def residue_sequence(self, a, c):
        out = [0] * (self.max_n + 1)
        for m, col in self.columns.items():
            if m % c == a % c:
                for n, cnt in enumerate(col):
                    out[n] += cnt
        return out

    def nonzero_items(self):
        """Yield (n, m, count) triples with count > 0, sorted by n then m."""
        for n in range(self.max_n + 1):
            for m in sorted(self.columns):
                cnt = self.columns[m][n]
                if cnt:
                    yield n, m, cnt

    def rank_polynomial(self, n):
        """{m: v(m,n)} for one n, nonzero entries only."""
        return {m: col[n] for m, col in sorted(self.columns.items()) if col[n]}

    def to_csv_rows(self):
        yield "n,m,count"
        for n, m, cnt in self.nonzero_items():
            yield f"{n},{m},{cnt}"

    def to_json_dict(self):
        return {
            "max_n": self.max_n,
            "entries": [
                {"n": n, "m": m, "count": cnt} for n, m, cnt in self.nonzero_items()
            ],
        }


# ---------------------------------------------------------------------------
# Expansions
# ---------------------------------------------------------------------------

def expand_V_rank(order):
    """Full rank table of v(m,n) for n <= order, by Laurent-column expansion."""
    mmax = rank_support_bound(order)
    ncols = 2 * mmax + 1

    def fresh():
        return [[0] * (order + 1) for _ in range(ncols)]

    prod = fresh()
    for k in range(order + 1):
        prod[mmax][k] = 1  # 1/(1-q)
    acc = fresh()
    for k in range(order + 1):
        acc[mmax][k] = 1

    for n in range(1, order + 1):
        for col in prod:
            kernels.shift_up(col, 1, 0)
        kernels.table_mul_w(prod, n, n)
        kernels.table_mul_winv(prod, n, n)
        kernels.table_geometric(prod, 2 * n + 1, n)
        kernels.table_acc(acc, prod, n)

    columns = {}
    for i, col in enumerate(acc):
        if any(col):
            columns[i - mmax] = col
    return RankTable(max_n=order, columns=columns)


def expand_v_totals(order):
    """Exact v(n) = coefficient of q^n in V(1;q), for n <= order."""
    prod = [1] * (order + 1)  # 1/(1-q)
    acc = list(prod)
    for n in range(1, order + 1):
        kernels.shift_up(prod, 1, 0)
        kernels.shifted_add_one(prod, n, n)  # (1+q^n) twice
        kernels.shifted_add_one(prod, n, n)
        kernels.geometric_add(prod, 2 * n + 1, n)
        kernels.acc_add(acc, prod, n)
    return acc


def expand_V_value(w_value, w_inverse, one, order):
    """Coefficients of V(w;q) with w specialised to a fixed invertible
    value (complex number, cyclotomic element, ...)."""
    zero = one * 0
    prod = [one] * (order + 1)
    acc = list(prod)
    for n in range(1, order + 1):
        kernels.shift_up(prod, 1, zero)
        kernels.shifted_add(prod, n, w_value, n)
        kernels.shifted_add(prod, n, w_inverse, n)
        kernels.geometric_add(prod, 2 * n + 1, n)
        kernels.acc_add(acc, prod, n)
    return acc


# relative size of the remainder at which evaluate_V_bounded stops summing
V_REL_TOL = 2.0 ** -60
# most terms one evaluation may sum: |q| too close to 1 raises instead of
# running for hours
V_MAX_TERMS = 1 << 20


def evaluate_V_bounded(w, q, max_terms=None):
    """V(w;q) at numeric arguments, summing the outer series term by term:

        t_0 = 1/(1-q),   t_n = t_{n-1} (1+w q^n)(1+q^n/w) q / (1-q^(2n+1)).

    For k >= n every ratio |t_{k+1}/t_k| is at most

        r_n = (1+|w||q|^(n+1)) (1+|q|^(n+1)/|w|) |q| / (1-|q|^(2n+3)),

    and r_n does not increase with n, so once r_n < 1 the remainder after
    t_n is at most |t_n| r_n/(1-r_n), for any complex w.  Summation stops
    when that bound drops below V_REL_TOL of the partial sum, or after
    t_{max_terms} when a cap is given.  Returns EvalResult(value, bound);
    the bound covers truncation, not float rounding.
    """
    w, q = complex(w), complex(q)
    absq = abs(q)
    if w == 0 or not absq < 1:
        raise DomainError(f"V(w;q) needs w != 0 and |q| < 1, got w={w}, q={q}")
    limit = V_MAX_TERMS if max_terms is None else min(max_terms, V_MAX_TERMS)
    absw, winv = abs(w), 1 / w
    term = total = 1 / (1 - q)
    qn = 1.0  # q^n
    a = absq  # |q|^(n+1)
    n = 0
    while True:
        r = (1 + absw * a) * (1 + a / absw) * absq / (1 - a * a * absq)
        bound = abs(term) * r / (1 - r) if r < 1 else math.inf
        # "not >" also stops on a NaN partial sum
        if not bound > V_REL_TOL * abs(total) or n >= limit:
            break
        n += 1
        qn *= q
        term *= (1 + w * qn) * (1 + qn * winv) * q / (1 - qn * qn * q)
        total += term
        a *= absq
    if not cmath.isfinite(total):
        raise DomainError(f"V(w;q) overflows at w={w}, q={q}")
    if n == V_MAX_TERMS and bound > V_REL_TOL * abs(total):
        raise DomainError(f"V(w;q) needs more than {V_MAX_TERMS} terms at |q|={absq}")
    return EvalResult(total, bound)


def evaluate_V(w, q, order=None):
    """V(w;q) at numeric arguments; order caps the number of terms."""
    return evaluate_V_bounded(w, q, order).value


def expand_V_at_root(j, c, order):
    """V(zeta_c^j; q) expanded exactly over the cyclotomic ring of order c.

    Must agree with substituting w -> zeta_c^j in the rank table; the test
    suite checks that substitution homomorphism property.
    """
    if c < 1:
        raise ValueError("modulus must be >= 1")
    ring = CyclotomicRing(c)
    coeffs = expand_V_value(ring.root(j % c), ring.root(-j % c), ring.one, order)
    return TruncatedSeries(ring, coeffs)


def residue_twist(a, c, table):
    """Exact v(a,c;n) for n <= table.max_n, by bucketing the rank table."""
    if c < 1:
        raise ValueError("modulus must be >= 1")
    if not 0 <= a < c:
        raise ValueError("residue must satisfy 0 <= a < c")
    return table.residue_sequence(a, c)


def residue_twist_cyclotomic(a, c, order):
    """v(a,c;n) via the root-of-unity average
    (1/c) * sum_j zeta_c^(-aj) V(zeta_c^j;q),
    evaluated exactly in the cyclotomic ring.  Each coefficient must come
    out a rational integer divisible by c; raises ValueError otherwise.

    Exponentially slower than residue_twist (c full expansions); intended
    as an independent cross-check at small truncation orders.
    """
    if c < 1:
        raise ValueError("modulus must be >= 1")
    ring = CyclotomicRing(c)
    total = [ring.zero] * (order + 1)
    for j in range(c):
        series = expand_V_at_root(j, c, order)
        twist = ring.root((-a * j) % c)
        for k in range(order + 1):
            total[k] = total[k] + twist * series.coeffs[k]
    out = []
    for k, val in enumerate(total):
        n = val.as_rational_integer()  # raises if not a rational integer
        if n % c:
            raise ValueError(f"coefficient {n} at q^{k} not divisible by c={c}")
        out.append(n // c)
    return out


def expand_overpartition(order):
    """Overpartition counts: coefficients of prod (1+q^k)/(1-q^k)."""
    out = [0] * (order + 1)
    out[0] = 1
    for k in range(1, order + 1):
        kernels.shifted_add_one(out, k)
        kernels.geometric_add(out, k)
    return out


def expand_partition(order):
    """Partition counts: coefficients of prod 1/(1-q^k)."""
    out = [0] * (order + 1)
    out[0] = 1
    for k in range(1, order + 1):
        kernels.geometric_add(out, k)
    return out


def write_table_csv(table, path):
    with open(path, "w", encoding="utf-8") as fh:
        for row in table.to_csv_rows():
            fh.write(row + "\n")


def write_table_json(table, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table.to_json_dict(), fh, indent=1)
        fh.write("\n")
