"""Exact expansions of the rank generating function and its relatives.

The central object is V(w;q) = sum_{n>=0} (-wq;q)_n (-q/w;q)_n q^n / (q;q^2)_{n+1},
whose q^n coefficient is the Laurent polynomial sum_m v(m,n) w^m counting
odd-balanced unimodal sequences of size 2n+2 by rank m.  One engine
computes every exact count: the outer sum run as a recurrence,

    P_0 = 1/(1-q),   P_n = P_{n-1} * q * (1+w q^n)(1+w^-1 q^n) / (1-q^{2n+1}),

on c integer q-series columns with w reduced mod w^c - 1, so that a factor
of w is a cyclic shift of the columns and each factor is one kernel pass.
The reduction picks what is counted:

* c = 1 sets w = 1 and gives the totals v(n);
* c > 1 gives the residue-class counts v(a,c;n) directly, column a;
* c = 2*mmax+1 gives the full rank table, because a monomial w^m q^k only
  occurs for k >= m(m+1)/2, so no rank with |m| > mmax ~ sqrt(2N) appears
  and nothing wraps.

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


def rank_support_bound(order):
    """Largest m with m(m+1)/2 <= order; v(m,n)=0 for |m| above it when
    n <= order."""
    m = (isqrt(8 * order + 1) - 1) // 2
    while m * (m + 1) // 2 > order:
        m -= 1
    return m


@dataclass
class RankTable:
    """Exact counts for n <= max_n, one integer column per rank m, or, when
    the ranks were reduced mod `modulus`, one column per residue class
    a = 0..modulus-1.  A reduced table answers totals and residue classes
    mod divisors of its modulus, and raises ValueError on anything else.
    Immutable once built; safe to share."""

    max_n: int
    columns: dict  # m (or a, when reduced) -> list of counts indexed by n
    modulus: int = None  # None for the full rank table

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

    def v(self, m, n):
        self._require_ranks()
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
        self._check_modulus(c)
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

def _expand_mod(order, c):
    """Coefficients of V(w;q) for n <= order with w reduced mod w^c - 1:
    c integer columns, column i holding the q-series of the ranks
    congruent to i mod c.

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


def expand_V_rank(order, modulus=None):
    """Exact counts for n <= order: the full rank table of v(m,n), or with
    a modulus c the table of v(a,c;n) reduced mod c."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if modulus is not None:
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        return RankTable(max_n=order, columns=dict(enumerate(_expand_mod(order, modulus))),
                         modulus=modulus)
    # |m| never exceeds mmax, so with 2*mmax+1 columns nothing wraps and
    # column m mod c holds rank m exactly
    mmax = rank_support_bound(order)
    c = 2 * mmax + 1
    cols = _expand_mod(order, c)
    return RankTable(max_n=order, columns={
        m: cols[m % c] for m in range(-mmax, mmax + 1) if any(cols[m % c])})


def expand_v_totals(order):
    """Exact v(n) = coefficient of q^n in V(1;q), for n <= order."""
    return _expand_mod(order, 1)[0]


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
