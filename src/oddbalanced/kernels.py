"""Hot inner loops for truncated q-series arithmetic, in pure Python.

No module of the program imports this one: the exact engine is the partial
theta route in genfunc, and the outer-sum recurrence the tests hold it to
(tests/reference.py) writes its passes inline.  The six passes stay only
because the benchmark's per-layer probes time them by name, until
ROADMAP items 1 and 2 retire the probes and this module with them.

Every function here mutates its list arguments in place and is generic
over the coefficient type: plain int, Fraction, complex, or any object
with ``+``, ``*`` and truthiness.

Conventions: a series is a list ``c`` with ``c[k]`` the coefficient of q^k,
and ``lo`` is a lower bound on the support of ``c`` (coefficients below
``lo`` are known to be zero, so work there can be skipped).
"""


def shifted_add(c, a, s, lo=0):
    """In place, multiply the series by (1 + s*q^a)."""
    for k in range(len(c) - 1, lo + a - 1, -1):
        v = c[k - a]
        if v:
            c[k] = c[k] + s * v


def shifted_add_one(c, a, lo=0):
    """In place, multiply the series by (1 + q^a)."""
    for k in range(len(c) - 1, lo + a - 1, -1):
        v = c[k - a]
        if v:
            c[k] = c[k] + v


def geometric_add(c, a, lo=0):
    """In place, divide the series by (1 - q^a)."""
    for k in range(lo + a, len(c)):
        v = c[k - a]
        if v:
            c[k] = c[k] + v


def acc_add(dst, src, lo=0):
    """dst[k] += src[k] for k >= lo."""
    for k in range(lo, len(dst)):
        v = src[k]
        if v:
            dst[k] = dst[k] + v


# ---------------------------------------------------------------------------
# Rank-tracking variants.  A table is a list of columns; column i holds the
# q-series coefficients of w^(i - offset), so multiplying by w is a shift
# from each column to the next.
# ---------------------------------------------------------------------------

def table_mul_w(cols, a, lo=0):
    """In place, multiply the table by (1 + w*q^a); top column first."""
    for i in range(len(cols) - 1, 0, -1):
        dst = cols[i]
        src = cols[i - 1]
        for k in range(len(dst) - 1, lo + a - 1, -1):
            v = src[k - a]
            if v:
                dst[k] = dst[k] + v


def table_geometric(cols, a, lo=0):
    """In place, divide every column by (1 - q^a)."""
    for col in cols:
        geometric_add(col, a, lo)
