"""The outer-sum recurrence for V(w;q): the tests' second exact route.

The program reads every count off the partial theta identity divided by
phi(-q) (genfunc._expand_partial_theta).  This module runs the outer sum

    V(w;q) = sum_{n>=0} (-wq;q)_n (-q/w;q)_n q^n / (q;q^2)_{n+1}

as a recurrence on plain lists of ints, and imports nothing from
oddbalanced, so the two routes share no code.  It costs O(c N^2).
"""


def expand_mod(order, c):
    """Coefficients of V(w;q) for n <= order with w reduced mod w^c - 1:
    c integer columns, column i holding the q-series of the ranks
    congruent to i mod c.  The terms

        P_0 = 1/(1-q),   P_n = P_{n-1} q (1 + w q^n)(1 + q^n/w) / (1 - q^{2n+1})

    are summed, four passes per n.  A factor of w moves column i to column
    i+1 mod c, so the two middle passes add one column, shifted by q^n, to
    its neighbour; the column that wraps round is read from a copy taken
    before the pass.  P_n starts at q^n, so each pass starts at the first
    index where it can change anything, and zero coefficients are skipped.
    """
    size = order + 1
    prod = [[0] * size for _ in range(c)]
    prod[0] = [1] * size  # 1/(1-q)
    acc = [list(col) for col in prod]
    for n in range(1, size):
        for col in prod:  # times q
            col[1:] = col[:-1]
            col[0] = 0
        # times (1 + w q^n): column i gains column i-1, top column first
        wrapped = list(prod[-1])
        for i in range(c - 1, -1, -1):
            dst, src = prod[i], prod[i - 1] if i else wrapped
            for k in range(order, 2 * n - 1, -1):
                v = src[k - n]
                if v:
                    dst[k] += v
        # times (1 + q^n/w): column i gains column i+1, bottom column first
        wrapped = list(prod[0])
        for i in range(c):
            dst, src = prod[i], prod[i + 1] if i < c - 1 else wrapped
            for k in range(order, 2 * n - 1, -1):
                v = src[k - n]
                if v:
                    dst[k] += v
        # divided by 1 - q^{2n+1}
        a = 2 * n + 1
        for col in prod:
            for k in range(n + a, size):
                v = col[k - a]
                if v:
                    col[k] += v
        for dst, src in zip(acc, prod):  # accumulate
            for k in range(n, size):
                v = src[k]
                if v:
                    dst[k] += v
    return acc


def full_recurrence_table(order):
    """The rank table {m: column} of v(m,n) for n <= order, from expand_mod
    at c = 2*mmax + 1, where nothing wraps: mmax is the largest m with
    m(m+3)/2 <= order, the size where rank m first occurs."""
    mmax = 0
    while (mmax + 1) * (mmax + 4) // 2 <= order:
        mmax += 1
    c = 2 * mmax + 1
    cols = expand_mod(order, c)
    return {m: cols[m % c] for m in range(-mmax, mmax + 1) if any(cols[m % c])}
