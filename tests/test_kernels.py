"""The kernel passes the benchmark's probes time, against plain-list
products and quotients.  No command runs them; they stay correct because
the probes keep timing them."""

import random

import pytest

from oddbalanced import kernels


def test_geometric_add_is_inverse_of_one_minus_qa():
    # dividing by (1-q^2) then multiplying back must round-trip
    c = [1, 5, -2, 0, 7, 1, 1, 0]
    orig = list(c)
    kernels.geometric_add(c, 2, 0)
    kernels.shifted_add(c, 2, -1, 0)
    assert c == orig


def _times(cols, factor):
    """The table (column i the coefficients of w^i) times the polynomial
    factor {(i, e): coefficient of w^i q^e}, by the schoolbook product,
    truncated to the table's shape."""
    out = [[0] * len(col) for col in cols]
    for i, col in enumerate(cols):
        for k, x in enumerate(col):
            for (di, de), f in factor.items():
                if i + di < len(cols) and k + de < len(col):
                    out[i + di][k + de] += f * x
    return out


def test_table_mul_w_example():
    # (1 + w q) times 1 + q + 2wq: column 1 gains column 0 shifted by q,
    # column 2 the old column 1, and nothing wraps into column 0
    cols = [[1, 1, 0, 0], [0, 2, 0, 0], [0, 0, 0, 0]]
    kernels.table_mul_w(cols, 1)
    assert cols == [[1, 1, 0, 0], [0, 3, 1, 0], [0, 0, 2, 0]]


def test_table_geometric_example():
    # 1/(1 - q^2) and w q/(1 - q^2), each column on its own
    cols = [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]
    kernels.table_geometric(cols, 2)
    assert cols == [[1, 0, 1, 0, 1], [0, 1, 0, 1, 0]]


@pytest.mark.parametrize("seed", range(4))
def test_table_passes_equal_the_plain_products(seed):
    # random tables whose support starts at q^lo, as the probes' and the
    # recurrence's tables do, so the passes may skip the indices below lo
    rng = random.Random(seed)
    for _ in range(10):
        rows, size = rng.randrange(1, 5), rng.randrange(1, 12)
        lo, a = rng.randrange(size), rng.randrange(1, 6)
        table = [[rng.randrange(-9, 10) if k >= lo else 0 for k in range(size)]
                 for _ in range(rows)]
        product = [list(col) for col in table]
        kernels.table_mul_w(product, a, lo)
        assert product == _times(table, {(0, 0): 1, (1, a): 1})
        quotient = [list(col) for col in table]
        kernels.table_geometric(quotient, a, lo)
        assert _times(quotient, {(0, 0): 1, (0, a): -1}) == table
