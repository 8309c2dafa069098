"""Truncated q-series arithmetic on coefficient lists: the kernel passes every
expansion in genfunc is built from.  A series is a list ``c`` with ``c[k]``
the coefficient of q^k, truncated at ``len(c) - 1``."""

import random
from fractions import Fraction

import pytest

from oddbalanced import kernels


def _add(a, b):
    out = list(a)
    kernels.acc_add(out, b)
    return out


def test_add_examples():
    assert _add([1, 1], [1, -1]) == [2, 0]
    a = [3, 1, 4, 1]
    assert _add(a, [0] * 4) == a
    assert _add([1, 2, 1], [0, 0, 1]) == [1, 2, 2]
    # lo skips the coefficients below it
    c = [5, 0, 0]
    kernels.acc_add(c, [9, 1, 2], 1)
    assert c == [5, 1, 2]


def test_mul_examples():
    # (1-q)(1+q+q^2+q^3) telescopes to 1 at order 3
    assert kernels.cauchy_mul([1, -1, 0, 0], [1, 1, 1, 1], 0) == [1, 0, 0, 0]
    c = [1, 1, 1, 1]
    kernels.shifted_add(c, 1, -1)
    assert c == [1, 0, 0, 0]
    a = [2, 0, 5, 1]
    assert kernels.cauchy_mul(a, [1, 0, 0, 0], 0) == a
    assert kernels.cauchy_mul([1, 1, 0], [1, 1, 0], 0) == [1, 2, 1]
    c = [1, 1, 0]
    kernels.shifted_add_one(c, 1)
    assert c == [1, 2, 1]


def test_inverse_examples():
    # dividing 1 by (1 - q) gives the geometric series
    geo = [1] + [0] * 8
    kernels.geometric_add(geo, 1)
    assert geo == [1] * 9
    assert kernels.cauchy_mul(geo, [1, -1] + [0] * 7, 0) == [1] + [0] * 8
    # multiplying back by (1 - q) undoes the division
    kernels.shifted_add(geo, 1, -1)
    assert geo == [1] + [0] * 8
    # 1/(1 - q^2) = 1 + q^2 + q^4 + ...
    c = [1] + [0] * 6
    kernels.geometric_add(c, 2)
    assert c == [1, 0, 1, 0, 1, 0, 1]


RINGS = {
    "ZZ": lambda rng: rng.randrange(-9, 10),
    "QQ": lambda rng: Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)),
    "CC": lambda rng: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
}


@pytest.mark.parametrize("name", sorted(RINGS))
def test_ring_axioms_randomized(name):
    rand = RINGS[name]
    rng = random.Random(sum(map(ord, name)))
    zero = 0j if name == "CC" else 0
    close = (lambda x, y: abs(x - y) < 1e-12) if name == "CC" else (lambda x, y: x == y)
    for _ in range(12):
        order = rng.randrange(2, 7)
        a, b, c = ([rand(rng) for _ in range(order + 1)] for _ in range(3))
        lhs = _add(_add(a, b), c)
        rhs = _add(a, _add(b, c))
        assert all(close(x, y) for x, y in zip(lhs, rhs))
        lhs = kernels.cauchy_mul(a, _add(b, c), zero)
        rhs = _add(kernels.cauchy_mul(a, b, zero), kernels.cauchy_mul(a, c, zero))
        assert all(close(x, y) for x, y in zip(lhs, rhs))
        lhs = kernels.cauchy_mul(a, b, zero)
        rhs = kernels.cauchy_mul(b, a, zero)
        assert all(close(x, y) for x, y in zip(lhs, rhs))


def test_truncation_never_extends():
    a = [1, 2]
    b = [1, 1, 1, 1]
    assert len(kernels.cauchy_mul(a, b, 0)) == 2
    c = [1, 2, 3]
    kernels.shift_up(c, 1, 0)
    assert c == [0, 1, 2]
    kernels.shift_up(c, 2, 0)
    assert c == [0, 0, 0]
    c = [1, 1, 1]
    kernels.shifted_add_one(c, 1)
    kernels.geometric_add(c, 1)
    assert len(c) == 3
