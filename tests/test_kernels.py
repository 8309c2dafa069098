"""Compiled and pure kernels must be interchangeable."""

import random
from fractions import Fraction

import pytest

from oddbalanced import _kernels_py
from oddbalanced.kernels import shift_up

try:
    from oddbalanced import _speedups
except ImportError:
    _speedups = None

needs_compiled = pytest.mark.skipif(_speedups is None, reason="extension not built")


def _random_coeffs(rng, kind, n):
    if kind == "int":
        return [rng.randrange(-99, 100) for _ in range(n)]
    if kind == "fraction":
        return [Fraction(rng.randrange(-20, 21), rng.randrange(1, 9)) for _ in range(n)]
    return [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]


@needs_compiled
@pytest.mark.parametrize("kind", ["int", "fraction", "complex"])
def test_scalar_kernels_match(kind):
    rng = random.Random(1234)
    for trial in range(20):
        n = rng.randrange(3, 40)
        base = _random_coeffs(rng, kind, n)
        a = rng.randrange(1, n)
        lo = rng.randrange(0, n // 2 + 1)
        s = _random_coeffs(rng, kind, 1)[0]

        c1, c2 = list(base), list(base)
        _kernels_py.shifted_add(c1, a, s, lo)
        _speedups.shifted_add(c2, a, s, lo)
        assert c1 == c2

        c1, c2 = list(base), list(base)
        _kernels_py.shifted_add_one(c1, a, lo)
        _speedups.shifted_add_one(c2, a, lo)
        assert c1 == c2

        c1, c2 = list(base), list(base)
        _kernels_py.geometric_add(c1, a, lo)
        _speedups.geometric_add(c2, a, lo)
        assert c1 == c2

        other = _random_coeffs(rng, kind, n)
        c1, c2 = list(base), list(base)
        _kernels_py.acc_add(c1, other, lo)
        _speedups.acc_add(c2, other, lo)
        assert c1 == c2

        zero = base[0] * 0
        assert (_kernels_py.cauchy_mul(base, other, zero)
                == _speedups.cauchy_mul(base, other, zero))


@needs_compiled
def test_table_kernels_match():
    rng = random.Random(99)
    for trial in range(10):
        ncols = rng.randrange(2, 7)
        n = rng.randrange(4, 30)
        base = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(ncols)]
        a = rng.randrange(1, n)
        lo = rng.randrange(0, n // 2)

        for func in ("table_mul_w", "table_mul_winv", "table_geometric"):
            t1 = [list(col) for col in base]
            t2 = [list(col) for col in base]
            getattr(_kernels_py, func)(t1, a, lo)
            getattr(_speedups, func)(t2, a, lo)
            assert t1 == t2

        other = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(ncols)]
        t1 = [list(col) for col in base]
        t2 = [list(col) for col in base]
        _kernels_py.table_acc(t1, other, lo)
        _speedups.table_acc(t2, other, lo)
        assert t1 == t2


def test_shift_up():
    c = [1, 2, 3, 4]
    shift_up(c, 1, 0)
    assert c == [0, 1, 2, 3]
    shift_up(c, 2, 0)
    assert c == [0, 0, 0, 1]
    shift_up(c, 0, 0)
    assert c == [0, 0, 0, 1]
    c = [0, 1, 2]
    shift_up(c, 5, 0)  # past the end: all zeros, same length
    assert c == [0, 0, 0]


def test_geometric_add_is_inverse_of_one_minus_qa():
    # dividing by (1-q^2) then multiplying back must round-trip
    c = [1, 5, -2, 0, 7, 1, 1, 0]
    orig = list(c)
    _kernels_py.geometric_add(c, 2, 0)
    _kernels_py.shifted_add(c, 2, -1, 0)
    assert c == orig
