"""The kernel passes of the reference recurrence."""

from oddbalanced import kernels


def test_shift_up():
    c = [1, 2, 3, 4]
    kernels.shift_up(c, 1, 0)
    assert c == [0, 1, 2, 3]
    kernels.shift_up(c, 2, 0)
    assert c == [0, 0, 0, 1]
    kernels.shift_up(c, 0, 0)
    assert c == [0, 0, 0, 1]
    c = [0, 1, 2]
    kernels.shift_up(c, 5, 0)  # past the end: all zeros, same length
    assert c == [0, 0, 0]


def test_geometric_add_is_inverse_of_one_minus_qa():
    # dividing by (1-q^2) then multiplying back must round-trip
    c = [1, 5, -2, 0, 7, 1, 1, 0]
    orig = list(c)
    kernels.geometric_add(c, 2, 0)
    kernels.shifted_add(c, 2, -1, 0)
    assert c == orig
