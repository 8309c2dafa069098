"""Kernel selection: compiled extension when present, pure Python otherwise.

Set ODDBALANCED_PURE=1 to force the pure-Python kernels (used by the
benchmark and as an escape hatch on platforms without a C compiler).
"""

import os

if os.environ.get("ODDBALANCED_PURE"):
    from . import _kernels_py as _impl
else:
    try:
        from . import _speedups as _impl  # type: ignore[attr-defined]
    except ImportError:
        from . import _kernels_py as _impl

USING_COMPILED = _impl.__name__.endswith("_speedups")

shifted_add = _impl.shifted_add
shifted_add_one = _impl.shifted_add_one
geometric_add = _impl.geometric_add
acc_add = _impl.acc_add
cauchy_mul = _impl.cauchy_mul
table_mul_w = _impl.table_mul_w
table_mul_winv = _impl.table_mul_winv
table_geometric = _impl.table_geometric
table_acc = _impl.table_acc


def shift_up(c, by, zero):
    """In place, multiply the series by q^by (coefficients above the
    truncation order fall off the end; the length never changes)."""
    by = min(by, len(c))
    if by <= 0:
        return
    c[by:] = c[: len(c) - by]
    c[:by] = [zero] * by
