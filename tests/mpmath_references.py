"""mpmath references for main terms that no command evaluates.

The general Tauberian transfer and the partition and overpartition main
terms check the program's decimal main_term_v from an independent
arithmetic.  Each is evaluated, as main_term_v is, with GUARD_DIGITS digits
beyond max(dps, 30).
"""

import mpmath as mp

from oddbalanced.asymptotics import DEFAULT_DPS, GUARD_DIGITS


def workdps(dps):
    return mp.workdps(max(dps, 30) + GUARD_DIGITS)


def tauberian_apply(lam, alpha, A, n, dps=DEFAULT_DPS):
    """Coefficient main term lam * A^(alpha/2+1/4) / (2 sqrt(pi) n^(alpha/2+3/4))
    * e^(2 sqrt(A n)) transferred from C(e^-t) ~ lam * t^alpha * e^(A/t)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    with workdps(dps):
        A = mp.mpf(A)
        if A <= 0:
            raise ValueError("growth constant A must be positive")
        lam = mp.mpf(lam)
        alpha = mp.mpf(alpha)
        nn = mp.mpf(n)
        return (lam * A ** (alpha / 2 + mp.mpf(1) / 4)
                / (2 * mp.sqrt(mp.pi) * nn ** (alpha / 2 + mp.mpf(3) / 4))
                * mp.e ** (2 * mp.sqrt(A * nn)))


def hardy_ramanujan_p(n, dps=DEFAULT_DPS):
    """Partition main term e^(pi sqrt(2n/3)) / (4 sqrt(3) n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    with workdps(dps):
        nn = mp.mpf(n)
        return mp.e ** (mp.pi * mp.sqrt(2 * nn / 3)) / (4 * mp.sqrt(3) * nn)


def overpartition_asym(n, dps=DEFAULT_DPS):
    """Overpartition main term e^(pi sqrt n) / (8 n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    with workdps(dps):
        nn = mp.mpf(n)
        return mp.e ** (mp.pi * mp.sqrt(nn)) / (8 * nn)
