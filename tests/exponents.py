"""Exponent polynomials on (0,1): the dual-nome growth exponent of the
dominant piece of V(e^(2 pi i z); q), interval by interval, and the
exponent gap that makes the uniform residue-class main term
e^(pi sqrt n)/(16 c n^(3/4)) win for odd c.  No command evaluates them;
test_asymptotics and the acceptance suite check them.
"""

from collections import namedtuple
from fractions import Fraction

from oddbalanced.modular import DomainError


class EvenModulusError(ValueError):
    """The residue main term is only established for odd moduli."""


class ExponentPolynomial(namedtuple("ExponentPolynomial", "a b c lo hi")):
    """Quadratic a*z^2 + b*z + c with an interval of validity (lo, hi) in
    (0,1); every field a Fraction."""

    __slots__ = ()

    def __call__(self, z):
        z = Fraction(z)
        if not self.lo < z < self.hi:
            raise DomainError(f"z={z} outside ({self.lo}, {self.hi})")
        return self.a * z * z + self.b * z + self.c


# dual-nome growth exponents of the dominant piece, on the four open
# intervals of asymptotics.lemma_main_term: the Appell/Mordell term on the
# outer ones, the theta quotient on the middle two.  The list is symmetric
# under z -> 1 - z, as V is under w -> 1/w, and 1/4, 1/2 and 3/4 lie on no
# interval.  The twists of the exact counts grow at the rates these
# exponents predict (test_asymptotics).
GAP_POLYNOMIALS = (
    ExponentPolynomial(Fraction(1, 2), Fraction(0), Fraction(-1, 16),
                       Fraction(0), Fraction(1, 4)),
    ExponentPolynomial(Fraction(-1, 2), Fraction(1, 2), Fraction(-1, 8),
                       Fraction(1, 4), Fraction(1, 2)),
    ExponentPolynomial(Fraction(-1, 2), Fraction(1, 2), Fraction(-1, 8),
                       Fraction(1, 2), Fraction(3, 4)),
    ExponentPolynomial(Fraction(1, 2), Fraction(-1), Fraction(7, 16),
                       Fraction(3, 4), Fraction(1)),
)

CRITICAL_EXPONENT = Fraction(-1, 16)


def interval_exponent(z):
    """Value of the interval polynomial at z in (0,1) (z != boundary points)."""
    z = Fraction(z)
    for poly in GAP_POLYNOMIALS:
        if poly.lo < z < poly.hi:
            return poly(z)
    raise DomainError(f"z={z} hits an interval boundary")


def exponent_gap(c):
    """min_j interval_exponent(j/c) + 1/16 over j=1..c-1; positivity is what
    makes the uniform residue-class main term e^(pi sqrt n)/(16 c n^(3/4)) win."""
    if c <= 1 or c % 2 == 0:
        raise EvenModulusError(f"modulus must be odd and > 1, got c={c}")
    gap = min(interval_exponent(Fraction(j, c)) for j in range(1, c))
    return gap - CRITICAL_EXPONENT
