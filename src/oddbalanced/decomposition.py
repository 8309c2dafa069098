"""Mixed modular/mock decomposition of the rank generating function.

For w = e^(2*pi*i*z) and q = e^(2*pi*i*tau) the identity

    (1 + w^-1) q V(w;q) = T1(w;q) + T(w;q) - w*T2(w;q)

holds, with

    T1 = -i q^(1/8)  w^(-1/2) mu(z+1/2, 1/2, tau),
    T  = -  q^(-1/8) w^(-1/2) theta(1/2+z;tau)/theta(tau;2tau)
                              * mu(2z+1/2, 1/2, 2tau),
    T2 =  i q^(11/8) w^(-1/2) theta(4tau;12tau)^3/theta(2tau;6tau)^3
                              * theta(z;tau) theta(2z+tau;2tau)/theta(4z;4tau),

and the half-integer powers fixed by w^(1/2) := e^(pi*i*z).  The sign of the
T1 term is the one the numerics force: with the opposite sign the residual
is O(1) on every grid point, with this one it sits at rounding level.

verify_decomposition computes the left side by summing the outer series of V
directly (genfunc.evaluate_V_bounded, whose ratio tail bound holds for
complex z too) and the right side from the modular evaluators, and reports
the normalised residual.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from .genfunc import evaluate_V_bounded
from .modular import (
    DomainError,
    HalfPlanePoint,
    PoleError,
    eta,
    mu,
    qpow,
    q0pow,
    theta,
)

TWO_PI_I = 2j * math.pi


def w_half_power(z, half_units):
    """w^(half_units/2) with the branch w^(1/2) = e^(pi*i*z)."""
    return cmath.exp(1j * math.pi * z * half_units)


def T1(z, tau):
    """-i q^(1/8) w^(-1/2) mu(z+1/2, 1/2, tau); invariant under z -> z+1."""
    return -1j * qpow(tau, 0.125) * w_half_power(z, -1) * mu(z + 0.5, 0.5, tau).value


def T_mid(z, tau):
    """-q^(-1/8) w^(-1/2) (theta(1/2+z;tau)/theta(tau;2tau)) mu(2z+1/2,1/2;2tau)."""
    den = theta(tau, 2 * tau).value
    if abs(den) < 1e-14:
        raise PoleError(f"theta(tau;2tau) vanishes at tau={tau}")
    return (-qpow(tau, -0.125) * w_half_power(z, -1)
            * theta(0.5 + z, tau).value / den
            * mu(2 * z + 0.5, 0.5, 2 * tau).value)


def T2(z, tau):
    """i q^(11/8) w^(-1/2) theta(4tau;12tau)^3/theta(2tau;6tau)^3
    * theta(z;tau) theta(2z+tau;2tau)/theta(4z;4tau).

    Undefined where theta(4z;4tau) vanishes, i.e. z in {0, 1/4, 1/2, 3/4}
    mod 1 and lattice translates."""
    den = theta(4 * z, 4 * tau).value
    scale = abs(qpow(tau, 0.5))
    if abs(den) < 1e-10 * scale:
        raise PoleError(f"theta(4z;4tau) vanishes at z={z} (z = 0, 1/4, 1/2 or 3/4 mod 1)")
    ratio = (theta(4 * tau, 12 * tau).value / theta(2 * tau, 6 * tau).value) ** 3
    return (1j * qpow(tau, 11.0 / 8.0) * w_half_power(z, -1) * ratio
            * theta(z, tau).value * theta(2 * z + tau, 2 * tau).value / den)


def T2_limit_w1(tau):
    """Closed form of lim_{z->0} T2(z,tau), via d/dz theta(z;tau)|_0 = -2*pi*eta(tau)^3:

        (i/4) q^(11/8) theta(4tau;12tau)^3/theta(2tau;6tau)^3
              * eta(tau)^3 theta(tau;2tau) / eta(4tau)^3.

    The 1/4 comes from the theta(4z;4tau) denominator differentiating to
    4 * theta'(0;4tau); the two-point Richardson test pins it down.
    """
    ratio = (theta(4 * tau, 12 * tau).value / theta(2 * tau, 6 * tau).value) ** 3
    return (0.25j * qpow(tau, 11.0 / 8.0) * ratio
            * eta(tau).value ** 3 * theta(tau, 2 * tau).value / eta(4 * tau).value ** 3)


# ---------------------------------------------------------------------------
# Series side and the residual check
# ---------------------------------------------------------------------------

def series_lhs(z, tau, order):
    """(1 + w^-1) q V(w;q) from at most `order` terms of the outer series,
    with the evaluator's truncation bound scaled by |(1 + w^-1) q|."""
    w = cmath.exp(TWO_PI_I * z)
    q = qpow(tau, 1)
    v = evaluate_V_bounded(w, q, order)
    factor = (1 + 1 / w) * q
    return factor * v.value, abs(factor) * v.truncation_bound


class DecompositionSample(namedtuple("DecompositionSample",
                                     "z tau order lhs t1 t t2 lhs_tail")):
    __slots__ = ()

    @property
    def point(self):
        return HalfPlanePoint(tau=self.tau, z=self.z)

    @property
    def rhs(self):
        w = cmath.exp(TWO_PI_I * complex(self.z))
        return self.t1 + self.t - w * self.t2

    @property
    def residual(self):
        return abs(self.rhs - self.lhs) / max(1.0, abs(self.lhs))


def verify_decomposition(z, tau, order=400):
    """Evaluate both sides at one point and package the residual."""
    lhs, tail = series_lhs(z, tau, order)
    if tail > 1e-10 * max(1.0, abs(lhs)):
        raise DomainError(
            f"series tail bound {tail:.2e} too large at order {order}; increase it")
    return DecompositionSample(
        z=complex(z), tau=complex(tau), order=order,
        lhs=lhs, t1=T1(z, tau), t=T_mid(z, tau), t2=T2(z, tau), lhs_tail=tail)


# z values avoid 0, 1/4, 1/2, 3/4 (T2 theta zeros / mu poles)
DEFAULT_GRID = tuple(
    (z, tau, 400)
    for z in (0.1, 0.2, 1.0 / 3.0, 0.45, 0.6, 0.85)
    for tau in (0.9j, 0.5 + 0.8j)
)


def run_grid(grid=DEFAULT_GRID):
    """Evaluate the decomposition residual on a grid of (z, tau, order)."""
    return [verify_decomposition(*p) for p in grid]
