"""Mixed modular/mock decomposition of the rank generating function.

For w = e^(2*pi*i*z) and q = e^(2*pi*i*tau) the identity

    (1 + w^-1) q V(w;q) = T1(w;q) + T(w;q) - w*T2(w;q)

holds, with

    T1 = -i q^(1/8)  w^(-1/2) mu(z+1/2, 1/2, tau),
    T  = -  q^(-1/8) w^(-1/2) theta(1/2+z;tau)/theta(tau;2tau)
                              * mu(2z+1/2, 1/2, 2tau),
    T2 =  i q^(11/8) w^(-1/2) theta(4tau;12tau)^3/theta(2tau;6tau)^3
                              * theta(z;tau) theta(2z+tau;2tau)/theta(4z;4tau),

and every power w^e, w^(-1/2) too, taken as modular.qpow(z, e) =
e^(2*pi*i*z*e), so that w^(1/2) := e^(pi*i*z).  The sign of the T1 term
is the one the numerics force: with the opposite sign the residual is
O(1) on every grid point, with this one it sits at rounding level.

T1, T_mid and T2 return modular.EvalResults: balls built by the type's
own arithmetic from the evaluators' balls and the powers' (_power), so
each term, and the right side T1 + T - w*T2, carries the error of every
input.

The factors of tau alone, theta(tau;2tau), theta(2tau;6tau) and
theta(4tau;12tau), take the S law where |w| < 1 (_theta_of_tau): summed
directly, theta(tau;2tau) at tau = 0.012i is 8.1e-14 under its bound of
1.4e-12, and by the S law its bound is 2.1e-13 of it.

Every divisor of the three terms (theta in T, T2 and inside mu, and mu's
Appell denominators) is refused by modular's one rule: where its error
bound reaches its magnitude, it raises PoleError, a DomainError, with no
hand-set cut.  So the poles z = 0, 1/4, 1/2, 3/4 (mod 1) are refused, and
a point just off one evaluates once its divisor is above its bound.

verify_decomposition computes the left side by summing the outer series of V
directly (modular.evaluate_V_bounded, whose ratio tail bound holds for
complex z too) and the right side from the modular evaluators, and reports
the normalised residual and its budget: (the series tail bound + the right
side's radius)/max(1, |lhs|).  The budget leaves out the left side's
rounding, which evaluate_V_bounded does not bound yet.  Both sides are
1-periodic in z, so it first reduces Re z mod 1 (math.fmod, exact in
binary floating point): at a large Re z the float w = e^(2*pi*i*z) would
carry no correct digit.  load_grid reads and checks the grid that
verify-decomposition's --grid names, and the command's entry,
cmd_verify_decomposition, fails each point not below MAX_RESIDUAL.
"""

import cmath
import math
from collections import namedtuple

from . import InputError
from .modular import (
    DomainError,
    EvalResult,
    PoleError,
    divisor,
    evaluate_V_bounded,
    mu,
    qpow,
    theta,
)

# terms of the outer series summed on the default grid and, where a --grid
# file gives no order, at each of its points
DEFAULT_ORDER = 400
# the normalised residual each grid point must stay below; no option moves it
MAX_RESIDUAL = 1e-7


def _theta_of_tau(k, m, tau):
    """theta(k tau; m tau).  Where |w| < 1, w = m tau, by the S law
    theta(c w; w) = i theta(c; -1/w) e^(-pi i c^2 w)/sqrt(-i w), c = k/m, the prefactor in
    theta's exponent: -1/w has the larger imaginary part, so the smaller nome."""
    w = m * tau
    if abs(w) >= 1:
        return theta(k * tau, w)
    c = k / m
    return 1j * theta(c, -1 / w, -1j * math.pi * c * c * w - 0.5 * cmath.log(-1j * w))


def _power(x, exponent):
    """modular.qpow(x, exponent) = e^(2 pi i x exponent) as an EvalResult."""
    return EvalResult.exp(2j * math.pi * x * exponent)


def T1(z, tau):
    """-i q^(1/8) w^(-1/2) mu(z+1/2, 1/2, tau); invariant under z -> z+1."""
    return -1j * _power(tau, 0.125) * _power(z, -0.5) * mu(z + 0.5, 0.5, tau)


def T_mid(z, tau):
    """-q^(-1/8) w^(-1/2) (theta(1/2+z;tau)/theta(tau;2tau)) mu(2z+1/2,1/2;2tau)."""
    # theta(tau;2tau) has no zero, but at tau = it it falls like e^(-pi/8t)
    den = divisor(_theta_of_tau(1, 2, tau),
                  f"theta(tau;2tau) is below its error bound at Im tau={tau.imag}")
    return (-_power(tau, -0.125) * _power(z, -0.5) * theta(0.5 + z, tau) / den
            * mu(2 * z + 0.5, 0.5, 2 * tau))


def T2(z, tau):
    """i q^(11/8) w^(-1/2) theta(4tau;12tau)^3/theta(2tau;6tau)^3
    * theta(z;tau) theta(2z+tau;2tau)/theta(4z;4tau).

    Undefined where theta(4z;4tau) vanishes, i.e. z in {0, 1/4, 1/2, 3/4}
    mod 1 and lattice translates.  Both divisors are refused (divisor) where
    they are not above their error bounds; theta(2tau;6tau) has no zero but,
    like T's theta(tau;2tau), falls fast as Im tau -> 0."""
    den = divisor(theta(4 * z, 4 * tau),
                  f"theta(4z;4tau) vanishes at z={z} (z = 0, 1/4, 1/2 or 3/4 mod 1)")
    den_ratio = divisor(_theta_of_tau(2, 6, tau),
                        f"theta(2tau;6tau) is below its error bound at Im tau={tau.imag}")
    r = _theta_of_tau(4, 12, tau) / den_ratio
    return (1j * _power(tau, 11.0 / 8.0) * _power(z, -0.5) * (r * (r * r))
            * theta(z, tau) * theta(2 * z + tau, 2 * tau) / den)


# ---------------------------------------------------------------------------
# Series side and the residual check
# ---------------------------------------------------------------------------

def series_lhs(z, tau, order):
    """(1 + w^-1) q V(w;q) from at most `order` terms of the outer series,
    with the evaluator's truncation bound scaled by |(1 + w^-1) q|."""
    w = qpow(z, 1)
    q = qpow(tau, 1)
    v, tail = evaluate_V_bounded(w, q, order)
    factor = (1 + 1 / w) * q
    return factor * v, abs(factor) * tail


class DecompositionSample(namedtuple("DecompositionSample", "z tau order lhs rhs lhs_tail")):
    """One grid point: lhs and lhs_tail from series_lhs, rhs = T1 + T - w T2 as one ball."""
    __slots__ = ()

    @property
    def residual(self):
        rhs, _ = self.rhs
        return abs(rhs - self.lhs) / max(1.0, abs(self.lhs))

    @property
    def budget(self):
        """(lhs_tail + the right side's radius)/max(1, |lhs|): what the residual may carry
        from the series tail and the evaluators, all but the left side's rounding."""
        _, radius = self.rhs
        return (self.lhs_tail + radius) / max(1.0, abs(self.lhs))


def _mod_one(z):
    """z with Re z reduced mod 1 by math.fmod, which is exact."""
    z = complex(z)
    return complex(math.fmod(z.real, 1.0), z.imag)


def verify_decomposition(z, tau, order):
    """Evaluate both sides at one point, z taken with Re z mod 1, and
    package the residual; the sample, and a pole refused at a reduced
    point, name the z given."""
    point = _mod_one(z)
    lhs, tail = series_lhs(point, tau, order)
    if tail > 1e-10 * max(1.0, abs(lhs)):
        raise DomainError(
            f"series tail bound {tail:.2e} too large at order {order}; increase it")
    try:
        rhs = T1(point, tau) + T_mid(point, tau) - _power(point, 1) * T2(point, tau)
    except PoleError as exc:
        if point == complex(z):
            raise
        raise PoleError(f"{exc}; z={complex(z)} given, Re z taken mod 1") from None
    return DecompositionSample(z=complex(z), tau=complex(tau), order=order,
                               lhs=lhs, rhs=rhs, lhs_tail=tail)


# z values avoid 0, 1/4, 1/2, 3/4 (T2 theta zeros / mu poles)
DEFAULT_GRID = tuple(
    (z, tau, DEFAULT_ORDER)
    for z in (0.1, 0.2, 1.0 / 3.0, 0.45, 0.6, 0.85)
    for tau in (0.9j, 0.5 + 0.8j)
)


def run_grid(grid):
    """Evaluate the decomposition residual on a grid of (z, tau, order)."""
    return [verify_decomposition(*p) for p in grid]


def _grid_number(point, key, default=None):
    value = point.get(key, default)
    if value is None:
        raise InputError(f"grid point {point} has no {key!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise InputError(f"grid point {point}: {key!r} must be a finite number")
    return value


def load_grid(source):
    """The (z, tau, order) points of --grid source: DEFAULT_GRID for
    "default", else a JSON file's non-empty list of finite {z_re, z_im = 0,
    tau_re = 0, tau_im, order = DEFAULT_ORDER}, order a positive integer."""
    if source == "default":
        return DEFAULT_GRID
    import json

    try:
        with open(source, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read grid {source}: {exc}") from exc
    if not isinstance(raw, list) or not raw or not all(isinstance(p, dict) for p in raw):
        raise InputError(f"grid {source} must be a non-empty JSON list of objects")
    grid = []
    for p in raw:
        order = _grid_number(p, "order", DEFAULT_ORDER)
        if order != int(order) or order < 1:
            raise InputError(f"grid point {p}: 'order' must be a positive integer")
        grid.append((complex(_grid_number(p, "z_re"), _grid_number(p, "z_im", 0.0)),
                     complex(_grid_number(p, "tau_re", 0.0), _grid_number(p, "tau_im")),
                     int(order)))
    return grid


def cmd_verify_decomposition(config):
    """The `verify-decomposition` command: a row for each point of load_grid(--grid), and
    a failure, with its budget, for each point whose residual is not below MAX_RESIDUAL."""
    samples = run_grid(load_grid(config.grid))
    # a row prints the right side's midpoint; its radius is in the budget
    rows = [(s.z, s.tau, s.order, s.lhs, s.rhs[0], s.residual, s.lhs_tail) for s in samples]
    bad = [{"z": repr(s.z), "tau": repr(s.tau), "residual": s.residual, "budget": s.budget}
           for s in samples if not s.residual < MAX_RESIDUAL]
    return rows, ("z", "tau", "order", "lhs", "rhs", "residual", "series_tail_bound"), bad
