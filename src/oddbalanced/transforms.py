"""Numerical verification of the theta/eta/Appell/Mordell transformation laws.

Each law is checked as a residual |lhs - rhs| / max(|lhs|, |rhs|) on a
deterministic pseudo-random grid (fixed seed, so CLI output is byte-stable).
The residual thresholds live with the callers; this module only produces the
rows."""

from __future__ import annotations

import cmath
import math
import random
from collections import namedtuple

from .modular import appell, eta, mordell, sqrt_neg_itau, theta

PI_I = 1j * math.pi


LawResidual = namedtuple("LawResidual", "law point residual")


def _residual(lhs, rhs):
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)


def _theta_eta_laws(z, tau):
    th = theta(z, tau).value
    e = eta(tau).value
    yield "theta_shift_z_plus_1", theta(z + 1, tau).value, -th
    yield ("theta_shift_z_plus_tau", theta(z + tau, tau).value,
           -cmath.exp(-PI_I * tau - 2 * PI_I * z) * th)
    yield ("theta_shift_tau_plus_1", theta(z, tau + 1).value,
           cmath.exp(PI_I / 4) * th)
    yield ("theta_inversion", theta(z / tau, -1 / tau).value,
           -1j * sqrt_neg_itau(tau) * cmath.exp(PI_I * z * z / tau) * th)
    yield "eta_inversion", e, eta(-1 / tau).value / sqrt_neg_itau(tau)
    yield "eta_shift_tau_plus_1", eta(tau + 1).value, cmath.exp(PI_I / 12) * e


def theta_eta_grid(npoints=20, seed=20260810):
    """Prop-style theta and eta laws on a random grid with
    Im tau in [0.3, 2], |Re tau| <= 1, |z| <= 1."""
    rng = random.Random(seed)
    rows = []
    for _ in range(npoints):
        tau = complex(rng.uniform(-1, 1), rng.uniform(0.3, 2.0))
        r, phi = rng.uniform(0.05, 1.0), rng.uniform(0, 2 * math.pi)
        z = r * cmath.exp(1j * phi)
        point = f"z={z:.6f};tau={tau:.6f}"
        for law, lhs, rhs in _theta_eta_laws(z, tau):
            rows.append(LawResidual(law, point, _residual(lhs, rhs)))
    return rows


def appell_transformation_residual(u, v, tau):
    """Residual of the level-1 Appell inversion law
    -(1/tau) e^(pi i (u^2-2uv)/tau) A_1(u/tau, v/tau; -1/tau) + A_1(u,v;tau)
        = (1/2i) h(u-v;tau) theta(v;tau)."""
    lhs = (-(1 / tau) * cmath.exp(PI_I * (u * u - 2 * u * v) / tau)
           * appell(1, u / tau, v / tau, -1 / tau).value
           + appell(1, u, v, tau).value)
    rhs = mordell(u - v, tau).value * theta(v, tau).value / 2j
    return _residual(lhs, rhs)


def appell_grid(npoints=10, seed=20260810):
    """Appell inversion law on points kept away from the torsion poles."""
    rng = random.Random(seed)
    rows = []
    while len(rows) < npoints:
        u = complex(rng.uniform(0.08, 0.42), rng.uniform(0.02, 0.25))
        v = rng.uniform(0.1, 0.45)
        tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.5, 1.5))
        point = f"u={u:.6f};v={v:.6f};tau={tau:.6f}"
        rows.append(LawResidual("appell_level1_inversion", point,
                                appell_transformation_residual(u, v, tau)))
    return rows


def mordell_grid(npoints=10, seed=20260810):
    """Mordell inversion law h(z/tau;-1/tau) = sqrt(-i tau) e^(-pi i z^2/tau) h(z;tau)."""
    rng = random.Random(seed)
    rows = []
    for _ in range(npoints):
        z = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.1, 0.1))
        tau = complex(rng.uniform(-0.2, 0.2), rng.uniform(0.4, 1.5))
        lhs = mordell(z / tau, -1 / tau).value
        rhs = sqrt_neg_itau(tau) * cmath.exp(-PI_I * z * z / tau) * mordell(z, tau).value
        point = f"z={z:.6f};tau={tau:.6f}"
        rows.append(LawResidual("mordell_inversion", point, _residual(lhs, rhs)))
    return rows


def mordell_origin_row():
    """h(0;0) = 1 exactly."""
    val = mordell(0, 0).value
    return LawResidual("mordell_value_at_origin", "z=0;tau=0", abs(val - 1.0))


def all_rows(seed=20260810):
    rows = []
    rows.extend(theta_eta_grid(seed=seed))
    rows.extend(appell_grid(seed=seed))
    rows.extend(mordell_grid(seed=seed))
    rows.append(mordell_origin_row())
    return rows
