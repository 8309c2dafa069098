"""Seeded workloads: the argv of every CLI command and the files they read.

A workload is a fixed list of ``oddbalanced`` subcommands.  The seed picks
only inputs that leave the cost unchanged (a residue, a modulus, checkpoint
positions, a transform seed, the points of a decomposition grid), so runs
with different seeds measure the same amount of work.  The same
(workload, seed) pair gives byte-identical argv and input files.

Every command writes its report to ``--output out<i>.txt`` and reads its
inputs by relative path, so the argv does not depend on where it runs: the
caller materialises the files in a work directory and runs the commands
with that directory as the current directory.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

# the decomposition grid the CLI uses for ``--grid default``
DEFAULT_GRID = tuple(
    (complex(z), complex(tau), 400)
    for z in (0.1, 0.2, 1.0 / 3.0, 0.45, 0.6, 0.85)
    for tau in (0.9j, 0.5 + 0.8j)
)

# T2 divides by theta(4z;4tau) and the mu terms have poles on the same
# lattice: generated points keep this distance from (1/4)Z + tau*Z.
POLE_GAP = 0.05

# verify-transforms prints 20 theta/eta points x 6 laws, 10 Appell rows,
# 10 Mordell rows and the origin row; used only to count the rows of a
# command that produced no output.
TRANSFORM_ROWS = 141

SCALAR_CHECKPOINTS = (900, 1200, 1800, 2400, 3000)
SCALAR_TOP = 3600
ENUMERATE_N = 24
EXPAND_N = 300


@dataclass(frozen=True)
class Command:
    argv: tuple  # arguments after ``python -m oddbalanced.cli``
    kind: str  # names the checker for the output (see checks.py)
    params: dict = field(default_factory=dict)  # what the checker needs

    @property
    def output(self):
        return self.argv[self.argv.index("--output") + 1]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    commands: tuple
    files: dict = field(default_factory=dict)  # relative path -> bytes

    def materialize(self, directory):
        """Write the input files into ``directory`` (a pathlib.Path)."""
        directory.mkdir(parents=True, exist_ok=True)
        for rel, data in self.files.items():
            (directory / rel).write_bytes(data)


def _rng(name, seed):
    # str seeds hash through sha512, independent of PYTHONHASHSEED
    return random.Random(f"{name}:{seed}")


def _numbered(specs):
    return tuple(
        Command(argv=tuple(argv) + ("--output", f"out{i}.txt"), kind=kind, params=params)
        for i, (argv, kind, params) in enumerate(specs))


def residue_reports(seed):
    """Three residue-class reports, each re-expanding the rank table to
    N ~ 600: almost all the time goes to the exact table expansion."""
    rng = _rng("residue-reports", seed)
    a = rng.randrange(3)
    c = rng.choice((3, 5, 7))
    b = rng.randrange(c)
    return Workload("residue-reports", seed, _numbered([
        (("asym-report", "--c", "3", "--a", str(a)), "asym_report",
         {"a": a, "c": 3, "checkpoints": [150, 600]}),
        (("equidistribution", "--moduli", "3,5,7"), "equidistribution",
         {"moduli": [3, 5, 7], "checkpoints": [150, 600]}),
        (("logconcavity-scan", "--c", str(c), "--a", str(b), "--n-max", "600"),
         "logconcavity", {"a": b, "c": c, "n_max": 600}),
    ]))


def scalar_growth(seed):
    """The scalar w=1 recurrence on wide integers, a large table dump and
    the brute-force enumerator."""
    rng = _rng("scalar-growth", seed)
    checkpoints = sorted(rng.sample(SCALAR_CHECKPOINTS, 2)) + [SCALAR_TOP]
    return Workload("scalar-growth", seed, _numbered([
        (("asym-report", "--c", "1", "--checkpoints", ",".join(map(str, checkpoints))),
         "asym_report", {"a": 0, "c": 1, "checkpoints": checkpoints}),
        (("expand", "--n-max", str(EXPAND_N), "--format", "json"), "expand_json",
         {"n_max": EXPAND_N}),
        (("enumerate", "--n", str(ENUMERATE_N)), "enumerate", {"n": ENUMERATE_N}),
    ]))


def numeric_checks(seed):
    """Transformation laws, the decomposition identity on the default and a
    generated grid, and the lemma ratio tests: complex-float expansions and
    the modular evaluators."""
    rng = _rng("numeric-checks", seed)
    transform_seed = rng.randrange(1, 2 ** 31)
    grid = seeded_grid(seed)
    grid_bytes = (json.dumps([
        {"z_re": z.real, "z_im": z.imag, "tau_re": tau.real, "tau_im": tau.imag,
         "order": order} for z, tau, order in grid], indent=1) + "\n").encode()
    return Workload("numeric-checks", seed, _numbered([
        (("verify-transforms", "--seed", str(transform_seed)), "transforms",
         {"rows": TRANSFORM_ROWS}),
        (("verify-decomposition", "--grid", "default"), "decomposition",
         {"grid": _grid_params(DEFAULT_GRID)}),
        (("verify-decomposition", "--grid", "grid.json"), "decomposition",
         {"grid": _grid_params(grid)}),
        (("lemma-ratios", "--moduli", "3,5,7"), "lemma_ratios",
         {"moduli": [3, 5, 7], "t_values": [0.1, 0.05, 0.025]}),
        (("lemma-ratios", "--moduli", "3", "--t-values", "0.1,0.0125"), "lemma_ratios",
         {"moduli": [3], "t_values": [0.1, 0.0125]}),
    ]), files={"grid.json": grid_bytes})


WORKLOADS = {
    "residue-reports": residue_reports,
    "scalar-growth": scalar_growth,
    "numeric-checks": numeric_checks,
}


def build(name, seed):
    return WORKLOADS[name](seed)


# ---------------------------------------------------------------------------
# Decomposition grid
# ---------------------------------------------------------------------------

def _grid_params(grid):
    return [[z.real, z.imag, tau.real, tau.imag, order] for z, tau, order in grid]


def pole_distance(z, tau):
    """Distance from z to the nearest point of (1/4)Z + tau*Z."""
    reach = int(abs(z.imag) / tau.imag) + 2
    best = math.inf
    for m in range(-reach, reach + 1):
        shifted = z - m * tau
        best = min(best, abs(shifted - round(shifted.real * 4) / 4))
    return best


def low_order(im_tau, log_tail=33.0):
    """Least N with 2*pi*Im(tau)*N - pi*sqrt(N) >= log_tail: the order at
    which the coefficient growth v(n) <= e^(pi*sqrt(n)) alone would put the
    series tail near e^-33.  That estimate ignores the growth of |w|^m, so
    for complex z it is the low-order regime where a bound built on it can
    be false."""
    n = 1
    while 2 * math.pi * im_tau * n - math.pi * math.sqrt(n) < log_tail:
        n += 1
    return n


def _point(rng, im_z, im_tau):
    while True:
        z = complex(round(rng.uniform(0.0, 1.0), 6), round(rng.uniform(-im_z, im_z), 6))
        tau = complex(round(rng.uniform(-0.5, 0.5), 6), round(rng.uniform(*im_tau), 6))
        if pole_distance(z, tau) >= POLE_GAP:
            return z, tau, low_order(tau.imag) + rng.randint(0, 8)


def seeded_grid(seed):
    return decomposition_grid(_rng("decomposition-grid", seed))


def decomposition_grid(rng, complex_points=12, real_points=4):
    """Points for ``verify-decomposition --grid``: complex z with
    |Im z| <= 0.8 at small Im(tau) and low order, where the reported series
    tail bound is known to fail, plus real z at moderate Im(tau)."""
    grid = [_point(rng, 0.8, (0.15, 0.35)) for _ in range(complex_points)]
    grid += [_point(rng, 0.0, (0.5, 1.0)) for _ in range(real_points)]
    return tuple(grid)
