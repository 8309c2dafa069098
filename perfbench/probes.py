"""Per-layer probes: each layer timed from outside through its public functions.

Every probe returns {metric name: value}.  A probe whose function is gone
or whose signature changed leaves its metrics out, and the run reports
them as missing (value null) instead of failing.  Inputs are sized to match what the workloads
feed each layer, and are drawn from the run's seed.
"""

from __future__ import annotations

import cmath
import importlib
import math
import random
import statistics
import sys
import time

import checks
import workloads


def timed(fn, prepare=None, budget=0.3, reps=5):
    """Median seconds of fn(prepare()) over up to ``reps`` repetitions,
    stopping early once ``budget`` seconds have been spent; preparation is
    not timed."""
    times = []
    spent = 0.0
    while len(times) < reps and (not times or spent < budget):
        arg = prepare() if prepare else None
        start = time.perf_counter()
        fn(arg) if prepare else fn()
        times.append(time.perf_counter() - start)
        spent += times[-1]
    return statistics.median(times)


def fitted_exponent(sizes, seconds):
    """Least-squares slope of log(seconds) against log(size)."""
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in seconds]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def _mod(name):
    return importlib.import_module(f"oddbalanced.{name}")


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def kernel_cases(rng):
    """{metric stem: (call(impl, data), prepare(), elements per call)}."""
    wide = [rng.getrandbits(260) for _ in range(3601)]  # scalar totals at N=3600
    table = [[rng.getrandbits(98) for _ in range(605)] for _ in range(67)]  # 67x605
    cplx = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(1001)]
    s = cmath.exp(2j * math.pi / 3)
    return {
        "shifted_add_one": (lambda k, c: k.shifted_add_one(c, 1), lambda: list(wide), 3600),
        "geometric_add": (lambda k, c: k.geometric_add(c, 1), lambda: list(wide), 3600),
        "acc_add": (lambda k, c: k.acc_add(c, wide), lambda: list(wide), 3601),
        "table_mul_w": (lambda k, t: k.table_mul_w(t, 1),
                        lambda: [list(col) for col in table], 66 * 604),
        "table_geometric": (lambda k, t: k.table_geometric(t, 1),
                            lambda: [list(col) for col in table], 67 * 604),
        "shifted_add.complex": (lambda k, c: k.shifted_add(c, 1, s), lambda: list(cplx), 1000),
    }


def _ns_per_elem(impl, case):
    call, prepare, elems = case
    return timed(lambda data: call(impl, data), prepare) / elems * 1e9


def probe_kernels(ctx):
    import oddbalanced

    out = {"kernels.compiled": int(bool(oddbalanced.USING_COMPILED))}
    kernels = _mod("kernels")
    cases = kernel_cases(ctx["rng"])
    for stem, case in cases.items():
        out[f"kernels.{stem}.ns_per_elem"] = _ns_per_elem(kernels, case)
    # lane comparison only where the compiled extension imports
    try:
        pure, compiled = _mod("_kernels_py"), _mod("_speedups")
    except ImportError:
        return out
    for stem, case in cases.items():
        ctx["extra"][f"kernels.{stem}.pure_over_compiled"] = (
            _ns_per_elem(pure, case) / _ns_per_elem(compiled, case))
    return out


# ---------------------------------------------------------------------------
# genfunc
# ---------------------------------------------------------------------------

RANK_SIZES = (150, 300, 600)
TOTAL_SIZES = (900, 1800, 3600)
EVAL_ORDERS = (200, 400, 1000)


def _build_timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def probe_genfunc(ctx):
    genfunc = _mod("genfunc")
    out = {}
    rank_s = []
    for n in RANK_SIZES:
        if n == RANK_SIZES[-1]:
            seconds, table = _build_timed(lambda: genfunc.expand_V_rank(n))
        else:
            seconds = timed(lambda: genfunc.expand_V_rank(n), reps=3)
        rank_s.append(seconds)
        out[f"genfunc.expand_V_rank.s.n{n}"] = seconds
    out["genfunc.expand_V_rank.exponent"] = fitted_exponent(RANK_SIZES, rank_s)
    ctx["table"] = table
    cols = list(table.columns.values())
    out["genfunc.expand_V_rank.fill_ratio"] = (
        sum(1 for col in cols for x in col if x) / sum(len(col) for col in cols))
    out["genfunc.expand_V_rank.max_bits"] = max(abs(x).bit_length() for col in cols for x in col)

    total_s = []
    for n in TOTAL_SIZES:
        seconds, _ = _build_timed(lambda: genfunc.expand_v_totals(n))
        total_s.append(seconds)
        out[f"genfunc.expand_v_totals.s.n{n}"] = seconds
    out["genfunc.expand_v_totals.exponent"] = fitted_exponent(TOTAL_SIZES, total_s)

    n = RANK_SIZES[-1] + 1
    out[f"genfunc.expand_overpartition.s.n{n}"] = timed(lambda: genfunc.expand_overpartition(n))
    ctx["overpartitions"] = genfunc.expand_overpartition(n)

    w, q = cmath.exp(2j * math.pi / 3), math.exp(-2 * math.pi * 0.05)
    eval_s = []
    for order in EVAL_ORDERS:
        eval_s.append(timed(lambda: genfunc.evaluate_V(w, q, order)))
        out[f"genfunc.evaluate_V.s.o{order}"] = eval_s[-1]
    out["genfunc.evaluate_V.exponent"] = fitted_exponent(EVAL_ORDERS, eval_s)
    return out


# ---------------------------------------------------------------------------
# enumerator, modular, transforms, decomposition, asymptotics
# ---------------------------------------------------------------------------

ENUMERATE_PROBE_N = 20


def probe_enumerator(ctx):
    enumerate_sequences = _mod("enumerator").enumerate_sequences
    count = len(enumerate_sequences(ENUMERATE_PROBE_N))
    seconds = timed(lambda: enumerate_sequences(ENUMERATE_PROBE_N), reps=3)
    return {"enumerator.enumerate_sequences.seqs_per_s": count / seconds}


def modular_points(rng, npoints=20):
    """Points drawn like the verify-transforms grids: (z, tau) for theta and
    eta, (z, tau) for Mordell, (u, v, tau) for Appell and mu."""
    pts = []
    for _ in range(npoints):
        tau = complex(rng.uniform(-1, 1), rng.uniform(0.3, 2.0))
        z = rng.uniform(0.05, 1.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        hz = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.1, 0.1))
        htau = complex(rng.uniform(-0.2, 0.2), rng.uniform(0.4, 1.5))
        u = complex(rng.uniform(0.08, 0.42), rng.uniform(0.02, 0.25))
        v = rng.uniform(0.1, 0.45)
        atau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.5, 1.5))
        pts.append((z, tau, hz, htau, u, v, atau))
    return pts


def _calls_per_s(call, points, budget=0.25):
    calls = 0
    start = time.perf_counter()
    while True:
        for p in points:
            call(*p)
        calls += len(points)
        elapsed = time.perf_counter() - start
        if elapsed >= budget:
            return calls / elapsed


def probe_modular(ctx):
    modular = _mod("modular")
    pts = modular_points(ctx["rng"])
    calls = {
        "theta": lambda z, tau, *_: modular.theta(z, tau),
        "eta": lambda z, tau, *_: modular.eta(tau),
        "mordell": lambda z, tau, hz, htau, *_: modular.mordell(hz, htau),
        "appell": lambda *p: modular.appell(1, p[4], p[5], p[6]),
        "mu": lambda *p: modular.mu(p[4] + 0.5, 0.5, p[6]),
    }
    return {f"modular.{name}.calls_per_s": _calls_per_s(call, pts)
            for name, call in calls.items()}


def probe_transforms(ctx):
    transforms = _mod("transforms")
    seed = ctx["rng"].randrange(1, 2 ** 31)
    return {"transforms.all_rows.s": timed(lambda: transforms.all_rows(seed=seed), reps=3)}


def probe_decomposition(ctx):
    d = _mod("decomposition")
    lhs_s, rhs_s = [], []
    for z, tau, order in workloads.DEFAULT_GRID:
        lhs_s.append(timed(lambda: d.series_lhs(z, tau, order), reps=3))
        rhs_s.append(timed(lambda: (d.T1(z, tau), d.T_mid(z, tau), d.T2(z, tau)), reps=3))
    violations = 0
    for z, tau, order in workloads.seeded_grid(ctx["seed"]):
        try:
            sample = d.verify_decomposition(z, tau, order)
        except (ValueError, ArithmeticError) as exc:
            print(f"decomposition probe: {z} {tau} {order}: {exc}", file=sys.stderr)
            continue
        violations += checks.bound_is_false(z, tau, sample.lhs, sample.lhs_tail)
    return {"decomposition.series_lhs.s": statistics.fmean(lhs_s),
            "decomposition.rhs.s": statistics.fmean(rhs_s),
            "decomposition.bound_violations": violations}


def probe_asymptotics(ctx):
    asymptotics = _mod("asymptotics")
    table, pbar = ctx.get("table"), ctx.get("overpartitions")
    if table is None or pbar is None:
        raise LookupError("needs the rank table and overpartitions from the genfunc probe")
    n = table.max_n
    return {
        "asymptotics.asym_report.s": timed(
            lambda: asymptotics.asym_report(1, 3, (n // 4, n), table=table)),
        "asymptotics.equidistribution_stat.s": timed(
            lambda: asymptotics.equidistribution_stat(table, 7, n)),
        "asymptotics.logconcavity_scan.s": timed(
            lambda: asymptotics.logconcavity_scan(1, 3, n - 1, table, pbar)),
        "asymptotics.lemma_ratio_report.s": timed(
            lambda: asymptotics.lemma_ratio_report((3,), (0.1, 0.05, 0.025)), reps=1),
    }


PROBES = (probe_kernels, probe_genfunc, probe_enumerator, probe_modular,
          probe_transforms, probe_decomposition, probe_asymptotics)


def run_probes(seed):
    """Run every probe; returns ({metric: value}, {extra metric: value}).
    The metrics of a probe that cannot run are left out, and reported as
    missing by the caller."""
    ctx = {"seed": seed, "rng": random.Random(f"probes:{seed}"), "extra": {}}
    values = {}
    for probe in PROBES:
        try:
            values.update(probe(ctx))
        except (AttributeError, TypeError, ImportError, LookupError) as exc:
            print(f"{probe.__name__}: metrics missing ({type(exc).__name__}: {exc})",
                  file=sys.stderr)
    return values, ctx["extra"]
