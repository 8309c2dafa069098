"""Batch command-line front end.

Every verification and report is a subcommand with machine-readable output
(CSV or JSON) and a deterministic evaluation order, so identical invocations
produce identical bytes.  Exit codes: 0 all checks passed, 1 a threshold
check failed (a JSON failure record goes to stderr), 2 usage error (a
one-line message goes to stderr).

Each command starts in a fresh process, so start-up is part of its cost.
Importing this module loads only the standard library and the package's
kernel lane (kernels); each handler imports the layers it runs.  The exact
commands load genfunc (the reports also asymptotics, never modular),
enumerate loads enumerator, and the numeric commands load modular
with transforms, decomposition or asymptotics, never the exact engine.
json loads only for --format json, a --grid file or a failure record, and
no command loads a third-party package: asym-report's main terms are
standard-library decimal arithmetic.
"""

from __future__ import annotations

import argparse
import math
import sys

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    """Input the command cannot run on; main turns it into exit code 2."""


def _numeric_domain(fn, *args):
    """Run fn, reporting a point outside the evaluators' domain (or on a
    pole) as a usage error."""
    from .modular import DomainError, PoleError

    try:
        return fn(*args)
    except (DomainError, PoleError) as exc:
        raise UsageError(str(exc)) from exc
    except (OverflowError, ValueError) as exc:
        # cmath/math reject arguments whose result leaves the float range
        # (an overflow) or is undefined there (a "math domain error")
        raise UsageError(f"a value leaves the float range ({exc})") from exc


class RunConfig(argparse.Namespace):
    """The settings of one run, named as the parser stores them.  main has
    the parser fill one from argv; RunConfig(command, **settings) takes the
    parser's defaults for the command and then the given settings, so every
    default has its one home in build_parser."""

    def __init__(self, command=None, **settings):
        if command is not None:
            build_parser().parse_args([command], self)
        vars(self).update(settings)


def _fmt(x):
    # str of a float or complex is its shortest round-trip repr
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    return str(x)


def _emit(text, config):
    """Write text to --output, or to stdout when none is given."""
    if not config.output:
        sys.stdout.write(text)
        return
    try:
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write --output {config.output}: "
                         f"{exc.strerror or exc}") from exc


def _write_rows(rows, header, config):
    """Emit rows (list of dicts) in the configured format."""
    if config.fmt == "json":
        from json.encoder import encode_basestring_ascii as quote

        # the layout of json.dumps(payload, indent=1), whose indented
        # encoder is pure Python: one template per row, made from the
        # header, and each cell quoted by the C function json.dumps calls
        # for a str
        template = " {\n" + ",\n".join(
            "  " + quote(k).replace("%", "%%") + ": %s" for k in header) + "\n }"
        objects = [template % tuple([quote(_fmt(r.get(h))) for h in header])
                   for r in rows]
        text = "[\n" + ",\n".join(objects) + "\n]\n" if rows else "[]\n"
    else:
        lines = [",".join(header)]
        for r in rows:
            lines.append(",".join(_fmt(r.get(k)) for k in header))
        text = "\n".join(lines) + "\n"
    _emit(text, config)


def _fail(check, detail):
    import json

    record = {"status": "fail", "check": check, "detail": detail}
    sys.stderr.write(json.dumps(record) + "\n")
    return EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_expand(config):
    from . import genfunc

    if config.n_max < 0:
        raise UsageError(f"--n-max must be >= 0, got {config.n_max}")
    table = genfunc.expand_V_rank(config.n_max)
    rows = [{"n": n, "m": m, "count": cnt} for n, m, cnt in table.nonzero_items()]
    _write_rows(rows, ["n", "m", "count"], config)
    return EXIT_OK


def cmd_enumerate(config):
    from . import enumerator

    if config.n < 0:
        raise UsageError(f"--n must be >= 0, got {config.n}")
    # every field is an int, so this is compact json.dumps output.  Every
    # sequence has size 2n+2 and every part is at most that, so the decimal
    # strings are made once; each side is written from its components,
    # once per distinct (evens, odds) pair, since many sequences share one
    size = 2 * config.n + 2
    part = [str(k) for k in range(size + 1)]
    line = '{"size":%d,"sequence":[%%s%%d%%s],"peak":%%d,"rank":%%d}\n' % size
    lefts, rights = {}, {}
    lines = []
    for peak, left, right, odds in enumerator.enumerate_sequences(config.n):
        ascending = lefts.get((left, odds))
        if ascending is None:
            ascending = lefts[left, odds] = "".join(
                [part[k] + "," for k in sorted(left + odds)])
        descending = rights.get((right, odds))
        if descending is None:
            descending = rights[right, odds] = "".join(
                ["," + part[k] for k in sorted(right + odds, reverse=True)])
        lines.append(line % (ascending, peak, descending, peak,
                             len(right) - len(left)))
    _emit("".join(lines), config)
    return EXIT_OK


# per-law residual ceilings; --max-residual overrides all of them
TRANSFORM_THRESHOLDS = {
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


def _check_max_residual(config):
    if config.max_residual is not None and not config.max_residual >= 0:
        raise UsageError(f"--max-residual must be >= 0, got {config.max_residual}")


def cmd_verify_transforms(config):
    from . import transforms

    _check_max_residual(config)
    rows = transforms.all_rows(seed=config.seed)
    out = [{"law": r.law, "point": r.point, "residual": r.residual} for r in rows]
    _write_rows(out, ["law", "point", "residual"], config)
    failures = []
    for r in rows:
        limit = (TRANSFORM_THRESHOLDS[r.law] if config.max_residual is None
                 else config.max_residual)
        if not r.residual < limit:
            failures.append({"law": r.law, "point": r.point,
                             "residual": r.residual, "limit": limit})
    if failures:
        return _fail("verify-transforms", failures)
    return EXIT_OK


def _grid_number(point, key, default=None):
    value = point.get(key, default)
    if value is None:
        raise UsageError(f"grid point {point} has no {key!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise UsageError(f"grid point {point}: {key!r} must be a finite number")
    return value


def _load_grid(source):
    from . import decomposition

    if source == "default":
        return decomposition.DEFAULT_GRID
    import json

    try:
        with open(source, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read grid {source}: {exc}") from exc
    if not isinstance(raw, list) or not raw or not all(isinstance(p, dict) for p in raw):
        raise UsageError(f"grid {source} must be a non-empty JSON list of objects")
    grid = []
    for p in raw:
        order = _grid_number(p, "order", 400)
        if order != int(order) or order < 1:
            raise UsageError(f"grid point {p}: 'order' must be a positive integer")
        grid.append((complex(_grid_number(p, "z_re"), _grid_number(p, "z_im", 0.0)),
                     complex(_grid_number(p, "tau_re", 0.0), _grid_number(p, "tau_im")),
                     int(order)))
    return grid


def cmd_verify_decomposition(config):
    from . import decomposition

    _check_max_residual(config)
    grid = _load_grid(config.grid)
    samples = _numeric_domain(decomposition.run_grid, grid)
    rows = [{
        "z": s.z, "tau": s.tau, "order": s.order,
        "lhs": s.lhs, "rhs": s.rhs, "residual": s.residual,
        "series_tail_bound": s.lhs_tail,
    } for s in samples]
    _write_rows(rows, ["z", "tau", "order", "lhs", "rhs", "residual",
                       "series_tail_bound"], config)
    limit = config.max_residual
    bad = [{"z": repr(s.z), "tau": repr(s.tau), "residual": s.residual}
           for s in samples if not s.residual < limit]
    if bad:
        return _fail("verify-decomposition", bad)
    return EXIT_OK


def _check_checkpoints(checkpoints):
    if not all(n >= 1 for n in checkpoints):
        raise UsageError(f"checkpoints must be >= 1, got {','.join(map(str, checkpoints))}")


def _check_residue(config):
    if config.modulus < 1 or not 0 <= config.residue < config.modulus:
        raise UsageError(f"need 0 <= a < c, got a={config.residue}, c={config.modulus}")


def cmd_asym_report(config):
    from . import asymptotics, genfunc

    _check_residue(config)
    if config.precision < 30:
        raise UsageError("--precision below 30 digits is not meaningful here")
    if config.modulus % 2 == 0 and not config.allow_even:
        raise UsageError(f"c={config.modulus} is even, so no main term applies; "
                         "pass --allow-even to tabulate the exact counts only")
    checkpoints = config.checkpoints or ((100, 400, 1600) if config.modulus == 1
                                         else (150, 600))
    _check_checkpoints(checkpoints)
    top = max(checkpoints)
    if config.modulus == 1:
        totals = genfunc.expand_v_totals(top)
        report = asymptotics.asym_report(0, 1, checkpoints, totals=totals,
                                         dps=config.precision)
    else:
        table = genfunc.expand_V_rank(top, config.modulus)
        report = asymptotics.asym_report(config.residue, config.modulus,
                                         checkpoints, table=table,
                                         dps=config.precision,
                                         allow_even=config.allow_even)
    rows = [r.as_dict(config.precision) for r in report.rows]
    for row, (_, stat) in zip(rows, report.equidistribution):
        row["equidistribution_stat"] = stat
    header = ["n", "exact", "main_term", "ratio"]
    if report.equidistribution:
        header.append("equidistribution_stat")
    _write_rows(rows, header, config)
    return EXIT_OK


def cmd_equidistribution(config):
    from . import asymptotics, genfunc

    if not config.moduli or min(config.moduli) < 2:
        raise UsageError("moduli must be >= 2, so that the residue classes "
                         "can differ")
    checkpoints = config.checkpoints or (150, 600)
    _check_checkpoints(checkpoints)
    if len(checkpoints) < 2:
        raise UsageError("the statistic must shrink between checkpoints, "
                         "so at least two distinct ones are needed")
    rows = []
    decreasing = True
    for c in config.moduli:
        table = genfunc.expand_V_rank(max(checkpoints), c)
        stats = [(n, asymptotics.equidistribution_stat(table, c, n))
                 for n in sorted(checkpoints)]
        for n, stat in stats:
            rows.append({"c": c, "n": n, "stat": stat})
        if stats[-1][1] >= stats[0][1]:
            decreasing = False
    _write_rows(rows, ["c", "n", "stat"], config)
    if not decreasing:
        return _fail("equidistribution", "statistic did not shrink across checkpoints")
    return EXIT_OK


def cmd_logconcavity_scan(config):
    from . import asymptotics, genfunc

    _check_residue(config)
    n_max = config.n_max
    if n_max < 1:
        raise UsageError(f"--n-max must be >= 1, got {n_max}")
    table = genfunc.expand_V_rank(n_max + 1, config.modulus)
    pbar = genfunc.expand_overpartition(n_max + 1)
    report = asymptotics.logconcavity_scan(config.residue, config.modulus,
                                           n_max, table, pbar)
    rows = [{
        "residue": report.residue,
        "modulus": report.modulus,
        "n_max": report.n_max,
        "square_threshold": report.square_threshold,
        "square_violation_count": len(report.square_violations),
        "square_fails_to_end": report.square_fails_to_end,
        "double_threshold": report.double_threshold,
        "double_scan_max": report.double_scan_max,
        "double_violation_count": len(report.double_violations),
        "bound_threshold": report.bound_threshold,
        "bound_violation_count": len(report.bound_violations),
    }]
    _write_rows(rows, list(rows[0].keys()), config)
    # The squared reading failing all the way to the top is an expected
    # finding (the counts grow log-concavely): it is reported in the
    # square_fails_to_end column, loudly, but does not fail the run.  The
    # doubled-argument reading and the overpartition bound are unambiguous
    # claims and must stabilise below the top of the range.
    if report.double_fails_to_end:
        return _fail("logconcavity-scan", {
            "reading": "doubled-argument", "threshold": report.double_threshold})
    if report.bound_fails_to_end:
        return _fail("logconcavity-scan", {
            "reading": "overpartition-bound", "threshold": report.bound_threshold})
    return EXIT_OK


def cmd_lemma_ratios(config):
    from . import asymptotics

    if not config.moduli:
        raise UsageError("no moduli given, so there is nothing to check")
    bad = [c for c in config.moduli if c < 3 or c % 2 == 0]
    if bad:
        raise UsageError(f"moduli must be odd and >= 3, so that no z=j/c is "
                         f"1/4, 1/2 or 3/4; got c={bad[0]}")
    if not all(t > 0 and math.isfinite(t) for t in config.t_values):
        raise UsageError("t-values must be positive and finite")
    ts = sorted(config.t_values, reverse=True)
    if len(ts) < 2:
        raise UsageError("the ratio test needs at least two distinct t-values")
    rows_raw = _numeric_domain(asymptotics.lemma_ratio_report,
                               config.moduli, config.t_values)
    rows = [{
        "c": r.modulus, "j": r.j, "t": r.t,
        "series_value": r.series_value, "main_term": r.main_term,
        "deviation": r.deviation, "series_tail_bound": r.series_tail_bound,
    } for r in rows_raw]
    _write_rows(rows, ["c", "j", "t", "series_value", "main_term", "deviation",
                       "series_tail_bound"], config)
    failures = []
    for c in config.moduli:
        for j in range(1, c):
            devs = {r.t: r.deviation for r in rows_raw
                    if r.modulus == c and r.j == j}
            if not devs[ts[-1]] < devs[ts[0]]:
                failures.append({"c": c, "j": j, "devs": devs})
    if failures:
        return _fail("lemma-ratios", failures)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def dispatch(config):
    handlers = {
        "expand": cmd_expand,
        "enumerate": cmd_enumerate,
        "verify-transforms": cmd_verify_transforms,
        "verify-decomposition": cmd_verify_decomposition,
        "asym-report": cmd_asym_report,
        "equidistribution": cmd_equidistribution,
        "logconcavity-scan": cmd_logconcavity_scan,
        "lemma-ratios": cmd_lemma_ratios,
    }
    return handlers[config.command](config)


def _number_list(kind):
    """Parser of a comma-separated list; a repeated value is kept once, at
    its first place, so that no row is printed twice."""
    def parse(text):
        try:
            return tuple(dict.fromkeys(kind(x) for x in text.split(",") if x))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {kind.__name__}s, got {text!r}") from None
    return parse


_int_list = _number_list(int)
_float_list = _number_list(float)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose errors are one stderr line, like UsageError's;
    the subcommand parsers inherit it."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser():
    p = _Parser(
        prog="oddbalanced",
        description="Exact counts, modular transformation checks and "
                    "asymptotic reports for odd-balanced unimodal sequences.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        sp.add_argument("--output", default=None, help="file path (default stdout)")
        sp.add_argument("--precision", type=int, default=50,
                        help="significant digits for high-precision columns")

    sp = sub.add_parser("expand", help="dump the exact rank table v(m,n)")
    sp.add_argument("--n-max", type=int, default=10)
    common(sp)

    sp = sub.add_parser("enumerate", help="list all sequences of size 2n+2 as JSON lines")
    sp.add_argument("--n", type=int, default=5)
    common(sp)

    sp = sub.add_parser("verify-transforms",
                        help="residual table for the transformation laws")
    sp.add_argument("--seed", type=int, default=20260810)
    sp.add_argument("--max-residual", type=float, default=None,
                    help="override every per-law threshold")
    common(sp)

    sp = sub.add_parser("verify-decomposition",
                        help="residuals of the three-term decomposition identity")
    sp.add_argument("--grid", default="default",
                    help='"default" or a JSON file of {z_re, z_im, tau_re, tau_im, order}')
    sp.add_argument("--max-residual", type=float, default=1e-7)
    common(sp)

    sp = sub.add_parser("asym-report", help="exact counts vs main term at checkpoints")
    sp.add_argument("--a", dest="residue", type=int, default=0)
    sp.add_argument("--c", dest="modulus", type=int, default=1)
    sp.add_argument("--checkpoints", type=_int_list, default=())
    sp.add_argument("--allow-even", action="store_true",
                    help="tabulate exact counts for even c (no main-term column)")
    common(sp)

    sp = sub.add_parser("equidistribution",
                        help="max_a |c v(a,c;n)/v(n) - 1| at checkpoints")
    sp.add_argument("--moduli", type=_int_list, default=(3, 5, 7))
    sp.add_argument("--checkpoints", type=_int_list, default=())
    common(sp)

    sp = sub.add_parser("logconcavity-scan",
                        help="product inequalities and the overpartition bound")
    sp.add_argument("--a", dest="residue", type=int, default=0)
    sp.add_argument("--c", dest="modulus", type=int, default=1)
    sp.add_argument("--n-max", type=int, default=600)
    common(sp)

    sp = sub.add_parser("lemma-ratios",
                        help="series value over interval main term at z=j/c")
    sp.add_argument("--moduli", type=_int_list, default=(3, 5))
    sp.add_argument("--t-values", type=_float_list, default=(0.1, 0.05, 0.025))
    common(sp)

    return p


def main(argv=None):
    config = build_parser().parse_args(argv, RunConfig())
    try:
        return dispatch(config)
    except UsageError as exc:
        sys.stderr.write(f"oddbalanced {config.command}: error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
