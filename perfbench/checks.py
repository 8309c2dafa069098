"""Output checks for every command kind a workload runs.

Each checker walks the rows the command should have produced and returns,
per row, the list of reasons it failed (empty when it passed).  Exact
integers are compared against reference.json; numeric rows against the
CLI's own limits, copied here so that loosening them in the program shows;
decomposition rows also against the truth of their reported series tail
bound, measured against an independent direct summation of V.

A row can fail for a contract reason (wrong value, missing, over a limit)
or only because its reported error bound is smaller than its real error.
Contract failures make the command count as failed; bound failures are the
known defect of the truncated complex expansion and are counted apart
(``bound_violations``).  Both count in the row fail ratio.
"""

from __future__ import annotations

import cmath
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import mpmath as mp

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# verify-transforms per-law residual ceilings, as the CLI sets them
TRANSFORM_LIMITS = {
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
DECOMPOSITION_LIMIT = 1e-7  # verify-decomposition --max-residual default

# A reported tail bound is false when the real error exceeds it by more than
# float rounding; the rounding of the CLI's expansion measured against the
# direct sum stays below 1e-15 relative, so 1e-13 leaves a wide margin.
ROUNDING_ALLOWANCE = 1e-13

MP_DIGITS = 50  # the CLI's default --precision
MP_TOLERANCE = mp.mpf(10) ** -40


@lru_cache(maxsize=1)
def reference():
    return json.loads(REFERENCE_PATH.read_text())


def rank_digest(poly):
    """Short digest of one rank polynomial {m: v(m,n)} (nonzero entries)."""
    text = ";".join(f"{m}:{poly[m]}" for m in sorted(poly))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Independent evaluation of the decomposition's series side
# ---------------------------------------------------------------------------

def direct_V(w, q, max_terms=100000):
    """V(w;q) by summing the outer series term by term:
    t_0 = 1/(1-q),  t_n = t_{n-1} (1+w q^n)(1+q^n/w) q / (1-q^(2n+1))."""
    term = 1 / (1 - q)
    total = term
    qn = 1
    for _ in range(1, max_terms):
        qn *= q
        term *= (1 + w * qn) * (1 + qn / w) * q / (1 - qn * qn * q)
        total += term
        if abs(term) < 1e-18 * abs(total) and abs(qn) < 1e-3:
            return total
    raise ArithmeticError(f"direct sum of V did not converge (w={w}, q={q})")


@lru_cache(maxsize=256)
def lhs_reference(z, tau):
    """(1 + 1/w) q V(w;q) at w = e^(2 pi i z), q = e^(2 pi i tau)."""
    w = cmath.exp(2j * math.pi * z)
    q = cmath.exp(2j * math.pi * tau)
    return (1 + 1 / w) * q * direct_V(w, q)


def bound_is_false(z, tau, lhs, bound):
    """True when |lhs - exact| exceeds the reported bound beyond rounding."""
    exact = lhs_reference(complex(z), complex(tau))
    return abs(lhs - exact) > bound + ROUNDING_ALLOWANCE * max(1.0, abs(exact))


# ---------------------------------------------------------------------------
# Checkers: (params, output text) -> list of per-row reason lists
# ---------------------------------------------------------------------------

def _csv_rows(text):
    return list(csv.DictReader(io.StringIO(text))) if text else []


def _close(got, want, tol=MP_TOLERANCE):
    with mp.workdps(MP_DIGITS + 10):
        return abs(mp.mpf(got) - want) <= tol * abs(want)


def _main_term(c, n):
    with mp.workdps(MP_DIGITS + 10):
        return mp.e ** (mp.pi * mp.sqrt(n)) / (16 * c * mp.mpf(n) ** mp.mpf(0.75))


def _residue(c, a, n):
    if c == 1:
        return reference()["total"][str(n)]
    return reference()["residue"][str(c)][str(a)][str(n)]


def _equidistribution(c, n):
    total = reference()["total"][str(n)]
    return max(abs(c * _residue(c, a, n) / total - 1.0) for a in range(c))


def check_asym_report(params, text):
    c, a = params["c"], params["a"]
    rows = {r.get("n"): r for r in _csv_rows(text)}
    out = []
    for n in params["checkpoints"]:
        r = rows.get(str(n))
        if r is None:
            out.append(["missing"])
            continue
        reasons = []
        try:
            exact = int(r["exact"])
            main = _main_term(c, n)
            if exact != _residue(c, a, n):
                reasons.append("exact")
            if not _close(r["main_term"], main):
                reasons.append("main_term")
            with mp.workdps(MP_DIGITS + 10):
                if not _close(r["ratio"], mp.mpf(exact) / main):
                    reasons.append("ratio")
            if c > 1 and abs(float(r["equidistribution_stat"]) - _equidistribution(c, n)) > 1e-12:
                reasons.append("equidistribution_stat")
        except (KeyError, ValueError, TypeError):
            reasons.append("unparsable")
        out.append(reasons)
    return out


def check_equidistribution(params, text):
    rows = {(r.get("c"), r.get("n")): r for r in _csv_rows(text)}
    out = []
    for c in params["moduli"]:
        for n in params["checkpoints"]:
            r = rows.get((str(c), str(n)))
            if r is None:
                out.append(["missing"])
                continue
            try:
                ok = abs(float(r["stat"]) - _equidistribution(c, n)) <= 1e-12
            except (KeyError, ValueError):
                ok = False
            out.append([] if ok else ["stat"])
    return out


def check_logconcavity(params, text):
    rows = _csv_rows(text)
    want = reference()["logconcavity"][str(params["c"])][str(params["a"])]
    if len(rows) != 1:
        return [["missing"]]
    r = rows[0]
    wrong = [k for k, v in want.items()
             if r.get(k) != (str(v).lower() if isinstance(v, bool) else str(v))]
    if (r.get("residue"), r.get("modulus"), r.get("n_max")) != (
            str(params["a"]), str(params["c"]), str(params["n_max"])):
        wrong.append("arguments")
    return [wrong]


def check_expand_json(params, text):
    try:
        entries = json.loads(text)
    except ValueError:
        entries = []
    polys = {}
    bad = set()
    for e in entries:
        try:
            n, m, cnt = int(e["n"]), int(e["m"]), int(e["count"])
        except (KeyError, ValueError, TypeError):
            continue
        if cnt <= 0:
            bad.add(n)
        polys.setdefault(n, {})[m] = cnt
    digests = reference()["rank_digest"]
    return [[] if n not in bad and rank_digest(polys.get(n, {})) == digests[n] else ["table"]
            for n in range(params["n_max"] + 1)]


def check_enumerate(params, text):
    n = params["n"]
    want = {int(m): cnt for m, cnt in reference()["enumerate"]["by_rank"].items()}
    got = {}
    bad = set()
    for line in text.splitlines():
        try:
            s = json.loads(line)
            seq, rank = s["sequence"], s["rank"]
            if (s["size"] != 2 * n + 2 or sum(seq) != s["size"]
                    or s["peak"] != max(seq) or s["peak"] % 2):
                bad.add(rank)
        except (ValueError, KeyError, TypeError):
            bad.add(None)
            continue
        got[rank] = got.get(rank, 0) + 1
    out = [[] if m not in bad and got.get(m) == cnt else ["count"]
           for m, cnt in sorted(want.items())]
    out += [["unexpected"] for m in got if m not in want]
    if None in bad:
        out.append(["unparsable"])
    return out


def check_transforms(params, text):
    out = []
    for r in _csv_rows(text):
        limit = TRANSFORM_LIMITS.get(r.get("law"))
        try:
            ok = limit is not None and float(r["residual"]) < limit
        except (KeyError, ValueError):
            ok = False
        out.append([] if ok else ["residual"])
    return out or [["missing"]]


def check_decomposition(params, text):
    rows = _csv_rows(text)
    out = []
    for i, (z_re, z_im, tau_re, tau_im, order) in enumerate(params["grid"]):
        z, tau = complex(z_re, z_im), complex(tau_re, tau_im)
        if i >= len(rows):
            out.append(["missing"])
            continue
        r = rows[i]
        reasons = []
        try:
            if (abs(complex(r["z"]) - z) > 1e-12 or abs(complex(r["tau"]) - tau) > 1e-12
                    or int(r["order"]) != order):
                reasons.append("point")
            elif not float(r["residual"]) < DECOMPOSITION_LIMIT:
                reasons.append("residual")
            elif bound_is_false(z, tau, complex(r["lhs"]), float(r["series_tail_bound"])):
                reasons.append("bound")
        except (KeyError, ValueError):
            reasons.append("unparsable")
        out.append(reasons)
    return out


def check_lemma_ratios(params, text):
    devs = {}
    for r in _csv_rows(text):
        try:
            key = (int(r["c"]), int(r["j"]), float(r["t"]))
            sv, mt, dev = complex(r["series_value"]), complex(r["main_term"]), float(r["deviation"])
            ok = math.isfinite(dev) and abs(abs(sv / mt - 1.0) - dev) <= 1e-9 * max(dev, 1e-300)
        except (KeyError, ValueError, ZeroDivisionError):
            continue
        devs[key] = dev if ok else None
    ts = sorted(params["t_values"])
    out = []
    for c in params["moduli"]:
        for j in range(1, c):
            group = [devs.get((c, j, t)) for t in ts]
            # the CLI's claim: the deviation shrinks towards the smallest t
            ok = None not in group and group[0] < group[-1]
            out.extend([] if ok else ["deviation"] for _ in ts)
    return out


CHECKERS = {
    "asym_report": check_asym_report,
    "equidistribution": check_equidistribution,
    "logconcavity": check_logconcavity,
    "expand_json": check_expand_json,
    "enumerate": check_enumerate,
    "transforms": check_transforms,
    "decomposition": check_decomposition,
    "lemma_ratios": check_lemma_ratios,
}


@dataclass
class Verdict:
    rows: int
    failed: int  # rows failing for any reason
    bound_violations: int  # rows whose reported tail bound is false
    command_failed: bool  # nonzero exit, traceback or a contract failure
    notes: list = field(default_factory=list)


def check_command(command, exit_code, stderr, text):
    """Check one command's output.  A command that exits nonzero or prints
    a traceback fails every row it should have produced."""
    rows = CHECKERS[command.kind](command.params, text)
    crashed = exit_code != 0 or "Traceback" in stderr
    notes = []
    if crashed:
        last = stderr.strip().splitlines()[-1:] or [""]
        notes.append(f"{command.argv[0]} exited {exit_code}: {last[0]}")
        n = max(len(rows), command.params.get("rows", 0))
        return Verdict(rows=n, failed=n, bound_violations=0, command_failed=True, notes=notes)
    failed = [r for r in rows if r]
    bound = sum(1 for r in rows if r == ["bound"])
    contract = [r for r in failed if r != ["bound"]]
    if contract:
        notes.append(f"{len(contract)} rows failed: {sorted({x for r in contract for x in r})}")
    if bound:
        notes.append(f"{bound} rows report a series tail bound below their real error")
    return Verdict(rows=len(rows), failed=len(failed), bound_violations=bound,
                   command_failed=bool(contract), notes=notes)
