import ast
import csv
import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oddbalanced import InputError, asymptotics, cli, decomposition, genfunc, transforms
from oddbalanced.asymptotics import LemmaRatioRow, LogConcavityReport, ReportRow
from oddbalanced.enumerator import OddBalancedSequence, enumerate_sequences
from oddbalanced.genfunc import expand_V_rank
from oddbalanced.modular import EvalResult
from reference_parser import build_parser
from test_enumerator import flatten, is_unimodal_with_strict_evens, rank_of, size
from test_modular import POLE_OFFSETS

SRC = str(Path(cli.__file__).resolve().parents[1])


def run_cli(args, capsys=None):
    code = cli.main(args)
    if capsys is not None:
        return code, capsys.readouterr()
    return code, None


def test_expand_csv(tmp_path):
    out = tmp_path / "table.csv"
    code, _ = run_cli(["expand", "--n-max", "10", "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,m,count"
    assert len(lines) - 1 >= 42
    assert "2,-1,1" in lines and "2,0,3" in lines and "2,1,1" in lines


def test_expand_json(tmp_path):
    out = tmp_path / "table.json"
    code, _ = run_cli(["expand", "--n-max", "4", "--format", "json",
                       "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert {"n": "0", "m": "0", "count": "1"} in payload


def test_enumerate_contains_known_sequences(capsys):
    code, captured = run_cli(["enumerate", "--n", "5"], capsys)
    assert code == 0
    seqs = [json.loads(line)["sequence"] for line in captured.out.splitlines()]
    for known in ([1, 1, 2, 4, 2, 1, 1], [1, 3, 4, 3, 1], [12], [1, 8, 2, 1]):
        assert known in seqs


def test_byte_stable_outputs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(["expand", "--n-max", "8", "--output", str(a)])
    run_cli(["expand", "--n-max", "8", "--output", str(b)])
    assert a.read_bytes() == b.read_bytes()
    a, b = tmp_path / "a2.csv", tmp_path / "b2.csv"
    run_cli(["verify-transforms", "--output", str(a)])
    run_cli(["verify-transforms", "--output", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_verify_transforms_passes(tmp_path):
    out = tmp_path / "laws.csv"
    code, _ = run_cli(["verify-transforms", "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "law,point,residual"
    assert any(line.startswith("mordell_value_at_origin") for line in lines)


# Each check forced to fail through the report function its command calls:
# (argv, module, name, the fake, the output, the failure record's detail).
# The fakes' rows print as plain literals, so the expected text is written out.
_LOGCONCAVITY_HEADER = ("residue,modulus,n_max,square_threshold,square_violation_count,"
                        "square_fails_to_end,double_threshold,double_scan_max,"
                        "double_violation_count,bound_threshold,bound_violation_count\n")
FORCED_FAILURES = [
    pytest.param(
        ["verify-transforms"], transforms, "all_rows",
        lambda seed: [transforms.LawResidual("theta_inversion", "z=0;tau=1j", 1.0)],
        "law,point,residual\ntheta_inversion,z=0;tau=1j,1.0\n",
        [{"law": "theta_inversion", "point": "z=0;tau=1j", "residual": 1.0, "limit": 1e-9}],
        id="verify-transforms"),
    pytest.param(
        ["verify-decomposition"], decomposition, "run_grid",
        lambda grid: [decomposition.DecompositionSample(
            z=0j, tau=1j, order=10, lhs=1 + 0j, rhs=EvalResult(2 + 0j, 0.5), lhs_tail=0.25)],
        "z,tau,order,lhs,rhs,residual,series_tail_bound\n0j,1j,10,(1+0j),(2+0j),1.0,0.25\n",
        [{"z": "0j", "tau": "1j", "residual": 1.0, "budget": 0.75}],
        id="verify-decomposition"),
    pytest.param(
        ["equidistribution", "--moduli", "3", "--checkpoints", "20,60"], asymptotics,
        "equidistribution_stat", lambda table, c, n: float(n),
        "c,n,stat\n3,20,20.0\n3,60,60.0\n",
        [{"c": 3, "stats": {"20": 20.0, "60": 60.0}}],
        id="equidistribution"),
    pytest.param(
        # the statistic shrinks at c = 3 and grows at c = 5
        ["equidistribution", "--moduli", "3,5", "--checkpoints", "20,60"], asymptotics,
        "equidistribution_stat", lambda table, c, n: float(n) if c == 5 else 1 / n,
        "c,n,stat\n3,20,0.05\n3,60,0.016666666666666666\n5,20,20.0\n5,60,60.0\n",
        [{"c": 5, "stats": {"20": 20.0, "60": 60.0}}],
        id="equidistribution-one-modulus"),
    pytest.param(
        ["logconcavity-scan", "--n-max", "60"], asymptotics, "logconcavity_scan",
        lambda a, c, n_max, table, pbar: LogConcavityReport(
            a, c, n_max, 61, [1, 2], True, 61, 30, [29], True, 1, [], False),
        _LOGCONCAVITY_HEADER + "0,1,60,61,2,true,61,30,1,1,0\n",
        {"reading": "doubled-argument", "threshold": 61},
        id="logconcavity-scan-doubled"),
    pytest.param(
        ["logconcavity-scan", "--n-max", "60"], asymptotics, "logconcavity_scan",
        lambda a, c, n_max, table, pbar: LogConcavityReport(
            a, c, n_max, 61, [1, 2], True, 3, 30, [], False, 61, [60], True),
        _LOGCONCAVITY_HEADER + "0,1,60,61,2,true,3,30,0,61,1\n",
        {"reading": "overpartition-bound", "threshold": 61},
        id="logconcavity-scan-bound"),
    pytest.param(
        ["lemma-ratios", "--moduli", "3", "--t-values", "0.1,0.05"], asymptotics,
        "lemma_ratio_report",
        # the deviation |series / main term - 1| grows as t shrinks at j = 1 only
        lambda moduli, t_values: [
            LemmaRatioRow(3, j, t, complex(value), 1 + 0j, value - 1.0, 0.0)
            for j, values in ((1, (2, 3)), (2, (3, 2))) for t, value in zip((0.1, 0.05), values)],
        "c,j,t,series_value,main_term,deviation,series_tail_bound\n"
        "3,1,0.1,(2+0j),(1+0j),1.0,0.0\n3,1,0.05,(3+0j),(1+0j),2.0,0.0\n"
        "3,2,0.1,(3+0j),(1+0j),2.0,0.0\n3,2,0.05,(2+0j),(1+0j),1.0,0.0\n",
        [{"c": 3, "j": 1, "devs": {"0.1": 1.0, "0.05": 2.0}}],
        id="lemma-ratios"),
]


@pytest.mark.parametrize("argv, module, name, fake, text, detail", FORCED_FAILURES)
def test_a_failed_check_writes_its_output_then_one_record(monkeypatch, argv, module, name,
                                                          fake, text, detail):
    monkeypatch.setattr(module, name, fake)
    both = io.StringIO()  # stdout and stderr in the order they were written
    with redirect_stdout(both), redirect_stderr(both):
        code = cli.main(argv)
    assert code == 1
    written = both.getvalue()
    assert written[:len(text)] == text
    record = written[len(text):]
    assert record.endswith("\n") and record.count("\n") == 1
    assert json.loads(record) == {"status": "fail", "check": argv[0], "detail": detail}


def test_verify_decomposition_single_point(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([
        {"z_re": 0.2, "z_im": 0.0, "tau_re": 0.0, "tau_im": 0.9, "order": 250}]))
    out = tmp_path / "dec.csv"
    code, _ = run_cli(["verify-decomposition", "--grid", str(grid),
                       "--output", str(out)])
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("z,tau,order,lhs,rhs,residual")


def test_verify_decomposition_passes_at_small_tau(tmp_path):
    # theta(tau;2tau) and theta(2tau;6tau) by the S law: at Im tau = 0.012
    # and 0.01 the direct sums were refused as divisors, and at 0.015 the
    # residual was 7.1e-6
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"z_re": 0.2, "tau_im": t, "order": 3000}
                                for t in (0.015, 0.012, 0.01)]))
    out = tmp_path / "dec.csv"
    code, _ = run_cli(["verify-decomposition", "--grid", str(grid), "--output", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 3 and all(float(r["residual"]) <= 1e-7 for r in rows)


@pytest.mark.parametrize("command", ["verify-transforms", "verify-decomposition"])
@pytest.mark.parametrize("value", ["0", "-0.001", "nan"])
def test_bad_max_residual_is_a_usage_error(capsys, command, value):
    # each check's limit is fixed in its layer (transforms.THRESHOLDS,
    # decomposition.MAX_RESIDUAL), so no option moves it: --max-residual
    # with any value is an unknown flag
    code, captured = run_cli([command, "--max-residual", value], capsys)
    assert code == 2
    assert captured.err == (f"oddbalanced {command}: error: "
                            f"unrecognized arguments: --max-residual {value}\n")


def assert_one_line_usage_error(err):
    lines = err.splitlines()
    assert len(lines) == 1 and ": error: " in lines[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("point", [
    {"z_re": 0.2, "tau_re": 0.0},  # no tau_im
    {"tau_im": 0.9},  # no z_re
    {"z_re": "a fifth", "tau_im": 0.9},
    {"z_re": 0.2, "tau_im": None},
    {"z_re": 0.2, "tau_im": 0.9, "order": 2.5},
    {"z_re": 0.2, "tau_im": 0.2, "order": 3},  # order too low for the tail gate
    {"z_re": 0.25, "tau_im": 0.9, "order": 200},  # on a T2 pole
    {"z_re": 0.2, "tau_im": -0.5},  # |q| > 1
    {"z_re": 1e308, "z_im": 0, "tau_re": 0, "tau_im": 0.5, "order": 50},  # w is not a float
])
def test_bad_grid_points_are_usage_errors(tmp_path, capsys, point):
    assert_bad_grid_is_a_usage_error(tmp_path, capsys, [point])


def test_empty_grid_is_a_usage_error(tmp_path, capsys):
    assert_bad_grid_is_a_usage_error(tmp_path, capsys, [])


def assert_bad_grid_is_a_usage_error(tmp_path, capsys, points):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(points))
    code, captured = run_cli(["verify-decomposition", "--grid", str(grid),
                              "--output", str(tmp_path / "dec.csv")], capsys)
    assert code == 2
    assert_one_line_usage_error(captured.err)


@pytest.mark.parametrize("args", [
    ["--moduli", ""],  # nothing to check
    ["--moduli", "4"],
    ["--moduli", "3,6"],
    ["--moduli", "1"],
    ["--t-values", "0.1"],
    ["--t-values", "0.05,0.05"],
    ["--t-values", "0.1,0"],
    ["--moduli", "1001"],  # past cli.MAX_MODULUS
])
def test_bad_lemma_inputs_are_usage_errors(tmp_path, capsys, args):
    code, captured = run_cli(["lemma-ratios", *args,
                              "--output", str(tmp_path / "lr.csv")], capsys)
    assert code == 2
    assert_one_line_usage_error(captured.err)


@pytest.mark.parametrize("command, flag, value", [
    ("equidistribution", "--moduli", ""),
    ("equidistribution", "--checkpoints", "150"),  # nothing to shrink between
    ("lemma-ratios", "--moduli", ""),
    ("lemma-ratios", "--t-values", "0.1"),
    ("lemma-ratios", "--t-values", "0.05,0.05"),  # one distinct value
    ("asym-report", "--checkpoints", ""),  # not the default checkpoints
    ("asym-report", "--checkpoints", ","),
])
def test_a_short_list_is_refused_by_its_domain(capsys, command, flag, value):
    # a list option's least length is part of its domain: the one line
    # names the flag and that domain, and --help prints the same domain
    domain = cli._options(command)[flag][3][0]
    assert cli.main([command, flag, value]) == 2
    err = capsys.readouterr().err
    assert_one_line_usage_error(err)
    assert f"{flag} must be {domain}, got " in err
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    assert any(line.split()[0] == flag and line.endswith(f" ({domain})")
               for line in capsys.readouterr().out.splitlines())


def test_verify_decomposition_default_grid(tmp_path):
    out = tmp_path / "dec.csv"
    code, _ = run_cli(["verify-decomposition", "--grid", "default",
                       "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 13  # header + 12 grid points


@pytest.mark.parametrize("z_re, code", [(10000000000.2, 0), (1e15, 2), (1e300, 2)])
def test_verify_decomposition_reduces_re_z_mod_1(tmp_path, capsys, z_re, code):
    # both sides are 1-periodic in z, so Re z is reduced mod 1 before
    # either is evaluated: a far point passes, and an integer Re z is the
    # pole z = 0 of T2; the row keeps the z given
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"z_re": z_re, "tau_im": 0.5}]))
    got, captured = run_cli(["verify-decomposition", "--grid", str(grid)], capsys)
    assert got == code
    if code:
        assert_one_line_usage_error(captured.err)
        assert captured.err.endswith(
            f"vanishes at z=0j (z = 0, 1/4, 1/2 or 3/4 mod 1); z={complex(z_re)} given,"
            " Re z taken mod 1\n")
    else:
        assert captured.out.splitlines()[1].startswith(f"{complex(z_re)},")


@pytest.mark.parametrize("tau_re", [0.0, 0.5])
@pytest.mark.parametrize("dz", POLE_OFFSETS)
@pytest.mark.parametrize("pole", [0.0, 0.25, 0.5, 0.75])
def test_a_point_in_a_pole_band_is_one_line_or_a_row(tmp_path, capsys, pole, dz, tau_re):
    # at a pole, or just off one, a one-point grid is either refused (exit 2,
    # one line) or evaluated (exit 0 or 1, with its row): never a traceback
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"z_re": pole + dz, "tau_re": tau_re, "tau_im": 0.8}]))
    code, captured = run_cli(["verify-decomposition", "--grid", str(grid)], capsys)
    if code == 2:
        assert_one_line_usage_error(captured.err)
        assert captured.out == ""
    else:
        assert code in (0, 1) and len(captured.out.splitlines()) == 2
        assert len(captured.err.splitlines()) == code and "Traceback" not in captured.err


@pytest.mark.parametrize("z_re, tau_re", [(0.25 + 1e-6, 0.0), (0.5 + 1e-13, 0.0),
                                          (0.25 + 1e-13, 0.0), (0.75 + 1e-12, 0.0),
                                          (0.5 + 1e-12, 0.5)])
def test_a_failed_point_near_a_pole_records_a_budget_above_its_residual(tmp_path, capsys,
                                                                        z_re, tau_re):
    # the check still fails there, and the budget says why: the Appell and
    # theta rounding that a divisor near 0 amplifies is in the right side's radius
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"z_re": z_re, "tau_re": tau_re, "tau_im": 0.8}]))
    code, captured = run_cli(["verify-decomposition", "--grid", str(grid)], capsys)
    assert code == 1
    [record] = json.loads(captured.err)["detail"]
    assert decomposition.MAX_RESIDUAL <= record["residual"] <= record["budget"]


def test_asym_report_c1(tmp_path):
    out = tmp_path / "rep.csv"
    code, _ = run_cli(["asym-report", "--c", "1", "--checkpoints", "2,10",
                       "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,exact,main_term,ratio"
    assert lines[1].startswith("2,5,")


def test_asym_report_precision_floor(capsys):
    code, captured = run_cli(["asym-report", "--c", "1", "--checkpoints", "2",
                              "--precision", "10"], capsys)
    assert code == 2
    assert_one_line_usage_error(captured.err)


@pytest.mark.parametrize("precision", ["10001", "100000000000000000000"])
def test_asym_report_precision_ceiling(capsys, precision):
    # 10**20 digits once overflowed decimal.Context with a traceback
    code, captured = run_cli(["asym-report", "--c", "3", "--checkpoints", "20",
                              "--precision", precision], capsys)
    assert code == 2
    assert_one_line_usage_error(captured.err)
    assert captured.out == ""


# the first value past each ceiling: genfunc's budget on the packed
# division (expand to 6373, c = 1 to 151145, c = 3 to 95191, c = 5 to
# 72627) and cli.MAX_MODULUS; an order whose float root would overflow
PAST_CEILINGS = [
    ["expand", "--n-max", "6374"],
    ["expand", "--n-max", "1" + "0" * 400],
    ["asym-report", "--checkpoints", "151146"],
    ["asym-report", "--c", "3", "--checkpoints", "100,95192"],
    ["asym-report", "--c", "1001"],
    ["equidistribution", "--moduli", "1001"],
    ["equidistribution", "--moduli", "3,5", "--checkpoints", "10,72628"],
    ["logconcavity-scan", "--n-max", "151145"],
    ["logconcavity-scan", "--c", "1001"],
]


@pytest.mark.parametrize("args", [
    ["expand", "--n-max", "-1"],
    ["enumerate", "--n", "-1"],
    ["enumerate", "--n", "37"],  # past MAX_ENUMERATE_N; nothing is enumerated
    ["enumerate", "--format", "csv"],  # enumerate writes JSON lines only
    ["enumerate", "--format=json"],
    ["logconcavity-scan", "--n-max", "-2"],
    ["logconcavity-scan", "--n-max", "0"],  # no tail to scan
    ["asym-report", "--checkpoints", "0"],
    ["asym-report", "--c", "3", "--checkpoints=-5,600"],
    ["asym-report", "--c", "2"],
    ["asym-report", "--precision", "20"],
    ["asym-report", "--c", "3", "--a", "5"],
    ["asym-report", "--c", "0"],
    ["asym-report", "--a", "-1"],
    ["logconcavity-scan", "--c", "5", "--a", "-1"],
    ["logconcavity-scan", "--c", "0"],
    ["equidistribution", "--moduli", "0"],
    ["equidistribution", "--moduli", "-3"],
    ["equidistribution", "--moduli", "1"],  # the statistic is always 0
    ["equidistribution", "--moduli", ""],
    ["equidistribution", "--moduli", "3,1001"],
    ["equidistribution", "--checkpoints=-1,60"],
    ["equidistribution", "--checkpoints", "60"],  # nothing to shrink between
    *PAST_CEILINGS,
], ids=lambda args: " ".join(args)[:80])
def test_bad_exact_command_inputs_are_usage_errors(tmp_path, capsys, args):
    code, captured = run_cli([*args, "--output", str(tmp_path / "out.csv")], capsys)
    assert code == 2
    assert_one_line_usage_error(captured.err)
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("args", PAST_CEILINGS, ids=lambda args: " ".join(args)[:80])
def test_no_expansion_starts_past_a_ceiling(monkeypatch, capsys, args):
    # expand_V_rank refuses past its budget before either division
    # allocates; equidistribution refuses at its widest modulus first
    def refuse(*_):
        raise AssertionError("a division entered")

    monkeypatch.setattr(genfunc, "_expand_partial_theta", refuse)
    monkeypatch.setattr(genfunc, "_div_phi_minus_q", refuse)
    code, captured = run_cli(args, capsys)
    assert code == 2
    assert_one_line_usage_error(captured.err)


class _FullStream(io.StringIO):
    """A stdout on a full disk: every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("args", [["enumerate", "--n", "2"], ["verify-transforms"]],
                         ids=lambda args: args[0])
@pytest.mark.parametrize("target", ["directory", "missing-dir/out.txt", "empty path",
                                    "closed stdout", "full stdout",
                                    # an --output that is a directory, and a
                                    # stderr that cannot take the line
                                    "closed stderr", "full stderr"])
def test_unwritable_output_is_a_usage_error(tmp_path, args, target):
    argv, stdout, err = args, io.StringIO(), io.StringIO()
    if target == "closed stdout":  # a process started with fd 1 closed
        stdout = None
    elif target == "full stdout":
        stdout = _FullStream()
    else:  # an --output no file can be opened at; --output= names the empty path
        output = {"missing-dir/out.txt": tmp_path / target, "empty path": ""}.get(target, tmp_path)
        argv = [*args, f"--output={output}"]
        if target == "closed stderr":  # a process started with fd 2 closed
            err = None
        elif target == "full stderr":
            err = _FullStream()
    with redirect_stdout(stdout), redirect_stderr(err):
        code = cli.main(argv)
    # stderr is written best effort: where it loses the line, the exit
    # code still tells a usage error
    assert code == 2
    if type(err) is io.StringIO:
        assert_one_line_usage_error(err.getvalue())
    if isinstance(stdout, io.StringIO):
        assert stdout.getvalue() == ""


@pytest.mark.parametrize("args", [["asym-report", "--c", "3"], ["--help"]], ids=" ".join)
@pytest.mark.parametrize("stdout", ["/dev/full", "closed"])
def test_an_unwritable_stdout_exits_2_in_a_child(tmp_path, args, stdout):
    # the stdout of a fresh process is written and flushed before main
    # returns, so a full disk or a closed fd 1 is one line and exit 2, not
    # a traceback
    if stdout == "/dev/full" and not Path(stdout).exists():
        pytest.skip("no /dev/full")
    with open(os.devnull if stdout == "closed" else stdout, "wb") as sink:
        proc = subprocess.run(
            [sys.executable, "-m", "oddbalanced.cli", *args],
            cwd=tmp_path, stdout=sink, stderr=subprocess.PIPE, text=True,
            env={"PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"},
            preexec_fn=(lambda: os.close(1)) if stdout == "closed" else None)
    assert proc.returncode == 2
    assert_one_line_usage_error(proc.stderr)
    assert ": error: cannot write stdout: " in proc.stderr


@pytest.mark.parametrize("args, code", [
    pytest.param(["asym-report", "--c", "3", "--a", "7"], 2, id="usage error"),
    # at n = 1 the overpartition bound fails to the top of the range
    pytest.param(["logconcavity-scan", "--n-max", "1", "--output", "lc.csv"], 1,
                 id="failed check"),
])
@pytest.mark.parametrize("stderr", ["/dev/full", "closed"])
def test_an_unwritable_stderr_keeps_the_exit_code_in_a_child(tmp_path, args, code, stderr):
    # with fd 2 closed or on a full disk the line or the record is lost,
    # but the exit code still tells a usage error from a failed check.  The
    # second child prints what main returned, so an exception escaping main
    # (which would also end the process with 1) cannot pass for a record
    if stderr == "/dev/full" and not Path(stderr).exists():
        pytest.skip("no /dev/full")
    returned = ("import os, sys; from oddbalanced.cli import main; "
                "code = main(sys.argv[1:]); print(code, flush=True); os._exit(code)")
    for entry in (["-m", "oddbalanced.cli"], ["-c", returned]):
        with open(os.devnull if stderr == "closed" else stderr, "wb") as sink:
            proc = subprocess.run(
                [sys.executable, *entry, *args], cwd=tmp_path, stdout=subprocess.PIPE,
                stderr=sink, env={"PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"},
                preexec_fn=(lambda: os.close(2)) if stderr == "closed" else None)
        assert proc.returncode == code, entry
    assert proc.stdout == f"{code}\n".encode()


@pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "-u"])
def test_a_reader_closing_early_is_exit_2(tmp_path, flags):
    # enumerate --n 24 prints 2.3 MB, far more than a pipe holds, so the
    # writer is still writing when the reader closes.  Under python -u
    # stdout is the raw file, whose write then comes back short: the rest
    # must fail as it does through the buffer, not be dropped unseen
    proc = subprocess.Popen([sys.executable, *flags, "-m", "oddbalanced.cli",
                             "enumerate", "--n", "24"], cwd=tmp_path,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={"PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"})
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 2
    assert_one_line_usage_error(err)
    assert ": error: cannot write stdout: Broken pipe" in err


@pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "-u"])
def test_a_full_non_blocking_stdout_is_exit_2(tmp_path, flags):
    # a non-blocking pipe that is already full takes no byte: under
    # python -u the raw write returns None, which must fail as the
    # buffered write's BlockingIOError does, not loop or drop the text
    if not hasattr(os, "set_blocking"):
        pytest.skip("no os.set_blocking")
    read_end, write_end = os.pipe()
    try:
        os.set_blocking(write_end, False)
        try:
            while True:
                os.write(write_end, b"x" * 65536)
        except BlockingIOError:
            pass
        proc = subprocess.run([sys.executable, *flags, "-m", "oddbalanced.cli",
                               "enumerate", "--n", "5"], cwd=tmp_path, stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=60,
                              env={"PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"})
    finally:
        os.close(read_end)
        os.close(write_end)
    assert proc.returncode == 2
    assert_one_line_usage_error(proc.stderr)
    if flags:
        assert proc.stderr.endswith(": error: cannot write stdout: it would block\n")


@pytest.mark.parametrize("n", range(15))
def test_enumerate_lines_are_compact_json(capsys, n):
    code, captured = run_cli(["enumerate", "--n", str(n)], capsys)
    assert code == 0
    assert captured.out == "".join(
        json.dumps({"size": size(s), "sequence": list(flatten(s)), "peak": s.peak,
                    "rank": s.rank}, separators=(",", ":")) + "\n"
        for s in enumerate_sequences(n))


# the sha256 of enumerate --n 24's output
_ENUMERATE_24 = "2413f6c4b844ff4b05088b050cafdf3573b6456efc7ac8bf06b07ca80859b657"


@pytest.mark.parametrize("args, digest", [
    (["enumerate", "--n", "24"], _ENUMERATE_24),
    # the top of enumerate's domain, where every side table runs deep
    (["enumerate", "--n", "30"],
     "f353caa59f0e180226e8208e8ad9c8f8d3681afc21241a008c317d7f94c06246"),
    (["enumerate", "--n", "36"],
     "e72e750ea03afb8bc5fcf10f8102070fa653e2c8a36a25929ab906d735386b8d"),
    (["expand", "--n-max", "300"],
     "4446cc3ab0a343bef68b2b0374ce4a502d86f202a559f24149fbaab56f9e0569"),
    (["expand", "--n-max", "300", "--format", "json"],
     "7e2e3f181a16cb0dc8848061a1926e31d422697eb1420ed790629bdfe048991d"),
    (["asym-report", "--c", "3", "--a", "1"],
     "12f3d3d15fc5bd1fac31eecbcb0e8e13bad0043d9bd9cf150cc691ca19ffe64a"),
    (["asym-report", "--c", "1", "--checkpoints", "900,1800,3600"],
     "179d360fbad8d0570757f8f136133624a3fb5e83bee27a8a56fd1e508b506dca"),
    (["asym-report", "--c", "4", "--allow-even", "--format", "json"],
     "abf2f99184d36f861bc4cadc693b742cd41a974b35fea6341df0abb0aa8f7916"),
    (["equidistribution", "--moduli", "3,5,7"],
     "7ff251e176f025ca780cc2436079e05640ea6856abde5b4259f58adbf1d597d3"),
    (["logconcavity-scan", "--c", "5", "--a", "2", "--n-max", "600"],
     "408f0dd9aa2bea7105d259f416010b72599c5c865bfeb4bbfa46ac605ab2f933"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_large_outputs_are_pinned(capsys, args, digest):
    # the sha256 of the output as the line-at-a-time writers printed it
    code, captured = run_cli(args, capsys)
    assert code == 0
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


def test_enumerate_lines_are_odd_balanced_sequences(capsys):
    # read back from the printed lines alone, without flatten
    code, captured = run_cli(["enumerate", "--n", "12"], capsys)
    assert code == 0
    records = [json.loads(line) for line in captured.out.splitlines()]
    assert len(records) == sum(expand_V_rank(12).rank_polynomial(12).values())
    for record in records:
        seq = record["sequence"]
        assert record["size"] == sum(seq) == 26
        assert record["peak"] == max(seq)
        assert is_unimodal_with_strict_evens(seq)
        assert record["rank"] == rank_of(seq)
        p = seq.index(max(seq))
        # the odd parts are the same multiset on both sides
        assert (sorted(k for k in seq[:p] if k % 2)
                == sorted(k for k in seq[p + 1:] if k % 2))
    assert len({tuple(r["sequence"]) for r in records}) == len(records)


def test_enumerate_lines_per_rank_match_the_expansion(capsys):
    code, captured = run_cli(["enumerate", "--n", "24"], capsys)
    assert code == 0
    by_rank = Counter(json.loads(line)["rank"] for line in captured.out.splitlines())
    assert by_rank == expand_V_rank(24).rank_polynomial(24)


def test_json_rows_match_json_dumps(capsys):
    code, captured = run_cli(["expand", "--n-max", "12", "--format", "json"], capsys)
    assert code == 0
    payload = [{"n": str(n), "m": str(m), "count": str(cnt)}
               for n, m, cnt in expand_V_rank(12).nonzero_items()]
    assert captured.out == json.dumps(payload, indent=1) + "\n"


@pytest.mark.parametrize("rows", [[]], ids=["no rows"])
def test_json_writer_matches_json_dumps(rows):
    text = cli._rows_text(rows, ["text", "n"], cli.RunConfig(command="expand", fmt="json"))
    assert text == json.dumps(rows, indent=1) + "\n"


@pytest.mark.parametrize("workload", ["defaults", "residue-reports", "scalar-growth",
                                      "numeric-checks"])
def test_every_cell_needs_no_escaping(monkeypatch, tmp_path, workload):
    # the cell rule of the cli docstring, on every command but enumerate at its
    # defaults and at the argv the benchmark's workloads run at seed 1: no cell
    # holds a comma, a quote, a backslash, a control or a non-ASCII character,
    # so the JSON rows, each cell a str in plain quotes, are json.dumps' text
    monkeypatch.chdir(tmp_path)
    if workload == "defaults":
        argvs = [[command] for command in cli.COMMANDS if command != "enumerate"]
    else:
        monkeypatch.syspath_prepend(str(Path(SRC).parent / "perfbench"))
        import workloads

        built = workloads.build(workload, 1)
        built.materialize(tmp_path)
        argvs = [list(c.argv) for c in built.commands if c.argv[0] != "enumerate"]
    for argv in argvs:
        text = {}
        for fmt in ("csv", "json"):
            assert cli.main([*argv, "--format", fmt, "--output", f"out.{fmt}"]) == 0, argv
            text[fmt] = (tmp_path / f"out.{fmt}").read_text()
        assert text["csv"].endswith("\n")
        header, *lines = text["csv"][:-1].split("\n")
        keys = header.split(",")
        rows = [line.split(",") for line in lines]
        assert all(k.isidentifier() for k in keys), argv
        assert rows and all(len(row) == len(keys) for row in rows), argv
        assert all(cell.isascii() and cell.isprintable() and not {'"', "\\"} & set(cell)
                   for row in rows for cell in row), argv
        assert text["json"] == json.dumps([dict(zip(keys, row)) for row in rows],
                                          indent=1) + "\n", argv


def test_equidistribution_small(tmp_path):
    out = tmp_path / "eq.csv"
    code, _ = run_cli(["equidistribution", "--moduli", "3", "--checkpoints",
                       "20,60", "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "c,n,stat"
    assert len(lines) == 3


def test_equidistribution_below_float_rounding(tmp_path):
    # at c = 3 the statistic is 6.9e-24 at n = 1200 and 1.8e-29 at 1800
    out = tmp_path / "eq.csv"
    code, _ = run_cli(["equidistribution", "--moduli", "3", "--checkpoints",
                       "1200,1800", "--output", str(out)])
    assert code == 0
    stats = [float(line.split(",")[2]) for line in out.read_text().splitlines()[1:]]
    assert 0 < stats[1] < stats[0] < 1e-20


@pytest.mark.parametrize("repeated, distinct", [
    pytest.param(["lemma-ratios", "--moduli", "3,5,3", "--t-values", "0.1,0.1,0.05"],
                 ["lemma-ratios", "--moduli", "3,5", "--t-values", "0.1,0.05"],
                 id="lemma-ratios"),
    pytest.param(["equidistribution", "--moduli", "5,3,5", "--checkpoints", "60,20,60"],
                 ["equidistribution", "--moduli", "5,3", "--checkpoints", "60,20"],
                 id="equidistribution"),
    pytest.param(["asym-report", "--c", "3", "--checkpoints", "30,10,30"],
                 ["asym-report", "--c", "3", "--checkpoints", "30,10"],
                 id="asym-report"),
])
def test_repeated_values_print_one_row(capsys, repeated, distinct):
    assert run_cli(repeated, capsys)[1].out == run_cli(distinct, capsys)[1].out


def test_logconcavity_scan_small(tmp_path):
    out = tmp_path / "lc.csv"
    code, _ = run_cli(["logconcavity-scan", "--c", "3", "--a", "1",
                       "--n-max", "60", "--output", str(out)])
    assert code == 0
    header, row = out.read_text().splitlines()
    assert "square_threshold" in header


def test_lemma_ratios_small(tmp_path):
    out = tmp_path / "lr.csv"
    code, _ = run_cli(["lemma-ratios", "--moduli", "3", "--t-values", "0.1,0.05",
                       "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "c,j,t,series_value,main_term,deviation,series_tail_bound"
    assert len(lines) == 5


def test_usage_errors_exit_2():
    assert cli.main(["expand", "--bogus-flag"]) == 2
    assert cli.main(["no-such-command"]) == 2


@pytest.mark.parametrize("args", [
    ["expand", "--n-max", "abc"],  # refused by the parser
    ["expand", "--n-max", "-1"],  # refused by the option's domain
    ["asym-report", "--c", "3", "--a", "5"],  # refused by the handler
], ids=" ".join)
def test_every_usage_error_is_one_line_from_main(capsys, args):
    code, captured = run_cli(args, capsys)
    assert code == 2
    assert_one_line_usage_error(captured.err)
    assert captured.err.startswith(f"oddbalanced {args[0]}: error: ")


@pytest.mark.parametrize("args", [
    ["asym-report", "--c", "1", "--checkpoints", "5,abc"],
    ["expand", "--format", "xml"],
    ["expand", "--bogus-flag"],
    ["no-such-command"],
    # --precision is asym-report's option only
    *([command, "--precision", "40"] for command in sorted(cli.COMMANDS)
      if command != "asym-report"),
], ids=lambda args: " ".join(args))
def test_parser_errors_are_one_line(capsys, args):
    assert cli.main(args) == 2
    assert_one_line_usage_error(capsys.readouterr().err)


# Two settings of every option, as argv fragments, that a run must tell
# apart; {output} and {grid} stand for files the test makes.
_IO_PAIRS = {
    "--format": (["--format", "csv"], ["--format", "json"]),
    "--output": ([], ["--output", "{output}"]),
}
_OPTION_PAIRS = {
    "expand": {"--n-max": (["--n-max", "1"], ["--n-max", "2"]), **_IO_PAIRS},
    "enumerate": {"--n": (["--n", "1"], ["--n", "2"]), "--output": _IO_PAIRS["--output"]},
    "verify-transforms": {"--seed": (["--seed", "1"], ["--seed", "2"]), **_IO_PAIRS},
    "verify-decomposition": {
        "--grid": (["--grid", "default"], ["--grid", "{grid}"]), **_IO_PAIRS},
    "asym-report": {
        "--a": (["--c", "3", "--a", "0"], ["--c", "3", "--a", "1"]),
        "--c": (["--c", "1"], ["--c", "3"]),
        "--checkpoints": (["--checkpoints", "20,40"], ["--checkpoints", "20,60"]),
        "--allow-even": (["--c", "4"], ["--c", "4", "--allow-even"]),
        "--precision": (["--precision", "30"], ["--precision", "31"]), **_IO_PAIRS},
    "equidistribution": {
        "--moduli": (["--moduli", "3"], ["--moduli", "5"]),
        "--checkpoints": (["--checkpoints", "20,40"], ["--checkpoints", "20,60"]),
        **_IO_PAIRS},
    "logconcavity-scan": {
        "--a": (["--c", "3", "--a", "0"], ["--c", "3", "--a", "1"]),
        "--c": (["--c", "1"], ["--c", "3"]),
        "--n-max": (["--n-max", "20"], ["--n-max", "21"]), **_IO_PAIRS},
    "lemma-ratios": {
        "--moduli": (["--moduli", "3"], ["--moduli", "5"]),
        "--t-values": (["--t-values", "0.1,0.05"], ["--t-values", "0.1,0.025"]),
        **_IO_PAIRS},
}


def test_every_option_takes_effect(tmp_path):
    # an option whose value no run reads is not an option: each pair of
    # settings must change the exit code, stdout, stderr or --output file
    assert {command: sorted(pairs) for command, pairs in _OPTION_PAIRS.items()} == \
        {command: sorted(cli._options(command)) for command in cli.COMMANDS}
    output, grid = tmp_path / "out.txt", tmp_path / "grid.json"
    z, tau, order = decomposition.DEFAULT_GRID[0]
    grid.write_text(json.dumps([{"z_re": z.real, "z_im": z.imag, "tau_re": tau.real,
                                 "tau_im": tau.imag, "order": order}]))

    def effect(command, fragment):
        output.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        argv = [command, *(w.format(output=output, grid=grid) for w in fragment)]
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue(), output.exists() and output.read_text()

    dead = [(command, flag) for command, pairs in _OPTION_PAIRS.items()
            for flag, (one, other) in pairs.items()
            if effect(command, one) == effect(command, other)]
    assert dead == []


def _child(code, tmp_path):
    return subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env={"PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"},
                          capture_output=True, text=True)


@pytest.mark.parametrize("args", [
    ["expand", "--n-max", "40", "--format", "json"],
    ["enumerate", "--n", "6"],
    ["asym-report", "--c", "3"],
    ["verify-transforms"],
    ["lemma-ratios", "--moduli", "3", "--t-values", "0.1,0.05"],
], ids=lambda args: args[0])
def test_a_run_without_site_prints_the_same_bytes(tmp_path, args):
    # the program needs nothing that the site module adds to the path, so
    # python -S runs each command to the same stdout, stderr and exit code
    def run(*flags):
        return subprocess.run([sys.executable, *flags, "-m", "oddbalanced.cli", *args],
                              cwd=tmp_path, capture_output=True,
                              env={"PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"})

    plain, bare = run(), run("-S")
    assert plain.returncode == 0 and plain.stdout, plain.stderr
    assert (bare.stdout, bare.stderr, bare.returncode) == \
        (plain.stdout, plain.stderr, plain.returncode)


_FRESH_RUNS = [
    ["expand", "--n-max", "40", "--format", "json"],
    ["enumerate", "--n", "24"],
    ["logconcavity-scan", "--n-max", "1"],  # a failed check: exit 1, a record
    ["verify-decomposition", "--grid", "default"],
    ["asym-report", "--c", "3", "--checkpoints", "20,40"],
    ["equidistribution", "--moduli", "3", "--checkpoints", "20,60"],
    ["logconcavity-scan", "--c", "3", "--n-max", "60"],
    ["lemma-ratios", "--moduli", "3"],
    ["asym-report", "--c", "3", "--a", "5"],  # a usage error: exit 2
    ["--help"],
    ["asym-report", "--help"],
]


@pytest.mark.parametrize("sink, args", [
    *((sink, args) for sink in ("stdout", "--output") for args in _FRESH_RUNS),
    # python -u: stdout is the raw file, written through
    ("stdout -u", ["enumerate", "--n", "24"]),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_a_fresh_process_loses_no_byte(tmp_path, sink, args):
    # a fresh `python -m oddbalanced.cli` ends in os._exit, with no flush
    # at exit; its stdout through a pipe (block-buffered, as no
    # PYTHONUNBUFFERED is set, or unbuffered under -u), its --output file,
    # its stderr and its exit code are those of cli.main in this process
    child_dir, here_dir = tmp_path / "child", tmp_path / "here"
    child_dir.mkdir()
    here_dir.mkdir()
    extra = ["--output", "out.txt"] if sink == "--output" and "--help" not in args else []
    flags = sink.split()[1:]
    child = subprocess.run([sys.executable, *flags, "-m", "oddbalanced.cli", *args, *extra],
                           cwd=child_dir, capture_output=True,
                           env={"PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"})
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(here_dir)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main([*args, *extra])
            except SystemExit as exc:  # --help
                code = exc.code
    finally:
        os.chdir(cwd)
    assert (child.returncode, child.stdout, child.stderr) == \
        (code, out.getvalue().encode(), err.getvalue().encode())
    written = [(d / "out.txt").read_bytes() if (d / "out.txt").exists() else None
               for d in (child_dir, here_dir)]
    assert written[0] == written[1]
    assert child.stdout or written[0] or child.stderr
    if args == ["enumerate", "--n", "24"]:
        assert hashlib.sha256(written[0] or child.stdout).hexdigest() == _ENUMERATE_24


def test_both_entry_routes_call_one_process_end():
    # the `oddbalanced` script and `python -m oddbalanced.cli` both end in
    # cli.run, the one function that calls os._exit
    pyproject = (Path(SRC).parent / "pyproject.toml").read_text()
    script = re.search(r'^oddbalanced = "oddbalanced\.cli:(\w+)"$', pyproject, re.M)
    tree = ast.parse(Path(cli.__file__).read_text())
    [block] = [node for node in tree.body if isinstance(node, ast.If)
               and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(stmt) for stmt in block.body] == [f"{script.group(1)}()"]
    assert getattr(cli, script.group(1)) is cli.run


def test_cli_import_loads_only_the_standard_library(tmp_path):
    # each command is a fresh process, so what the import loads is paid by
    # every command: no other module of the package, and none of the
    # standard library modules the parser or a main term would pull in
    proc = _child("import sys; before = set(sys.modules); import oddbalanced.cli; "
                  "new = set(sys.modules) - before; "
                  "loaded = {'mpmath', 'dataclasses', 'numpy', 'json', 'argparse', "
                  "'gettext', 'locale', 'fractions', 'decimal'} & new; "
                  "loaded |= {m for m in new if m.startswith('oddbalanced.')} - "
                  "{'oddbalanced.cli'}; "
                  "assert not loaded, f'{sorted(loaded)} imported'", tmp_path)
    assert proc.returncode == 0, proc.stderr


# no command loads the kernels, argparse or fractions, and only
# asym-report loads decimal; no layer imports cli, which runs as __main__,
# so a second import would compile it again
_NEVER = {"kernels", "argparse", "fractions", "cli"}
_NUMERIC_ABSENT = {"genfunc", "enumerator", "json", "decimal"} | _NEVER
_EXACT_ABSENT = {"modular", "json", "cmath"} | _NEVER


@pytest.mark.parametrize("args, absent", [
    (["verify-transforms"], _NUMERIC_ABSENT),
    (["verify-decomposition", "--grid", "default"], _NUMERIC_ABSENT),
    (["lemma-ratios", "--moduli", "3"], _NUMERIC_ABSENT),
    (["enumerate", "--n", "3"], {"modular", "genfunc", "json", "decimal"} | _NEVER),
    (["expand", "--n-max", "10"], _EXACT_ABSENT | {"decimal"}),
    pytest.param(["expand", "--n-max", "10", "--format", "json"], _EXACT_ABSENT | {"decimal"},
                 id="expand --format json"),
    (["asym-report", "--c", "3", "--checkpoints", "20,40"], _EXACT_ABSENT | {"mpmath"}),
    (["equidistribution", "--moduli", "3", "--checkpoints", "20,60"],
     _EXACT_ABSENT | {"decimal"}),
    (["logconcavity-scan", "--c", "3", "--n-max", "60"], _EXACT_ABSENT | {"decimal"}),
], ids=lambda v: v[0] if isinstance(v, list) else "")
def test_each_command_loads_only_its_layers(tmp_path, args, absent):
    # run as `python -m oddbalanced.cli` runs it; the names are package
    # submodules, or json
    code = "\n".join([
        "import os, runpy, sys",
        # cli.run ends the process with os._exit; raising SystemExit in its
        # place lets the check below run after the command
        "os._exit = sys.exit",
        f"sys.argv = ['oddbalanced', *{args!r}, '--output', 'out.csv']",
        "try:",
        "    runpy.run_module('oddbalanced.cli', run_name='__main__')",
        "except SystemExit as exc:",
        "    assert exc.code == 0, exc.code",
        "names = {m.split('.', 1)[1] for m in sys.modules if m.startswith('oddbalanced.')}",
        f"loaded = sorted((names | set(sys.modules)) & set({sorted(absent)!r}))",
        "assert not loaded, f'{loaded} imported'",
    ])
    proc = _child(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out.csv").read_text().count("\n") > 1


@pytest.mark.parametrize("args", [
    ["verify-transforms"],
    ["verify-decomposition", "--grid", "default"],
    ["lemma-ratios", "--moduli", "3"],
], ids=lambda args: args[0])
def test_numeric_commands_run_without_numpy(tmp_path, args):
    # a None entry in sys.modules makes every `import numpy` raise ImportError
    proc = _child("import sys; sys.modules['numpy'] = None; "
                  "from oddbalanced.cli import main; "
                  f"sys.exit(main({[*args, '--output', 'out.csv']!r}))", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out.csv").read_text().count("\n") > 1


@pytest.mark.parametrize("args", [
    ["expand", "--n-max", "10"],
    ["enumerate", "--n", "3"],
    ["verify-transforms"],
    ["verify-decomposition", "--grid", "default"],
    ["equidistribution", "--moduli", "3", "--checkpoints", "20,60"],
    ["logconcavity-scan", "--c", "3", "--n-max", "60"],
    ["lemma-ratios", "--moduli", "3"],
    ["asym-report", "--c", "1"],
    ["asym-report", "--c", "3"],
    ["asym-report", "--c", "4", "--allow-even"],
    ["asym-report", "--c", "3", "--format", "json"],
], ids=lambda args: " ".join(args) if args[0] == "asym-report" else args[0])
def test_every_command_runs_without_mpmath(tmp_path, args):
    # a None entry in sys.modules makes every `import mpmath` raise ImportError
    proc = _child("import sys; sys.modules['mpmath'] = None; "
                  "from oddbalanced.cli import main; "
                  f"sys.exit(main({[*args, '--output', 'out.csv']!r}))", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out.csv").read_text().count("\n") > 1


@pytest.mark.parametrize("record, field", [
    (EvalResult(1j, 0.0), "value"),
    (LemmaRatioRow(3, 1, 0.1, 1j, 1j, 0.0, 0.0), "t"),
    (OddBalancedSequence(4, (2,), (), (1,)), "peak"),
    (ReportRow(2, 5, None, None, None), "exact"),
    (LogConcavityReport(*range(13)), "square_threshold"),
], ids=["EvalResult", "LemmaRatioRow", "OddBalancedSequence", "ReportRow",
        "LogConcavityReport"])
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 0


# Flag values for the contract property: valid small values, values out of
# range and values that do not parse.  Sizes are capped (--n-max <= 40,
# --n <= 8, checkpoints <= 60) so that every example stays cheap.
_INTS = ["0", "1", "2", "3", "5", "-1", "-3"]
_JUNK = ["nan", "inf", "-inf", "abc", ""]


def _lists(items):
    return st.lists(st.sampled_from(items), max_size=3).map(",".join)


_CHECKPOINTS = _lists(_INTS + ["12", "60", "abc", "nan"])
_MODULI = _lists(_INTS + ["7", "9"] + _JUNK)
# t near 0 puts |q| at 1, a large t sends the main term out of range
_T_VALUES = _lists(["0.1", "0.05", "1", "0", "-0.1", "1e-5", "1e-300", "5e-324", "1e300",
                    "1.7976931348623157e308"] + _JUNK)
_COMMON = {
    "--format": st.sampled_from(["csv", "json", "xml", ""]),
    # unwritable only, so that no example leaves a file behind
    "--output": st.sampled_from([".", "missing-dir/out.txt"]),
}
_FLAGS = {
    "expand": {"--n-max": st.sampled_from(_INTS + ["40"] + _JUNK)},
    "enumerate": {"--n": st.sampled_from(_INTS + ["8"] + _JUNK)},
    "verify-transforms": {"--seed": st.sampled_from(_INTS + _JUNK)},
    "verify-decomposition": {
        # {grid} stands for a file of generated points (_GRIDS)
        "--grid": st.sampled_from(["default", "", "missing.json", "{grid}"]),
    },
    "asym-report": {
        "--a": st.sampled_from(_INTS + _JUNK),
        "--c": st.sampled_from(_INTS + _JUNK),
        "--checkpoints": _CHECKPOINTS,
        "--allow-even": None,
        "--precision": st.sampled_from(["30", "50", "100", "10", "0", "-1", "abc", "10001",
                                        "100000000000000000000"]),
    },
    "equidistribution": {"--moduli": _MODULI, "--checkpoints": _CHECKPOINTS},
    "logconcavity-scan": {
        "--a": st.sampled_from(_INTS + _JUNK),
        "--c": st.sampled_from(_INTS + _JUNK),
        "--n-max": st.sampled_from(_INTS + ["40"] + _JUNK),
    },
    "lemma-ratios": {
        "--moduli": _MODULI,
        "--t-values": _T_VALUES,
    },
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags = {**_FLAGS[command], **_COMMON, "--bogus-flag": None}
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=4)):
        if flags[flag] is None:
            argv.append(flag)
        elif draw(st.booleans()):
            argv.append(f"{flag}={draw(flags[flag])}")
        else:
            argv += [flag, draw(flags[flag])]
    return argv


# grid files of finite points: any float or a past-the-float-range int
# for each coordinate (huge |z|, a huge or tiny Im tau), or a small value;
# an order from 1, or none (decomposition.DEFAULT_ORDER)
_COORDINATE = st.one_of(st.floats(-1, 1), st.floats(allow_nan=False, allow_infinity=False),
                        st.integers(-10 ** 400, 10 ** 400))
_GRID_POINT = st.fixed_dictionaries(
    {"z_re": _COORDINATE, "tau_im": st.one_of(st.floats(1e-300, 0.05), _COORDINATE)},
    optional={"z_im": _COORDINATE, "tau_re": _COORDINATE, "order": st.integers(1, 400)})
_GRIDS = st.lists(_GRID_POINT, min_size=1, max_size=3)


@settings(max_examples=200, deadline=None)
@given(argv=st.one_of(_argv(), st.just(["verify-decomposition", "--grid", "{grid}"]),
                      _T_VALUES.map(lambda t: ["lemma-ratios", "--t-values", t])),
       grid=_GRIDS)
def test_exit_code_contract(argv, grid):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "grid.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(grid, fh)
        argv = [word.replace("{grid}", path) for word in argv]
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
                assert code == 2, argv
    assert code in (0, 1, 2), argv
    if code == 2:
        assert_one_line_usage_error(err.getvalue())
    elif code == 1:
        assert json.loads(err.getvalue())["status"] == "fail"


def _parsed(parse, argv):
    """The settings where parse accepts argv, None where it exits 2 (as
    argparse does) or raises InputError (as the table does).  Floats are
    compared by repr, so that nan equals nan."""
    with redirect_stderr(io.StringIO()):
        try:
            config = parse(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return None
        except InputError:
            return None
    return {k: repr(v) for k, v in vars(config).items()}


@settings(max_examples=300, deadline=None)
@given(argv=_argv())
# argv the strategy reaches rarely: a value that starts with '-' (a flag
# unless it is a negative number or '-' alone), a repeated flag, a bare
# flag given a value, a stray word, no command
@example(argv=["asym-report", "--checkpoints", "-1,3"])
@example(argv=["lemma-ratios", "--t-values", "-inf"])
@example(argv=["lemma-ratios", "--t-values", "-.5"])
@example(argv=["expand", "--output", "-"])
@example(argv=["expand", "--n-max", "3", "--n-max=4"])
@example(argv=["asym-report", "--allow-even=1"])
@example(argv=["expand", "--precision", "40"])
@example(argv=["expand", "extra"])
@example(argv=["expand", "--n-max"])
@example(argv=[])
def test_table_parser_agrees_with_argparse(argv):
    # the strategy draws only full flag names, so argparse's prefix
    # matching, the one documented difference, never comes up
    expected = _parsed(build_parser().parse_args, argv)
    got = _parsed(cli.parse_args, argv)
    assert got == expected, argv
    if got is None:  # main reports the refusal as one line and exit 2
        err = io.StringIO()
        with redirect_stderr(err):
            assert cli.main(argv) == 2, argv
        assert_one_line_usage_error(err.getvalue())


@pytest.mark.parametrize("argv", [["--help"], ["-h"], *([c, "--help"] for c in sorted(_FLAGS))],
                         ids=" ".join)
def test_help_lists_every_command_and_flag(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    names = sorted(_FLAGS) if len(argv) == 1 else cli._options(argv[0])
    for name in names:
        assert name in out, name
    if len(argv) == 2:
        _check_printed_defaults(argv[0], out, capsys)


def _run_checkpoints(argv, capsys):
    """The checkpoints a run of argv reports, read from its n column."""
    assert cli.main([*argv, "--format", "json"]) == 0
    return tuple(dict.fromkeys(int(row["n"]) for row in json.loads(capsys.readouterr().out)))


def _check_printed_defaults(command, out, capsys):
    # each printed default of a valued option parses, through that
    # option's own parser, back to the value a run uses; an option whose
    # default is no value, or a bare flag, is described in parentheses.
    # The option's domain, if it has one, follows in parentheses.
    lines = out.splitlines()
    printed = dict(line.split(None, 1)
                   for line in lines[lines.index("options, their defaults and domains:") + 1:])
    options = cli._options(command)
    assert sorted(printed) == sorted(options)
    for flag, (dest, parse, default, domain) in options.items():
        text = printed[flag]
        if domain:
            text, _, printed_domain = text.rpartition(" (")
            assert printed_domain == domain[0] + ")", flag
        if text.startswith("("):
            assert parse is None or default is None, flag
        elif flag == "--checkpoints":  # read back from what a run reports
            at_c1, _, otherwise = text.partition(" at --c 1, else ")
            assert parse(at_c1) == _run_checkpoints([command], capsys)
            if otherwise:
                assert parse(otherwise) == _run_checkpoints([command, "--c", "3"], capsys)
        else:
            assert parse(text) == getattr(cli.RunConfig(command), dest), flag


def test_abbreviated_flags_are_usage_errors(capsys):
    # argparse took an unambiguous prefix of a flag; the table does not
    assert cli.main(["asym-report", "--check", "20"]) == 2
    assert_one_line_usage_error(capsys.readouterr().err)
