import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddbalanced import cli
from oddbalanced.asymptotics import LemmaRatioRow
from oddbalanced.enumerator import OddBalancedSequence, enumerate_sequences
from oddbalanced.genfunc import expand_V_rank
from oddbalanced.modular import EvalResult

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


def test_verify_transforms_tampered_threshold(tmp_path, capsys):
    out = tmp_path / "laws.csv"
    code, captured = run_cli(
        ["verify-transforms", "--max-residual", "1e-30", "--output", str(out)], capsys)
    assert code == 1
    record = json.loads(captured.err.strip())
    assert record["status"] == "fail"
    assert record["check"] == "verify-transforms"


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


def test_verify_transforms_zero_max_residual_is_a_limit(tmp_path, capsys):
    code, captured = run_cli(["verify-transforms", "--max-residual", "0",
                              "--output", str(tmp_path / "laws.csv")], capsys)
    assert code == 1
    assert json.loads(captured.err.strip())["check"] == "verify-transforms"


@pytest.mark.parametrize("command", ["verify-transforms", "verify-decomposition"])
@pytest.mark.parametrize("value", ["-0.001", "nan"])
def test_bad_max_residual_is_a_usage_error(tmp_path, capsys, command, value):
    code, captured = run_cli([command, "--max-residual", value,
                              "--output", str(tmp_path / "out.csv")], capsys)
    assert code == 2
    assert_one_line_usage_error(captured.err)


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
])
def test_bad_lemma_inputs_are_usage_errors(tmp_path, capsys, args):
    code, captured = run_cli(["lemma-ratios", *args,
                              "--output", str(tmp_path / "lr.csv")], capsys)
    assert code == 2
    assert_one_line_usage_error(captured.err)


def test_verify_decomposition_default_grid(tmp_path):
    out = tmp_path / "dec.csv"
    code, _ = run_cli(["verify-decomposition", "--grid", "default",
                       "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 13  # header + 12 grid points


def test_verify_decomposition_tampered(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([
        {"z_re": 0.2, "z_im": 0.0, "tau_re": 0.0, "tau_im": 0.9, "order": 250}]))
    code, captured = run_cli(
        ["verify-decomposition", "--grid", str(grid), "--max-residual", "1e-30"],
        capsys)
    assert code == 1
    assert json.loads(captured.err.strip())["check"] == "verify-decomposition"


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


@pytest.mark.parametrize("args", [
    ["expand", "--n-max", "-1"],
    ["enumerate", "--n", "-1"],
    ["logconcavity-scan", "--n-max", "-2"],
    ["logconcavity-scan", "--n-max", "0"],  # no tail to scan
    ["asym-report", "--checkpoints", "0"],
    ["asym-report", "--c", "3", "--checkpoints=-5,600"],
    ["asym-report", "--c", "2"],
    ["asym-report", "--precision", "20"],
    ["asym-report", "--c", "3", "--a", "5"],
    ["asym-report", "--c", "0"],
    ["logconcavity-scan", "--c", "5", "--a", "-1"],
    ["equidistribution", "--moduli", "0"],
    ["equidistribution", "--moduli", "-3"],
    ["equidistribution", "--moduli", "1"],  # the statistic is always 0
    ["equidistribution", "--moduli", ""],
    ["equidistribution", "--checkpoints=-1,60"],
    ["equidistribution", "--checkpoints", "60"],  # nothing to shrink between
], ids=lambda args: " ".join(args))
def test_bad_exact_command_inputs_are_usage_errors(tmp_path, capsys, args):
    code, captured = run_cli([*args, "--output", str(tmp_path / "out.csv")], capsys)
    assert code == 2
    assert_one_line_usage_error(captured.err)
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("args", [["enumerate", "--n", "2"], ["verify-transforms"]],
                         ids=lambda args: args[0])
@pytest.mark.parametrize("target", ["directory", "missing-dir/out.txt"])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, args, target):
    output = tmp_path if target == "directory" else tmp_path / target
    code, captured = run_cli([*args, "--output", str(output)], capsys)
    assert code == 2
    assert_one_line_usage_error(captured.err)
    assert captured.out == ""


def test_enumerate_lines_are_compact_json(capsys):
    code, captured = run_cli(["enumerate", "--n", "7"], capsys)
    assert code == 0
    assert captured.out == "".join(
        json.dumps({"size": s.size, "sequence": list(s.flatten()), "peak": s.peak,
                    "rank": s.rank}, separators=(",", ":")) + "\n"
        for s in enumerate_sequences(7))


def test_json_rows_match_json_dumps(capsys):
    code, captured = run_cli(["expand", "--n-max", "12", "--format", "json"], capsys)
    assert code == 0
    payload = [{"n": str(n), "m": str(m), "count": str(cnt)}
               for n, m, cnt in expand_V_rank(12).nonzero_items()]
    assert captured.out == json.dumps(payload, indent=1) + "\n"


@pytest.mark.parametrize("rows", [
    [],
    [{"text": 'a "quoted" back\\slash\nnew line \u00e9', "n": 3}, {"n": None}],
], ids=["no rows", "escaped strings"])
def test_json_writer_matches_json_dumps(capsys, rows):
    header = ["text", "n"]
    cli._write_rows(rows, header, cli.RunConfig(command="expand", fmt="json"))
    payload = [{k: cli._fmt(r.get(k)) for k in header} for r in rows]
    assert capsys.readouterr().out == json.dumps(payload, indent=1) + "\n"


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
    with pytest.raises(SystemExit) as exc:
        cli.main(["expand", "--bogus-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("args", [
    ["asym-report", "--c", "1", "--checkpoints", "5,abc"],
    ["expand", "--format", "xml"],
    ["expand", "--bogus-flag"],
    ["no-such-command"],
], ids=lambda args: " ".join(args))
def test_parser_errors_are_one_line(capsys, args):
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
    assert_one_line_usage_error(capsys.readouterr().err)


def _child(code, tmp_path):
    return subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env={"PYTHONPATH": SRC}, capture_output=True, text=True)


def test_cli_import_loads_only_the_standard_library(tmp_path):
    # each command is a fresh process, so what the import loads is paid by
    # every command; only asym-report's main terms need mpmath, and each
    # report module is imported by the commands that run it
    proc = _child("import sys; before = set(sys.modules); import oddbalanced.cli; "
                  "loaded = {'mpmath', 'dataclasses', 'numpy', 'oddbalanced.asymptotics', "
                  "'oddbalanced.decomposition', 'oddbalanced.transforms'} "
                  "& (set(sys.modules) - before); "
                  "assert not loaded, f'{sorted(loaded)} imported'", tmp_path)
    assert proc.returncode == 0, proc.stderr


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
], ids=lambda args: args[0])
def test_commands_but_asym_report_run_without_mpmath(tmp_path, args):
    proc = _child("import sys; sys.modules['mpmath'] = None; "
                  "from oddbalanced.cli import main; "
                  f"sys.exit(main({[*args, '--output', 'out.csv']!r}))", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out.csv").read_text().count("\n") > 1


@pytest.mark.parametrize("record, field", [
    (EvalResult(1j, 0.0), "value"),
    (LemmaRatioRow(3, 1, 0.1, 1j, 1j, 0.0), "t"),
    (OddBalancedSequence(4, (2,), (), (1,)), "peak"),
], ids=["EvalResult", "LemmaRatioRow", "OddBalancedSequence"])
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
_COMMON = {
    "--format": st.sampled_from(["csv", "json", "xml", ""]),
    # unwritable only, so that no example leaves a file behind
    "--output": st.sampled_from([".", "missing-dir/out.txt"]),
    "--precision": st.sampled_from(["30", "50", "100", "10", "0", "-1", "abc"]),
}
_FLAGS = {
    "expand": {"--n-max": st.sampled_from(_INTS + ["40"] + _JUNK)},
    "enumerate": {"--n": st.sampled_from(_INTS + ["8"] + _JUNK)},
    "verify-transforms": {
        "--seed": st.sampled_from(_INTS + _JUNK),
        "--max-residual": st.sampled_from(["0", "1e-7", "1", "-1"] + _JUNK),
    },
    "verify-decomposition": {
        "--grid": st.sampled_from(["default", "", "missing.json"]),
        "--max-residual": st.sampled_from(["0", "1e-7", "1", "-1"] + _JUNK),
    },
    "asym-report": {
        "--a": st.sampled_from(_INTS + _JUNK),
        "--c": st.sampled_from(_INTS + _JUNK),
        "--checkpoints": _CHECKPOINTS,
        "--allow-even": None,
    },
    "equidistribution": {"--moduli": _MODULI, "--checkpoints": _CHECKPOINTS},
    "logconcavity-scan": {
        "--a": st.sampled_from(_INTS + _JUNK),
        "--c": st.sampled_from(_INTS + _JUNK),
        "--n-max": st.sampled_from(_INTS + ["40"] + _JUNK),
    },
    "lemma-ratios": {
        "--moduli": _MODULI,
        "--t-values": _lists(["0.1", "0.05", "1", "0", "-0.1"] + _JUNK),
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


@settings(max_examples=150, deadline=None)
@given(argv=_argv())
def test_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
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
