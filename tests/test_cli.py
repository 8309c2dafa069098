import json

import pytest

from oddbalanced import cli


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
])
def test_bad_grid_points_are_usage_errors(tmp_path, capsys, point):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([point]))
    code, captured = run_cli(["verify-decomposition", "--grid", str(grid),
                              "--output", str(tmp_path / "dec.csv")], capsys)
    assert code == 2
    assert_one_line_usage_error(captured.err)


@pytest.mark.parametrize("args", [
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


def test_equidistribution_small(tmp_path):
    out = tmp_path / "eq.csv"
    code, _ = run_cli(["equidistribution", "--moduli", "3", "--checkpoints",
                       "20,60", "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "c,n,stat"
    assert len(lines) == 3


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
