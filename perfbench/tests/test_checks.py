"""The output checks: exact references, CLI limits and the tail-bound truth."""

import cmath
import math

import pytest

import checks
import inprocess
import workloads
from oddbalanced import decomposition, genfunc


def test_direct_sum_agrees_with_the_expansion():
    w, q = cmath.exp(2j * math.pi * 0.2), 0.3
    assert checks.direct_V(w, q) == pytest.approx(genfunc.evaluate_V(w, q, 200), rel=1e-13)


def test_false_tail_bound_is_detected():
    z, tau = 0.2 + 0.8j, 0.2j
    low = decomposition.verify_decomposition(z, tau, 40)
    assert checks.bound_is_false(z, tau, low.lhs, low.lhs_tail)
    deep = decomposition.verify_decomposition(0.2, 0.9j, 400)
    assert not checks.bound_is_false(0.2, 0.9j, deep.lhs, deep.lhs_tail)


@pytest.fixture(scope="module")
def residue_outputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("residue")
    wl = workloads.Workload("r", 0, workloads._numbered([
        (("asym-report", "--c", "3", "--a", "2"), "asym_report",
         {"a": 2, "c": 3, "checkpoints": [150, 600]}),
        (("equidistribution", "--moduli", "3,5,7"), "equidistribution",
         {"moduli": [3, 5, 7], "checkpoints": [150, 600]}),
    ]))
    records = inprocess.run(wl, work)
    return [(cmd, rec, (work / cmd.output).read_text()) for cmd, rec in zip(wl.commands, records)]


def test_correct_outputs_pass(residue_outputs):
    for cmd, rec, text in residue_outputs:
        verdict = checks.check_command(cmd, rec["exit"], rec["error"], text)
        assert verdict.rows > 0 and verdict.failed == 0 and not verdict.command_failed


def test_a_wrong_exact_count_fails_its_row(residue_outputs):
    cmd, rec, text = residue_outputs[0]
    exact = str(checks.reference()["residue"]["3"]["2"]["600"])
    tampered = text.replace(exact, str(int(exact) + 3))
    verdict = checks.check_command(cmd, 0, "", tampered)
    assert verdict.failed == 1 and verdict.command_failed


def test_a_traceback_fails_every_row(residue_outputs):
    cmd, _, text = residue_outputs[1]
    verdict = checks.check_command(cmd, 1, "Traceback (most recent call last):\n  ...", text)
    assert verdict.rows == verdict.failed == 6 and verdict.command_failed
    transforms = workloads.build("numeric-checks", 0).commands[0]
    crashed = checks.check_command(transforms, 1, "Traceback ...", "")
    assert crashed.failed == workloads.TRANSFORM_ROWS


def test_transform_limits_are_enforced():
    cmd = workloads.build("numeric-checks", 0).commands[0]
    text = "law,point,residual\ntheta_inversion,p,1e-12\neta_inversion,p,2e-9\n"
    verdict = checks.check_command(cmd, 0, "", text)
    assert (verdict.rows, verdict.failed) == (2, 1)
