"""decomposition.py reads no field of an EvalResult by name: T1, T_mid, T2 and the
right side T1 + T - w T2 each keep their inputs' radii, so no residual that
verify-decomposition prints comes without the error its inputs carry.  The sample
unpacks the right side's ball where it reports the residual and the budget, and the
command's entry takes the midpoint it prints by index."""

import ast
from pathlib import Path

DECOMPOSITION = Path(__file__).resolve().parents[1] / "src" / "oddbalanced" / "decomposition.py"
FIELDS = {"value", "truncation_bound"}


def field_reads(text):
    """The lines of text that read an EvalResult field by attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.Attribute) and node.attr in FIELDS)


def test_the_check_finds_a_dropped_radius():
    source = "def T(z, tau):\n    return 2 * theta(z, tau).value\n\n\nx = mu(1).truncation_bound\n"
    assert field_reads(source) == [2, 5]


def test_decomposition_reads_no_field_of_a_ball():
    assert field_reads(DECOMPOSITION.read_text(encoding="utf-8")) == []
