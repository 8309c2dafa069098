"""Self-time arithmetic and the traced in-process run."""

import pytest

import inprocess
import spans
import workloads
from spans import Span


def test_self_time_with_overlapping_children():
    tree = [
        Span(0, None, "cli.main", 0.0, 10.0),
        Span(1, 0, "genfunc.a", 1.0, 4.0),
        Span(2, 0, "genfunc.b", 3.0, 6.0),  # overlaps span 1
        Span(3, 0, "modular.c", 8.0, 12.0),  # runs past its parent
        Span(4, 1, "kernels.d", 2.0, 3.0),
        Span(5, 1, "kernels.e", 2.5, 3.5),  # overlaps span 4
    ]
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(10.0 - (5.0 + 2.0))
    assert own[1] == pytest.approx(3.0 - 1.5)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(4.0)
    totals = spans.layer_totals(tree)
    assert totals["kernels"] == (pytest.approx(2.0), 2)
    assert totals["genfunc"] == (pytest.approx(4.5), 2)
    assert totals["enumerator"] == (0.0, 0)


def test_nested_spans_sum_to_root_time():
    tree = [Span(0, None, "cli.main", 0.0, 5.0), Span(1, 0, "genfunc.x", 1.0, 4.0),
            Span(2, 1, "kernels.y", 2.0, 3.0), Span(3, None, "cli.main", 6.0, 7.5)]
    assert sum(t for t, _ in spans.layer_totals(tree).values()) == pytest.approx(6.5)
    assert spans.root_time(tree) == pytest.approx(6.5)


def test_recorder_skips_missing_names_and_restores():
    from oddbalanced import genfunc

    original = genfunc.expand_v_totals
    rec = spans.Recorder()
    wrapped = rec.install(targets=[("genfunc", "expand_v_totals", "genfunc"),
                                   ("genfunc", "no_such_function", "genfunc"),
                                   ("no_such_module", "f", "x")])
    try:
        assert wrapped == ["genfunc.expand_v_totals"]
        assert genfunc.expand_v_totals(5)[5] == original(5)[5]
        assert [s.name for s in rec.spans] == ["genfunc.expand_v_totals"]
    finally:
        rec.restore()
    assert genfunc.expand_v_totals is original


def test_traced_run_self_times_sum_to_traced_wall(tmp_path):
    small = workloads.Workload("small", 0, workloads._numbered([
        (("asym-report", "--c", "3", "--checkpoints", "20,40"), "asym_report", {}),
        (("verify-decomposition", "--grid", "default"), "decomposition", {}),
        (("lemma-ratios", "--moduli", "3"), "lemma_ratios", {}),
        (("enumerate", "--n", "6"), "enumerate", {}),
    ]))
    rec = spans.Recorder()
    rec.install()
    try:
        records = inprocess.run(small, tmp_path, rec)
    finally:
        rec.restore()
    assert [r["exit"] for r in records] == [0, 0, 0, 0]
    totals = spans.layer_totals(rec.spans)
    for layer in ("cli", "genfunc", "kernels", "asymptotics", "decomposition",
                  "modular", "enumerator"):
        assert totals[layer][1] > 0, layer
    layer_sum = sum(t for t, _ in totals.values())
    assert layer_sum == pytest.approx(spans.root_time(rec.spans), abs=spans.ROUNDING_PER_SPAN * len(rec.spans))
    assert sum(r["seconds"] for r in records) >= spans.root_time(rec.spans)
