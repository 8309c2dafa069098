"""The per-layer names the benchmark reads from the program.

perfbench's probes time the program through public names (the kernels,
the genfunc expansions, the enumerator, the evaluators).  A probe whose
name is gone leaves its metrics out, and the benchmark run then reports
them as null, so one test runs the probes and requires every probed
metric that BENCHMARK.json declares.  The reference values the benchmark
checks outputs against come from the program too, so another test
regenerates them and requires the checked-in file byte for byte.  The
benchmark's checker holds each command's rows to its own copy of the
program's limits, so a third test requires the two copies to agree: a law
the checker does not list fails here, not in a benchmark run.
"""

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_probed_metric_is_a_finite_number(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import probes

    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    probed = [name for name in declared
              if not name.startswith(("trace.", "cli.")) and name != "fail_ratio"]
    values, _ = probes.run_probes(1)
    bad = {name: values.get(name) for name in probed
           if not isinstance(values.get(name), (int, float)) or not math.isfinite(values[name])}
    assert probed and not bad


def test_make_reference_regenerates_the_reference(monkeypatch, tmp_path):
    # make_reference reads the report fields by name (square_threshold,
    # double_scan_max, bound_violations, ...), so a renamed field fails here
    monkeypatch.setattr(sys, "path", [str(ROOT / "perfbench"), *sys.path])
    import make_reference

    monkeypatch.setattr(make_reference, "HERE", tmp_path)
    make_reference.main()
    assert ((tmp_path / "reference.json").read_bytes()
            == (ROOT / "perfbench" / "reference.json").read_bytes())


def test_the_checker_holds_each_check_to_the_program_limit(monkeypatch):
    from oddbalanced import decomposition, transforms

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import checks

    assert {law: checks.TRANSFORM_LIMITS.get(law) for law in transforms.THRESHOLDS} \
        == transforms.THRESHOLDS
    assert decomposition.MAX_RESIDUAL == checks.DECOMPOSITION_LIMIT
