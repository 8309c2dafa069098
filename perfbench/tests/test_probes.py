"""Probes report a metric as missing when the function behind it is gone."""

import probes
from oddbalanced import genfunc, transforms


def test_missing_or_changed_functions_leave_metrics_out(monkeypatch, capsys):
    monkeypatch.delattr(genfunc, "expand_V_rank")
    monkeypatch.setattr(transforms, "all_rows", lambda: [])  # signature changed
    monkeypatch.setattr(probes, "PROBES", (probes.probe_genfunc, probes.probe_transforms,
                                           probes.probe_asymptotics, probes.probe_enumerator))
    values, _ = probes.run_probes(0)
    assert list(values) == ["enumerator.enumerate_sequences.seqs_per_s"]
    err = capsys.readouterr().err
    for name in ("probe_genfunc", "probe_transforms", "probe_asymptotics"):
        assert f"{name}: metrics missing" in err
