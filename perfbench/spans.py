"""Span recording around the program's layer boundaries, and the self-time
arithmetic that turns spans into per-layer numbers.

The recorder wraps public functions at the names their callers look them
up by: ``genfunc.expand_V_rank`` on the ``genfunc`` module object that
``cli`` calls through, ``kernels.table_mul_w`` on the ``kernels`` module
that ``genfunc`` calls through, and separately ``decomposition.theta`` and
``transforms.theta``, because those modules bind ``theta`` by name.  A
name the program no longer has is skipped.  Spans stay in memory until
the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time
from collections import namedtuple

Span = namedtuple("Span", "id parent name start end")

# The per-layer self times of a run add up to its traced wall time (the
# summed root spans) up to float rounding of the interval arithmetic on
# perf_counter readings: at most this many seconds per span.
ROUNDING_PER_SPAN = 1e-11

LAYERS = ("cli", "genfunc", "kernels", "asymptotics", "decomposition",
          "transforms", "modular", "enumerator")

# (module the caller looks the name up in, attribute, layer of the function)
TARGETS = (
    [("cli", "cmd_*", "cli")]
    + [("genfunc", name, "genfunc") for name in (
        "expand_V_rank", "expand_v_totals", "expand_overpartition",
        "expand_V_value", "expand_V_numeric", "evaluate_V")]
    + [("decomposition", "expand_V_numeric", "genfunc")]
    + [("kernels", name, "kernels") for name in (
        "shift_up", "shifted_add", "shifted_add_one", "geometric_add", "acc_add",
        "table_mul_w", "table_mul_winv", "table_geometric", "table_acc")]
    + [("asymptotics", name, "asymptotics") for name in (
        "asym_report", "equidistribution_stat", "logconcavity_scan",
        "lemma_ratio_report", "lemma_main_term", "main_term_v")]
    + [("decomposition", name, "decomposition") for name in (
        "run_grid", "verify_decomposition", "series_lhs", "T1", "T_mid", "T2")]
    + [("transforms", name, "transforms") for name in (
        "all_rows", "theta_eta_grid", "appell_grid", "mordell_grid")]
    + [(module, name, "modular") for module, names in (
        ("modular", ("theta", "eta", "mordell", "appell", "mu")),
        ("decomposition", ("theta", "eta", "mu")),
        ("transforms", ("theta", "eta", "mordell", "appell")),
        ("asymptotics", ("mordell",)))
       for name in names]
    + [("enumerator", "enumerate_sequences", "enumerator")]
)


class Recorder:
    """Collects spans from wrapped functions; a call stack gives each span
    the span that called it as parent.  The traced run is single-threaded
    (the benchmark clears ODDBALANCED_THREADS), so one stack suffices."""

    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self._clock = clock
        self._ids = itertools.count()
        self._stack = []
        self._patched = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name (``<layer>.<function>``)."""
        stack = self._stack
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = self._clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self._clock()
            stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end))

    def wrap(self, owner, attr, layer):
        fn = getattr(owner, attr, None)
        if not callable(fn):
            return False
        name = f"{layer}.{attr}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, fn))
        return True

    def install(self, package="oddbalanced", targets=TARGETS):
        """Wrap every target the program has; returns the wrapped names."""
        done = []
        for module_name, attr, layer in targets:
            try:
                module = importlib.import_module(f"{package}.{module_name}")
            except ImportError:
                continue
            attrs = ([a for a in vars(module) if a.startswith(attr[:-1])]
                     if attr.endswith("*") else [attr])
            done += [f"{module_name}.{a}" for a in attrs if self.wrap(module, a, layer)]
        return done

    def restore(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """{span id: duration minus the part of it its children cover}."""
    by_id = {s.id: s for s in spans}
    children = {}
    for s in spans:
        if s.parent in by_id:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        clipped = [(max(c.start, s.start), min(c.end, s.end))
                   for c in children.get(s.id, ())]
        out[s.id] = (s.end - s.start) - _covered([iv for iv in clipped if iv[0] < iv[1]])
    return out


def layer_of(name):
    return name.split(".", 1)[0]


def layer_totals(spans, layers=LAYERS):
    """{layer: (self seconds, calls)} over all spans."""
    own = self_times(spans)
    totals = {layer: [0.0, 0] for layer in layers}
    for s in spans:
        entry = totals.setdefault(layer_of(s.name), [0.0, 0])
        entry[0] += own[s.id]
        entry[1] += 1
    return {layer: tuple(v) for layer, v in totals.items()}


def inclusive_times(spans):
    """[(name, (seconds, calls))] by decreasing summed duration of the name's
    spans, children included."""
    out = {}
    for s in spans:
        entry = out.setdefault(s.name, [0.0, 0])
        entry[0] += s.end - s.start
        entry[1] += 1
    return sorted(((k, tuple(v)) for k, v in out.items()), key=lambda kv: -kv[1][0])


def root_time(spans):
    """Summed duration of the spans with no recorded parent."""
    return sum(s.end - s.start for s in spans if s.parent is None)
