"""Span recorder for the per-layer half of the benchmark.

Each public function listed in ``LAYERS`` is wrapped at every ``tritune.*``
module attribute that holds the same function object.  Modules import by name
(``from .ratio import integer_nth_root`` in ``equal``), so patching only the
defining module would miss most calls; rebinding every holder also catches the
imports made inside function bodies, which read the module attribute at call
time.  Leaving the ``with`` block restores every attribute.

Spans stay in memory until :meth:`Recorder.metrics` folds them.  A span's self
time is its duration minus the durations of its direct children; calls on one
thread nest, so the children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

#: layer -> {public function: metric group}.  A group's self time is reported
#: as ``<group>_ms``, or ``<layer>.ms`` when the group is the whole layer.
LAYERS = {
    "ratio": {
        "integer_nth_root": "ratio.root",
        "to_decimal": "ratio.decimal",
        "rational_to_monzo": "ratio.monzo",
        "monzo_to_rational": "ratio.monzo",
        "monzo_form": "ratio.monzo",
        "reduce_to_octave": "ratio.other",
        "cents": "ratio.other",
    },
    "equal": {
        "et_value": "equal.et_value",
        "nearest_degree": "equal.compare",
        "compare_fraction_to_et": "equal.compare",
        "generate_et": "equal.generate",
    },
    "pythagorean": {
        "generate_fifths": "pythagorean.generate",
        "pairing_table": "pythagorean.pairing",
        "select_chromatic": "pythagorean.select",
        "classify_to_et": "pythagorean.classify",
    },
    "natural": {
        "build_core": "natural.derive",
        "solve_fa_la": "natural.derive",
        "find_si": "natural.derive",
        "assemble_diatonic": "natural.derive",
        "compare_three_scales": "natural.compare",
    },
    "intervals": {"note_name": "intervals", "classify_chord": "intervals"},
    "weber": {"uniform_stimuli": "weber"},
    "tables": {
        "fifth_generation_text": "tables",
        "pairing_text": "tables",
        "chromatic_text": "tables",
        "comparison_text": "tables",
    },
    "scalefile": {
        "natural_scale_document": "scalefile.write",
        "et_scale_document": "scalefile.write",
        "pythagorean_chromatic_document": "scalefile.write",
        "render_scl": "scalefile.write",
        "comparison_table": "scalefile.write",
        "export_table": "scalefile.write",
        "parse_scl": "scalefile.read",
    },
    "cli": {"main": "cli"},
}

#: groups whose call count is reported as ``<group>_calls``
COUNTED = ("ratio.root", "ratio.decimal", "equal.et_value", "equal.compare")


def _utf8_len(text: str) -> int:
    return len(text.encode("utf-8"))


#: function -> (counter, amount taken from its positional args and result)
AMOUNTS = {
    "integer_nth_root": ("ratio.root_radicand_bits", lambda args, _: args[0].bit_length()),
    "render_scl": ("scalefile.bytes_written", lambda _, text: _utf8_len(text)),
    "export_table": ("scalefile.bytes_written", lambda _, text: _utf8_len(text)),
    "parse_scl": ("scalefile.bytes_read", lambda args, _: _utf8_len(args[0])),
    "fifth_generation_text": ("tables.bytes", lambda _, text: _utf8_len(text)),
    "pairing_text": ("tables.bytes", lambda _, text: _utf8_len(text)),
    "chromatic_text": ("tables.bytes", lambda _, text: _utf8_len(text)),
    "comparison_text": ("tables.bytes", lambda _, text: _utf8_len(text)),
}

#: counters the benchmark adds itself, where no return value carries the size
EXTERNAL = ("cli.bytes_out",)


def _catalogue() -> list[tuple[str, str, str, str]]:
    """``(metric, unit, kind, key)`` for every per-layer metric, in report order."""
    rows = []
    groups = list(dict.fromkeys(g for funcs in LAYERS.values() for g in funcs.values()))
    for group in groups:
        if group in COUNTED:
            rows.append((f"{group}_calls", "count/op", "calls", group))
        name = f"{group}_ms" if "." in group else f"{group}.ms"
        rows.append((name, "ms/op", "ms", group))
    rows.append(("ratio.root_radicand_bits", "bits/call", "bits", "ratio.root"))
    counters = dict.fromkeys(c for c, _ in AMOUNTS.values() if not c.endswith("_bits"))
    rows += [(c, "B/op", "amount", c) for c in [*counters, *EXTERNAL]]
    rows += [(f"{layer}.raised", "count/op", "raised", layer) for layer in LAYERS]
    return rows


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    return {name: unit for name, unit, _, _ in _catalogue()}


class Recorder:
    """Wraps the listed functions while active and keeps one span per call.

    A span is ``(op, parent, layer, group, start_ns, end_ns, raised)``; the
    benchmark sets :attr:`op` before each operation so the spans of one
    operation share its id.
    """

    def __init__(self):
        self.op = 0
        self.spans: list = []
        self.amounts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list = []

    def __enter__(self) -> "Recorder":
        wrappers = {}
        for layer, funcs in LAYERS.items():
            module = sys.modules[f"tritune.{layer}"]
            for name, group in funcs.items():
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._wrap(fn, layer, group, AMOUNTS.get(name)))
        for modname, module in list(sys.modules.items()):
            if modname != "tritune" and not modname.startswith("tritune."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, fn, layer: str, group: str, amount):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                spans[index] = (self.op, parent, layer, group, start, end, raised)
            if amount is not None:
                counter, measure = amount
                self.amounts[counter] += measure(args, result)
            return result

        return traced

    def calls(self) -> dict[str, int]:
        """Number of spans per metric group."""
        counts: dict[str, int] = defaultdict(int)
        for span in self.spans:
            counts[span[3]] += 1
        return counts

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-operation values of every name in :func:`metric_units`.

        An exception counts as raised by a layer when it leaves a span of that
        layer for a caller outside it.
        """
        spans = self.spans
        covered = [0] * len(spans)
        for _, parent, _, _, start, end, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        self_ns: dict[str, int] = defaultdict(int)
        raised: dict[str, int] = defaultdict(int)
        for i, (_, parent, layer, group, start, end, failed) in enumerate(spans):
            self_ns[group] += end - start - covered[i]
            if failed and (parent < 0 or spans[parent][2] != layer):
                raised[layer] += 1
        calls = self.calls()
        per_op = {
            "calls": lambda key: calls[key] / ops,
            "ms": lambda key: self_ns[key] / 1e6 / ops,
            "raised": lambda key: raised[key] / ops,
            "amount": lambda key: self.amounts[key] / ops,
            "bits": lambda key: self.amounts["ratio.root_radicand_bits"] / max(calls[key], 1),
        }
        return {name: per_op[kind](key) for name, _, kind, key in _catalogue()}
