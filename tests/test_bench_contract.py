"""What the benchmark reads from the package: every function it times by
name, and the scale-file entries its paper12 read-back compares."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from tritune.scalefile import natural_scale_document

SPANS = Path(__file__).parent.parent / "bench" / "spans.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize(
    "layer, name",
    [(layer, name) for layer, funcs in _layers().items() for name in funcs],
)
def test_timed_name_is_a_function_of_its_layer(layer, name):
    module = importlib.import_module(f"tritune.{layer}")
    assert inspect.isfunction(getattr(module, name, None))


def test_scale_document_entries_carry_their_value():
    assert natural_scale_document().entries[0].value is not None
