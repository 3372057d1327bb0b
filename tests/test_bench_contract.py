"""What the benchmark reads from the package: every function it times by
name, every table a command prints, and the scale-file entries its paper12
read-back compares."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from tritune import cli
from tritune.scalefile import natural_scale_document

SPANS = Path(__file__).parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "layer, name",
    [(layer, name) for layer, funcs in _spans().LAYERS.items() for name in funcs],
)
def test_timed_name_is_a_function_of_its_layer(layer, name):
    module = importlib.import_module(f"tritune.{layer}")
    assert inspect.isfunction(getattr(module, name, None))


@pytest.mark.parametrize(
    "argv", [["pyth"], ["pyth", "--pairing"], ["pyth", "--chromatic"], ["compare"]]
)
def test_the_recorder_books_every_table_a_command_prints(argv, capsys):
    with _spans().Recorder() as recorder:
        assert cli.main(argv) == 0
    assert [span[2] for span in recorder.spans].count("tables") == 1
    assert recorder.amounts["tables.bytes"] == len(capsys.readouterr().out.encode("utf-8"))


def test_scale_document_entries_carry_their_value():
    assert natural_scale_document().entries[0].value is not None
