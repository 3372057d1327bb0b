"""The four reference tables, the ``natural --trace`` derivation, the ``et``
and ``weber`` lines and the five ``export`` files must render byte-identically
to the checked-in golden files, whose numeric content is produced by the exact
modules.  A pairing whose diatonic sounds took as many fifths each cannot be
ordered, and the pairing table refuses it."""

from pathlib import Path

import pytest

from tritune import cli, tables
from tritune.errors import PropositionViolationError
from tritune.pythagorean import FifthStep, generate_fifths, pairing_table
from tritune.tables import (
    chromatic_text,
    comparison_text,
    fifth_generation_text,
    pairing_text,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def table():
    return generate_fifths(12, 12)


def test_fifth_generation_table(table):
    assert fifth_generation_text(table) == golden("fifth_generation.txt")


def test_pairing_table(table):
    assert pairing_text(table) == golden("pairing.txt")


def test_pairing_table_refuses_a_tie_in_fifth_counts(table, monkeypatch):
    # MI's pair made 8 fifths down and 8 up: neither is reached in fewer
    pairs = dict(pairing_table(table, 12))
    pairs[4] = (FifthStep("down", 8), FifthStep("up", 8))
    monkeypatch.setattr(tables, "pairing_table", lambda t, n: pairs)
    with pytest.raises(PropositionViolationError, match="^degree 4: fifth counts tie"):
        pairing_text(table)


def test_chromatic_table(table):
    assert chromatic_text(table) == golden("chromatic.txt")


def test_comparison_table():
    assert comparison_text() == golden("comparison.txt")


def test_natural_trace(capsys):
    assert cli.main(["natural", "--trace"]) == 0
    assert capsys.readouterr().out == golden("natural_trace.txt")


def test_natural_is_the_last_eight_lines_of_the_trace(capsys):
    assert cli.main(["natural"]) == 0
    last_eight = golden("natural_trace.txt").splitlines(keepends=True)[-8:]
    assert capsys.readouterr().out == "".join(last_eight)


#: command lines whose whole output has a golden file: ``et`` prints eleven
#: roots from the float start of ``ratio._root_candidate``
COMMANDS = {
    "et12.txt": ["et", "--n", "12"],
    "weber13.txt": ["weber", "--s1", "1", "--c", "1", "--k", "1", "--n", "13"],
}


@pytest.mark.parametrize("name", COMMANDS)
def test_command_output(name, capsys):
    assert cli.main(COMMANDS[name]) == 0
    assert capsys.readouterr() == (golden(name), "")


#: each export golden with the arguments that write it; an scl file's comment
#: line carries the file's basename, so each is written under its own name
EXPORTS = {
    "comparison.csv": ["--format", "csv"],
    "comparison.json": ["--format", "json"],
    "natural.scl": ["--format", "scl", "--scale", "natural"],
    "pyth.scl": ["--format", "scl", "--scale", "pyth"],
    "et12.scl": ["--format", "scl", "--scale", "et", "--n", "12"],
}


@pytest.mark.parametrize("name", EXPORTS)
def test_export_file(name, tmp_path, capsys):
    path = tmp_path / name
    assert cli.main(["export", *EXPORTS[name], "--out", str(path)]) == 0
    assert capsys.readouterr().out == f"wrote {path}\n"
    assert path.read_bytes() == (GOLDEN_DIR / name).read_bytes()


def test_goldens_carry_the_reference_values():
    """Spot-check the checked-in files against independently stated values."""
    fifth = golden("fifth_generation.txt")
    assert "531441/524288 1.01364" in fifth
    assert "256/243 1.05349" in fifth
    assert fifth.count("\n") == 26
    chromatic = golden("chromatic.txt")
    assert "RE♭" in chromatic and "2187/2048" in chromatic
    comparison = golden("comparison.txt")
    assert "FA: N = P < E" in comparison
