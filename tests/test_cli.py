import contextlib
import io
import json
import os
import re
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritune import cli, natural
from tritune.cli import main
from tritune.equal import MAX_DIVISIONS, MAX_ET_DIGITS
from tritune.errors import TuningError
from tritune.ratio import EXPONENT_BOUND, MAX_DIGITS
from tritune.weber import MAX_STIMULI

GOLDEN_DIR = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNatural:
    def test_eight_rows_with_si(self, capsys):
        code, out, _ = run(capsys, "natural")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 8
        assert "SI 15/8 1.875" in lines
        assert lines[0] == "DO 1/1 1"
        assert lines[-1] == "DO 2/1 2"

    def test_trace(self, capsys):
        code, out, _ = run(capsys, "natural", "--trace")
        assert code == 0
        assert "mean(DO, 2DO) -> SOL = 3/2" in out
        assert "system FA, LA -> 4/3, 5/3" in out
        assert "search SI -> 15/8" in out


#: the just scale's derivation, each step of which one command runs once
DERIVATION = ("build_core", "solve_fa_la", "find_si", "assemble_diatonic")


@pytest.mark.parametrize(
    "argv",
    [
        ["natural"],
        ["natural", "--trace"],
        ["compare"],
        ["export", "--format", "csv"],
        ["export", "--format", "json"],
        ["export", "--format", "scl", "--scale", "natural"],
    ],
    ids=" ".join,
)
def test_one_derivation_per_command(argv, tmp_path, capsys, monkeypatch):
    # every tritune module attribute holding a step is counted, as the
    # benchmark's span recorder wraps them
    calls = Counter()
    for name in DERIVATION:
        step = getattr(natural, name)

        def counted(*args, _step=step, _name=name, **kwargs):
            calls[_name] += 1
            return _step(*args, **kwargs)

        for modname, module in list(sys.modules.items()):
            if modname.startswith("tritune.") and getattr(module, name, None) is step:
                monkeypatch.setattr(module, name, counted)
    if argv[0] == "export":
        argv = [*argv, "--out", str(tmp_path / "out.scl")]
    assert main(argv) == 0
    capsys.readouterr()
    assert calls == Counter(dict.fromkeys(DERIVATION, 1))
    assert not {"build_core", "solve_fa_la", "find_si"} & set(vars(cli))


@pytest.mark.parametrize(
    "argv",
    [
        ["natural", "--trace"],
        ["compare"],
        ["export", "--format", "csv"],
        ["export", "--format", "json"],
        ["export", "--format", "scl", "--scale", "natural"],
    ],
    ids=" ".join,
)
def test_one_candidate_record_per_command(argv, tmp_path, capsys, monkeypatch):
    # the SI search decides its 42 candidates in integers: only the accepted one
    # becomes a Candidate, and no command reads the 41 rejected ones
    made = []
    candidate = natural.Candidate

    def counted(*args):
        made.append(args)
        return candidate(*args)

    monkeypatch.setattr(natural, "Candidate", counted)
    if argv[0] == "export":
        argv = [*argv, "--out", str(tmp_path / "out.scl")]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert [args[2] for args in made] == [Fraction(15, 8)]
    if argv[0] == "natural":
        assert "; 41 candidates rejected" in out


def test_the_console_script_is_main():
    # the "tritune" command an install puts on PATH runs the same main as
    # "python -m tritune.cli", which every other test and CI step calls
    tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11
    with open(Path(__file__).parent.parent / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["tritune"]
    module, _, attr = target.partition(":")
    assert module == "tritune.cli" and getattr(cli, attr) is main


class TestPyth:
    def test_generation_listing(self, capsys):
        code, out, _ = run(capsys, "pyth", "--fifths-up", "12", "--fifths-down", "12")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 26
        assert any("531441/524288 1.01364" in line for line in lines)

    def test_views(self, capsys):
        code, out, _ = run(capsys, "pyth", "--pairing")
        assert code == 0 and out.count("\n") == 13
        code, out, _ = run(capsys, "pyth", "--chromatic")
        assert code == 0 and out.count("\n") == 18

    def test_short_walk(self, capsys):
        code, out, _ = run(capsys, "pyth", "--fifths-up", "1", "--fifths-down", "1")
        assert code == 0
        assert out.splitlines() == [
            "1/1 1 1",
            "4/3 1.33333 2*(3/2)^-1",
            "3/2 1.5 3/2",
            "2/1 2 2",
        ]

    def test_pairing_needs_full_walk(self, capsys):
        code, _, err = run(capsys, "pyth", "--fifths-up", "3", "--pairing")
        assert code == 1
        assert err.startswith("error:")


class TestEt:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "et", "--n", "12")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 13
        assert lines[7] == "7 2^(7/12) 1.49830"
        assert lines[0] == "0 1 1"
        assert lines[-1] == "12 2 2"

    def test_digits_flag(self, capsys):
        code, out, _ = run(capsys, "et", "--n", "2", "--digits", "3")
        assert code == 0
        assert out.splitlines()[1] == "1 2^(1/2) 1.414"

    def test_domain_error_exits_one(self, capsys):
        code, _, err = run(capsys, "et", "--n", "0")
        assert code == 1
        assert err.startswith("error:")

    def test_digit_cap_prints_nothing(self, capsys):
        code, out, err = run(capsys, "et", "--n", "12", "--digits", "5000")
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_error_on_a_later_line_prints_nothing(self, capsys, monkeypatch):
        def fail_at_five(p, digits):
            if p.k == 5:
                raise TuningError("no value")
            return "1"

        monkeypatch.setattr(cli, "et_value", fail_at_five)
        code, out, err = run(capsys, "et", "--n", "12")
        assert (code, out, err) == (1, "", "error: no value\n")


class TestWeberAndChord:
    def test_weber_doubling(self, capsys):
        code, out, _ = run(capsys, "weber", "--s1", "1", "--c", "1", "--k", "1", "--n", "4")
        assert code == 0
        assert out.strip() == "1 2 4 8"

    def test_weber_domain_error(self, capsys):
        code, _, err = run(capsys, "weber", "--s1", "1", "--c", "-3", "--k", "1", "--n", "4")
        assert code == 1 and "ratio" in err

    def test_weber_bad_input_is_one_error_line(self, capsys):
        for argv in (
            ("--s1", "1", "--c", "1", "--k", "1", "--n", "100000000"),
            ("--s1", "1", "--c", "0", "--k", "1", "--n", "100000000"),
            ("--s1", "nan", "--c", "1", "--k", "1", "--n", "3"),
            ("--s1", "1", "--c", "1", "--k", "1", "--n", "2000"),
        ):
            code, out, err = run(capsys, "weber", *argv)
            assert (code, out) == (1, "")
            assert err.startswith("error:") and err.count("\n") == 1

    def test_chords(self, capsys):
        assert run(capsys, "chord", "0,4,7")[1].strip() == "DO major"
        assert run(capsys, "chord", "2,5,9")[1].strip() == "RE minor"
        assert run(capsys, "chord", "4,8,11,15")[1].strip() == "MI major seventh"
        assert run(capsys, "chord", "0,1,2")[1].strip() == "unknown"

    def test_chord_errors(self, capsys):
        assert run(capsys, "chord", "0,4")[0] == 1
        assert run(capsys, "chord", "zero,four,seven")[0] == 1


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_unknown_flag(self, capsys):
        assert run(capsys, "natural", "--loud")[0] == 2

    def test_missing_required(self, capsys):
        assert run(capsys, "et")[0] == 2

    def test_a_command_is_parsed_by_its_own_parser_alone(self, tmp_path, capsys, monkeypatch):
        def trap(*args, **kwargs):
            raise AssertionError("the top parser parsed a known command")

        monkeypatch.setattr(cli._PARSER, "parse_args", trap)
        assert run(capsys, "et", "--n", "12")[0] == 0
        assert run(capsys, "compare")[0] == 0
        assert run(capsys, "export", "--format", "csv", "--out", str(tmp_path / "c.csv"))[0] == 0

    @pytest.mark.parametrize(
        "argv", [[], ["frobnicate"], ["x", "et", "--n", "2"], ["--", "et", "--n", "12"]], ids=repr
    )
    def test_no_command_first_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("usage: tritune [-h]")

    def test_top_level_help(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0 and out.startswith("usage: tritune [-h]")

    def test_a_line_the_top_parser_accepts_is_still_refused(self, capsys, monkeypatch):
        # should an argparse release read a command after a leading token,
        # no runner is reached: the command must be the first argument
        monkeypatch.setattr(cli._PARSER, "parse_args", lambda argv: None)
        code, out, err = run(capsys, "--", "et", "--n", "12")
        assert (code, out) == (2, "") and err.endswith("error: the command must come first\n")

    def test_an_unrecognized_argument_prints_the_command_usage(self, capsys):
        code, out, err = run(capsys, "et", "--n", "12", "x")
        assert (code, out) == (2, "")
        assert err.startswith("usage: tritune et ")
        assert err.endswith("tritune et: error: unrecognized arguments: x\n")

    def test_every_command_has_a_runner(self):
        assert set(cli._RUNNERS) == set(cli._COMMANDS)


class TestExport:
    def test_scl_default_natural(self, tmp_path, capsys):
        out_path = tmp_path / "just.scl"
        code, out, _ = run(capsys, "export", "--format", "scl", "--out", str(out_path))
        assert code == 0
        assert f"wrote {out_path}" in out
        text = out_path.read_text(encoding="utf-8")
        assert text.startswith("! just.scl\n")
        assert text.endswith("2/1\n")

    def test_scl_et_and_pyth(self, tmp_path, capsys):
        et_path = tmp_path / "equal12.scl"
        run(capsys, "export", "--format", "scl", "--scale", "et", "--out", str(et_path))
        assert "100.00000" in et_path.read_text(encoding="utf-8")

        pyth_path = tmp_path / "chromatic.scl"
        run(capsys, "export", "--format", "scl", "--scale", "pyth", "--out", str(pyth_path))
        content = pyth_path.read_text(encoding="utf-8")
        assert "2187/2048" in content
        assert content.splitlines()[2] == "17"

    def test_csv_and_json(self, tmp_path, capsys):
        csv_path = tmp_path / "table.csv"
        run(capsys, "export", "--format", "csv", "--out", str(csv_path))
        assert "RE,1.12246,1.125,1.125" in csv_path.read_text(encoding="utf-8")

        json_path = tmp_path / "table.json"
        run(capsys, "export", "--format", "json", "--out", str(json_path))
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert payload["rows"][0]["degree"] == "DO"

    def test_unwritable_path_exits_one(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "export", "--format", "csv", "--out", str(tmp_path / "no" / "way.csv")
        )
        assert code == 1
        assert err.startswith("error:")

    def test_file_name_of_two_lines_exits_one_and_writes_nothing(self, tmp_path, capsys):
        argv = ("export", "--format", "scl", "--out", str(tmp_path / "a\nb.scl"))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and err.count("\n") == 1
        assert err.startswith("error: a file name must be one line")
        assert list(tmp_path.iterdir()) == []


class TestCaps:
    """Each documented input cap, at its value and one past it."""

    @pytest.mark.parametrize(
        "argv, lines",
        [
            (("et", "--n", str(MAX_DIVISIONS), "--digits", "1"), MAX_DIVISIONS + 1),
            (("et", "--n", "1", "--digits", str(MAX_DIGITS)), 2),
            (("et", "--n", "12", "--digits", str(MAX_ET_DIGITS // 12)), 13),
            (("et", "--n", "480", "--digits", str(MAX_ET_DIGITS // 480)), 481),
            (("pyth", "--fifths-up", str(EXPONENT_BOUND)), EXPONENT_BOUND + 14),
            (("pyth", "--fifths-down", str(EXPONENT_BOUND)), EXPONENT_BOUND + 14),
            (("weber", "--s1", "1", "--c", "0", "--k", "1", "--n", str(MAX_STIMULI)), 1),
        ],
    )
    def test_at_the_cap(self, capsys, argv, lines):
        code, out, err = run(capsys, *argv)
        assert (code, out.count("\n"), err) == (0, lines, "")

    @pytest.mark.parametrize(
        "argv",
        [
            ("et", "--n", str(MAX_DIVISIONS + 1)),
            ("et", "--n", "1", "--digits", str(MAX_DIGITS + 1)),
            ("et", "--n", "13", "--digits", str(MAX_ET_DIGITS // 13 + 1)),
            ("et", "--n", "481", "--digits", str(MAX_ET_DIGITS // 480)),
            ("et", "--n", str(MAX_DIVISIONS), "--digits", str(MAX_ET_DIGITS // MAX_DIVISIONS + 1)),
            ("pyth", "--fifths-up", str(EXPONENT_BOUND + 1)),
            ("pyth", "--fifths-down", str(EXPONENT_BOUND + 1)),
            ("weber", "--s1", "1", "--c", "0", "--k", "1", "--n", str(MAX_STIMULI + 1)),
        ],
    )
    def test_past_the_cap(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_exported_division_cap(self, tmp_path, capsys):
        path = tmp_path / "et.scl"
        argv = ("export", "--format", "scl", "--scale", "et", "--out", str(path))
        assert run(capsys, *argv, "--n", str(MAX_DIVISIONS))[0] == 0
        assert path.read_text(encoding="utf-8").splitlines()[2] == str(MAX_DIVISIONS)
        path.unlink()
        code, out, err = run(capsys, *argv, "--n", str(MAX_DIVISIONS + 1))
        assert (code, out, path.exists()) == (1, "", False)
        assert err.startswith("error:") and err.count("\n") == 1


def test_reused_parser_keeps_no_state(capsys):
    def golden(name):
        return (GOLDEN_DIR / name).read_text(encoding="utf-8")

    assert run(capsys, "pyth", "--pairing") == (0, golden("pairing.txt"), "")
    assert run(capsys, "pyth") == (0, golden("fifth_generation.txt"), "")
    code, out, err = run(capsys, "pyth", "--pairing", "--chromatic")
    assert (code, out) == (2, "") and "not allowed with" in err
    assert run(capsys, "compare") == (0, golden("comparison.txt"), "")


# no path separators: whatever ``export`` writes lands in the working directory
_TEXT = st.text(st.characters(blacklist_characters="/\\"), max_size=8)
_INT = st.integers(min_value=-3, max_value=70).map(str)
_CHORD = st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=5)

_FLOAT = st.floats().map(str)

#: every subcommand with its options and the values each takes (None: a switch)
_OPTIONS = {
    "et": {"--n": _INT, "--digits": _INT},
    "pyth": {
        "--fifths-up": _INT,
        "--fifths-down": _INT,
        "--pairing": None,
        "--chromatic": None,
    },
    "natural": {"--trace": None},
    "compare": {},
    "weber": {"--s1": _FLOAT, "--c": _FLOAT, "--k": _FLOAT, "--n": _INT},
    "chord": {},
    "export": {
        "--format": st.sampled_from(["scl", "csv", "json"]),
        "--scale": st.sampled_from(["et", "pyth", "natural"]),
        "--n": _INT,
        "--out": _TEXT,
    },
}


@st.composite
def _argvs(draw):
    """A subcommand, most of its options, values that are mostly well typed,
    and now and then a stray token."""
    command = draw(st.sampled_from([*_OPTIONS, "frobnicate", "--help"]))
    argv = [command]
    for flag, values in _OPTIONS.get(command, {}).items():
        if draw(st.integers(min_value=0, max_value=3)):
            argv.append(flag)
            if values is not None:
                argv.append(draw(values if draw(st.integers(0, 9)) else _TEXT))
    if command == "chord":
        argv.append(draw(st.one_of(_CHORD.map(lambda c: ",".join(map(str, c))), _TEXT)))
    if not draw(st.integers(min_value=0, max_value=4)):
        argv.insert(draw(st.integers(min_value=0, max_value=len(argv))), draw(_TEXT))
    return argv


@settings(deadline=None)
@given(_argvs())
def test_main_only_returns_a_status(argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2)
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
    if code == 2:  # the top parser's usage error, or a command's: its usage, then the error
        assert out.getvalue() == ""
        # an argument may hold a line break, so the error line is found from the usage on
        assert re.fullmatch(r"usage: tritune.*\ntritune( \w+)?: error: .*\n", err.getvalue(), re.S)
