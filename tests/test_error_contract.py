"""The error contract.  Every error the package raises on purpose is typed:
no plain ValueError or TypeError is raised anywhere under ``src/tritune``.
Every public count, index and ratio argument is checked: a value of the
wrong type or out of range is a TuningError, never a silent conversion.  A
float appears only in the functions that ``FLOAT_SITES`` names."""

import ast
import inspect
import re
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest

from tritune.equal import MAX_DIVISIONS, EtPitch, EtScale, compare_fraction_to_et
from tritune.equal import et_value, generate_et
from tritune.equal import compare_pitches, nearest_degree
from tritune.errors import ExponentBoundError, TuningError, positive_fraction
from tritune.intervals import Interval, are_congruent, classify_chord, compose, interval_between
from tritune.intervals import note_name, transpose_indices
from tritune.natural import ComparisonRow, ScaleComparison, compare_three_scales
from tritune.natural import frequency_of_division
from tritune.natural import harmonic_divide, means
from tritune.pythagorean import FifthStep, PythTable, base_dependence_demo, classify_to_et
from tritune.pythagorean import generate_fifths, pairing_table, select_chromatic
from tritune.ratio import EXPONENT_BOUND, MAX_DIGITS, Monzo, integer_nth_root
from tritune.ratio import is_five_smooth, is_nth_root_irrational
from tritune.ratio import monzo_form, monzo_to_rational, rational_to_monzo
from tritune.ratio import reduce_to_octave
from tritune.ratio import cents, to_decimal
from tritune.scalefile import ScaleDocument, ScaleEntry, comparison_table, et_scale_document
from tritune.scalefile import export_table, parse_scl, pythagorean_chromatic_document, render_scl
from tritune.tables import chromatic_text, fifth_generation_text, pairing_text
from tritune.weber import MAX_STIMULI, perception_increments, uniform_stimuli

SOURCES = sorted((Path(__file__).parent.parent / "src" / "tritune").glob("*.py"))
UNTYPED = {"ValueError", "TypeError"}


def _raised_names(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of every ``raise Name`` or ``raise Name(...)``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                found.append((node.lineno, exc.id))
    return found


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"equal.py", "intervals.py", "ratio.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_plain_value_or_type_error(path):
    raised = _raised_names(ast.parse(path.read_text(encoding="utf-8")))
    assert [(line, name) for line, name in raised if name in UNTYPED] == []


def test_the_check_sees_plain_raises():
    tree = ast.parse("def f():\n    raise ValueError('x')\n\ndef g():\n    raise TypeError\n")
    assert _raised_names(tree) == [(2, "ValueError"), (5, "TypeError")]


def _asserts(tree: ast.AST) -> list[int]:
    """The line of every ``assert`` statement."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    # python -O strips asserts: every check under src/tritune is a typed raise
    assert _asserts(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_check_sees_asserts():
    tree = ast.parse("def f(x):\n    if x:\n        assert x > 0, 'x'\n    return x\n")
    assert _asserts(tree) == [3]


#: math's integer functions; every other name of math reads or gives a float
EXACT_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}


def _float_sites(tree: ast.AST, module: str) -> set[str]:
    """"module.qualname" of every function (the module or class itself, outside
    one) that holds a float literal, the name ``float`` outside an annotation (a
    call, ``isinstance`` or argparse's ``type=float``), a ``math.<name>`` not in
    ``EXACT_MATH``, or an f-string format spec ending in e, f, g or %.  The scan
    does not see a true division of two ints (``p / q``), nor a float spec given
    to ``str.format``, ``format`` or ``%``."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        spec = node.format_spec if isinstance(node, ast.FormattedValue) else None
        spec = spec and "".join(v.value for v in spec.values if isinstance(v, ast.Constant))
        if (
            isinstance(node, ast.Constant) and type(node.value) is float
            or isinstance(node, ast.Name) and node.id == "float"
            or isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "math" and node.attr not in EXACT_MATH
            or spec and re.search(r"[eEfFgG%]$", spec)
        ):
            found.add(scope)
        typed = (getattr(node, "returns", None), getattr(node, "annotation", None))
        for child in ast.iter_child_nodes(node):
            if all(child is not t for t in typed):
                visit(child, scope)

    visit(tree, module)
    return found


#: every function under src/tritune that holds a float, with the reason; an entry
#: leaves when its function becomes exact, so the list only shrinks
FLOAT_SITES = {
    "ratio._cents": "1200 * log2 (ratio.cents reads it); certified cents would retire it",
    "pythagorean.classify_to_et": "its deviation in cents; an exact EtPitch would retire it",
    "scalefile._parse_pitch": "a cents line of an scl file; an exact reading would retire it",
    "cli._run_weber": "prints Weber's series with :g; an exact reading would retire it",
    "weber.perception_increments": "the public API returns floats",
    "weber.uniform_stimuli": "the public API returns floats",
    "errors.finite_real": "the input contract of weber",
    "cli._build_parser": "reads weber's --s1, --c and --k as floats; an exact reading would retire it",
    "equal.EtPitch.__float__": "its result is a float",
    "ratio._root_candidate": "the float start of a root, certified afterwards",
}


def test_every_float_site_is_allowed_and_every_allowed_one_is_there():
    found = set()
    for path in SOURCES:
        found |= _float_sites(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert sorted(found - set(FLOAT_SITES)) == [], "a new float site: make it exact or list it"
    assert sorted(set(FLOAT_SITES) - found) == [], "a retired float site: drop its entry"


def test_the_float_scan_sees_each_kind_of_site():
    source = """
def literal(): return 1.5
def call(x): return float(x)
def parser(p): p.add_argument("--s1", type=float)
def typed(x: float, y: "float") -> float: z: float = x; return z
def log(x): return math.log2(x)
def constant(x): return x < math.inf
def spec(x, w): return f"{x:.3g} {x:>{w}.2f} {x:%}"
class C:
    def method(self): return 2e3
    half = 0.5
def division(p, q): return p / q
def exact(x, w): return math.gcd(x, 6), math.isqrt(x), f"{x:05d} {x!r} {x:>{w}}", 2j
x = 1.0
"""
    assert _float_sites(ast.parse(source), "m") == {
        "m", "m.literal", "m.call", "m.parser", "m.log", "m.constant", "m.spec", "m.C", "m.C.method"
    }


MODULES = [import_module(f"tritune.{p.stem}") for p in SOURCES if p.stem != "__init__"]

#: "module.name:parameter" -> (call taking the parameter's value, lo, hi);
#: None is no bound.  Every other argument of the call is valid.
INT_PARAMETERS = {
    "ratio.Monzo:exp2": (lambda v: Monzo(v, 0, 0), -EXPONENT_BOUND, EXPONENT_BOUND),
    "ratio.Monzo:exp3": (lambda v: Monzo(0, v, 0), -EXPONENT_BOUND, EXPONENT_BOUND),
    "ratio.Monzo:exp5": (lambda v: Monzo(0, 0, v), -EXPONENT_BOUND, EXPONENT_BOUND),
    "ratio.integer_nth_root:x": (lambda v: integer_nth_root(v, 3), 0, None),
    "ratio.integer_nth_root:n": (lambda v: integer_nth_root(8, v), 1, None),
    "ratio.is_nth_root_irrational:m": (lambda v: is_nth_root_irrational(v, 3), 2, None),
    "ratio.is_nth_root_irrational:n": (lambda v: is_nth_root_irrational(8, v), 2, None),
    "ratio.to_decimal:digits": (lambda v: to_decimal(Fraction(1, 3), v), 1, MAX_DIGITS),
    "equal.EtPitch:k": (lambda v: EtPitch(v, 12), None, None),
    "equal.EtPitch:n": (lambda v: EtPitch(1, v), 1, None),
    "equal.et_value:precision_digits": (lambda v: et_value(EtPitch(1, 12), v), 1, MAX_DIGITS),
    "equal.EtScale:n": (lambda v: EtScale(v), 1, MAX_DIVISIONS),
    "equal.EtScale.pitch:k": (lambda v: EtScale(12).pitch(v), None, None),
    "equal.generate_et:n": (lambda v: generate_et(v), 1, MAX_DIVISIONS),
    "equal.nearest_degree:n": (lambda v: nearest_degree(Fraction(3, 2), v), 1, MAX_DIVISIONS),
    "intervals.note_name:chromatic_index": (lambda v: note_name(v), None, None),
    "intervals.transpose_indices:k": (lambda v: transpose_indices([0, 4], v), None, None),
    "pythagorean.FifthStep:k": (lambda v: FifthStep("up", v), 0, EXPONENT_BOUND),
    "pythagorean.generate_fifths:m1": (lambda v: generate_fifths(v, 0), 0, EXPONENT_BOUND),
    "pythagorean.generate_fifths:m2": (lambda v: generate_fifths(0, v), 0, EXPONENT_BOUND),
    "pythagorean.classify_to_et:n": (lambda v: classify_to_et(Fraction(3, 2), v), 1, MAX_DIVISIONS),
    "pythagorean.pairing_table:n": (lambda v: pairing_table(generate_fifths(1, 1), v), 1, MAX_DIVISIONS),
    "weber.uniform_stimuli:n": (lambda v: uniform_stimuli(1.0, 0.0, 1.0, v), 2, MAX_STIMULI),
    "scalefile.et_scale_document:n": (lambda v: et_scale_document(v), 1, MAX_DIVISIONS),
}

#: int parameters outside the contract, with the reason
EXEMPT = {
    "natural.SiSearch:searched": "a derivation record, built only by find_si",
}

#: index lists: each element is an int index, checked like an int parameter
INDEX_LISTS = {
    "intervals.transpose_indices:indices": lambda v: transpose_indices([0, v], 1),
    "intervals.classify_chord:indices": lambda v: classify_chord([0, 4, v]),
}

#: "module.name:parameter" -> call taking a ratio: a positive int or Fraction
RATIO_PARAMETERS = {
    "ratio.rational_to_monzo:r": rational_to_monzo,
    "ratio.is_five_smooth:r": is_five_smooth,
    "ratio.reduce_to_octave:r": reduce_to_octave,
    "ratio.monzo_form:r": monzo_form,
    "equal.nearest_degree:r": lambda v: nearest_degree(v, 12),
    "equal.compare_fraction_to_et:r": lambda v: compare_fraction_to_et(v, EtPitch(1, 12)),
    "equal.compare_fraction_to_et:p": lambda v: compare_fraction_to_et(1, v),
    "pythagorean.classify_to_et:r": lambda v: classify_to_et(v, 12),
    "natural.means:a": lambda v: means(v, 1),
    "natural.means:b": lambda v: means(1, v),
    "natural.harmonic_divide:ac": lambda v: harmonic_divide(v, 1000),
    "natural.harmonic_divide:ad": lambda v: harmonic_divide(Fraction(1, 1000), v),
    "natural.frequency_of_division:f_ac": lambda v: frequency_of_division(v, 1),
    "natural.frequency_of_division:f_ad": lambda v: frequency_of_division(1, v),
    "scalefile.ScaleEntry:value": ScaleEntry,
    "scalefile.ScaleDocument:pitches[0]": lambda v: ScaleDocument("d", (v,)),
    "intervals.are_congruent:a[0]": lambda v: are_congruent([v, 2], [1, 2]),
    "intervals.are_congruent:b[0]": lambda v: are_congruent([1, 2], [v, 2]),
    "intervals.Interval:ratio": Interval,
    "intervals.interval_between:f1": lambda v: interval_between(v, 2),
    "intervals.interval_between:f2": lambda v: interval_between(1, v),
    "equal.compare_pitches:x": lambda v: compare_pitches(v, 1),
    "equal.compare_pitches:y": lambda v: compare_pitches(1, v),
}


#: "module.name:parameter" -> (call taking a record or collection, a valid value)
RECORD_PARAMETERS = {
    "equal.et_value:p": (lambda v: et_value(v, 5), EtPitch(1, 12)),
    "ratio.monzo_to_rational:m": (monzo_to_rational, Monzo(-1, 1)),
    "intervals.classify_chord:indices": (classify_chord, (0, 4, 7)),
    "intervals.transpose_indices:indices": (lambda v: transpose_indices(v, 1), [0, 4]),
    "pythagorean.pairing_table:t": (lambda v: pairing_table(v, 12), generate_fifths(12, 12)),
    "pythagorean.base_dependence_demo:t": (base_dependence_demo, generate_fifths(12, 12)),
    "tables.fifth_generation_text:table": (fifth_generation_text, generate_fifths(12, 12)),
    "tables.pairing_text:table": (pairing_text, generate_fifths(12, 12)),
    "tables.chromatic_text:table": (chromatic_text, generate_fifths(12, 12)),
    "pythagorean.select_chromatic:t": (select_chromatic, generate_fifths(12, 12)),
    "pythagorean.PythTable:down": (lambda v: PythTable(v, ()), generate_fifths(12, 12).down),
    "pythagorean.PythTable:up": (lambda v: PythTable((), v), generate_fifths(12, 12).up),
    "pythagorean.PythTable:down[0]": (lambda v: PythTable((v,), ()), FifthStep("down", 1)),
    "pythagorean.PythTable:up[0]": (lambda v: PythTable((), (v,)), FifthStep("up", 1)),
    "natural.ScaleComparison:rows": (ScaleComparison, compare_three_scales().rows),
    "natural.ScaleComparison:rows[0]": (
        lambda v: ScaleComparison((v,)),
        compare_three_scales().rows[0],
    ),
    "natural.ScaleComparison:rows[0].equal": (
        lambda v: ScaleComparison((ComparisonRow("DO", v, 1, 1),)),
        EtPitch(0, 12),
    ),
    "scalefile.pythagorean_chromatic_document:table": (
        pythagorean_chromatic_document,
        generate_fifths(12, 12),
    ),
    "scalefile.render_scl:doc": (lambda v: render_scl(v, "x.scl"), et_scale_document(12)),
    "scalefile.render_scl:filename": (lambda v: render_scl(et_scale_document(12), v), "x.scl"),
    "scalefile.ScaleDocument:description": (lambda v: ScaleDocument(v, (2,)), "d"),
    "scalefile.ScaleDocument:pitches": (lambda v: ScaleDocument("d", v), (2,)),
    "scalefile.comparison_table:comp": (comparison_table, compare_three_scales()),
    "scalefile.export_table:comp": (lambda v: export_table(v, "csv"), compare_three_scales()),
    "scalefile.comparison_table:comp.rows[0].degree": (
        lambda v: comparison_table(ScaleComparison((ComparisonRow(v, EtPitch(0, 12), 1, 1),))),
        "DO",
    ),
    "scalefile.export_table:comp.rows[0].degree": (
        lambda v: export_table(ScaleComparison((ComparisonRow(v, EtPitch(0, 12), 1, 1),)), "json"),
        "DO",
    ),
    "scalefile.parse_scl:text": (parse_scl, "x\n1\n3/2\n"),
    "intervals.compose:i1": (lambda v: compose(v, Interval(2)), Interval(Fraction(3, 2))),
    "intervals.compose:i2": (lambda v: compose(Interval(2), v), Interval(Fraction(3, 2))),
    "intervals.are_congruent:a": (lambda v: are_congruent(v, [1, 2]), [1, Fraction(3, 2)]),
    "intervals.are_congruent:b": (lambda v: are_congruent([1, 2], v), [1, Fraction(3, 2)]),
    "weber.perception_increments:stimuli": (
        lambda v: perception_increments(v, 1.0),
        [1.0, 2.0],
    ),
}


def _int_parameters():
    """"module.name:parameter" of every parameter annotated int of a public
    function, record or method defined in a tritune module."""
    found = set()
    for mod in MODULES:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            targets = [(name, obj)] if callable(obj) else []
            if inspect.isclass(obj):
                targets += [
                    (f"{name}.{attr}", f)
                    for attr, f in vars(obj).items()
                    if not attr.startswith("_") and inspect.isfunction(f)
                ]
            for qualname, target in targets:
                try:
                    parameters = inspect.signature(target).parameters.values()
                except ValueError:  # a builtin's signature: no annotations
                    continue
                found.update(
                    f"{short}.{qualname}:{p.name}"
                    for p in parameters
                    if p.annotation in ("int", int)
                )
    return found


def test_integer_type_tests_live_in_the_helper():
    pattern = re.compile(r"type\([^)]*\) is (not )?int\b")
    users = {p.name for p in SOURCES if pattern.search(p.read_text(encoding="utf-8"))}
    assert users == {"errors.py"}


def test_every_int_parameter_is_in_the_table():
    assert _int_parameters() == set(INT_PARAMETERS) | set(EXEMPT)


def _bad_ints(lo, hi):
    return [2.5, True, "1"] + ([lo - 1] if lo is not None else []) + (
        [hi + 1] if hi is not None else []
    )


def _contract_error(exc) -> bool:
    return "must be an integer" in str(exc)


@pytest.mark.parametrize("key", sorted(INT_PARAMETERS))
def test_int_parameter_rejects_non_integers_and_out_of_range(key):
    call, lo, hi = INT_PARAMETERS[key]
    error = ExponentBoundError if key.startswith("ratio.Monzo") else TuningError
    for value in _bad_ints(lo, hi):
        with pytest.raises(error) as info:
            call(value)
        assert _contract_error(info.value), (value, info.value)


@pytest.mark.parametrize("key", sorted(INT_PARAMETERS))
def test_int_parameter_accepts_its_bounds(key):
    # a value at a bound passes the check; the call may still fail for
    # another reason (a pairing with too few fifths), never the contract's
    call, lo, hi = INT_PARAMETERS[key]
    for value in {lo if lo is not None else -1, hi if hi is not None else 7}:
        try:
            call(value)
        except TuningError as exc:
            assert not _contract_error(exc), (value, exc)


@pytest.mark.parametrize("key", sorted(INDEX_LISTS))
def test_index_lists_take_integers_only(key):
    call = INDEX_LISTS[key]
    call(7)
    for value in (2.5, True, "1"):
        with pytest.raises(TuningError, match="must be an integer"):
            call(value)


class Ratio(Fraction):
    """A Fraction subclass: taken as a Fraction, and refused with its own repr."""


@pytest.mark.parametrize("key", sorted(RATIO_PARAMETERS))
def test_ratio_parameter_takes_positive_exact_ratios_only(key):
    call = RATIO_PARAMETERS[key]
    call(Fraction(3, 2))
    call(Ratio(3, 2))
    for value in (0, -1, 0.5, "3/2", True, Fraction(-3, 2), Ratio(0), Ratio(-3, 2)):
        with pytest.raises(TuningError):
            call(value)


#: "module.name" -> call reading one pitch: a lattice point, a Monzo, is read as a
#: pitch only through monzo_to_rational
PITCH_READERS = {
    "equal.compare_pitches": lambda v: compare_pitches(v, 1),
    "equal.EtPitch.of": EtPitch.of,
    "equal.EtPitch.__mul__": lambda v: EtPitch(7, 12) * v,
    "equal.EtPitch.__truediv__": lambda v: EtPitch(7, 12) / v,
    "intervals.Interval": Interval,
    "intervals.interval_between": lambda v: interval_between(1, v),
    "intervals.are_congruent": lambda v: are_congruent([1, v], [1, 2]),
    "ratio.cents": cents,
}


@pytest.mark.parametrize("key", sorted(PITCH_READERS))
def test_a_pitch_reader_refuses_a_monzo(key):
    call, fifth = PITCH_READERS[key], Monzo(-1, 1)
    call(monzo_to_rational(fifth))
    with pytest.raises(TuningError):
        call(fifth)


@pytest.mark.parametrize("key", sorted(RECORD_PARAMETERS))
def test_record_parameter_takes_its_type_only(key):
    call, valid = RECORD_PARAMETERS[key]
    call(valid)
    for value in (Fraction(3, 2), 2, 12, 5, None, 1.5):
        with pytest.raises(TuningError, match="must be of type"):
            call(value)


#: "module.name:parameter" -> (call taking one of a few names, the names)
CHOICE_PARAMETERS = {
    "intervals.note_name:preference": (lambda v: note_name(1, v), ("sharp", "flat")),
    "pythagorean.FifthStep:direction": (lambda v: FifthStep(v, 1), ("up", "down")),
    "scalefile.export_table:format": (
        lambda v: export_table(compare_three_scales(), v),
        ("csv", "json"),
    ),
}


@pytest.mark.parametrize("key", sorted(CHOICE_PARAMETERS))
def test_choice_parameter_takes_its_names_only(key):
    call, names = CHOICE_PARAMETERS[key]
    for name in names:
        call(name)
    for value in ("", "x", names[0].upper(), f" {names[0]}", None, 1, True):
        with pytest.raises(TuningError, match=re.escape(repr(value))):
            call(value)


#: "module.name:parameter" -> call taking a real: a finite int, float or Fraction
FLOAT_PARAMETERS = {
    "weber.uniform_stimuli:s1": lambda v: uniform_stimuli(v, 1.0, 1.0, 3),
    "weber.uniform_stimuli:c": lambda v: uniform_stimuli(1.0, v, 1.0, 3),
    "weber.uniform_stimuli:k": lambda v: uniform_stimuli(1.0, 1.0, v, 3),
    "weber.perception_increments:k": lambda v: perception_increments([1.0, 2.0], v),
    "weber.perception_increments:stimuli[0]": lambda v: perception_increments([v, 2.0], 1.0),
}


@pytest.mark.parametrize("key", sorted(FLOAT_PARAMETERS))
def test_float_parameter_takes_finite_reals_only(key):
    call = FLOAT_PARAMETERS[key]
    for value in (1, 1.5, Fraction(3, 2)):
        call(value)
    for value in (None, "1", True, float("nan"), float("inf"), 1j, 10**400, 10**5000):
        with pytest.raises(TuningError, match="must be a finite int, float or Fraction"):
            call(value)


@pytest.mark.parametrize(
    "value, printed",
    [
        (0, "0"),
        (Fraction(0), "0"),
        (3, "3"),
        (Fraction(3, 2), "1.5"),
        (Fraction(1, 3), "0.333"),
        (None, None),
        (True, None),
        (False, None),
        ("3/2", None),
        (1.5, None),
        (0.0, None),
        (float("nan"), None),
        (-1, None),
        (Fraction(-3, 2), None),
        (Ratio(3, 2), "1.5"),
        (Ratio(0), "0"),
        (Ratio(-3, 2), None),
    ],
)
def test_to_decimal_takes_exact_ratios_from_zero_only(value, printed):
    if printed is None:
        with pytest.raises(TuningError):
            to_decimal(value, 3)
    else:
        assert to_decimal(value, 3) == printed


#: "module.name:parameter" -> (call, its message for a rejected value, up to ", got")
REJECTION_MESSAGES = {
    "errors.positive_fraction:x": (
        lambda v: positive_fraction(v, "a pitch ratio"),
        "a pitch ratio must be a positive int or Fraction",
    ),
    "ratio.to_decimal:r": (
        lambda v: to_decimal(v, 5),
        "a printed ratio must be an int or Fraction >= 0",
    ),
    "equal.compare_pitches:x": (
        lambda v: compare_pitches(v, 1),
        "a pitch must be a positive exact ratio",
    ),
    "equal.compare_pitches:y": (
        lambda v: compare_pitches(Fraction(3, 2), v),
        "a pitch must be a positive exact ratio",
    ),
}


@pytest.mark.parametrize(
    "value",
    [0, Fraction(0), -1, Fraction(-3, 2), True, False, 1.5, 0.0, "3/2", Ratio(0), Ratio(-3, 2)],
    ids=repr,
)
@pytest.mark.parametrize("key", sorted(REJECTION_MESSAGES))
def test_a_rejected_ratio_keeps_its_error_type_and_message(key, value):
    call, message = REJECTION_MESSAGES[key]
    zero = isinstance(value, (int, Fraction)) and not isinstance(value, bool) and value == 0
    if key == "ratio.to_decimal:r" and zero:
        assert call(value) == "0"  # zero prints; a negative ratio is refused
        return
    with pytest.raises(TuningError) as caught:
        call(value)
    assert type(caught.value) is TuningError
    assert str(caught.value) == f"{message}, got {value!r}"


@pytest.mark.parametrize("value", [Fraction(3, 2), Ratio(3, 2), Fraction(10**5000 + 1, 3)])
def test_positive_fraction_returns_a_positive_fraction_as_is(value):
    assert positive_fraction(value, "a pitch ratio") is value


def test_positive_fraction_makes_a_positive_int_a_fraction():
    assert type(positive_fraction(3, "a pitch ratio")) is Fraction
    assert positive_fraction(3, "a pitch ratio") == 3


@pytest.mark.parametrize(
    "value",
    [float("nan"), float("inf"), -1.5, 0.0, 2.0, 1.5, Fraction(0), 0, -1, None, True, "3/2"],
)
def test_cents_rejects_what_has_no_finite_cents(value):
    with pytest.raises(TuningError):
        cents(value)


#: an int too long for repr() (the interpreter's int-to-str limit is 4300 digits)
HUGE = 10**5000

#: calls whose error message or printed output would hold such a value
HUGE_VALUE_CALLS = {
    "reduce_to_octave": lambda: reduce_to_octave(-HUGE),
    "to_decimal:digits": lambda: to_decimal(Fraction(1, 3), HUGE),
    "to_decimal:r": lambda: to_decimal(-HUGE, 5),
    "cents": lambda: cents(-HUGE),
    "EtPitch:r": lambda: EtPitch(1, 12, Fraction(2 * HUGE, 3)),
    "compare_pitches": lambda: compare_pitches(-HUGE, 1),
    "classify_to_et": lambda: classify_to_et(Fraction(3 * HUGE + 1, HUGE)),
    "harmonic_divide": lambda: harmonic_divide(HUGE + 1, HUGE),
    "et_value": lambda: et_value(EtPitch(1, 12, Fraction(3**10000)), 5),
    "EtPitch.as_fraction": lambda: EtPitch(1, 12, Fraction(3**10000)).as_fraction(),
    "pairing_table": lambda: pairing_table([HUGE]),
    "note_name": lambda: note_name(Fraction(HUGE)),
    "Monzo": lambda: Monzo(HUGE, 0),
    "render_scl": lambda: render_scl(ScaleDocument("x", (Fraction(HUGE),)), "x"),
    "monzo_form": lambda: monzo_form(Fraction(HUGE + 1, 3)),
    "EtPitch.exact_form": lambda: EtPitch(1, 12, Fraction(3**10000)).exact_form(),
    "EtPitch.exact_form:k": lambda: EtPitch(HUGE, 3).exact_form(),
    "Interval.__str__": lambda: str(interval_between(1, HUGE)),
}


@pytest.mark.parametrize("key", sorted(HUGE_VALUE_CALLS))
def test_a_value_too_long_to_print_still_gets_a_typed_error(key):
    error = ExponentBoundError if key == "Monzo" else TuningError
    with pytest.raises(error, match="bits|too long to print"):
        HUGE_VALUE_CALLS[key]()
