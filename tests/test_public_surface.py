"""The public surface.  Every public module-level function, class, method and
constant of ``src/tritune`` is read somewhere that the package, the benchmark
or the acceptance suite runs: in ``bench/*.py``, in ``tests/test_acceptance.py``
or in ``src/tritune`` beyond what it alone serves.  A name that only its own
unit tests reach is dead weight, so it fails here.  Four rules say what a read is:

* a name bound inside a function (a parameter, or an assignment, walrus,
  ``for``, ``with``, ``except`` or comprehension target) is that function's
  local, not a read of the module-level name it shares a spelling with;
* each string key of an inner dict of a reader's module-level ``LAYERS`` reads
  the function it names, which the benchmark's recorder looks up with ``getattr``;
* a method or property is read only through an attribute, as in ``x.cents()``,
  and only outside its own class; a bare name is a module-level one, so a
  function does not hide a method of its name;
* a function is read only outside its own module; a class or constant, only
  outside its own definition.

Every annotated field of a record (a class decorated with ``errors._record``)
is read the same way, as an attribute: ``x.field``, loaded, in ``src/tritune``
outside the class's own ``__post_init__``, in ``bench/*.py`` or in
``tests/test_acceptance.py``.  A field nothing reads only fills the record's
``repr`` and ``==``.

The exact-power policy is bound in one module: only ``ratio`` binds the names
that choose between forming a power and bracketing it, and only ``ratio``
defines the comparison kernel that applies that choice.  The 5-limit factoring
is ``ratio``'s too, with its tables and the certified logarithms it is read
with: other modules test a ratio through ``is_five_smooth``.
A ``Monzo`` is a lattice point, not a pitch: only ``ratio``, which defines it,
and ``pythagorean``, which walks the lattice, import it.

Every ``tritune`` process imports the whole package, so no module imports
``dataclasses``, ``inspect`` or ``typing``: together they cost tens of
milliseconds at each start, several times the work of a paper-sized command."""

import ast
import subprocess
import sys
from pathlib import Path

import tritune

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "tritune").glob("*.py"))
READERS = sorted((ROOT / "bench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


#: the nodes that open a function's scope
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _locals(function: ast.AST) -> set[str]:
    """The names ``function`` binds: its parameters and every name its own body
    stores (assignment, walrus, ``for``, ``with``, ``except`` and comprehension
    targets, nested definitions).  No module here declares a name global."""
    args = function.args
    every = (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
    bound = {a.arg for a in every if a}
    todo = list(function.body) if isinstance(function.body, list) else [function.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)):  # each body is a scope of its own
            todo += ast.iter_child_nodes(node)
    return bound


def _uses(tree: ast.AST, local: frozenset = frozenset()) -> list[tuple[str, int, bool]]:
    """(name, line, whether read as an attribute) of every name read, attribute
    read or name imported under ``tree``, less the reads of names ``local``
    holds or a function around the read binds."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
            found.append((node.id, node.lineno, False))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno, True))
        elif isinstance(node, ast.alias):
            found.append((node.name.rsplit(".", 1)[-1], getattr(node, "lineno", 0), False))
        found += _uses(node, local | _locals(node) if isinstance(node, _FUNCTIONS) else local)
    return found


def _layer_keys(tree: ast.Module) -> set[str]:
    """The string keys of each inner dict of a module-level ``LAYERS`` dict, which
    the benchmark's recorder reads as ``getattr(tritune.<layer>, key)``."""
    return {
        key.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
        and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)
        for inner in node.value.values
        if isinstance(inner, ast.Dict)
        for key in inner.keys
        if isinstance(key, ast.Constant) and isinstance(key.value, str)
    }


def _definitions(tree: ast.Module) -> list[tuple[str, range]]:
    """(qualified name, lines whose reads do not reach it) of each public
    module-level function, class and constant, and each public method of a
    module-level class: a function's whole module, a method's class, a class's
    or constant's own definition."""
    found = []
    for node in tree.body:
        lines = range(node.lineno, node.end_lineno + 1)
        if isinstance(node, ast.FunctionDef):
            found.append((node.name, range(1, tree.body[-1].end_lineno + 1)))
        elif isinstance(node, ast.ClassDef):
            found.append((node.name, lines))
            found += [
                (f"{node.name}.{item.name}", lines)
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            ]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, lines) for t in targets if isinstance(t, ast.Name)]
    return [(q, lines) for q, lines in found if not q.rsplit(".", 1)[-1].startswith("_")]


def unreached_names(source_paths=SOURCES, reader_paths=READERS) -> list[str]:
    """"module.name" of each public definition named nowhere it should be."""
    sources = {path.stem: _parse(path) for path in source_paths}
    uses = {stem: _uses(tree) for stem, tree in sources.items()}
    readers = [_parse(path) for path in reader_paths]
    outside = {(name, attribute) for tree in readers for name, _, attribute in _uses(tree)}
    outside |= {(key, False) for tree in readers for key in _layer_keys(tree)}
    unreached = []
    for stem, tree in sources.items():
        for qualname, hidden in _definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            ways = (True,) if "." in qualname else (False, True)  # a method only as an attribute
            if any((name, attribute) in outside for attribute in ways):
                continue
            if any(
                used == name and attribute in ways and not (module == stem and line in hidden)
                for module, found in uses.items()
                for used, line, attribute in found
            ):
                continue
            unreached.append(f"{stem}.{qualname}")
    return unreached


def test_sources_and_readers_found():
    assert {p.name for p in SOURCES} >= {"cli.py", "equal.py", "ratio.py"}
    assert {p.name for p in READERS} >= {"workloads.py", "test_acceptance.py"}


def test_every_public_name_is_reached():
    unreached = unreached_names()
    assert not unreached, f"reached by no command, benchmark or acceptance test: {unreached}"


def test_the_scan_sees_an_unreached_name(tmp_path):
    # a method and a constant that only their own definitions name
    module = tmp_path / "lonely.py"
    module.write_text(
        "LONELY = 1\n\n"
        "class Kept:\n"
        "    def alone(self):\n"
        "        return self.alone\n\n"
        "def used():\n"
        "    return Kept()\n"
    )
    reader = tmp_path / "reader.py"
    reader.write_text("from lonely import used\n")
    assert unreached_names([module], [reader]) == ["lonely.LONELY", "lonely.Kept.alone"]


def test_a_local_named_like_a_public_function_does_not_reach_it(tmp_path):
    # each way a function binds a name: a parameter, a walrus, for, with,
    # except and a comprehension target
    module = tmp_path / "lonely.py"
    module.write_text("def cents(r):\n    return r\n")
    reader = tmp_path / "reader.py"
    reader.write_text(
        "def by_parameter(cents):\n    return cents\n\n"
        "def by_walrus(x):\n    return (cents := x) and cents\n\n"
        "def by_for(xs):\n    for cents in xs:\n        return cents\n\n"
        "def by_with(f):\n    with f as cents:\n        return cents\n\n"
        "def by_except():\n    try:\n        pass\n    except ValueError as cents:\n"
        "        return cents\n\n"
        "def by_comprehension(xs):\n    return [cents for cents in xs]\n\n"
        "def by_closure(cents):\n    return lambda: cents\n"
    )
    assert unreached_names([module], [reader]) == ["lonely.cents"]


def test_a_layers_key_reaches_a_function_not_a_method(tmp_path):
    # the recorder looks a key up with getattr, never naming it; a dict of
    # another name does not count
    module = tmp_path / "layer.py"
    module.write_text(
        "def timed(x):\n    return x\n\n"
        "def plain(x):\n    return x\n\n"
        "class Clock:\n    def timed(self):\n        return 0\n"
    )
    reader = tmp_path / "spans.py"
    reader.write_text(
        "from layer import Clock\n\n"
        'LAYERS = {"layer": {"timed": "layer.timed"}}\n'
        'OTHER = {"layer": {"plain": "layer.plain"}}\n'
    )
    assert unreached_names([module], [reader]) == ["layer.plain", "layer.Clock.timed"]


def test_a_property_read_only_in_its_own_class_is_unreached(tmp_path):
    # size is read by its own class alone, kept by a function outside it
    module = tmp_path / "lonely.py"
    module.write_text(
        "class Pitch:\n"
        "    @property\n    def size(self):\n        return 1\n\n"
        "    @property\n    def kept(self):\n        return self.size\n\n"
        "    def __hash__(self):\n        return hash(self.size)\n\n"
        "def used(p):\n    return p.kept\n"
    )
    reader = tmp_path / "reader.py"
    reader.write_text("from lonely import Pitch, used\n")
    assert unreached_names([module], [reader]) == ["lonely.Pitch.size"]


def test_a_function_called_only_in_its_own_module_is_unreached(tmp_path):
    # the rule covers functions: a class or constant its module reads is reached
    module = tmp_path / "lonely.py"
    module.write_text(
        "LIMIT = 3\n\n"
        "class Kept:\n    pass\n\n"
        "def helper(x):\n    return x\n\n"
        "def used(x):\n    return helper(Kept()) if x < LIMIT else x\n"
    )
    reader = tmp_path / "reader.py"
    reader.write_text("from lonely import used\n")
    assert unreached_names([module], [reader]) == ["lonely.helper"]


def test_the_scan_sees_a_method_hidden_by_a_function_of_its_name(tmp_path):
    # the reader names the function cents, never the method as x.cents
    module = tmp_path / "shadow.py"
    module.write_text(
        "def cents(r):\n"
        "    return r\n\n"
        "class Pitch:\n"
        "    def cents(self):\n"
        "        return cents(self)\n"
    )
    reader = tmp_path / "reader.py"
    reader.write_text("from shadow import Pitch, cents\n\ncents(Pitch())\n")
    assert unreached_names([module], [reader]) == ["shadow.Pitch.cents"]


def _attribute_reads(tree: ast.AST) -> list[tuple[str, int]]:
    """(attribute, line) of each attribute loaded under ``tree``, as ``x.attribute``."""
    return [
        (node.attr, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]


def _record_fields(tree: ast.Module) -> list[tuple[str, list[str], range]]:
    """(class name, annotated fields, lines of its own ``__post_init__``) of each
    module-level class decorated with ``_record`` or ``errors._record``."""
    found = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef) or not any(
            ast.unparse(d).rsplit(".", 1)[-1] == "_record" for d in node.decorator_list
        ):
            continue
        fields = [
            item.target.id
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        ]
        hidden = next(
            (range(item.lineno, item.end_lineno + 1) for item in node.body
             if isinstance(item, ast.FunctionDef) and item.name == "__post_init__"),
            range(0),
        )
        found.append((node.name, fields, hidden))
    return found


def unread_fields(source_paths=SOURCES, reader_paths=READERS) -> list[str]:
    """"module.Class.field" of each record field that no attribute read names.

    Its blind spot: a read is matched by the attribute's name alone, so a field
    named like an attribute read anywhere else counts as read (a field
    ``denominator`` passes through every ``Fraction.denominator`` read), and
    such a field must be checked by hand."""
    sources = {path.stem: _parse(path) for path in source_paths}
    reads = {stem: _attribute_reads(tree) for stem, tree in sources.items()}
    outside = {attr for path in reader_paths for attr, _ in _attribute_reads(_parse(path))}
    unread = []
    for stem, tree in sources.items():
        for cls, fields, hidden in _record_fields(tree):
            for field in fields:
                if field in outside or any(
                    attr == field and not (module == stem and line in hidden)
                    for module, found in reads.items()
                    for attr, line in found
                ):
                    continue
                unread.append(f"{stem}.{cls}.{field}")
    return unread


def test_every_record_field_is_read():
    unread = unread_fields()
    assert not unread, f"record fields read by no command, benchmark or acceptance test: {unread}"


def test_the_scan_sees_an_unread_record_field(tmp_path):
    # kept is read in its module, shown by a reader, checked only in its own
    # __post_init__, and stored assigned but never loaded; a plain class is no record
    module = tmp_path / "lonely.py"
    module.write_text(
        "from .errors import _record\n\n"
        "@_record\n"
        "class Pair:\n"
        "    kept: int\n"
        "    shown: int\n"
        "    checked: int\n"
        "    stored: int\n\n"
        "    def __post_init__(self):\n"
        "        assert self.checked > 0\n\n"
        "class Plain:\n"
        "    loose: int\n\n"
        "def used(p):\n"
        "    return p.kept\n"
    )
    reader = tmp_path / "reader.py"
    reader.write_text("def show(p):\n    p.stored = p.shown\n")
    assert unread_fields([module], [reader]) == ["lonely.Pair.checked", "lonely.Pair.stored"]


#: Which powers are formed, which bracketed and how wide: bound in ratio alone.
POLICY = {
    "_EXACT_BITS", "_GUARD_BITS", "_power_bracket", "_power_bounds", "_powers", "MAX_POWER_BITS"
}
#: The comparison kernel: defined in ratio alone, imported where it is called.
KERNEL = {"_floor_log2", "_log2_reading", "_sign"}
#: The 5-limit factoring, its tables and the certified logarithms it is read
#: with: bound and imported in ratio alone.
FACTORING = {
    "_five_exponents", "_strip", "_smooth_exponents", "_THREES", "_FIVES", "_FIVE_TOP",
    "_LOG2_3", "_LOG2_5",
}


def _bindings(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(names assigned, defined or stored as an attribute; names imported,
    by their own names and their aliases)."""
    assigned, imported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            assigned.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            assigned.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            assigned.add(node.attr)
        elif isinstance(node, ast.alias):
            imported |= {node.name.rsplit(".", 1)[-1], node.asname or node.name}
    return assigned, imported


def misplaced_policy(
    source_paths=SOURCES, confined=POLICY, kernel=KERNEL, homes=("ratio",)
) -> list[str]:
    """"module.name" of each ``confined`` name bound or imported, and each
    ``kernel`` name defined, outside the modules named in ``homes``."""
    misplaced = []
    for path in source_paths:
        if path.stem in homes:
            continue
        assigned, imported = _bindings(_parse(path))
        names = (assigned | imported) & confined | assigned & kernel
        misplaced += [f"{path.stem}.{name}" for name in sorted(names)]
    return misplaced


def test_ratio_binds_the_policy_and_defines_the_kernel():
    assigned, _ = _bindings(_parse(ROOT / "src" / "tritune" / "ratio.py"))
    assert POLICY | KERNEL | FACTORING <= assigned


def test_the_power_policy_is_bound_in_ratio_alone():
    misplaced = misplaced_policy()
    assert not misplaced, f"exact-power policy or kernel outside ratio: {misplaced}"


def test_the_scan_sees_a_policy_name_outside_its_home(tmp_path):
    # importing the kernel is allowed; an alias does not hide a policy name
    module = tmp_path / "stray.py"
    module.write_text(
        "from .ratio import _sign, _log2_reading as read, _GUARD_BITS as guard\n"
        "MAX_POWER_BITS = 2 ** 20\n\n"
        "def _floor_log2(a, b, m=1):\n"
        "    return guard\n\n"
        "def _log2_reading(j2, j3, j5):\n"
        "    return read(j2, j3, j5)\n"
    )
    assert misplaced_policy([module]) == [
        "stray.MAX_POWER_BITS", "stray._GUARD_BITS", "stray._floor_log2", "stray._log2_reading"
    ]


def test_the_five_limit_factoring_is_bound_in_ratio_alone():
    misplaced = misplaced_policy(confined=FACTORING, kernel=set())
    assert not misplaced, f"5-limit factoring outside ratio: {misplaced}"


def test_the_scan_sees_a_stray_factoring_import(tmp_path):
    # the public check may be imported; the factoring behind it may not, nor
    # may its tables or constants be imported or bound again
    module = tmp_path / "stray.py"
    module.write_text(
        "from .ratio import _ascending, _strip, is_five_smooth\n"
        "from .ratio import _LOG2_5 as c5, _THREES\n"
        "_FIVES = {5 ** j: j for j in range(65)}\n"
    )
    assert misplaced_policy([module], confined=FACTORING, kernel=set()) == [
        "stray._FIVES", "stray._LOG2_5", "stray._THREES", "stray._strip"
    ]


#: The lattice point, and the modules that may import it.
LATTICE, LATTICE_HOMES = {"Monzo"}, ("ratio", "pythagorean")


def test_only_ratio_and_pythagorean_import_the_lattice_point():
    misplaced = misplaced_policy(confined=LATTICE, kernel=set(), homes=LATTICE_HOMES)
    assert not misplaced, f"Monzo imported where pitches are read: {misplaced}"


def test_the_scan_sees_a_stray_monzo_import(tmp_path):
    # the conversion may be imported anywhere; an alias does not hide the point
    stray, home = tmp_path / "equal.py", tmp_path / "pythagorean.py"
    stray.write_text("from .ratio import Monzo as M, monzo_to_rational\n")
    home.write_text("from .ratio import Monzo, monzo_to_rational\n")
    found = misplaced_policy([stray, home], confined=LATTICE, kernel=set(), homes=LATTICE_HOMES)
    assert found == ["equal.Monzo"]


#: Standard-library modules that no module under ``src/tritune`` imports.
SLOW_IMPORTS = {"dataclasses", "inspect", "typing"}


def slow_imports(source_paths=SOURCES) -> list[str]:
    """"module: imported" of each import of a module in SLOW_IMPORTS."""
    found = []
    for path in source_paths:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.stem}: {n}" for n in names if n.split(".")[0] in SLOW_IMPORTS]
    return found


def test_no_module_imports_a_slow_start_module():
    found = slow_imports()
    assert not found, f"imports that slow every start: {found}"


def test_the_scan_sees_each_form_of_import(tmp_path):
    module = tmp_path / "slow.py"
    module.write_text(
        "import json, typing\n"
        "from dataclasses import dataclass\n"
        "import inspect as i\n"
        "from .typing import x\n"
        "from collections.abc import Sequence\n"
    )
    assert slow_imports([module]) == ["slow: typing", "slow: dataclasses", "slow: inspect"]


def test_importing_the_command_line_loads_no_slow_module():
    # -S keeps the interpreter's own site, which may import typing, out of the count
    code = f"import sys, tritune.cli; print(sorted({SLOW_IMPORTS!r} & set(sys.modules)))"
    package_root = str(Path(tritune.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={"PYTHONPATH": package_root},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
