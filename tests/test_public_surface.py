"""The public surface.  Every public module-level function, class, method and
constant of ``src/tritune`` is named somewhere that the package, the
benchmark or the acceptance suite reads: in ``src/tritune`` outside its own
definition, in ``bench/*.py`` or in ``tests/test_acceptance.py``.  A name
that only its own unit tests reach is dead weight, so it fails here.  A
method is reached only through an attribute, as in ``x.cents()``: a bare name
is a module-level one, so a function does not hide a method of its name.

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


def _uses(tree: ast.AST) -> list[tuple[str, int, bool]]:
    """(name, line, whether read as an attribute) of every name read,
    attribute read or name imported."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno, False))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno, True))
        elif isinstance(node, ast.alias):
            found.append((node.name.rsplit(".", 1)[-1], getattr(node, "lineno", 0), False))
    return found


def _definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(qualified name, node) of each public module-level function, class and
    constant, and each public method of a module-level class."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                found += [
                    (f"{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                ]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
    return [(q, n) for q, n in found if not q.rsplit(".", 1)[-1].startswith("_")]


def unreached_names(source_paths=SOURCES, reader_paths=READERS) -> list[str]:
    """"module.name" of each public definition named nowhere it should be."""
    sources = {path.stem: _parse(path) for path in source_paths}
    uses = {stem: _uses(tree) for stem, tree in sources.items()}
    outside = {
        (name, attribute) for path in reader_paths for name, _, attribute in _uses(_parse(path))
    }
    unreached = []
    for stem, tree in sources.items():
        for qualname, node in _definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            ways = (True,) if "." in qualname else (False, True)  # a method only as an attribute
            if any((name, attribute) in outside for attribute in ways):
                continue
            span = range(node.lineno, node.end_lineno + 1)
            if any(
                used == name and attribute in ways and not (module == stem and line in span)
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
