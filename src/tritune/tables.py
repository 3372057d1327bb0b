"""Plain-text renderings of the reference tables.

Four tables: the fifth-generation listing, the pairing of the 26 sounds
around the 13 equal degrees, the 18-name chromatic selection, and the
three-system diatonic comparison.  All numeric content comes from the exact
modules; these functions only lay it out.
"""

from __future__ import annotations

from .equal import DIATONIC_INDICES, EtPitch, et_value
from .errors import check_instance
from .natural import compare_three_scales
from .pythagorean import PythTable, _fewer_fifths, pairing_table, select_chromatic
from .ratio import _ascending, _pq_text, monzo_form, to_decimal
from .scalefile import COLUMNS, comparison_table


def _aligned(rows: list[tuple[str, ...]]) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    ]
    return "\n".join(lines) + "\n"


def fifth_generation_text(table: PythTable) -> str:
    """All generated sounds ascending: ratio, truncated decimal, construction."""
    lines = []
    steps = check_instance("a fifth table", table, PythTable).entries()
    for _, step in _ascending(steps, lambda s: s.ratio)[1]:
        lines.append(f"{_pq_text(step.ratio)} {to_decimal(step.ratio, 5)} {step.construction()}")
    return "\n".join(lines) + "\n"


def pairing_text(table: PythTable) -> str:
    """Per 12-division degree, its two approximants; diatonic rows (*) list
    the sound reached in fewer fifths first, the others deficit then excess."""
    rows = []
    for degree, pair in pairing_table(table, 12).items():
        diatonic = degree in DIATONIC_INDICES
        first, second = pair[::-1] if diatonic and _fewer_fifths(degree, *pair) is pair[1] else pair
        et = EtPitch(degree, 12)
        rows.append(
            (
                f"{'*' if diatonic else ' '} {degree:>2}",
                et.exact_form(),
                et_value(et, 5),
                first.construction(),
                second.construction(),
            )
        )
    return _aligned(rows)


def chromatic_text(table: PythTable) -> str:
    """The 18 named sounds ascending: name, factored form, ratio, decimal."""
    rows = []
    for p in select_chromatic(table):
        rows.append((p.name, monzo_form(p.ratio), _pq_text(p.ratio), to_decimal(p.ratio, 5)))
    return _aligned(rows)


def comparison_text() -> str:
    """The three-system diatonic table plus the exact orderings it implies."""
    comp = compare_three_scales()
    rows = [("degree", *COLUMNS)]
    for degree, cells in comparison_table(comp):
        rows.append((degree, *(f"{exact} = {decimal}" for exact, decimal in cells)))
    text = _aligned(rows)
    notes = [f"{r.degree}: {r.ordering}" for r in comp.rows if r.degree in ("MI", "FA", "LA", "SI")]
    return text + "\n".join(notes) + "\n"
