"""Scale documents and their interchange renderings.

A scale document is the base-normalized pitch list of one octave, without
the implicit unison: its pitches rise strictly from above 1.  It can be
written as a Scala tuning file (rationals as p/q, equal-division pitches as
cents with five fraction digits), and the three-system comparison can be
written as CSV or JSON.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from .equal import _ONE, EtPitch, _neighbour_signs, et_value, generate_et
from .errors import TuningError, _record, _shown, check_instance, positive_fraction
from .natural import ScaleComparison, assemble_diatonic
from .pythagorean import PythTable, select_chromatic
from .ratio import _fixed_point, _pq_text, monzo_form, to_decimal


@_record
class ScaleEntry:
    """One pitch of a scale document as a record, a ratio as a Fraction or an
    equal-division pitch: what ``ScaleDocument.entries`` builds on each read."""

    value: Fraction | EtPitch

    def __post_init__(self):
        if not isinstance(self.value, EtPitch):
            object.__setattr__(self, "value", positive_fraction(self.value, "a pitch"))


@_record
class ScaleDocument:
    """A one-line description and pitches rising strictly from above 1, checked with
    one exact-form read per pitch and one ``ratio._sign`` per neighbour pair."""

    description: str
    pitches: tuple[int | Fraction | EtPitch, ...]

    def __post_init__(self):
        d = check_instance("a scale description", self.description, str)
        # a tuning file's description is one line, and "!" opens a comment
        if d.splitlines() not in ([], [d]) or d.startswith("!"):
            raise TuningError("a scale description must be one line not opening with '!'")
        if not check_instance("scale entries", self.pitches, tuple):
            raise TuningError("a scale document needs at least one entry")
        # the implicit unison 1 comes first, so no pitch is 1 or below it
        if any(sign >= 0 for sign in _neighbour_signs((1, *self.pitches))):
            raise TuningError("scale entries must ascend strictly from above the unison 1")

    @property
    def entries(self) -> tuple[ScaleEntry, ...]:
        """The pitches as records, built on each read."""
        return tuple(map(ScaleEntry, self.pitches))


def natural_scale_document() -> ScaleDocument:
    pitches = tuple(r for _, r in assemble_diatonic().degrees if r != 1)
    return ScaleDocument("Just diatonic scale on DO (5-limit, harmonic divisions)", pitches)


def et_scale_document(n: int) -> ScaleDocument:
    return ScaleDocument(f"Equal division of the octave in {n} steps", generate_et(n).pitches[1:])


def pythagorean_chromatic_document(table: PythTable) -> ScaleDocument:
    pitches = tuple(p.ratio for p in select_chromatic(table) if p.ratio != 1)
    description = "Pythagorean chromatic scale on DO (18 sounds, 12 fifths each way)"
    return ScaleDocument(description, pitches)


def _pitch_line(v: int | Fraction | EtPitch) -> str:
    """Tuning-file rendering: p/q for rationals, 5-digit cents otherwise."""
    if not isinstance(v, EtPitch):
        return _pq_text(v)
    if v.r is not _ONE and v.r != 1:
        raise TuningError(f"no exact cents for {_shown(v)}")
    units = 1200 * v.k * 10 ** 5 // v.n
    # a line of 0.00000 or below reads back as the unison or under it
    if units <= 0:
        raise TuningError(f"{_shown(v)} has no cents line above the unison")
    return _fixed_point(units, 5)


def render_scl(doc: ScaleDocument, filename: str) -> str:
    """Tuning-file text: comment, description, count, one pitch per line."""
    check_instance("a scale document", doc, ScaleDocument)
    # the comment line carries the file name, so it is one line too
    if check_instance("a file name", filename, str).splitlines() not in ([], [filename]):
        raise TuningError(f"a file name must be one line, got {_shown(filename)}")
    lines = [f"! {filename}", doc.description, str(len(doc.pitches))]
    lines += [_pitch_line(p) for p in doc.pitches]
    return "\n".join(lines) + "\n"


#: a pitch token: cents when it holds a period, else a ratio p/q or p
_CENTS = re.compile(r"[-+]?(?:[0-9]+\.[0-9]*|\.[0-9]+)")
_RATIO = re.compile(r"([0-9]+)(?:/([0-9]+))?")


def _parse_pitch(line: str) -> Fraction | float:
    """The pitch at the start of a Scala pitch line; text after it is ignored."""
    token = line.split()[0]
    try:
        if "." in token:
            if _CENTS.fullmatch(token) and math.isfinite(cents := float(token)):
                return cents
        elif ratio := _RATIO.fullmatch(token):
            num, den = int(ratio[1]), int(ratio[2] or 1)
            if num > 0 and den > 0:
                return Fraction(num, den)
    except ValueError:  # past the interpreter's limit on str-to-int digits
        pass
    raise TuningError(f"not a positive ratio or a cents value: {line.strip()!r}")


def parse_scl(text: str) -> tuple[str, list[Fraction | float]]:
    """Reader for Scala tuning files: (description, pitch values).

    Per https://www.huygens-fokker.org/scala/scl_format.html, "!" lines are
    comments, then come the description, the pitch count (here at most nine
    digits) and the pitch lines.  Ratios come back as Fractions, cents as
    floats; anything else, or a count that does not match, is a TuningError.
    """
    check_instance("scale file text", text, str)
    lines = [ln for ln in text.splitlines() if not ln.startswith("!")]
    if len(lines) < 2:
        raise TuningError("truncated scale file")
    description = lines[0]
    count = re.fullmatch(r"\s*([0-9]{1,9})\s*", lines[1])
    if count is None:
        raise TuningError(f"not a pitch count: {lines[1]!r}")
    pitches = [_parse_pitch(ln) for ln in lines[2:] if ln.strip()]
    if len(pitches) != int(count[1]):
        raise TuningError(f"declared {count[1]} pitches, found {len(pitches)}")
    return description, pitches


#: the comparison's systems in column order: equal, Pythagorean, natural
COLUMNS = ("E", "P", "N")
#: the one encoder of every json leaf (``json.dumps(v, ensure_ascii=False)`` builds one a call)
_json_string = json.JSONEncoder(ensure_ascii=False).encode


def comparison_table(comp: ScaleComparison) -> list[tuple[str, list[tuple[str, str]]]]:
    """Per degree, the (exact form, 5-digit decimal) pair of E, P and N."""
    return [
        (
            check_instance("a degree name", row.degree, str),
            [
                (row.equal.exact_form(), et_value(row.equal, 5)),
                (monzo_form(row.pythagorean), to_decimal(row.pythagorean, 5)),
                (monzo_form(row.natural), to_decimal(row.natural, 5)),
            ],
        )
        for row in check_instance("a comparison", comp, ScaleComparison).rows
    ]


def export_table(comp: ScaleComparison, format: str) -> str:
    """CSV (decimals only) or JSON (exact forms and decimals), UTF-8.  The JSON text is
    ``json.dumps(..., ensure_ascii=False, indent=2)``'s, laid out here, since with an indent
    ``json`` encodes in pure Python; the C encoder escapes each leaf, a str."""
    rows = comparison_table(comp)
    if format == "csv":
        lines = [",".join(("degree", *COLUMNS))]
        lines += [",".join((degree, *(d for _, d in cells))) for degree, cells in rows]
        return "\n".join(lines) + "\n"
    if format == "json":
        q, items = _json_string, []
        for name, cells in rows:
            pairs = [f'{q(c)}: {{\n        "exact": {q(e)},\n        "decimal": {q(d)}\n      }}'
                     for c, (e, d) in zip(COLUMNS, cells)]
            items.append(",\n      ".join([f'{{\n      "degree": {q(name)}', *pairs]) + "\n    }")
        listed = "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"
        columns = ",\n    ".join(map(q, COLUMNS))
        return f'{{\n  "columns": [\n    {columns}\n  ],\n  "rows": {listed}\n}}\n'
    raise TuningError(f"unknown table format {_shown(format)}")
