import json
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tritune.equal import EtPitch, compare_pitches, generate_et
from tritune.errors import TuningError
from tritune.natural import ComparisonRow, ScaleComparison, compare_three_scales
from tritune.pythagorean import generate_fifths
from tritune.scalefile import (
    ScaleDocument,
    ScaleEntry,
    comparison_table,
    et_scale_document,
    export_table,
    natural_scale_document,
    parse_scl,
    pythagorean_chromatic_document,
    render_scl,
)

#: a pitch line as written, as the format allows it or not
_SCL_LINE = st.one_of(
    st.sampled_from(["!", "3/2", "2 octave", "1/0", "0/1", "-5.0", "1e5", "nan", "."]),
    st.from_regex(r"[-+0-9./ !a]*", fullmatch=True),
    st.text(),
)


@st.composite
def _scl_texts(draw):
    """Description, a count that mostly matches, and the pitch lines."""
    pitches = draw(st.lists(_SCL_LINE, max_size=6))
    count = draw(st.one_of(st.just(str(len(pitches))), _SCL_LINE))
    return "\n".join([draw(st.text()), count, *pitches])


#: a pitch r * 2**(k/n) with n up to 1200 and r a ratio of odd integers
#: (often not 1), or a Fraction, mostly in the first two octaves
_ODD = st.integers(min_value=0, max_value=30).map(lambda i: 2 * i + 1)
#: half from 1000 up, where two neighbours in one octave band can need a
#: power past MAX_POWER_BITS
_DIVISIONS = st.one_of(
    st.integers(min_value=1, max_value=1200), st.integers(min_value=1000, max_value=1200)
)
_ENTRY_PITCH = st.one_of(
    st.fractions(min_value=Fraction(1, 2), max_value=4, max_denominator=10**4),
    _DIVISIONS.flatmap(
        lambda n: st.builds(
            EtPitch,
            st.integers(min_value=0, max_value=2 * n),
            st.just(n),
            st.one_of(st.just(Fraction(1)), st.builds(Fraction, _ODD, _ODD)),
        )
    ),
)


ASCENDING_MESSAGE = "scale entries must ascend strictly from above the unison 1"


def pitch_lines(doc):
    """The pitch lines ``render_scl`` writes for ``doc``."""
    return render_scl(doc, "x.scl").splitlines()[3:]


@st.composite
def _order_cases(draw):
    """Scale entry values, often ascending, often with a value followed by
    itself in another form: k/n unreduced, or a rational pitch as a Fraction."""
    values = draw(st.lists(_ENTRY_PITCH, min_size=1, max_size=6))
    if draw(st.booleans()):  # ascending but for near-ties, from above 1
        values = sorted((v for v in values if float(v) > 1), key=float) or [Fraction(2)]
    i = draw(st.integers(min_value=0, max_value=len(values) - 1))
    c = EtPitch.of(values[i])
    tie = draw(st.sampled_from(["none", "fraction", "unreduced"]))
    if tie == "fraction" and c.is_rational():
        values.insert(i + 1, c.as_fraction())
    elif tie == "unreduced" and c.n <= 600:
        m = draw(st.integers(min_value=2, max_value=1200 // c.n))
        values.insert(i + 1, EtPitch(c.k * m, c.n * m, c.r))
    return values


# hand-written expected file: first line comment with the file name, then the
# description, the pitch count, and one pitch per line (rationals as p/q)
EXPECTED_NATURAL_SCL = """\
! natural_do.scl
Just diatonic scale on DO (5-limit, harmonic divisions)
7
9/8
5/4
4/3
3/2
5/3
15/8
2/1
"""


class TestSclWriter:
    def test_natural_matches_handwritten_file(self):
        doc = natural_scale_document()
        assert render_scl(doc, "natural_do.scl") == EXPECTED_NATURAL_SCL

    def test_natural_shape(self):
        doc = natural_scale_document()
        assert len(doc.pitches) == 7
        assert pitch_lines(doc)[-1] == "2/1"

    def test_equal_scale_uses_five_digit_cents(self):
        doc = et_scale_document(12)
        lines = pitch_lines(doc)
        assert lines[0] == "100.00000"
        assert lines[-1] == "1200.00000"
        assert len(lines) == 12

    def test_equal_scale_is_built_by_generate_et(self, monkeypatch):
        # the benchmark books an equal scale's construction to generate_et
        calls = []

        def counting(n):
            calls.append(n)
            return generate_et(n)

        monkeypatch.setattr("tritune.scalefile.generate_et", counting)
        assert len(et_scale_document(31).pitches) == 31
        assert calls == [31]

    def test_cents_lines_truncate_non_terminating_values(self):
        doc = et_scale_document(7)
        assert pitch_lines(doc)[0] == "171.42857"  # 1200/7

    def test_pitch_with_a_coefficient_has_no_cents_line(self):
        # 3 * 2**(-19/12) has irrational cents: no five exact digits to write
        doc = ScaleDocument("d", (EtPitch(-19, 12, 3),))
        with pytest.raises(TuningError):
            render_scl(doc, "d.scl")

    def test_pythagorean_chromatic(self):
        doc = pythagorean_chromatic_document(generate_fifths(12, 12))
        lines = pitch_lines(doc)
        assert len(lines) == 17
        assert "2187/2048" in lines
        assert lines[-1] == "2/1"

    def test_round_trip_is_identity_on_entries(self):
        for doc in (
            natural_scale_document(),
            et_scale_document(12),
            pythagorean_chromatic_document(generate_fifths(12, 12)),
        ):
            description, values = parse_scl(render_scl(doc, "scale.scl"))
            assert description == doc.description
            assert len(values) == len(doc.pitches)
            for parsed, pitch in zip(values, doc.pitches):
                if isinstance(pitch, Fraction):
                    assert parsed == pitch
                else:
                    assert parsed == 1200.0 * pitch.k / pitch.n

    @pytest.mark.parametrize(
        "doc",
        [et_scale_document(n) for n in (1, 5, 12, 31, 53, 311)]
        + [
            pythagorean_chromatic_document(generate_fifths(12, 12)),
            natural_scale_document(),
        ],
        ids=lambda doc: doc.description,
    )
    def test_round_trip_reads_back_every_rendered_pitch(self, doc):
        lines = render_scl(doc, "scale.scl").splitlines()
        description, values = parse_scl("\n".join(lines) + "\n")
        assert description == doc.description
        assert len(values) == int(lines[2]) == len(doc.pitches)
        for parsed, line, pitch in zip(values, lines[3:], doc.pitches):
            if isinstance(pitch, Fraction):
                assert parsed == pitch
            else:
                assert isinstance(parsed, float) and parsed == float(line)
                cents = Fraction(1200 * pitch.k, pitch.n)
                assert 0 <= cents - Fraction(line) < Fraction(1, 10**5)

    def test_parse_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            parse_scl("! f.scl\ndesc\n3\n2/1\n")

    def test_parse_follows_the_scala_format(self):
        text = "! f.scl\n!\n\n 3 \n 3/2 fifth\n-5.0 cents below\n\t2\n"
        assert parse_scl(text) == ("", [Fraction(3, 2), -5.0, Fraction(2)])

    @pytest.mark.parametrize(
        "text",
        [
            "d\n1\n1/0\n",
            "d\n1\n0/1\n",
            "d\n1\n-3/2\n",
            "d\n1\nfifth\n",
            "d\n1\n3/2/5\n",
            "d\n1\n1.5e3\n",
            "d\n1\n" + "9" * 400 + ".0\n",
            "d\n1\n" + "9" * 5000 + "\n",
            "d\nseven\n3/2\n",
            "d\n-1\n",
            "d\n" + "1" * 10 + "\n",
            "d\n",
        ],
    )
    def test_parse_rejects_what_the_format_does_not_allow(self, text):
        with pytest.raises(TuningError):
            parse_scl(text)

    @given(st.one_of(st.text(), _scl_texts()))
    def test_parse_returns_or_raises_tuning_error(self, text):
        try:
            description, pitches = parse_scl(text)
        except TuningError:
            return
        assert isinstance(description, str) and isinstance(pitches, list)

    def test_document_requires_ascending_entries(self):
        with pytest.raises(ValueError):
            ScaleDocument(description="broken", pitches=(Fraction(2), Fraction(3, 2)))

    def test_document_needs_an_entry(self):
        # (1,) has no neighbour pair, so the order check alone would let it pass
        with pytest.raises(TuningError, match="^a scale document needs at least one entry$"):
            ScaleDocument("d", ())

    @pytest.mark.parametrize(
        "low, high",
        [
            (Fraction(2), EtPitch(12, 12)),
            (EtPitch(1, 2), EtPitch(6, 12)),
            (EtPitch(7, 12), Fraction(53545, 35737)),  # 2e-7 cents below
        ],
    )
    def test_document_rejects_equal_or_descending_exact_neighbours(self, low, high):
        with pytest.raises(ValueError):
            ScaleDocument(description="broken", pitches=(low, high))

    @pytest.mark.parametrize(
        "first",
        [
            EtPitch(-1, 10**8),  # its cents line would print as "0.000-2"
            EtPitch(-1, 7),  # and this one as "-171.42858", floored
            Fraction(1, 2),
            Fraction(1),
            EtPitch(0, 12),
        ],
    )
    def test_document_opens_above_the_unison(self, first):
        # the unison is implicit, so a first entry at or below 1 is refused
        # before it can be written as a line that parse_scl rejects or misreads
        with pytest.raises(TuningError, match="above the unison 1"):
            ScaleDocument("d", (first, Fraction(2)))

    @pytest.mark.parametrize(
        "first",
        [
            EtPitch(1, 10**8),  # 0.000012 cents, written as "0.00001"
            EtPitch(1, 1200),
            EtPitch(1, 7),
            Fraction(10**9 + 1, 10**9),
            Fraction(81, 80),
        ],
    )
    def test_document_opening_just_above_the_unison_reads_back_above_it(self, first):
        (value,) = parse_scl(render_scl(ScaleDocument("d", (first,)), "d.scl"))[1]
        if isinstance(first, Fraction):
            assert value == first
        else:
            assert 0 < value <= 1200 * first.k / first.n

    def test_a_pitch_whose_cents_truncate_to_the_unison_has_no_line(self):
        # 2**(1/10**9) is 0.0000012 cents: "0.00000" would read back as 1
        doc = ScaleDocument("d", (EtPitch(1, 10**9),))
        with pytest.raises(TuningError, match="no cents line above the unison"):
            render_scl(doc, "d.scl")

    @given(_order_cases())
    @example([EtPitch(1, 12), EtPitch(2, 24)])
    @example([Fraction(3, 2), EtPitch(12, 12), Fraction(2)])
    @example([EtPitch(7, 12), EtPitch(12, 12, Fraction(1, 1)), EtPitch(13, 12)])
    @example([EtPitch(-1199, 1200, 3), EtPitch(700, 1199)])  # a power of 1438800 x 2 bits
    @example([EtPitch(700, 1199), EtPitch(-1199, 1200, 3)])
    @settings(deadline=None)
    def test_document_order_is_compare_pitches_on_neighbours(self, values):
        # a document is accepted exactly when compare_pitches puts every
        # neighbour pair of [1, *values] below zero, and raises its error
        # when a comparison passes MAX_POWER_BITS
        try:
            ascending = all(compare_pitches(a, b) < 0 for a, b in zip([1, *values], values))
            expected = None if ascending else ASCENDING_MESSAGE
        except TuningError as e:
            expected = str(e)
        try:
            ScaleDocument("d", tuple(values))
            got = None
        except TuningError as e:
            got = str(e)
        assert got == expected

    @pytest.mark.parametrize("description", ["a\nb", "a\rb", "a\x85b", "a\u2028b", "!a"])
    def test_document_rejects_a_description_the_file_cannot_carry(self, description):
        # a line break moves the count; a leading "!" makes the line a comment
        with pytest.raises(TuningError, match="one line"):
            ScaleDocument(description, natural_scale_document().pitches)

    @pytest.mark.parametrize("filename", ["a\nb.scl", "a\rb.scl", "a\u2028b.scl"])
    def test_file_name_must_be_one_line(self, filename):
        # the name fills the comment line; a break would push its rest into
        # the description's place and the description into the count's
        with pytest.raises(TuningError, match="file name must be one line"):
            render_scl(natural_scale_document(), filename)

    @pytest.mark.parametrize("description", ["", "a b"])
    def test_description_round_trips(self, description):
        doc = ScaleDocument(description, natural_scale_document().pitches)
        assert parse_scl(render_scl(doc, "x.scl"))[0] == description


class TestComparisonExport:
    def test_csv_rows(self):
        csv = export_table(compare_three_scales(), "csv")
        lines = csv.splitlines()
        assert lines[0] == "degree,E,P,N"
        assert "RE,1.12246,1.125,1.125" in lines
        assert len(lines) == 9

    def test_json_carries_exact_forms_and_decimals(self):
        payload = json.loads(export_table(compare_three_scales(), "json"))
        assert payload["columns"] == ["E", "P", "N"]
        si = next(r for r in payload["rows"] if r["degree"] == "SI")
        assert si["P"]["exact"] == "3^5/2^7"
        assert si["P"]["decimal"] == "1.89843"
        assert si["N"]["exact"] == "3*5/2^3"
        assert si["E"]["exact"] == "2^(11/12)"

    def test_empty_table_is_header_only(self):
        empty = ScaleComparison(rows=())
        assert export_table(empty, "csv") == "degree,E,P,N\n"
        columns = '{\n  "columns": [\n    "E",\n    "P",\n    "N"\n  ],\n'
        assert export_table(empty, "json") == columns + '  "rows": []\n}\n'

    @settings(deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from(['"', "\\", "\x00\n\x1f\x7f", "DO♯", ""]), st.text()),
                st.sampled_from(compare_three_scales().rows),
            ),
            max_size=4,
        )
    )
    def test_json_is_the_indent_2_encoders_text(self, named):
        # the reference: the payload through json.dumps, which encodes in pure Python
        comp = ScaleComparison(
            tuple(ComparisonRow(name, r.equal, r.pythagorean, r.natural) for name, r in named)
        )
        payload = {"columns": ["E", "P", "N"], "rows": []}
        for degree, cells in comparison_table(comp):
            pairs = {c: {"exact": e, "decimal": d} for c, (e, d) in zip("EPN", cells)}
            payload["rows"].append({"degree": degree, **pairs})
        expected = json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
        assert export_table(comp, "json") == expected

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            export_table(compare_three_scales(), "xml")


def test_int_entry_renders_as_a_ratio():
    assert ScaleEntry(2) == ScaleEntry(Fraction(2))
    assert pitch_lines(ScaleDocument("d", (2,))) == ["2/1"]


def test_et_pitch_lines_are_exact_for_any_division():
    assert pitch_lines(ScaleDocument("d", (EtPitch(1, 12),))) == ["100.00000"]


def test_documents_and_their_files_build_no_entry(monkeypatch):
    # a document keeps its pitches: records are built only when entries is read
    built = mock.Mock(side_effect=AssertionError("a ScaleEntry was built"))
    monkeypatch.setattr(ScaleEntry, "__post_init__", built)
    doc = et_scale_document(311)
    assert len(render_scl(doc, "et311.scl").splitlines()) == 3 + 311
    for other in natural_scale_document(), pythagorean_chromatic_document(generate_fifths(12, 12)):
        render_scl(other, "x.scl")
    monkeypatch.undo()
    assert doc.entries == tuple(map(ScaleEntry, doc.pitches))
    assert doc.entries[0] == ScaleEntry(EtPitch(1, 311))
