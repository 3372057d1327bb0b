"""Exact-arithmetic construction and comparison of three historical scales:
equal division, Pythagorean (3-limit) and natural/just (5-limit)."""

from .equal import (
    MAX_DIVISIONS,
    EtPitch,
    EtScale,
    diatonic_subset,
    et_semitone_count,
    et_value,
    generate_et,
)
from .errors import (
    CoverageError,
    ExponentBoundError,
    PropositionViolationError,
    TuningError,
    UnsupportedDivisionError,
)
from .intervals import (
    ChordClassification,
    Interval,
    NoteName,
    PitchSequence,
    are_congruent,
    classify_chord,
    classify_et_interval,
    compose,
    flat,
    interval_between,
    note_name,
    sharp,
    transpose_indices,
)
from .natural import (
    HarmonicDivision,
    MeanTriple,
    NaturalScale,
    assemble_diatonic,
    build_core,
    compare_three_scales,
    dead_end_scan,
    find_si,
    frequency_of_division,
    harmonic_divide,
    means,
    solve_fa_la,
)
from .pythagorean import (
    APOTOME,
    LIMMA,
    PYTHAGOREAN_COMMA,
    FifthStep,
    NamedPitch,
    PythTable,
    base_dependence_demo,
    classify_to_et,
    generate_fifths,
    pairing_table,
    select_chromatic,
    tone_split_analysis,
)
from .ratio import (
    EXPONENT_BOUND,
    MAX_DIGITS,
    Monzo,
    cents,
    is_five_smooth,
    is_nth_root_irrational,
    is_perfect_nth_power,
    monzo_form,
    monzo_to_rational,
    rational_to_monzo,
    reduce_to_octave,
    to_decimal,
)
from .scalefile import (
    ComparisonTable,
    ScaleDocument,
    ScaleEntry,
    comparison_table,
    et_scale_document,
    export_table,
    natural_scale_document,
    parse_scl,
    pythagorean_chromatic_document,
    render_scl,
    write_scl,
)
from .weber import MAX_STIMULI, perception_increments, uniform_stimuli

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
