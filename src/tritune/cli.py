"""Command-line front end.

Commands: et, pyth, natural, compare, weber, chord, export.  Exit status 0
on success, 1 on a domain error (one-line diagnostic on stderr), 2 on a
usage error.  A command's own parser alone parses a line that opens with its
name; the top parser takes any other line, prints help or usage, and exits.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .equal import MAX_ET_DIGITS, generate_et, et_value
from .errors import TuningError
from .intervals import classify_chord
from .natural import assemble_diatonic, compare_three_scales
from .pythagorean import generate_fifths
from .ratio import _pq_text, to_decimal
from .scalefile import (
    et_scale_document,
    export_table,
    natural_scale_document,
    pythagorean_chromatic_document,
    render_scl,
)
from .tables import chromatic_text, comparison_text, fifth_generation_text, pairing_text
from .weber import uniform_stimuli


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="tritune",
        description="Build and compare the equal, Pythagorean and just scales.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_et = sub.add_parser("et", help="equal division of the octave")
    p_et.add_argument("--n", type=int, required=True, help="steps per octave")
    p_et.add_argument("--digits", type=int, default=5)
    p_et.set_defaults(run=_run_et)

    p_pyth = sub.add_parser("pyth", help="scale generated by fifths")
    p_pyth.add_argument("--fifths-up", type=int, default=12)
    p_pyth.add_argument("--fifths-down", type=int, default=12)
    p_pyth.set_defaults(run=_run_pyth)
    view = p_pyth.add_mutually_exclusive_group()
    view.add_argument("--pairing", action="store_true", help="pair sounds around the equal degrees")
    view.add_argument("--chromatic", action="store_true", help="the 18-name chromatic selection")

    p_nat = sub.add_parser("natural", help="just scale from harmonic divisions")
    p_nat.add_argument("--trace", action="store_true", help="show the derivation")
    p_nat.set_defaults(run=_run_natural)

    p_cmp = sub.add_parser("compare", help="diatonic degrees across the three systems")
    p_cmp.set_defaults(run=lambda args: sys.stdout.write(comparison_text()))

    p_weber = sub.add_parser("weber", help="stimulus series with uniform perception")
    p_weber.add_argument("--s1", type=float, required=True)
    p_weber.add_argument("--c", type=float, required=True)
    p_weber.add_argument("--k", type=float, required=True)
    p_weber.add_argument("--n", type=int, required=True)
    p_weber.set_defaults(run=_run_weber)

    p_chord = sub.add_parser("chord", help="classify a stack of chromatic indices")
    p_chord.add_argument("indices", help="comma-separated indices, e.g. 0,4,7")
    p_chord.set_defaults(run=_run_chord)

    p_exp = sub.add_parser("export", help="write a scale or table to a file")
    p_exp.add_argument("--format", required=True, choices=("scl", "csv", "json"))
    p_exp.add_argument("--out", required=True)
    p_exp.add_argument(
        "--scale",
        choices=("et", "pyth", "natural"),
        default="natural",
        help="which scale an scl file carries (csv/json always carry the comparison)",
    )
    p_exp.add_argument("--n", type=int, default=12, help="divisions for --scale et")
    p_exp.set_defaults(run=_run_export)
    return parser, sub.choices


def _run_et(args) -> None:
    scale = generate_et(args.n)
    if args.n * args.digits > MAX_ET_DIGITS:
        raise TuningError(
            f"an et table takes at most {MAX_ET_DIGITS} steps x digits, "
            f"got {args.n} x {args.digits}"
        )
    # every line is built before any is printed: all of the table or none
    lines = [f"{p.k} {p.exact_form()} {et_value(p, args.digits)}" for p in scale.pitches]
    print("\n".join(lines))


def _run_pyth(args) -> None:
    view = chromatic_text if args.chromatic else fifth_generation_text
    view = pairing_text if args.pairing else view
    sys.stdout.write(view(generate_fifths(args.fifths_down, args.fifths_up)))


def _run_natural(args) -> None:
    scale = assemble_diatonic()
    if args.trace:
        si = scale.search
        print("\n".join(si.core.trace))
        print(f"system FA, LA -> {si.fa_la.f1}, {si.fa_la.f2}")
        print(
            f"search SI -> {si.accepted.value} from "
            f"({si.accepted.f_n1}, {si.accepted.f_n2}); "
            f"{si.searched - 1} candidates rejected"
        )
    for name, ratio in scale.degrees:
        print(f"{name} {_pq_text(ratio)} {to_decimal(ratio, 5)}")


def _run_weber(args) -> None:
    series = uniform_stimuli(args.s1, args.c, args.k, args.n)
    print(" ".join(f"{v:g}" for v in series))


def _run_chord(args) -> None:
    try:
        indices = [int(part) for part in args.indices.split(",")]
    except ValueError:
        raise TuningError(f"cannot parse chord indices from {args.indices!r}")
    print(classify_chord(indices))


def _run_export(args) -> None:
    path = Path(args.out)
    if args.format == "scl":
        if args.scale == "et":
            doc = et_scale_document(args.n)
        elif args.scale == "pyth":
            doc = pythagorean_chromatic_document(generate_fifths(12, 12))
        else:
            doc = natural_scale_document()
        text = render_scl(doc, path.name)
    else:
        text = export_table(compare_three_scales(), args.format)
    path.write_text(text, encoding="utf-8", newline="\n")
    print(f"wrote {path}")


_PARSER, _COMMANDS = _build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if not argv or argv[0] not in _COMMANDS:
            _PARSER.parse_args(argv)  # exits: help, or a usage error
            _PARSER.error("the command must come first")
        args = _COMMANDS[argv[0]].parse_args(argv[1:])
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
