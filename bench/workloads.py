"""The three benchmark workloads: their seeded inputs, one operation, and the
checks that decide whether its output is correct.

A workload hands out its inputs one cycle at a time.  Each cycle holds every
kind of operation in fixed proportions, in a seeded order, and the loop stops
only between cycles, so every run measures the same mix; the values inside
an operation are drawn pass by pass through their pool, so that a run sees
each about equally often whatever the seed.  ``execute`` is the
timed call into ``tritune``; ``record`` runs outside the timer and either
checks the result at once or keeps one copy of each distinct output for
``finish`` to check after the loop.  Outcomes land in a :class:`Tally`:

* ``failed`` counts operations whose output was wrong or that were not
  rejected as they must be;
* ``wrong`` counts the subset that were valid inputs with a wrong output, which
  makes the run incorrect.  A must-reject input that is accepted is a known
  gap in the input contract, so it counts as failed but leaves the run correct.
"""

from __future__ import annotations

import io
import json
import re
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from tritune import cli, equal, pythagorean, scalefile

#: a decimal number printed with a fraction part, as in "1.05946"
_DECIMAL = re.compile(r"(?<![\w.])\d+\.(\d+)")


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.digits = 0
        self.problems: list[str] = []
        self.pending: dict = defaultdict(Counter)

    def add(self, ok: bool, count: int = 1, must_reject: bool = False, what: str = ""):
        if ok:
            return
        self.failed += count
        if not must_reject:
            self.wrong += count
        if len(self.problems) < 5:
            self.problems.append(("not rejected: " if must_reject else "wrong output: ") + what)


def truncates(text: str, value: Fraction) -> bool:
    """Whether ``text`` is ``value`` truncated at the number of digits printed."""
    whole, _, frac = text.partition(".")
    if not (whole + frac).isdigit():
        return False
    a = int(whole + frac)
    scaled = value * 10 ** len(frac)
    return a <= scaled < a + 1


def root_certified(text: str, k: int, n: int) -> bool:
    """Whether ``text`` is 2**(k/n) truncated, by a**n <= 2**k * 10**(f n) < (a+1)**n."""
    whole, _, frac = text.partition(".")
    if not (whole + frac).isdigit():
        return False
    a = int(whole + frac)
    x = (1 << k) * 10 ** (len(frac) * n)
    return a ** n <= x < (a + 1) ** n


def draws(pool, rng):
    """Endless draws from ``pool``, each pass a fresh seeded permutation, so
    that every value is used about equally often in a run."""
    pool = list(pool)
    while True:
        rng.shuffle(pool)
        yield from pool


def _fraction_digits(text: str) -> int:
    return sum(len(m) for m in _DECIMAL.findall(text))


class Workload:
    def __init__(self, root: Path, outdir: Path):
        self.outdir = outdir

    def finish(self, tally: Tally) -> None:
        """Check what ``record`` kept for later; nothing by default."""


class Paper12(Workload):
    """Every subcommand at the paper's settings through ``cli.main``, plus
    inputs the CLI must reject with exit status 1 and a one-line message."""

    GOLDEN = {
        ("pyth",): "fifth_generation.txt",
        ("pyth", "--pairing"): "pairing.txt",
        ("pyth", "--chromatic"): "chromatic.txt",
        ("compare",): "comparison.txt",
    }
    MUST_REJECT = (
        ("chord", "0,x"),
        ("pyth", "--pairing", "--fifths-up", "5"),
        ("weber", "--s1", "1", "--c", "1", "--k", "1", "--n", "100000000"),
        ("weber", "--s1", "nan", "--c", "1", "--k", "1", "--n", "3"),
    )
    SCL = {"et": "et12.scl", "pyth": "pyth.scl", "natural": "natural.scl"}

    def __init__(self, root: Path, outdir: Path):
        super().__init__(root, outdir)
        self.golden_dir = root / "tests" / "golden"
        self.exports = {
            ("export", "--format", "scl", "--scale", scale, "--n", "12", "--out", str(outdir / name)): scale
            for scale, name in self.SCL.items()
        }
        self.exports.update(
            {("export", "--format", fmt, "--out", str(outdir / f"table.{fmt}")): fmt for fmt in ("csv", "json")}
        )
        self.valid = [
            ("et", "--n", "12"),
            *self.GOLDEN,
            ("natural", "--trace"),
            ("weber", "--s1", "1", "--c", "1", "--k", "1", "--n", "13"),
            ("chord", "0,4,7"),
            *self.exports,
        ]
        self._golden: dict = {}

    def cycles(self, rng):
        while True:
            ops = self.valid + list(self.MUST_REJECT)
            rng.shuffle(ops)
            yield ops

    def execute(self, argv):
        out, err = io.StringIO(), io.StringIO()
        raised = None
        with redirect_stdout(out), redirect_stderr(err):
            try:
                status = cli.main(list(argv))
            except Exception as exc:  # a must-reject input that escapes main
                status, raised = None, type(exc).__name__
        return status, out.getvalue(), err.getvalue(), raised

    def record(self, argv, result, tally: Tally, recorder=None) -> None:
        if recorder is not None:
            recorder.amounts["cli.bytes_out"] += len(result[1].encode("utf-8"))
        written = None
        if argv in self.exports and result[0] == 0:
            written = Path(argv[-1]).read_text(encoding="utf-8")
        tally.pending[argv][(*result, written)] += 1

    def finish(self, tally: Tally) -> None:
        for argv, outcomes in tally.pending.items():
            must_reject = argv in self.MUST_REJECT
            for outcome, count in outcomes.items():
                status, out, err, raised, written = outcome
                if must_reject:
                    ok = status == 1 and raised is None and not out and err.startswith("error: ") and err.count("\n") == 1
                else:
                    ok = status == 0 and raised is None and not err and self._output_ok(argv, out, written)
                tally.add(ok, count, must_reject, f"{' '.join(argv)} -> {status} {raised} {out[:60]!r} {err[:60]!r}")
                if ok:
                    tally.digits += count * _fraction_digits(written or out)
        tally.pending.clear()

    def _golden_text(self, name: str) -> str:
        if name not in self._golden:
            self._golden[name] = (self.golden_dir / name).read_text(encoding="utf-8")
        return self._golden[name]

    def _output_ok(self, argv, out: str, written) -> bool:
        if argv in self.GOLDEN:
            return out == self._golden_text(self.GOLDEN[argv])
        if argv[0] == "et":
            lines = [ln.split(" ") for ln in out.splitlines()]
            return [ln[0] for ln in lines] == [str(k) for k in range(13)] and all(
                len(ln) == 3 and root_certified(ln[2], int(ln[0]), 12) for ln in lines
            )
        if argv[0] == "natural":
            return self._natural_ok(out)
        if argv[0] == "weber":
            return out == " ".join(f"{2.0 ** j:g}" for j in range(13)) + "\n"
        if argv[0] == "chord":
            return out == "DO major\n"
        if out != f"wrote {argv[-1]}\n" or written is None:
            return False
        kind = self.exports[argv]
        if kind in ("csv", "json"):
            return self._table_ok(kind, written)
        return self._scl_ok(kind, written)

    @staticmethod
    def _natural_ok(out: str) -> bool:
        just = [Fraction(1), Fraction(9, 8), Fraction(5, 4), Fraction(4, 3), Fraction(3, 2), Fraction(5, 3), Fraction(15, 8), Fraction(2)]
        lines = out.splitlines()
        if len(lines) != 13 or "SI -> 15/8" not in lines[4]:
            return False
        for line, ratio in zip(lines[5:], just):
            _, pq, dec = line.split(" ")
            if Fraction(pq) != ratio or not truncates(dec, ratio):
                return False
        return True

    def _table_ok(self, kind: str, written: str) -> bool:
        """csv and json carry the same cells as the golden comparison table."""
        rows = []
        for line in self._golden_text("comparison.txt").splitlines()[1:9]:
            degree, *cells = re.split(r"\s{2,}", line.strip())
            rows.append((degree, [tuple(c.split(" = ")) for c in cells]))
        if kind == "csv":
            expected = ["degree,E,P,N"] + [",".join([d] + [dec for _, dec in cells]) for d, cells in rows]
            return written == "\n".join(expected) + "\n"
        payload = json.loads(written)
        got = [(r["degree"], [(r[c]["exact"], r[c]["decimal"]) for c in "EPN"]) for r in payload["rows"]]
        return payload["columns"] == ["E", "P", "N"] and got == [(d, list(cells)) for d, cells in rows]

    @staticmethod
    def _scl_ok(scale: str, written: str) -> bool:
        """The file reads back through ``parse_scl`` to its document's pitches."""
        if scale == "et":
            doc = scalefile.et_scale_document(12)
        elif scale == "pyth":
            doc = scalefile.pythagorean_chromatic_document(pythagorean.generate_fifths(12, 12))
        else:
            doc = scalefile.natural_scale_document()
        description, pitches = scalefile.parse_scl(written)
        if description != doc.description or len(pitches) != len(doc.entries):
            return False
        for entry, pitch in zip(doc.entries, pitches):
            if isinstance(entry.value, Fraction):
                if pitch != entry.value:
                    return False
            elif not 0 <= Fraction(1200 * entry.value.k, entry.value.n) - Fraction(pitch) < Fraction(1, 10 ** 5):
                return False
        return True


class DeepDigits(Workload):
    """``et_value(2**(k/n), d)`` at many exact digits: root extraction."""

    #: (n, d) per cycle; the repeats keep the median and p90 inside a group
    #: of similar cost instead of on the edge between two groups
    CYCLE = (
        (12, 100), (12, 200), (31, 50), (31, 100), (53, 50), (53, 100),
        (311, 20), (311, 20), (311, 20), (311, 20), (311, 50), (311, 50),
    )

    def cycles(self, rng):
        ks = {key: draws(range(1, key[0]), rng) for key in set(self.CYCLE)}
        while True:
            ops = [(equal.EtPitch(next(ks[n, d]), n), d) for n, d in self.CYCLE]
            rng.shuffle(ops)
            yield ops

    def execute(self, op):
        pitch, digits = op
        return equal.et_value(pitch, digits)

    def record(self, op, text: str, tally: Tally, recorder=None) -> None:
        pitch, d = op
        ok = text.startswith("1.") and len(text) == d + 2 and root_certified(text, pitch.k, pitch.n)
        tally.add(ok, what=f"et_value({pitch.k}/{pitch.n}, {d}) -> {text[:40]}")
        if ok:
            tally.digits += d


def _five_limit_ratios() -> list[Fraction]:
    """2**a * 3**b * 5**c folded into [1, 2), for |b|, |c| <= 2."""
    ratios = set()
    for b in range(-2, 3):
        for c in range(-2, 3):
            r = Fraction(3) ** b * Fraction(5) ** c
            while r < 1:
                r *= 2
            while r >= 2:
                r /= 2
            ratios.add(r)
    return sorted(ratios)


class LargeN(Workload):
    """Exact rational-vs-equal comparisons at 12, 31, 53 and 311 divisions."""

    DIVISIONS = (12, 31, 53, 311)
    #: per cycle: classify ops per division, pairing(53) ops, rejected pairing(31) ops
    CLASSIFY, PAIRING, REJECT = 23, 2, 2

    def __init__(self, root: Path, outdir: Path):
        super().__init__(root, outdir)
        self.pool = pythagorean.generate_fifths(60, 60).ratios() + _five_limit_ratios()
        self.pairing_ratios = sorted(pythagorean.generate_fifths(53, 53).ratios())

    def cycles(self, rng):
        ratios = {n: draws(self.pool, rng) for n in self.DIVISIONS}
        while True:
            ops = [("classify", next(ratios[n]), n) for n in self.DIVISIONS for _ in range(self.CLASSIFY)]
            ops += [("pairing",)] * self.PAIRING + [("reject",)] * self.REJECT
            ops += [("scl", n) for n in self.DIVISIONS]
            rng.shuffle(ops)
            yield ops

    def execute(self, op):
        kind = op[0]
        if kind == "classify":
            return pythagorean.classify_to_et(op[1], op[2])
        if kind == "pairing":
            return pythagorean.pairing_table(pythagorean.generate_fifths(53, 53), 53)
        if kind == "reject":
            try:
                pythagorean.pairing_table(pythagorean.generate_fifths(31, 31), 31)
            except Exception as exc:  # must be CoverageError; record decides
                return type(exc).__name__
            return None
        text = scalefile.render_scl(scalefile.et_scale_document(op[1]), f"et{op[1]}.scl")
        return text, scalefile.parse_scl(text)

    def record(self, op, result, tally: Tally, recorder=None) -> None:
        kind = op[0]
        if kind == "classify":
            r, n = op[1], op[2]
            d = result[0]
            p, q = r.numerator ** (2 * n), r.denominator ** (2 * n)
            ok = 0 <= d <= n and (q << 2 * d) <= 2 * p and p < (q << 2 * d + 1)
            tally.add(ok, what=f"classify_to_et({r}, {n}) -> {d}")
        elif kind == "pairing":
            tally.add(self._pairing_ok(result), what="pairing_table(53)")
        elif kind == "reject":
            tally.add(result == "CoverageError", must_reject=True, what=f"pairing_table(31) -> {result}")
        else:
            ok = self._scl_ok(op[1], *result)
            tally.add(ok, what=f"scl round trip at {op[1]}")
            if ok:
                tally.digits += 5 * op[1]

    def _pairing_ok(self, pairs) -> bool:
        """54 degrees, each bracketed low <= 2**(d/53) <= high, using every sound once."""
        if sorted(pairs) != list(range(54)):
            return False
        for d, (low, high) in pairs.items():
            lo, hi = low.ratio, high.ratio
            if lo.numerator ** 53 > lo.denominator ** 53 << d or hi.numerator ** 53 < hi.denominator ** 53 << d:
                return False
        return sorted(e.ratio for pair in pairs.values() for e in pair) == self.pairing_ratios

    @staticmethod
    def _scl_ok(n: int, text: str, parsed) -> bool:
        _, pitches = parsed
        lines = text.splitlines()[3:]
        if len(lines) != n or pitches != [float(ln) for ln in lines]:
            return False
        return all(truncates(ln, Fraction(1200 * k, n)) and len(ln.partition(".")[2]) == 5 for k, ln in enumerate(lines, 1))


WORKLOADS = {"paper12": Paper12, "deep_digits": DeepDigits, "large_n": LargeN}


def self_check(outdir: Path, root: Path) -> list[str]:
    """The recorder's own checks: ``et --n 12`` makes exactly 11 root calls and
    2 decimal calls, and traced CLI output is byte-identical to untraced."""
    from spans import Recorder

    problems = []
    paper = Paper12(root, outdir)
    recorder = Recorder()
    with recorder:
        paper.execute(("et", "--n", "12"))
    calls = recorder.calls()
    if (calls["ratio.root"], calls["ratio.decimal"]) != (11, 2):
        problems.append(f"et --n 12 made {calls['ratio.root']} root and {calls['ratio.decimal']} decimal calls")
    for argv in paper.valid + list(paper.MUST_REJECT):
        plain = paper.execute(argv)
        with Recorder():
            traced = paper.execute(argv)
        if plain != traced:
            problems.append(f"traced output differs for {' '.join(argv)}")
    return problems
