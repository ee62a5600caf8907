"""Batch command-line front end: parse inputs, render reports, dispatch.

The work is done in the library: the analysis is `mechanism.analyze`, the
choice of schemes `codec.build_codes`, the code document's writers and
readers (`codec`), the audit verdict `codec.check_audit` and the sweep's
property suite `families.check_instance`; this module holds no copy of them.

Commands (selected with --cmd):

* analyze    marginals, entropies, rank/nullity, membership, entropy bounds
* mechanism  analyze plus the synthesized disclosure and its decode table
* code       build the applicable scheme(s) and print the exact audit;
             structured output doubles as the serialized code document
* audit      re-verify a serialized code document produced by `code`
* sweep      run the property suite over seeded random instances

Input files are plain text: either a `joint:` section with |X| rows of |Y|
entries, or a `p_x_given_y:` kernel section plus a `p_y:` vector. Entries
are decimals or exact fractions like 3/16, each read as
`float(Fraction(entry))`. `#` starts a comment. A section is converted when
it closes: if it holds only the ASCII characters of decimals, with a minus
sign only in an exponent, one numpy conversion reads the whole section, and
it stands unless a token is not a number or a value is infinite: `float` and
`Fraction` part only there and at -0. Otherwise the section is read entry
by entry, and the first bad entry raises ParseError with its line and column.

Reports print each vector, and each row of a matrix, with one `%` format.

`--seed` seeds `sweep`; no other command draws a random number.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import re
import sys
from fractions import Fraction

import numpy as np

from . import codec, dist, families, mechanism as mech_mod, report as report_mod
from .dist import JointDistribution
from .errors import InputError, MalformedBits, ParseError, ZeroLeakError
from .mechanism import Analysis

DEFAULT_SEED = 12345


# ---------------------------------------------------------------------------
# input parsing


# decimals' characters and the ASCII whitespace str.split cuts them at, with
# a minus sign only in an exponent
_DECIMAL_CHARS = re.compile(r"[0-9.+\s]*(?:[eE]-?[0-9.+\s]*)*", re.ASCII)


def _parse_token(tok: str, line_no: int, col: int) -> float:
    """``float(Fraction(tok))``; ParseError where that raises."""
    try:
        return float(Fraction(tok))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ParseError(f"cannot parse {tok!r} as a number or fraction", line_no, col) from None


def _section_values(lines: list[tuple[int, str]]) -> tuple[np.ndarray, list[int]]:
    """A section's entries in reading order, and how many each line holds.

    When the section holds only the characters of plain decimals, one
    numpy conversion (which is ``float``) reads it whole. ``float`` rounds a
    plain decimal to the same double as ``Fraction``; they part only at an
    exact zero with a minus sign, which ``Fraction`` reads as 0.0 and
    ``float`` as -0.0, and past the largest double, where ``Fraction``
    raises and ``float`` gives inf. So a section with a minus sign other
    than an exponent's is not converted, and a conversion stands unless a
    token is not a number (``1e``, ``..``) or a value is infinite. Any miss
    reads the section token by token with ``_parse_token``, which raises at
    the first bad token in reading order."""
    rows = [line.split() for _, line in lines]
    counts = [len(row) for row in rows]
    if _DECIMAL_CHARS.fullmatch(" ".join(line for _, line in lines)):
        try:
            values = np.array(list(itertools.chain.from_iterable(rows)), dtype=float)
            if np.isfinite(values).all():
                return values, counts
        except ValueError:  # a token such as 1e or .. is no number
            pass
    return np.array(
        [
            _parse_token(tok, line_no, col)
            for (line_no, _), row in zip(lines, rows)
            for col, tok in enumerate(row, start=1)
        ],
        dtype=float,
    ), counts


def _matrix(section: str, row_name: str, values: np.ndarray, counts: list[int]) -> np.ndarray:
    """A section's entries as a matrix with one row per line; ParseError
    when it has no rows or they differ in length."""
    if not counts:
        raise ParseError(f"{section}: section has no rows")
    width = counts[0]
    for i, n in enumerate(counts):
        if n != width:
            raise ParseError(f"{row_name} row {i} has {n} entries, expected {width}")
    return values.reshape(len(counts), width)


def parse_distribution_text(text: str) -> JointDistribution:
    """Parse the named-section distribution format; see the module docstring.

    A section's value lines are collected and converted together when it
    closes, before the next header is checked, so errors come in reading
    order."""
    sections: dict[str, tuple[np.ndarray, list[int]]] = {}
    current: str | None = None
    pending: list[tuple[int, str]] = []  # (line number, values) of the open section
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" in line:
            if current is not None:
                sections[current] = _section_values(pending)
            name, _, rest = line.partition(":")
            name = name.strip().lower()
            if name not in ("joint", "p_x_given_y", "p_y"):
                raise ParseError(f"unknown section {name!r}", line_no)
            if name in sections:
                raise ParseError(f"duplicate section {name!r}", line_no)
            current, pending = name, []
            line = rest.strip()
            if not line:
                continue
        if current is None:
            raise ParseError("values before any section header", line_no)
        pending.append((line_no, line))
    if current is not None:
        sections[current] = _section_values(pending)

    if "joint" in sections:
        if "p_x_given_y" in sections or "p_y" in sections:
            raise ParseError("give either joint: or the kernel/marginal pair, not both")
        return dist.validate_and_normalize(_matrix("joint", "joint", *sections["joint"]))
    if "p_x_given_y" in sections and "p_y" in sections:
        kern = _matrix("p_x_given_y", "kernel", *sections["p_x_given_y"])
        p_y, _ = sections["p_y"]
        if p_y.size != kern.shape[1]:
            raise ParseError(f"p_y has {p_y.size} entries, kernel has {kern.shape[1]} columns")
        return dist.from_conditional(kern, p_y)
    raise ParseError("need a joint: section or both p_x_given_y: and p_y:")


def parse_distribution(path: str) -> JointDistribution:
    with open(path, encoding="utf-8") as fh:
        return parse_distribution_text(fh.read())


# ---------------------------------------------------------------------------
# rendering helpers


# each format's float in printf form: "%.17g" % v is format(v, ".17g"), and
# both print nan, inf and -inf
_SPEC = {True: codec.FLOAT, False: "%.6g"}


def _f(v: float, structured: bool) -> str:
    return _SPEC[structured] % v


class Lines:
    def __init__(self, structured: bool):
        self.structured = structured
        self.out: list[str] = []

    def kv(self, key: str, value) -> None:
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = _f(value, self.structured)
        self.out.append(f"{key} = {value}")

    def header(self, title: str) -> None:
        if not self.structured:
            self.out.append(f"[{title}]")

    def text(self) -> str:
        return "\n".join(self.out) + "\n"


def render_analysis(a: Analysis, lines: Lines) -> None:
    d = a.d
    px, py = dist.marginal_x(d), dist.marginal_y(d)
    lines.header("distribution")
    lines.kv("x_size", d.x_size)
    lines.kv("y_size", d.y_size)
    lines.kv("p_x", codec.format_row(px, _SPEC[lines.structured]))
    lines.kv("p_y", codec.format_row(py, _SPEC[lines.structured]))
    lines.kv("h_x", dist.entropy(px))
    lines.kv("h_y", dist.entropy(py))
    lines.kv("h_y_given_x", a.h_cond)
    lines.kv("mutual_information", dist.mutual_information(d))
    lines.kv("kernel_rank", a.rank)
    lines.kv("kernel_nullity", a.nullity)
    lines.header("membership")
    lines.kv("member", a.member)
    lines.kv("boundary", a.boundary)
    lines.kv("g0_bits", a.g0)
    lines.kv("x_deterministic_of_y", a.x_det)
    if a.bounds is not None:
        b = a.bounds
        lines.header("entropy_bounds")
        lines.kv("k_lower", b.k_lower)
        lines.kv("k_upper", b.k_upper)
        lines.kv("k_upper_strengthened", b.k_upper_strengthened)
        lines.kv("log_nullity_bound", b.log_nullity_bound)
        lines.kv("unique_optimizer", b.unique)
        lines.kv("achieved_entropy", a.achieved_hu)
        lines.kv("mechanism_decodable", a.mech_decodable)

    rep = report_mod.build_report(a)
    lines.header("length_bounds")
    for e in rep.upper:
        lines.kv(f"upper.{e.name}", _f(e.bits, lines.structured) + f"  ({e.applicability}; M={e.key_size})")
    for e in rep.lower:
        lines.kv(f"lower.{e.name}", _f(e.bits, lines.structured) + f"  ({e.applicability}; M={e.key_size})")
    for name, val in rep.improvement_flags.items():
        lines.kv(f"flag.{name}", val)
    lines.kv("nonexistence_small_key", rep.nonexistence)
    for note in rep.notes:
        lines.kv("note", note)


def render_mechanism(a: Analysis, lines: Lines) -> None:
    if a.mech is None:
        lines.kv("mechanism", "none (joint not a member)")
        return
    m = a.mech
    lines.header("mechanism")
    lines.kv("u_size", m.u_size)
    lines.kv("p_u", codec.format_row(m.p_u, _SPEC[lines.structured]))
    lines.out += codec.format_rows("p_y_given_u", m.p_y_given_u.T, _SPEC[lines.structured])
    if m.decode is not None:
        lines.out += codec.format_rows("decode", m.decode, "%d")


# ---------------------------------------------------------------------------
# code documents, audits and the sweep


def render_code_document(a: Analysis, lines: Lines) -> tuple[list[str], list[str]]:
    """Write the code document of every applicable scheme, each scheme's
    audit after its lines; returns (schemes, violated invariants)."""
    codes = codec.build_codes(a)
    schemes = [code.scheme for code in codes]
    lines.out += codec.write_head(a.d, schemes)
    violations: list[str] = []
    for code in codes:
        lines.out += codec.write_code(code)
        violations += render_audit_result(code, [], a.d, a.h_given_x.max(), lines)
    return schemes, violations


def render_audit_result(
    code: codec.PrivateCode, found: list[str], d: JointDistribution, converse: float, lines: Lines
) -> list[str]:
    """Audit ``code`` on ``d``, print the figures and the verdict, and
    return the violated invariants: the reader's ``found``, then the
    audit's, or the one naming a message that does not decode."""
    scheme = code.scheme
    lines.header(f"audit {scheme}")
    violations = list(found)
    try:
        audit = codec.audit(code, d)
    except MalformedBits as exc:
        violations.append(f"{scheme}: a message does not decode ({exc})")
    else:
        lines.kv(f"{scheme}.audit.mi_c_x", audit.mi_c_x)
        # all 17 digits in both formats: the audit fails on any value below 1,
        # which .6g would print as 1
        lines.kv(f"{scheme}.audit.lossless_prob", _f(audit.lossless_prob, True))
        lines.kv(
            f"{scheme}.audit.per_key_expected_length",
            codec.format_row([audit.expected_length] * code.key_size, _SPEC[lines.structured]),
        )
        lines.kv(f"{scheme}.audit.mi_c_x_given_y", audit.mi_c_x_given_y)
        lines.kv(f"{scheme}.audit.h_y_given_x_c", audit.h_y_given_x_c)
        violations += codec.check_audit(code, audit, converse)
    lines.kv(f"{scheme}.audit.ok", not violations)
    return violations


def run_sweep(args: argparse.Namespace, lines: Lines) -> int:
    rng = np.random.default_rng(args.seed)
    failures = 0
    for i in range(args.n):
        d = families.FAMILIES[args.family](rng)
        problems = families.check_instance(d, args.family)
        if problems:
            failures += 1
            lines.kv(f"instance.{i:04d}", "FAIL " + "; ".join(problems))
        else:
            lines.kv(f"instance.{i:04d}", "ok")
    lines.kv("passed", f"{args.n - failures}/{args.n}")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# entry points


def run(args: argparse.Namespace) -> tuple[int, str]:
    """Execute one parsed command line; returns (exit status, report text)."""
    lines = Lines(args.format == "structured")
    if args.cmd == "sweep":
        return run_sweep(args, lines), lines.text()
    if args.input_path is None:
        raise ParseError("--input is required for this command")
    if args.cmd == "audit":
        with open(args.input_path, encoding="utf-8") as fh:
            doc, d, schemes = codec.parse_code_document(fh.read())
        converse = dist.conditional_entropies(d).max()
        violations = []
        for scheme in schemes:
            violations += render_audit_result(*codec.read_code(doc, scheme, d), d, converse, lines)
    else:
        a = mech_mod.analyze(parse_distribution(args.input_path))
        if args.cmd in ("analyze", "mechanism"):
            render_analysis(a, lines)
            if args.cmd == "mechanism":
                render_mechanism(a, lines)
            return 0, lines.text()
        if args.cmd != "code":
            raise ValueError(f"unknown command {args.cmd!r}")
        schemes, violations = render_code_document(a, lines)
        if not schemes:
            lines.kv("error", "no applicable scheme (not a decodable member and |Y| > |X|)")
            return 2, lines.text()
    for v in violations:
        lines.kv("violation", v)
    return (0 if not violations else 1), lines.text()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="zeroleak",
        description="Zero-leakage private compression: analysis, synthesis, coding, audits.",
    )
    p.add_argument("--input", dest="input_path", help="distribution or code document path")
    p.add_argument(
        "--cmd",
        required=True,
        choices=["analyze", "mechanism", "code", "audit", "sweep"],
    )
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="sweep seed")
    p.add_argument("--format", choices=["text", "structured"], default="text")
    p.add_argument("--n", type=int, default=100, help="sweep instance count")
    p.add_argument(
        "--family",
        default="det-f",
        choices=list(families.FAMILIES),
        help="sweep instance family",
    )
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("--n must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        status, text = run(args)
    except (InputError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ZeroLeakError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
