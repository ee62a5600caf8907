"""Batch command-line front end: parse inputs, render reports, dispatch.

The work is done in the library: the analysis is `mechanism.analyze`, the
choice of schemes `codec.build_codes` and the audit verdict
`codec.check_audit`; this module holds no copy of them.

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
it closes: if every line is plain ASCII decimals with no minus sign, one
numpy conversion reads the whole section, and it stands unless it holds an
infinite value: `float` and `Fraction` part only there and at -0. Otherwise
the section is read entry by entry, and the first bad entry raises
ParseError with its line and column.

Reports print each vector, and each row of a matrix, with one `%` format.

A code document (`code --format structured`, format `zeroleak-code-v3`) is
flat `key = value` lines, each key given once. Each scheme named in
`schemes` (once) opens with the same header, `<scheme>.key_size` and
`<scheme>.field_bits`, before its own keys. The key is the pad, so the
header must give the scheme's own values: |X| and ceil(log2 |X|) for
two-part, |Y| and ceil(log2 |Y|) for direct-pad. Matrices are rows
`key.i`: the joint, two-part's P(Y|U=u) and its decode table,
`two-part.decode.x` holding the y of each (x, u), -1 where the pair has no
mass. `audit` reads each block of rows with one numpy conversion, and any
miss reads it row by row, which names the first missing, short or
malformed row.

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
from .errors import (
    InputError,
    MalformedBits,
    NegativeMass,
    NonFiniteMass,
    NotDecodable,
    ParseError,
    ZeroLeakError,
)
from .mechanism import Analysis, Mechanism

DEFAULT_SEED = 12345
CODE_FORMAT = "zeroleak-code-v3"
# The most (x, y, u, w) events (`codec.event_count`: key_size per
# positive-mass triple) a code document may ask `audit` to account for; past
# it, `audit` raises ParseError. At the limit an audit peaked at 0.13 GB
# resident. A code has |X| or |Y| keys, so a 128 x 128 joint of positive
# entries with one U symbol per y fits.
MAX_AUDIT_EVENTS = 1 << 22


# ---------------------------------------------------------------------------
# input parsing


# a decimal with no minus sign, and a line of them between ASCII whitespace,
# which str.split cuts into exactly those decimals
_NUMBER = r"\+?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?"
_DECIMAL_LINE = re.compile(rf"{_NUMBER}(?:\s+{_NUMBER})*", re.ASCII)


def _parse_token(tok: str, line_no: int, col: int) -> float:
    """``float(Fraction(tok))``; ParseError where that raises."""
    try:
        return float(Fraction(tok))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ParseError(f"cannot parse {tok!r} as a number or fraction", line_no, col) from None


def _section_values(lines: list[tuple[int, str]]) -> tuple[np.ndarray, list[int]]:
    """A section's entries in reading order, and how many each line holds.

    When every line is plain decimals, one numpy conversion (which is
    ``float``) reads the whole section. ``float`` rounds a plain decimal to
    the same double as ``Fraction``; they part only at an exact zero with a
    minus sign, which ``Fraction`` reads as 0.0 and ``float`` as -0.0, and
    past the largest double, where ``Fraction`` raises and ``float`` gives
    inf.
    So a section with a minus sign (in valid input only a zero carries one)
    is not converted, and a conversion stands unless a value is infinite.
    Any miss reads the section token by token with ``_parse_token``, which
    raises at the first bad token in reading order."""
    rows = [line.split() for _, line in lines]
    counts = [len(row) for row in rows]
    if all(_DECIMAL_LINE.fullmatch(line) for _, line in lines):
        values = np.array(list(itertools.chain.from_iterable(rows)), dtype=float)
        if np.isfinite(values).all():
            return values, counts
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
_SPEC = {True: "%.17g", False: "%.6g"}


def _f(v: float, structured: bool) -> str:
    return _SPEC[structured] % v


def _vec(v, structured: bool) -> str:
    """``_f`` of each entry of ``v``, space separated, in one format op."""
    vals = np.asarray(v, dtype=float).tolist()
    return " ".join([_SPEC[structured]] * len(vals)) % tuple(vals)


def _rows(key: str, m: np.ndarray, spec: str) -> list[str]:
    """The lines ``key.i = <row i of m>``, every entry in the ``%`` format
    ``spec`` (``"%d"`` for a decode table), one format op per row."""
    line = f"{key}.%d = " + " ".join([spec] * m.shape[1])
    return [line % (i, *row) for i, row in enumerate(m.tolist())]


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
    lines.kv("p_x", _vec(px, lines.structured))
    lines.kv("p_y", _vec(py, lines.structured))
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
    lines.kv("p_u", _vec(m.p_u, lines.structured))
    lines.out += _rows("p_y_given_u", m.p_y_given_u.T, _SPEC[lines.structured])
    if m.decode is not None:
        lines.out += _rows("decode", m.decode, "%d")


# ---------------------------------------------------------------------------
# code serialization and audit


def render_code_document(a: Analysis, lines: Lines) -> tuple[list[str], list[str]]:
    """Emit schemes + audits; returns (schemes, violated invariants)."""
    d = a.d
    lines.kv("format", CODE_FORMAT)
    lines.kv("x_size", d.x_size)
    lines.kv("y_size", d.y_size)
    lines.out += _rows("joint", d.p, _SPEC[True])
    codes = codec.build_codes(a)
    schemes = [code.scheme for code in codes]
    lines.kv("schemes", " ".join(schemes))
    violations: list[str] = []
    for code in codes:
        lines.kv(f"{code.scheme}.key_size", code.key_size)
        lines.kv(f"{code.scheme}.field_bits", code.field_bits)
        if code.scheme == codec.TWO_PART:
            m = code.mech
            lines.kv("two-part.u_size", m.u_size)
            lines.kv("two-part.p_u", _vec(m.p_u, True))
            lines.out += _rows("two-part.p_y_given_u", m.p_y_given_u.T, _SPEC[True])
            lines.out += [f"two-part.codeword.{u} = {w}" for u, w in sorted(code.u_code.codewords.items())]
            lines.out += _rows("two-part.decode", m.decode, "%d")
        audit = codec.audit(code, d)
        violations += render_audit_result(code, audit, d, a.h_given_x.max(), lines)
    return schemes, violations


def render_audit_result(
    code: codec.PrivateCode,
    audit: codec.LeakageAudit,
    d: JointDistribution,
    converse: float,
    lines: Lines,
) -> list[str]:
    scheme = code.scheme
    lines.header(f"audit {scheme}")
    lines.kv(f"{scheme}.audit.mi_c_x", audit.mi_c_x)
    # all 17 digits in both formats: the audit fails on any value below 1,
    # which .6g would print as 1
    lines.kv(f"{scheme}.audit.lossless_prob", _f(audit.lossless_prob, True))
    lines.kv(
        f"{scheme}.audit.per_key_expected_length",
        _vec(audit.per_key_expected_length, lines.structured),
    )
    lines.kv(f"{scheme}.audit.mi_c_x_given_y", audit.mi_c_x_given_y)
    lines.kv(f"{scheme}.audit.h_y_given_x_c", audit.h_y_given_x_c)
    violations = codec.check_audit(code, audit, d, converse)
    lines.kv(f"{scheme}.audit.ok", not violations)
    return violations


def parse_code_document(text: str) -> dict[str, str]:
    doc: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or line.startswith("["):
            continue
        if "=" not in line:
            raise ParseError("expected `key = value`", line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        if key in doc:
            raise ParseError(f"duplicate key {key!r}", line_no)
        doc[key] = value.strip()
    if doc.get("format") != CODE_FORMAT:
        raise ParseError(f"missing or unknown format marker (want {CODE_FORMAT})")
    return doc


def _floats(tokens: list[str]) -> np.ndarray:
    """Each token read by ``float`` (numpy's conversion of a string is ``float``'s)."""
    return np.array(tokens, dtype=float)


def _ints(tokens: list[str]) -> np.ndarray:
    """Each token read by ``int`` (numpy's conversion of a string is
    ``int``'s) into int64; an integer past int64 reads as -2, which is no
    decode table's entry either."""
    try:
        return np.array(tokens, dtype=np.int64)
    except OverflowError:
        return np.array([v if -(1 << 63) <= v < 1 << 63 else -2 for v in map(int, tokens)], dtype=np.int64)


def _doc_field(doc: dict[str, str], key: str, parse):
    """``parse(doc[key])``; ParseError when the key is missing or malformed."""
    if key not in doc:
        raise ParseError(f"code document has no {key!r} entry")
    try:
        return parse(doc[key])
    except ValueError:
        raise ParseError(f"cannot parse {key} = {doc[key]!r}") from None


def _doc_size(doc: dict[str, str], key: str) -> int:
    """``int(doc[key])``; ParseError unless it is at least 1."""
    size = _doc_field(doc, key, int)
    if size < 1:
        raise ParseError(f"{key} = {size}, expected at least 1")
    return size


def _doc_vector(doc: dict[str, str], key: str, size: int, convert=_floats) -> np.ndarray:
    """``convert`` of the entries at ``key``; ParseError unless it has ``size`` entries."""
    v = _doc_field(doc, key, lambda text: convert(text.split()))
    if v.size != size:
        raise ParseError(f"{key} has {v.size} entries, expected {size}")
    return v


def _doc_block(doc: dict[str, str], key: str, n: int, width: int, convert=_floats) -> np.ndarray:
    """The rows ``key.0`` .. ``key.{n-1}`` of ``width`` entries each, as one
    (n, width) array from one ``convert`` of the whole block.

    Rows are gathered up to the first missing one, so a hostile ``n`` builds
    nothing larger than the document. Any miss reads the block row by row
    with ``_doc_vector``, which raises ParseError at the first missing, short
    or malformed row (and, for n = 0, gives the empty vector)."""
    rows = []
    for i in range(n):
        row = doc.get(f"{key}.{i}")
        if row is None:
            break
        rows.append(row.split())
    if 0 < len(rows) == n and all(len(row) == width for row in rows):
        try:
            return convert(list(itertools.chain.from_iterable(rows))).reshape(n, width)
        except ValueError:
            pass
    return np.array([_doc_vector(doc, f"{key}.{i}", width, convert) for i in range(n)])


def _check_header(doc: dict[str, str], code: codec.PrivateCode) -> None:
    """ParseError unless the scheme's header, ``<scheme>.key_size`` and then
    ``<scheme>.field_bits``, gives the key size and field width of ``code``."""
    for name in ("key_size", "field_bits"):
        key = f"{code.scheme}.{name}"
        value, want = _doc_field(doc, key, int), getattr(code, name)
        if value != want:
            raise ParseError(f"{key} = {value}, but the {code.scheme} code of this joint has {want}")


def rebuild_and_audit(doc: dict[str, str], lines: Lines) -> list[str]:
    """Reconstruct each serialized scheme and re-verify every invariant."""
    x_size, y_size = _doc_size(doc, "x_size"), _doc_size(doc, "y_size")
    joint = _doc_block(doc, "joint", x_size, y_size)
    d = dist.validate_and_normalize(joint)
    schemes = _doc_field(doc, "schemes", str.split)
    if not schemes:
        raise ParseError("code document's schemes entry is empty")
    if len(set(schemes)) != len(schemes):
        raise ParseError(f"code document's schemes entry names a scheme twice: {' '.join(schemes)}")
    converse = dist.conditional_entropies(d).max()
    violations: list[str] = []
    for scheme in schemes:
        if scheme == codec.DIRECT_PAD:
            if y_size > x_size:
                raise ParseError(f"direct-pad entry for a joint with |Y| = {y_size} > |X| = {x_size}")
            code = codec.build_direct_pad(d)
        elif scheme != codec.TWO_PART:
            raise ParseError(f"unknown scheme {scheme!r} in code document")
        else:
            u_size = _doc_field(doc, "two-part.u_size", int)
            p_u = _doc_vector(doc, "two-part.p_u", u_size)
            if not np.isfinite(p_u).all():
                raise NonFiniteMass(f"two-part.p_u entry {p_u[~np.isfinite(p_u)][0]} is not finite")
            if (p_u < 0.0).any():
                raise NegativeMass(f"two-part.p_u entry {p_u[p_u < 0.0][0]} is negative")
            if not (p_u > 0.0).any():
                raise ParseError("two-part.p_u has no positive mass")
            cols = _doc_block(doc, "two-part.p_y_given_u", u_size, y_size).T
            # a y outside -1..|Y|-1 is stored as |Y|, which no event decodes
            # to; a decode key other than the x_size rows is flagged
            table = _doc_block(doc, "two-part.decode", x_size, u_size, _ints)
            table[(table < -1) | (table >= y_size)] = y_size
            stray = sum(key.startswith("two-part.decode.") for key in doc) != x_size
            words = {u: doc.get(f"two-part.codeword.{u}") for u in range(u_size)}
            if None in words.values() or sum(key.startswith("two-part.codeword.") for key in doc) != u_size:
                raise ParseError(f"two-part.codeword.* must be numbered 0..{u_size - 1}")
            mech = Mechanism(p_u=p_u, p_y_given_u=dist.stochastic_columns(cols), decode=table)
            code = codec.build_two_part(d, mech, codec.PrefixCode(words))
            # zero-leakage and decodability are re-derived, not trusted
            resid = float(np.abs(code.p_x_given_y @ cols - dist.marginal_x(d)[:, None]).max())
            if resid > 1e-7:
                violations.append(f"two-part: column leakage residual {resid:.3g}")
            mix = float(np.abs(cols @ p_u - dist.marginal_y(d)).max())
            if mix > 1e-7:
                violations.append(f"two-part: mixture does not reproduce P_Y ({mix:.3g})")
            try:
                rebuilt = mech_mod.build_decode_table(d, mech)
                if stray or not np.array_equal(rebuilt.decode, table):
                    violations.append("two-part: serialized decode table mismatch")
            except NotDecodable as exc:
                violations.append(f"two-part: not decodable ({exc})")
            # sorted, a word that prefixes any other prefixes the next one;
            # a prefix-free set satisfies Kraft, so no Kraft check is made
            sorted_words = sorted(words.values())
            for i in range(len(sorted_words) - 1):
                if sorted_words[i + 1].startswith(sorted_words[i]):
                    violations.append("two-part: codewords are not prefix-free")
                    break
        _check_header(doc, code)
        events = codec.event_count(code, d)
        if events > MAX_AUDIT_EVENTS:
            raise ParseError(
                f"{scheme}.key_size = {code.key_size} asks the audit for {events} events,"
                f" past the limit of {MAX_AUDIT_EVENTS}"
            )
        try:
            audit = codec.audit(code, d)
        except MalformedBits as exc:
            violations.append(f"{scheme}: a message does not decode ({exc})")
            continue
        violations += render_audit_result(code, audit, d, converse, lines)
    return violations


# ---------------------------------------------------------------------------
# sweep


def check_instance(d: JointDistribution, args: argparse.Namespace) -> list[str]:
    """Property suite for one instance of ``args.family``; returns the
    violated invariants. An error raised by the analysis or the codes is
    one of them: none may escape."""
    try:
        return _instance_problems(d, args.family)
    except ZeroLeakError as exc:
        return [f"raised {type(exc).__name__}: {exc}"]


def _instance_problems(d: JointDistribution, family: str) -> list[str]:
    a = mech_mod.analyze(d)
    if a.two_part_excluded and a.mech_decodable:
        return ["two-part ruled out by the full-support test, yet the g0 mechanism decodes"]
    if family in ("det-f", "common-info", "rect") and not a.member:
        return [f"expected membership, got g0 = {a.g0:.6g}"]
    if family == "invertible" and a.member and not a.boundary:
        if a.h_cond > 10 * mech_mod.TAU_ENT:
            return ["invertible kernel unexpectedly a member"]
        return []
    if not a.member:
        return []
    problems = []
    b, hu = a.bounds, a.achieved_hu
    # a member whose bound LPs failed has no sandwich; ``boundary`` says so
    if b is not None and not (b.k_lower - 1e-6 <= hu <= b.k_upper_strengthened + 1e-6):
        problems.append(f"sandwich failed: {b.k_lower} <= {hu} <= {b.k_upper_strengthened}")
    if mech_mod.information_identity_residual(d, a.mech) > 1e-9:
        problems.append("information identity residual above 1e-9")
    for code in codec.build_codes(a):
        problems += codec.check_audit(code, codec.audit(code, d), d, a.h_given_x.max())
    return problems


def run_sweep(args: argparse.Namespace, lines: Lines) -> int:
    rng = np.random.default_rng(args.seed)
    failures = 0
    for i in range(args.n):
        d = families.FAMILIES[args.family](rng)
        problems = check_instance(d, args)
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
        status = run_sweep(args, lines)
        return status, lines.text()
    if args.input_path is None:
        raise ParseError("--input is required for this command")
    if args.cmd == "audit":
        with open(args.input_path, encoding="utf-8") as fh:
            doc = parse_code_document(fh.read())
        violations = rebuild_and_audit(doc, lines)
        for v in violations:
            lines.kv("violation", v)
        return (0 if not violations else 1), lines.text()

    d = parse_distribution(args.input_path)
    a = mech_mod.analyze(d)
    if args.cmd == "analyze":
        render_analysis(a, lines)
        return 0, lines.text()
    if args.cmd == "mechanism":
        render_analysis(a, lines)
        render_mechanism(a, lines)
        return 0, lines.text()
    if args.cmd == "code":
        schemes, violations = render_code_document(a, lines)
        if not schemes:
            lines.kv("error", "no applicable scheme (not a decodable member and |Y| > |X|)")
            return 2, lines.text()
        for v in violations:
            lines.kv("violation", v)
        return (0 if not violations else 1), lines.text()
    raise ValueError(f"unknown command {args.cmd!r}")


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
