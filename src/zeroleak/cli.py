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
are decimals or exact fractions like 3/16. `#` starts a comment.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np

from . import codec, dist, families, mechanism as mech_mod, report as report_mod
from .dist import JointDistribution, Kernel
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
CODE_FORMAT = "zeroleak-code-v1"


# ---------------------------------------------------------------------------
# input parsing


_DECIMAL = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?", re.ASCII)


def _parse_token(tok: str, line_no: int, col: int) -> float:
    """``float(Fraction(tok))``, bit for bit; ParseError where that raises."""
    if _DECIMAL.fullmatch(tok):
        # float rounds a plain decimal to the same double as Fraction. They
        # part only at zero and past the largest double: Fraction turns an
        # exact -0 into 0.0 (hence the + 0.0) but keeps the sign of a value
        # that underflows, and raises where float gives inf; those two cases
        # go the Fraction way
        v = float(tok)
        if math.isfinite(v) and (v or not tok.strip("+-.0")):
            return v + 0.0
    try:
        return float(Fraction(tok))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ParseError(f"cannot parse {tok!r} as a number or fraction", line_no, col) from None


def parse_distribution_text(text: str) -> JointDistribution:
    """Parse the named-section distribution format; see the module docstring."""
    sections: dict[str, list[list[float]]] = {}
    current: str | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" in line:
            name, _, rest = line.partition(":")
            name = name.strip().lower()
            if name not in ("joint", "p_x_given_y", "p_y"):
                raise ParseError(f"unknown section {name!r}", line_no)
            if name in sections:
                raise ParseError(f"duplicate section {name!r}", line_no)
            sections[name] = []
            current = name
            line = rest.strip()
            if not line:
                continue
        if current is None:
            raise ParseError("values before any section header", line_no)
        row = []
        col = 1
        for tok in line.split():
            row.append(_parse_token(tok, line_no, col))
            col += 1
        sections[current].append(row)

    if "joint" in sections:
        if "p_x_given_y" in sections or "p_y" in sections:
            raise ParseError("give either joint: or the kernel/marginal pair, not both")
        rows = sections["joint"]
        if not rows:
            raise ParseError("joint: section has no rows")
        width = len(rows[0])
        for i, r in enumerate(rows):
            if len(r) != width:
                raise ParseError(f"joint row {i} has {len(r)} entries, expected {width}")
        return dist.validate_and_normalize(np.array(rows))
    if "p_x_given_y" in sections and "p_y" in sections:
        kern = sections["p_x_given_y"]
        if not kern:
            raise ParseError("p_x_given_y: section has no rows")
        width = len(kern[0])
        for i, r in enumerate(kern):
            if len(r) != width:
                raise ParseError(f"kernel row {i} has {len(r)} entries, expected {width}")
        pv = sections["p_y"]
        flat = [v for row in pv for v in row]
        if len(flat) != width:
            raise ParseError(f"p_y has {len(flat)} entries, kernel has {width} columns")
        return dist.from_conditional(np.array(kern), np.array(flat))
    raise ParseError("need a joint: section or both p_x_given_y: and p_y:")


def parse_distribution(path: str) -> JointDistribution:
    with open(path, encoding="utf-8") as fh:
        return parse_distribution_text(fh.read())


# ---------------------------------------------------------------------------
# rendering helpers


def _f(v: float, structured: bool) -> str:
    if v != v:
        return "nan"
    if v == float("inf"):
        return "inf"
    return f"{v:.17g}" if structured else f"{v:.6g}"


def _vec(v, structured: bool) -> str:
    return " ".join(_f(float(x), structured) for x in v)


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
    for u in range(m.u_size):
        lines.kv(f"p_y_given_u.{u}", _vec(m.p_y_given_u.k[:, u], lines.structured))
    if m.decode is not None:
        for (x, u), y in sorted(m.decode.items()):
            lines.kv(f"decode.{x}.{u}", y)


# ---------------------------------------------------------------------------
# code serialization and audit


def render_code_document(a: Analysis, seed: int, lines: Lines) -> tuple[list[str], list[str]]:
    """Emit schemes + audits; returns (schemes, violated invariants)."""
    d = a.d
    lines.kv("format", CODE_FORMAT)
    lines.kv("seed", seed)
    lines.kv("x_size", d.x_size)
    lines.kv("y_size", d.y_size)
    for x in range(d.x_size):
        lines.kv(f"joint.{x}", _vec(d.p[x], True))
    codes = codec.build_codes(a)
    schemes = [code.scheme for code in codes]
    lines.kv("schemes", " ".join(schemes))
    violations: list[str] = []
    for code in codes:
        if code.scheme == codec.TWO_PART:
            m = code.mech
            lines.kv("two-part.key_size", code.key_size)
            lines.kv("two-part.x_field_bits", code.field_bits)
            lines.kv("two-part.u_size", m.u_size)
            lines.kv("two-part.p_u", _vec(m.p_u, True))
            for u in range(m.u_size):
                lines.kv(f"two-part.p_y_given_u.{u}", _vec(m.p_y_given_u.k[:, u], True))
            for u, word in sorted(code.u_code.codewords.items()):
                lines.kv(f"two-part.codeword.{u}", word)
            for (x, u), y in sorted(m.decode.items()):
                lines.kv(f"two-part.decode.{x}.{u}", y)
        else:
            lines.kv("direct-pad.key_size", code.key_size)
            lines.kv("direct-pad.field_bits", code.field_bits)
        audit = codec.audit(code, d)
        violations += render_audit_result(code, audit, a.achieved_hu, d, a.h_given_x.max(), lines)
    return schemes, violations


def render_audit_result(
    code: codec.PrivateCode,
    audit: codec.LeakageAudit,
    achieved_hu: float | None,
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
    violations = codec.check_audit(code, audit, d, achieved_hu, converse)
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
        doc[key.strip()] = value.strip()
    if doc.get("format") != CODE_FORMAT:
        raise ParseError(f"missing or unknown format marker (want {CODE_FORMAT})")
    return doc


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split()]


def _doc_field(doc: dict[str, str], key: str, parse):
    """``parse(doc[key])``; ParseError when the key is missing or malformed."""
    if key not in doc:
        raise ParseError(f"code document has no {key!r} entry")
    try:
        return parse(doc[key])
    except ValueError:
        raise ParseError(f"cannot parse {key} = {doc[key]!r}") from None


def _doc_vector(doc: dict[str, str], key: str, size: int) -> np.ndarray:
    """The float vector at ``key``; ParseError unless it has ``size`` entries."""
    v = np.array(_doc_field(doc, key, _floats))
    if v.size != size:
        raise ParseError(f"{key} has {v.size} entries, expected {size}")
    return v


def _doc_key_and_field(doc: dict[str, str], scheme: str, field_key: str, alphabet: int):
    """``(key_size, field_bits)`` of one scheme; ParseError unless the key
    size is at least 1 and the field holds ceil(log2 ``alphabet``) bits."""
    key_size = _doc_field(doc, f"{scheme}.key_size", int)
    field_bits = _doc_field(doc, f"{scheme}.{field_key}", int)
    if key_size < 1 or field_bits < codec.ceil_log2(alphabet):
        raise ParseError(f"{scheme}.key_size = {key_size} or {field_key} = {field_bits} too small")
    return key_size, field_bits


def rebuild_and_audit(doc: dict[str, str], lines: Lines) -> list[str]:
    """Reconstruct each serialized scheme and re-verify every invariant."""
    x_size = _doc_field(doc, "x_size", int)
    y_size = _doc_field(doc, "y_size", int)
    joint = np.array([_doc_vector(doc, f"joint.{x}", y_size) for x in range(x_size)])
    d = dist.validate_and_normalize(joint)
    if d.p.shape != joint.shape:
        raise ParseError("joint block has an all-zero row or column")
    schemes = _doc_field(doc, "schemes", str.split)
    if not schemes:
        raise ParseError("code document's schemes entry is empty")
    converse = dist.conditional_entropies(d).max()
    violations: list[str] = []
    for scheme in schemes:
        if scheme == codec.DIRECT_PAD:
            if y_size > x_size:
                raise ParseError(f"direct-pad entry for a joint with |Y| = {y_size} > |X| = {x_size}")
            key_size, field_bits = _doc_key_and_field(doc, scheme, "field_bits", y_size)
            code = replace(codec.build_direct_pad(d), key_size=key_size, field_bits=field_bits)
            hu = None
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
            cols = np.array(
                [_doc_vector(doc, f"two-part.p_y_given_u.{u}", y_size) for u in range(u_size)]
            ).T
            decode_tbl, words = {}, {}
            for key, value in doc.items():
                try:
                    if key.startswith("two-part.decode."):
                        _, _, x, u = key.split(".")
                        decode_tbl[(int(x), int(u))] = int(value)
                    elif key.startswith("two-part.codeword."):
                        _, _, u = key.split(".")
                        words[int(u)] = value
                except ValueError:
                    raise ParseError(f"cannot parse {key} = {value!r}") from None
            if sorted(words) != list(range(u_size)):
                raise ParseError(f"two-part.codeword.* must be numbered 0..{u_size - 1}")
            key_size, field_bits = _doc_key_and_field(doc, scheme, "x_field_bits", x_size)
            mech = Mechanism(p_u=p_u, p_y_given_u=Kernel(cols), decode=decode_tbl)
            prefix = codec.PrefixCode(
                codewords=words,
                expected_length=float(sum(p_u[u] * len(w) for u, w in words.items())),
            )
            code = replace(
                codec.build_two_part(d, mech),
                key_size=key_size,
                field_bits=field_bits,
                u_code=prefix,
            )
            # zero-leakage and decodability are re-derived, not trusted
            resid = float(np.abs(code.p_x_given_y @ cols - dist.marginal_x(d)[:, None]).max())
            if resid > 1e-7:
                violations.append(f"two-part: column leakage residual {resid:.3g}")
            mix = float(np.abs(cols @ p_u - dist.marginal_y(d)).max())
            if mix > 1e-7:
                violations.append(f"two-part: mixture does not reproduce P_Y ({mix:.3g})")
            try:
                rebuilt = mech_mod.build_decode_table(d, replace(mech, decode=None))
                if rebuilt.decode != decode_tbl:
                    violations.append("two-part: serialized decode table mismatch")
            except NotDecodable as exc:
                violations.append(f"two-part: not decodable ({exc})")
            if prefix.kraft_sum() > 1.0 + 1e-12:
                violations.append("two-part: Kraft inequality violated")
            sorted_words = sorted(words.values())
            for i in range(len(sorted_words) - 1):
                if sorted_words[i + 1].startswith(sorted_words[i]):
                    violations.append("two-part: codewords are not prefix-free")
                    break
            hu = dist.entropy(p_u)
        try:
            audit = codec.audit(code, d)
        except MalformedBits as exc:
            violations.append(f"{scheme}: a message does not decode ({exc})")
            continue
        violations += render_audit_result(code, audit, hu, d, converse, lines)
    return violations


# ---------------------------------------------------------------------------
# sweep


def check_instance(d: JointDistribution, args: argparse.Namespace) -> list[str]:
    """Property suite for one instance of ``args.family``; returns the
    violated invariants."""
    family = args.family
    a = mech_mod.analyze(d)
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
    if not (b.k_lower - 1e-6 <= hu <= b.k_upper_strengthened + 1e-6):
        problems.append(f"sandwich failed: {b.k_lower} <= {hu} <= {b.k_upper_strengthened}")
    if mech_mod.information_identity_residual(d, a.mech) > 1e-9:
        problems.append("information identity residual above 1e-9")
    for code in codec.build_codes(a):
        problems += codec.check_audit(code, codec.audit(code, d), d, hu, a.h_given_x.max())
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
        schemes, violations = render_code_document(a, args.seed, lines)
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
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
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
