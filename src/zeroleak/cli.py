"""Batch command-line front end.

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
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import codec, dist, families, mechanism as mech_mod, report as report_mod
from .dist import JointDistribution, Kernel
from .errors import NotDecodable, ParseError, StochasticityError, ZeroLeakError
from .linalg import rank_and_nullity
from .mechanism import Mechanism

DEFAULT_SEED = 12345
CODE_FORMAT = "zeroleak-code-v1"


@dataclass
class RunConfig:
    command: str
    input_path: str | None = None
    tol_prob: float = dist.TAU_PROB
    tol_lp: float = 1e-9
    tol_ent: float = mech_mod.TAU_ENT
    seed: int = DEFAULT_SEED
    output_format: str = "text"
    n: int = 100
    family: str = "det-f"


# ---------------------------------------------------------------------------
# input parsing


def _parse_token(tok: str, line_no: int, col: int) -> float:
    try:
        return float(Fraction(tok))
    except (ValueError, ZeroDivisionError):
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


# ---------------------------------------------------------------------------
# analysis pipeline shared by analyze / mechanism / code


@dataclass
class Analysis:
    d: JointDistribution
    member: bool
    boundary: bool
    g0: float
    mech: Mechanism | None
    mech_decodable: bool
    bounds: mech_mod.MechanismBounds | None
    achieved_hu: float | None


def analyze_distribution(d: JointDistribution, cfg: RunConfig) -> Analysis:
    ms = mech_mod.membership_in_phat(d, cfg.tol_ent, cfg.tol_lp)
    mech = None
    decodable = False
    bounds = None
    achieved = None
    if ms.member:
        mech = ms.mechanism or mech_mod.solve_g0(d, cfg.tol_lp)[1]
        achieved = dist.entropy(mech.p_u)
        bounds = mech_mod.theorem1_bounds(d, achieved, cfg.tol_ent, member=True, tol_lp=cfg.tol_lp)
        try:
            mech = mech_mod.build_decode_table(d, mech)
            decodable = True
        except NotDecodable:
            decodable = False
    return Analysis(
        d=d,
        member=ms.member,
        boundary=ms.boundary,
        g0=ms.certificate,
        mech=mech,
        mech_decodable=decodable,
        bounds=bounds,
        achieved_hu=achieved,
    )


def render_analysis(a: Analysis, lines: Lines) -> None:
    d = a.d
    px, py = dist.marginal_x(d), dist.marginal_y(d)
    kern = dist.kernel_x_given_y(d)
    rank, nullity = rank_and_nullity(kern.k)
    lines.header("distribution")
    lines.kv("x_size", d.x_size)
    lines.kv("y_size", d.y_size)
    lines.kv("p_x", _vec(px, lines.structured))
    lines.kv("p_y", _vec(py, lines.structured))
    lines.kv("h_x", dist.entropy(px))
    lines.kv("h_y", dist.entropy(py))
    lines.kv("h_y_given_x", dist.conditional_entropy_y_given_x(d))
    lines.kv("mutual_information", dist.mutual_information(d))
    lines.kv("kernel_rank", rank)
    lines.kv("kernel_nullity", nullity)
    lines.header("membership")
    lines.kv("member", a.member)
    lines.kv("boundary", a.boundary)
    lines.kv("g0_bits", a.g0)
    lines.kv("x_deterministic_of_y", mech_mod.x_is_function_of_y(d))
    if a.bounds is not None:
        b = a.bounds
        lines.header("entropy_bounds")
        lines.kv("k_lower", b.k_lower)
        lines.kv("k_upper", b.k_upper)
        lines.kv("k_upper_strengthened", b.k_upper_strengthened)
        lines.kv("log_nullity_bound", b.log_nullity_bound)
        lines.kv("unique_optimizer", b.unique)
        lines.kv("achieved_entropy", b.achieved_entropy)
        lines.kv("mechanism_decodable", a.mech_decodable)

    rep = report_mod.build_report(
        d,
        mech_bounds=a.bounds,
        achieved_hu=a.achieved_hu,
        member=a.member,
    )
    lines.header("length_bounds")
    for e in rep.upper:
        lines.kv(f"upper.{e.name}", _f(e.bits, lines.structured) + f"  ({e.applicability}; M={e.key_size})")
    for e in rep.lower:
        lines.kv(f"lower.{e.name}", _f(e.bits, lines.structured) + f"  ({e.applicability}; M={e.key_size})")
    for name, val in rep.improvement_flags.items():
        lines.kv(f"flag.{name}", val)
    lines.kv("nonexistence_small_key", rep.nonexistence)
    if a.achieved_hu is not None and mech_mod.x_is_function_of_y(d):
        prior_u_part = codec.ceil_log2(d.y_size - d.x_size + 1)
        lines.kv("achieved_hu_plus_one", a.achieved_hu + 1.0)
        lines.kv("prior_u_part_bits", prior_u_part)
        lines.kv("u_part_improves", bool(a.achieved_hu + 1.0 < prior_u_part))
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


def render_code_document(a: Analysis, cfg: RunConfig, lines: Lines) -> tuple[list[str], list[str]]:
    """Emit schemes + audits; returns (schemes, violated invariants)."""
    d = a.d
    lines.kv("format", CODE_FORMAT)
    lines.kv("seed", cfg.seed)
    lines.kv("x_size", d.x_size)
    lines.kv("y_size", d.y_size)
    for x in range(d.x_size):
        lines.kv(f"joint.{x}", _vec(d.p[x], True))
    schemes = []
    if a.member and a.mech_decodable:
        schemes.append(codec.TWO_PART)
    if d.y_size <= d.x_size:
        schemes.append(codec.DIRECT_PAD)
    lines.kv("schemes", " ".join(schemes))
    violations: list[str] = []
    for scheme in schemes:
        if scheme == codec.TWO_PART:
            assert a.mech is not None
            code = codec.build_two_part(d, a.mech)
            m = code.mech
            lines.kv("two-part.key_size", code.key_size)
            lines.kv("two-part.x_field_bits", code.x_field_bits)
            lines.kv("two-part.u_size", m.u_size)
            lines.kv("two-part.p_u", _vec(m.p_u, True))
            for u in range(m.u_size):
                lines.kv(f"two-part.p_y_given_u.{u}", _vec(m.p_y_given_u.k[:, u], True))
            for u, word in sorted(code.u_code.codewords.items()):
                lines.kv(f"two-part.codeword.{u}", word)
            for (x, u), y in sorted(m.decode.items()):
                lines.kv(f"two-part.decode.{x}.{u}", y)
        else:
            code = codec.build_direct_pad(d)
            lines.kv("direct-pad.key_size", code.key_size)
            lines.kv("direct-pad.field_bits", code.fixed_field_bits)
        audit = codec.audit(code, d)
        violations += render_audit_result(scheme, code, audit, a.achieved_hu, d, lines)
    return schemes, violations


def render_audit_result(
    scheme: str,
    code: codec.PrivateCode,
    audit: codec.LeakageAudit,
    achieved_hu: float | None,
    d: JointDistribution,
    lines: Lines,
) -> list[str]:
    lines.header(f"audit {scheme}")
    lines.kv(f"{scheme}.audit.mi_c_x", audit.mi_c_x)
    lines.kv(f"{scheme}.audit.lossless_prob", audit.lossless_prob)
    lines.kv(
        f"{scheme}.audit.per_key_expected_length",
        _vec(audit.per_key_expected_length, lines.structured),
    )
    lines.kv(f"{scheme}.audit.mi_c_x_given_y", audit.mi_c_x_given_y)
    lines.kv(f"{scheme}.audit.h_y_given_x_c", audit.h_y_given_x_c)
    violations = []
    tol_leak = 1e-9 if scheme == codec.TWO_PART else 1e-12
    if audit.mi_c_x > tol_leak:
        violations.append(f"{scheme}: leakage mi_c_x = {audit.mi_c_x:.3g}")
    if audit.lossless_prob != 1.0:
        violations.append(f"{scheme}: lossless_prob = {audit.lossless_prob!r}")
    spread = float(np.ptp(audit.per_key_expected_length))
    if spread > 1e-12:
        violations.append(f"{scheme}: per-key length varies by {spread:.3g}")
    if scheme == codec.TWO_PART and achieved_hu is not None:
        cap = achieved_hu + 1.0 + codec.ceil_log2(d.x_size) + 1e-9
        if audit.per_key_expected_length.max() > cap:
            violations.append(f"{scheme}: per-key length exceeds H(U)+1+ceil(log|X|)")
    if scheme == codec.DIRECT_PAD:
        want = codec.ceil_log2(d.y_size)
        if not np.allclose(audit.per_key_expected_length, want, atol=1e-12):
            violations.append(f"{scheme}: message length is not exactly {want}")
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


def rebuild_and_audit(doc: dict[str, str], cfg: RunConfig, lines: Lines) -> list[str]:
    """Reconstruct each serialized scheme and re-verify every invariant."""
    x_size = _doc_field(doc, "x_size", int)
    y_size = _doc_field(doc, "y_size", int)
    joint = np.array([_doc_field(doc, f"joint.{x}", _floats) for x in range(x_size)])
    if joint.shape != (x_size, y_size):
        raise ParseError("joint block shape mismatch")
    d = dist.validate_and_normalize(joint, cfg.tol_prob)
    violations: list[str] = []
    schemes = doc.get("schemes", "").split()
    for scheme in schemes:
        if scheme not in (codec.TWO_PART, codec.DIRECT_PAD):
            raise ParseError(f"unknown scheme {scheme!r} in code document")
        if scheme == codec.TWO_PART:
            u_size = _doc_field(doc, "two-part.u_size", int)
            p_u = np.array(_doc_field(doc, "two-part.p_u", _floats))
            cols = np.array(
                [_doc_field(doc, f"two-part.p_y_given_u.{u}", _floats) for u in range(u_size)]
            ).T
            decode_tbl = {}
            words = {}
            for key, value in doc.items():
                if key.startswith("two-part.decode."):
                    _, _, x, u = key.split(".")
                    decode_tbl[(int(x), int(u))] = int(value)
                elif key.startswith("two-part.codeword."):
                    words[int(key.rsplit(".", 1)[1])] = value
            mech = Mechanism(p_u=p_u, p_y_given_u=Kernel(cols), decode=decode_tbl)
            # zero-leakage and decodability are re-derived, not trusted
            kern = dist.kernel_x_given_y(d).k
            px = dist.marginal_x(d)
            resid = float(np.abs(kern @ cols - px[:, None]).max())
            if resid > 1e-7:
                violations.append(f"two-part: column leakage residual {resid:.3g}")
            mix = float(np.abs(cols @ p_u - dist.marginal_y(d)).max())
            if mix > 1e-7:
                violations.append(f"two-part: mixture does not reproduce P_Y ({mix:.3g})")
            try:
                rebuilt = mech_mod.build_decode_table(d, Mechanism(p_u=p_u, p_y_given_u=Kernel(cols)))
                if rebuilt.decode != decode_tbl:
                    violations.append("two-part: serialized decode table mismatch")
            except NotDecodable as exc:
                violations.append(f"two-part: not decodable ({exc})")
            prefix = codec.PrefixCode(
                codewords=words,
                expected_length=float(sum(p_u[u] * len(w) for u, w in words.items())),
            )
            if prefix.kraft_sum() > 1.0 + 1e-12:
                violations.append("two-part: Kraft inequality violated")
            sorted_words = sorted(words.values())
            for i in range(len(sorted_words) - 1):
                if sorted_words[i + 1].startswith(sorted_words[i]):
                    violations.append("two-part: codewords are not prefix-free")
                    break
            code = codec.PrivateCode(
                scheme=codec.TWO_PART,
                key_size=_doc_field(doc, "two-part.key_size", int),
                pad_modulus=x_size,
                y_size=y_size,
                x_field_bits=_doc_field(doc, "two-part.x_field_bits", int),
                u_code=prefix,
                mech=mech,
                p_u_given_y=mech_mod.conditional_u_given_y(d, mech),
                p_x_given_y=kern,
            )
            hu = dist.entropy(p_u)
        else:
            code = codec.build_direct_pad(d)
            hu = None
        audit = codec.audit(code, d)
        violations += render_audit_result(scheme, code, audit, hu, d, lines)
    return violations


# ---------------------------------------------------------------------------
# sweep


def _sweep_instance(family: str, rng: np.random.Generator) -> JointDistribution:
    if family == "det-f":
        return families.random_deterministic_pair(rng)
    if family == "common-info":
        return families.random_common_info_pair(rng)
    if family == "invertible":
        return families.random_invertible_pair(rng)
    raise ValueError(f"unknown family {family!r} (det-f, common-info, invertible)")


def check_instance(d: JointDistribution, family: str, cfg: RunConfig) -> list[str]:
    """Property suite for one instance; returns the violated invariants."""
    problems = []
    ms = mech_mod.membership_in_phat(d, cfg.tol_ent, cfg.tol_lp)
    if family in ("det-f", "common-info") and not ms.member:
        problems.append(f"expected membership, got g0 = {ms.certificate:.6g}")
        return problems
    if family == "invertible" and ms.member and not ms.boundary:
        h = dist.conditional_entropy_y_given_x(d)
        if h > 10 * cfg.tol_ent:
            problems.append("invertible kernel unexpectedly a member")
        return problems
    if not ms.member:
        return problems
    mech = ms.mechanism or mech_mod.solve_g0(d, cfg.tol_lp)[1]
    hu = dist.entropy(mech.p_u)
    b = mech_mod.theorem1_bounds(d, hu, cfg.tol_ent, member=True, tol_lp=cfg.tol_lp)
    if not (b.k_lower - 1e-6 <= hu <= b.k_upper_strengthened + 1e-6):
        problems.append(f"sandwich failed: {b.k_lower} <= {hu} <= {b.k_upper_strengthened}")
    if b.k_upper_strengthened > b.log_nullity_bound + 1e-6:
        problems.append("strengthened bound above log2(nullity+1)")
    if mech_mod.information_identity_residual(d, mech) > 1e-9:
        problems.append("information identity residual above 1e-9")
    try:
        mech = mech_mod.build_decode_table(d, mech)
    except NotDecodable:
        return problems  # member but non-decodable optimizer: nothing to code
    code = codec.build_two_part(d, mech)
    audit = codec.audit(code, d)
    if audit.mi_c_x > 1e-9:
        problems.append(f"two-part leakage {audit.mi_c_x:.3g}")
    if audit.lossless_prob != 1.0:
        problems.append("two-part not lossless")
    lower = max(dist.conditional_entropy_per_x(d, x) for x in range(d.x_size))
    if audit.per_key_expected_length.max() < lower - 1e-9:
        problems.append("achieved length below converse bound")
    if d.y_size <= d.x_size:
        pad = codec.build_direct_pad(d)
        pa = codec.audit(pad, d)
        if pa.mi_c_x > 1e-12:
            problems.append(f"direct-pad leakage {pa.mi_c_x:.3g}")
        if pa.lossless_prob != 1.0:
            problems.append("direct-pad not lossless")
    return problems


def run_sweep(cfg: RunConfig, lines: Lines) -> int:
    rng = np.random.default_rng(cfg.seed)
    failures = 0
    for i in range(cfg.n):
        d = _sweep_instance(cfg.family, rng)
        problems = check_instance(d, cfg.family, cfg)
        if problems:
            failures += 1
            lines.kv(f"instance.{i:04d}", "FAIL " + "; ".join(problems))
        else:
            lines.kv(f"instance.{i:04d}", "ok")
    lines.kv("passed", f"{cfg.n - failures}/{cfg.n}")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# entry points


def run(cfg: RunConfig) -> tuple[int, str]:
    """Execute one command; returns (exit status, report text)."""
    structured = cfg.output_format == "structured"
    lines = Lines(structured)
    if cfg.command == "sweep":
        status = run_sweep(cfg, lines)
        return status, lines.text()
    if cfg.input_path is None:
        raise ParseError("--input is required for this command")
    if cfg.command == "audit":
        with open(cfg.input_path, encoding="utf-8") as fh:
            doc = parse_code_document(fh.read())
        violations = rebuild_and_audit(doc, cfg, lines)
        for v in violations:
            lines.kv("violation", v)
        return (0 if not violations else 1), lines.text()

    d = parse_distribution(cfg.input_path)
    a = analyze_distribution(d, cfg)
    if cfg.command == "analyze":
        render_analysis(a, lines)
        return 0, lines.text()
    if cfg.command == "mechanism":
        render_analysis(a, lines)
        render_mechanism(a, lines)
        return 0, lines.text()
    if cfg.command == "code":
        schemes, violations = render_code_document(a, cfg, lines)
        if not schemes:
            lines.kv("error", "no applicable scheme (not a decodable member and |Y| > |X|)")
            return 2, lines.text()
        for v in violations:
            lines.kv("violation", v)
        return (0 if not violations else 1), lines.text()
    raise ValueError(f"unknown command {cfg.command!r}")


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
    p.add_argument("--tol-lp", type=float, default=1e-9, dest="tol_lp")
    p.add_argument("--tol-ent", type=float, default=mech_mod.TAU_ENT, dest="tol_ent")
    p.add_argument("--format", choices=["text", "structured"], default="text")
    p.add_argument("--n", type=int, default=100, help="sweep instance count")
    p.add_argument(
        "--family",
        default="det-f",
        choices=["det-f", "common-info", "invertible"],
        help="sweep instance family",
    )
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.tol_lp <= 0 or args.tol_ent <= 0:
        parser.error("tolerances must be positive")
    if args.n < 1:
        parser.error("--n must be at least 1")
    cfg = RunConfig(
        command=args.cmd,
        input_path=args.input_path,
        tol_lp=args.tol_lp,
        tol_ent=args.tol_ent,
        seed=args.seed,
        output_format=args.format,
        n=args.n,
        family=args.family,
    )
    try:
        status, text = run(cfg)
    except (ParseError, StochasticityError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ZeroLeakError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
