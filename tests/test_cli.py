"""File parsing, commands, determinism, exit codes, audit round trips."""

import math
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import bits, loop_doc_block, loop_parse_distribution_text

from zeroleak import cli, codec, dist, families
from zeroleak import mechanism as mm
from zeroleak.errors import InputError, ParseError, StochasticityError

GOLDEN = Path(__file__).parent / "golden"
EXAMPLE1_PATH = Path(__file__).parents[1] / "data" / "example1.txt"
README_PATH = Path(__file__).parents[1] / "README.md"
EXAMPLE1_TEXT = """
# deterministic grouping of six symbols into two
p_x_given_y:
1 1 1 0 0 0
0 0 0 1 1 1
p_y:
1/8 2/8 3/8 1/8 1/16 1/16
"""


def run_cli(args):
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        status = cli.main(args)
    return status, buf.getvalue()


# ---------------------------------------------------------------------------
# parsing


def test_parse_kernel_form():
    d = cli.parse_distribution_text(EXAMPLE1_TEXT)
    assert d.x_size == 2 and d.y_size == 6
    assert np.allclose(dist.marginal_x(d), [0.75, 0.25], atol=1e-12)


def test_parse_matrix_form():
    d = cli.parse_distribution_text("joint:\n0.25 0.25\n0.25 0.25\n")
    assert d.x_size == 2 and d.y_size == 2
    assert np.allclose(d.p, 0.25)


def test_parse_fractions_exact():
    d = cli.parse_distribution_text("joint:\n1/3 1/3\n1/6 1/6\n")
    assert d.p[0, 0] == pytest.approx(1 / 3, abs=1e-16)


def test_parse_inline_vector():
    d = cli.parse_distribution_text("p_x_given_y:\n1 0\n0 1\np_y: 1/2 1/2\n")
    assert d.y_size == 2


def test_parse_bad_token_reports_position():
    with pytest.raises(ParseError) as err:
        cli.parse_distribution_text("joint:\n0.5 oops\n")
    assert "line 2" in str(err.value)


def _one_token_section(tok):
    """The value of a section whose one line is ``tok``."""
    (value,), _ = cli._section_values([(1, tok)])
    return value


def _token_outcome(parse, tok):
    """The parsed value's bytes, or that it raised."""
    try:
        return bits(parse(tok))
    except (ParseError, ValueError, ZeroDivisionError, OverflowError):
        return "raises"


decimal_tokens = st.builds(
    lambda sign, whole, dot, frac, exp: sign + whole + dot + frac + exp,
    st.sampled_from(["", "-", "+"]),
    st.text("0123456789", max_size=25),
    st.sampled_from(["", "."]),
    st.text("0123456789", max_size=25),
    st.one_of(st.just(""), st.builds("e{}{}".format, st.sampled_from(["", "-", "+"]), st.integers(0, 420))),
)


@given(decimal_tokens)
@example("-0")
@example("+0")
@example("-0.0e7")
@example("1e400")
@example("1e-400")
@example("-1e-400")
@example("2.4703282292062328e-324")
@example("nan")
@example("inf")
@example("1/3")
@example("1_0")
@example(".5")
@example("5.")
@example("\u0663")  # an Arabic-Indic digit 3
def test_parse_token_equals_fraction_path(tok):
    # a one-token section, which numpy converts when tok is a plain decimal,
    # reads float(Fraction(tok)) bit for bit, and raises where it raises
    want = _token_outcome(lambda t: float(Fraction(t)), tok)
    assert _token_outcome(_one_token_section, tok) == want


def test_parse_token_equals_fraction_path_on_random_decimals():
    # many digits, exponents near overflow and underflow, and shortest reprs
    rng = np.random.default_rng(2)
    for _ in range(5000):
        digits = "".join(rng.choice(list("0123456789"), size=int(rng.integers(1, 30))))
        point = int(rng.integers(0, len(digits) + 1))
        tok = str(rng.choice(["", "-", "+"])) + digits[:point] + "." + digits[point:]
        if rng.random() < 0.7:
            tok += f"e{int(rng.integers(-345, 330))}"
        for t in (tok, repr(float(rng.random()) * 10.0 ** int(rng.integers(-320, 300)))):
            want = _token_outcome(lambda s: float(Fraction(s)), t)
            assert _token_outcome(_one_token_section, t) == want, t


DECIMAL = re.compile(r"[-+]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?", re.ASCII)
SPECIAL_TOKENS = ["-0", "+0", "-0.0e3", "-1e-400", "1e-400", "1e400", "-1e400", "5e-324"]
BAD_TOKENS = ["oops", "1/0", "0x10", "1_0", "nan", "inf", "\u0663", "1e", "--1", ".", "1/2/3", "e5"]
fraction_tokens = st.builds(
    "{}/{}".format, st.integers(-(10**20), 10**20), st.integers(1, 10**6)
)


@st.composite
def distribution_documents(draw):
    """Whole input documents: sections in a valid layout or any order of
    known, unknown and repeated headers; values inline after a header or on
    their own lines, now and then ragged; comments and blank lines; tokens
    that are plain decimals, fractions or the values where float and
    Fraction part, and in half the documents also unreadable tokens and
    values before any header."""
    clean = draw(st.booleans())
    width = draw(st.integers(1, 4))

    def token():
        kind = draw(st.integers(0, 8 if clean else 9))
        if kind < 6:
            return draw(decimal_tokens.filter(DECIMAL.fullmatch))
        if kind < 8:
            return draw(fraction_tokens)
        if kind < 9:
            return draw(st.sampled_from(SPECIAL_TOKENS))
        return draw(st.one_of(st.sampled_from(BAD_TOKENS), st.text("0123456789.eE+-/_x", min_size=1, max_size=6)))

    def values():
        count = width if draw(st.integers(0, 9)) else draw(st.integers(1, 5))
        sep = draw(st.sampled_from([" ", "\t", "  "]))
        return sep.join(token() for _ in range(count))

    layout = draw(
        st.one_of(
            st.sampled_from([["joint"], ["p_x_given_y", "p_y"], ["p_y", "p_x_given_y"]]),
            st.lists(st.sampled_from(["joint", "p_x_given_y", "p_y", " P_Y ", "matrix"]), min_size=1, max_size=3),
        )
    )
    lines = [] if clean or draw(st.integers(0, 4)) else [values()]
    for name in layout:
        inline = name.strip().lower() == "p_y" or draw(st.integers(0, 4)) == 0
        lines.append(f"{name}: {values()}" if inline else f"{name}:")
        for _ in range(0 if name.strip().lower() == "p_y" else draw(st.integers(1, 4))):
            line = values()
            if draw(st.integers(0, 4)) == 0:
                line += " # a comment: 1/0"
            lines.append(line)
            if draw(st.integers(0, 5)) == 0:
                lines.append(draw(st.sampled_from(["", "   ", "# only a comment"])))
    return "\n".join(lines) + "\n"


def _parse_outcome(parse, text):
    """The parsed arrays' shapes and bytes, before validation, or the
    ParseError's text."""
    with (
        patch.object(dist, "validate_and_normalize", lambda raw: (raw,)),
        patch.object(dist, "from_conditional", lambda kern, p_y: (kern, p_y)),
    ):
        try:
            arrays = parse(text)
        except ParseError as exc:
            return str(exc)
    return [(a.dtype.str, a.shape, bits(a)) for a in arrays]


@given(distribution_documents())
@example("joint:\n0.5 oops\nmatrix:\n1\n")
@example("joint:\n0.5 1/0\njoint:\n1\n")
@example("p_x_given_y:\n1 0\n0 1\np_y: 1/2 -0\n")
@example("joint:\n-0 1\n-1e-400 1\n")
@example("joint:\n5e-324 1e400\n")
@example("joint:\n0.5 0.25\n0.25\n")
@example("joint:\n0.5\t\u00a00.5\n")
@example("0.5\njoint: 1\n")
@example("joint: 1e-05 1\n")
@example("joint: 0.5 1e\n")
@example("joint: 1..2 1\n")
@example("joint: e- 1\n")
def test_section_parser_matches_token_oracle(text):
    # the section-at-a-time parser reads the same doubles as the
    # token-at-a-time one, or raises the same ParseError at the same place
    want = _parse_outcome(loop_parse_distribution_text, text)
    assert _parse_outcome(cli.parse_distribution_text, text) == want


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=12))
@example([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e-310])
def test_vec_and_rows_match_format_oracle(values):
    # one % format op per value, vector or row prints what format prints
    for structured, spec in ((True, ".17g"), (False, ".6g")):
        assert [cli._f(v, structured) for v in values] == [format(v, spec) for v in values]
        want = " ".join(format(v, spec) for v in values)
        assert codec.format_row(np.array(values), cli._SPEC[structured]) == want
        rows = codec.format_rows("key", np.array([values, values[::-1]]).reshape(2, len(values)), cli._SPEC[structured])
        assert rows == [f"key.0 = {want}", "key.1 = " + " ".join(format(v, spec) for v in values[::-1])]


def test_parse_unknown_section():
    with pytest.raises(ParseError):
        cli.parse_distribution_text("matrix:\n0.5 0.5\n")


def test_parse_ragged_matrix():
    with pytest.raises(ParseError):
        cli.parse_distribution_text("joint:\n0.5 0.5\n0.5\n")


def test_parse_missing_sections():
    with pytest.raises(ParseError):
        cli.parse_distribution_text("p_y: 1/2 1/2\n")


def test_parse_nonstochastic_kernel_names_column():
    text = "p_x_given_y:\n0.5 1\n0.4 0\np_y: 1/2 1/2\n"
    with pytest.raises(StochasticityError) as err:
        cli.parse_distribution_text(text)
    assert "column 0" in str(err.value)


# ---------------------------------------------------------------------------
# commands


@pytest.fixture()
def example1_file(tmp_path):
    path = tmp_path / "example1.txt"
    path.write_text(EXAMPLE1_TEXT)
    return str(path)


def test_analyze_command(example1_file):
    status, out = run_cli(["--cmd", "analyze", "--input", example1_file])
    assert status == 0
    assert "member = true" in out
    assert "kernel_nullity = 4" in out
    assert "flag.member_improves = true" in out


def test_structured_output_deterministic(example1_file):
    s1, out1 = run_cli(["--cmd", "analyze", "--input", example1_file, "--format", "structured"])
    s2, out2 = run_cli(["--cmd", "analyze", "--input", example1_file, "--format", "structured"])
    assert s1 == s2 == 0
    assert out1 == out2


def test_mechanism_command(example1_file):
    status, out = run_cli(["--cmd", "mechanism", "--input", example1_file])
    assert status == 0
    assert "p_u = " in out
    assert "decode.0 = 2 1 1 0" in out


def test_code_then_audit_roundtrip(example1_file, tmp_path):
    status, out = run_cli(["--cmd", "code", "--input", example1_file, "--format", "structured"])
    assert status == 0
    doc = tmp_path / "code.txt"
    doc.write_text(out)
    status, audit_out = run_cli(["--cmd", "audit", "--input", str(doc)])
    assert status == 0
    assert "two-part.audit.ok = true" in audit_out


def test_audit_detects_tampered_decode_table(example1_file, tmp_path):
    _, out = run_cli(["--cmd", "code", "--input", example1_file, "--format", "structured"])
    lines = out.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("two-part.decode.0 ="):
            lines[i] = "two-part.decode.0 = 4 1 1 0"
            break
    doc = tmp_path / "tampered.txt"
    doc.write_text("\n".join(lines) + "\n")
    status, audit_out = run_cli(["--cmd", "audit", "--input", str(doc)])
    assert status == 1
    assert "violation" in audit_out


def _edited_code_doc(input_file, tmp_path, key, value):
    """The code document of ``input_file`` with ``key`` set to ``value``:
    appended when absent, dropped when ``value`` is None. A ``(dropped,
    key)`` pair writes the value under ``key`` in place of ``dropped``."""
    _, out = run_cli(["--cmd", "code", "--input", input_file, "--format", "structured"])
    dropped, key = key if isinstance(key, tuple) else (key, key)
    lines = [line for line in out.splitlines() if line.partition(" = ")[0] not in (dropped, key)]
    if value is not None:
        lines.append(f"{key} = {value}")
    doc = tmp_path / "edited.txt"
    doc.write_text("".join(line + "\n" for line in lines))
    return str(doc)


@pytest.mark.parametrize(
    "key, value, named",
    [
        ("two-part.u_size", None, "two-part.u_size"),
        ("two-part.u_size", "two", "two-part.u_size"),
        ("two-part.u_size", "0", "two-part.u_size = 0, expected at least 1"),
        ("two-part.u_size", "-1", "two-part.u_size = -1, expected at least 1"),
        ("joint.0", "0.125 0.25 0.375 0 0", "joint.0"),
        ("two-part.p_y_given_u.0", "0 0 0.75 0.25 0", "two-part.p_y_given_u.0"),
        ("two-part.decode.0", "abc 1 1 0", "two-part.decode.0"),
        (("two-part.decode.1", "two-part.decode.1.0"), "3 5 4 5", "two-part.decode.1"),
        ("two-part.codeword.9", "0101", "two-part.codeword"),
        ("two-part.codeword.1", None, "two-part.codeword"),
        ("two-part.p_u", "0.5 0.5", "two-part.p_u"),
        ("two-part.key_size", "0", "two-part.key_size"),
        ("two-part.field_bits", "-1", "field_bits = -1"),
        ("joint.1", "0 0 0 0 0 0", "x = 1 has no probability mass"),
        ("schemes", None, "schemes"),
        ("schemes", "", "schemes"),
        ("schemes", "two-part two-part", "schemes"),
        ("two-part.key_size", str(10**30), "two-part.key_size"),
        ("two-part.field_bits", str(10**30), "two-part.field_bits"),
        ("two-part.key_size", str(2**50), "two-part.key_size"),
        # a key size that is a multiple of |X| = 2, and a field wider than
        # the scheme's, are not the scheme's own either
        ("two-part.key_size", "4", "two-part.key_size = 4"),
        ("two-part.field_bits", "2", "two-part.field_bits = 2"),
    ],
    ids=[
        "missing",
        "malformed",
        "u-size-0",
        "u-size-negative",
        "ragged-joint-row",
        "ragged-column",
        "decode-value",
        "decode-key",
        "codeword-beyond-u-size",
        "codeword-missing",
        "p-u-length",
        "key-size",
        "x-field-bits",
        "zero-joint-row",
        "schemes-missing",
        "schemes-empty",
        "schemes-repeated",
        "key-size-past-int64",
        "field-bits-past-int64",
        "key-size-2-to-50",
        "key-size-multiple-of-x-size",
        "field-bits-wider",
    ],
)
def test_audit_malformed_document_is_parse_error(
    example1_file, tmp_path, capsys, key, value, named
):
    doc = _edited_code_doc(example1_file, tmp_path, key, value)
    status, _ = run_cli(["--cmd", "audit", "--input", doc])
    assert status == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, n", [("two-part.key_size", 64), ("direct-pad.key_size", 162)], ids=["two-part.key_size", "direct-pad.key_size"]
)
def test_audit_key_size_past_the_event_limit_is_parse_error(tmp_path, capsys, key, n):
    # the header gives the scheme's own key size, |X| = |Y| = n, and every
    # joint entry is positive, so direct-pad has n^3 events and two-part,
    # whose n U symbols each carry every y, n^4: past MAX_AUDIT_EVENTS
    scheme = key.partition(".")[0]
    events = n ** (3 if scheme == codec.DIRECT_PAD else 4)
    assert events > codec.MAX_AUDIT_EVENTS
    row = " ".join([repr(1 / n)] * n)
    lines = [f"format = {codec.CODE_FORMAT}", f"x_size = {n}", f"y_size = {n}"]
    lines += [f"joint.{x} = {row}" for x in range(n)]
    lines += [f"schemes = {scheme}", f"{key} = {n}", f"{scheme}.field_bits = {codec.ceil_log2(n)}"]
    if scheme == codec.TWO_PART:
        lines += [f"two-part.u_size = {n}", f"two-part.p_u = {row}"]
        lines += [f"two-part.p_y_given_u.{u} = {row}" for u in range(n)]
        lines += [f"two-part.codeword.{u} = {u:06b}" for u in range(n)]
        lines += [f"two-part.decode.{x} = {' '.join(['0'] * n)}" for x in range(n)]
    status, _ = _audit_text(tmp_path, "".join(line + "\n" for line in lines))
    assert status == 2
    assert f"{key} = {n} asks the audit for {events} events, past the limit of {codec.MAX_AUDIT_EVENTS}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("two-part.codeword.1", "0x1"),
        ("two-part.codeword.0", ""),
        ("two-part.codeword.2", "10"),
        ("two-part.decode.0", "-1 1 1 0"),
    ],
    ids=["non-binary-codeword", "empty-codeword", "not-prefix-free", "decode-entry-missing"],
)
def test_audit_undecodable_code_is_named_violation(example1_file, tmp_path, key, value):
    doc = _edited_code_doc(example1_file, tmp_path, key, value)
    status, out = run_cli(["--cmd", "audit", "--input", doc])
    assert status == 1
    assert "violation = two-part: a message does not decode" in out


def test_audit_empty_codeword_of_a_one_symbol_u_passes(tmp_path):
    # a diagonal joint's U has one symbol; an empty codeword for it is a
    # prefix code, and the empty message tail parses to it
    src = tmp_path / "diagonal.txt"
    src.write_text("joint:\n0.25 0\n0 0.75\n")
    doc = _edited_code_doc(str(src), tmp_path, "two-part.codeword.0", "")
    status, out = run_cli(["--cmd", "audit", "--input", doc])
    assert status == 0
    assert "two-part.audit.ok = true" in out
    assert "two-part.audit.per_key_expected_length = 1 1" in out


def test_audit_empty_codeword_beside_others_is_named_twice(tmp_path):
    # the empty word prefixes every other, and parses first, so each
    # message of another U symbol has trailing bits
    status, out = _audit_text(tmp_path, _golden_doc_with("example1", "two-part.codeword.0", ""))
    assert status == 1
    assert _violations(out) == [
        "two-part: codewords are not prefix-free",
        "two-part: a message does not decode (trailing bits after the prefix codeword)",
    ]


@pytest.mark.parametrize(
    "name, command",
    [
        pytest.param("example1", "code", id="code"),
        pytest.param("example1", "audit", id="audit"),
        pytest.param("example1", "analyze", id="analyze"),
        pytest.param("example1", "mechanism", id="mechanism"),
        ("noisy", "analyze"),
        ("uniform4x3", "analyze"),
        ("uniform4x3", "code"),
        ("uniform4x3", "audit"),
        ("ci2x2x3", "analyze"),
        ("ci2x2x3", "code"),
        ("ci2x2x3", "audit"),
    ],
)
def test_structured_output_matches_golden(name, command):
    """Structured output equals ``tests/golden/<name>.<command>.txt``. The
    input is the named joint (Example 1 from ``data/``, the others beside
    the goldens); ``audit`` reads the golden code document."""
    assert _golden_run(name, command, "structured") == (GOLDEN / f"{name}.{command}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["example1", "uniform4x3", "ci2x2x3"])
@pytest.mark.parametrize("command", ["code", "audit"])
def test_text_output_matches_golden(name, command):
    """Text output equals ``tests/golden/<name>.<command>.text.txt``, from
    the same inputs as the structured goldens."""
    assert _golden_run(name, command, "text") == (GOLDEN / f"{name}.{command}.text.txt").read_text(encoding="utf-8")


def _golden_run(name, command, fmt):
    """The output of ``command`` on the golden input of ``name`` in ``fmt``,
    which must exit 0."""
    if command == "audit":
        source = GOLDEN / f"{name}.code.txt"
    else:
        source = EXAMPLE1_PATH if name == "example1" else GOLDEN / f"{name}.txt"
    status, out = run_cli(["--cmd", command, "--input", str(source), "--format", fmt])
    assert status == 0
    return out


def test_code_solves_g0_once_on_common_info(tmp_path, monkeypatch):
    d = families.random_common_info_pair(np.random.default_rng(4), 2, 2, 3)
    path = tmp_path / "common.txt"
    path.write_text("joint:\n" + "".join(" ".join(repr(float(v)) for v in row) + "\n" for row in d.p))
    calls = []
    real_solve_g0 = mm.solve_g0

    def counting_solve_g0(*args, **kwargs):
        calls.append(args)
        return real_solve_g0(*args, **kwargs)

    monkeypatch.setattr(mm, "solve_g0", counting_solve_g0)
    status, out = run_cli(["--cmd", "code", "--input", str(path), "--format", "structured"])
    assert status == 0
    assert "two-part.audit.ok = true" in out
    assert len(calls) == 1


def test_code_no_applicable_scheme(tmp_path):
    # noisy kernel (not a member) with |Y| > |X|: nothing to build
    path = tmp_path / "noisy.txt"
    path.write_text(
        "p_x_given_y:\n0.9 0.6 0.3 0.1\n0.1 0.4 0.7 0.9\np_y: 1/4 1/4 1/4 1/4\n"
    )
    status, out = run_cli(["--cmd", "code", "--input", str(path)])
    assert status == 2
    assert "no applicable scheme" in out


def test_audit_reads_direct_pad_fields(tmp_path, capsys):
    # the document's direct-pad key size and field width are read and
    # checked against the scheme's own |Y| = 3 keys and 2-bit field, key
    # size first: a 7-bit field under 1 key is a ParseError, not a code
    doc = (GOLDEN / "uniform4x3.code.txt").read_text(encoding="utf-8")
    doc = doc.replace("direct-pad.field_bits = 2", "direct-pad.field_bits = 7")
    doc = doc.replace("direct-pad.key_size = 3", "direct-pad.key_size = 1")
    status, out = _audit_text(tmp_path, doc)
    assert status == 2 and out == ""
    assert capsys.readouterr().err == "error: direct-pad.key_size = 1, but the direct-pad code of this joint has 3\n"
    status, _ = _audit_text(tmp_path, doc.replace("direct-pad.key_size = 1\n", ""))
    assert status == 2
    assert "no 'direct-pad.key_size' entry" in capsys.readouterr().err


def _golden_doc_with(name, key, value):
    """The golden code document of ``name`` with ``key`` set to ``value``."""
    text = (GOLDEN / f"{name}.code.txt").read_text(encoding="utf-8")
    return "".join(
        f"{key} = {value}\n" if line.startswith(f"{key} =") else line + "\n"
        for line in text.splitlines()
    )


def _audit_text(tmp_path, text):
    path = tmp_path / "edited.txt"
    path.write_text(text)
    return run_cli(["--cmd", "audit", "--input", str(path)])


def _example1_doc_with_decode_line(line):
    """The Example 1 golden code document with ``line`` inserted before its
    first decode row."""
    text = (GOLDEN / "example1.code.txt").read_text(encoding="utf-8")
    return text.replace("two-part.decode.0 =", f"{line}\ntwo-part.decode.0 =", 1)


def _violations(out):
    """The invariant each violation line names: its text up to any `` = ``."""
    return [line.split(" = ")[1] for line in out.splitlines() if line.startswith("violation = ")]


@pytest.mark.parametrize(
    "text, named",
    [
        (
            _golden_doc_with("example1", "two-part.decode.0", f"{2**64} 1 1 0"),
            ["two-part: serialized decode table mismatch", "two-part: lossless_prob"],
        ),
        (
            _golden_doc_with("example1", "two-part.decode.0", f"{-(2**64)} 1 1 0"),
            ["two-part: serialized decode table mismatch", "two-part: lossless_prob"],
        ),
        (
            _example1_doc_with_decode_line(f"two-part.decode.{-(2**64)} = 0 0 0 0"),
            ["two-part: serialized decode table mismatch"],
        ),
    ],
    ids=["value-beyond-64-bits", "negative-value-beyond-64-bits", "key-beyond-64-bits"],
)
def test_audit_decode_entry_beyond_64_bits(tmp_path, text, named):
    # a document may hold integers of any size: a y outside -1..|Y|-1 decodes
    # to no event's y, and a decode key other than the |X| rows is flagged
    status, out = _audit_text(tmp_path, text)
    assert status == 1
    assert _violations(out) == named


@pytest.mark.parametrize(
    "line",
    [
        "two-part.decode.-1 = 0 0 0 0",
        "two-part.decode.2 = 0 0 0 0",
        "two-part.decode.0.4 = 1",
        "two-part.decode.0.-1 = 1",
        f"two-part.decode.{2**64} = 5 5 5 5",
    ],
    ids=["x-negative", "x-past-table", "u-past-table", "u-negative", "beyond-64-bits"],
)
def test_audit_stray_decode_key_before_valid_entries_moves_no_figure(tmp_path, line):
    # the stray key (a row past the table, or an entry key in the old one-entry
    # spelling) is flagged, and every decode row after it is still read
    _, clean = _audit_text(tmp_path, (GOLDEN / "example1.code.txt").read_text(encoding="utf-8"))
    status, out = _audit_text(tmp_path, _example1_doc_with_decode_line(line))
    assert status == 1
    assert _violations(out) == ["two-part: serialized decode table mismatch"]

    def figures(text):
        return [row for row in text.splitlines() if ".audit." in row and ".audit.ok" not in row]

    assert figures(out) == figures(clean) and len(figures(clean)) == 5


def _audit_error(tmp_path, capsys, text):
    """The exit status and standard error of ``audit`` on ``text``."""
    status, _ = _audit_text(tmp_path, text)
    return status, capsys.readouterr().err


@pytest.mark.parametrize("marker", ["zeroleak-code-v1", "zeroleak-code-v2"], ids=["v1", "v2"])
def test_audit_of_a_v1_document_is_parse_error(tmp_path, capsys, marker):
    # no reader is kept for an earlier format
    text = (GOLDEN / "example1.code.txt").read_text(encoding="utf-8")
    status, err = _audit_error(tmp_path, capsys, text.replace(codec.CODE_FORMAT, marker))
    assert status == 2
    assert err == "error: missing or unknown format marker (want zeroleak-code-v3)\n"


def test_audit_dropped_decode_row_is_parse_error(tmp_path, capsys):
    text = (GOLDEN / "ci2x2x3.code.txt").read_text(encoding="utf-8")
    dropped = "".join(line + "\n" for line in text.splitlines() if not line.startswith("two-part.decode.2 ="))
    status, err = _audit_error(tmp_path, capsys, dropped)
    assert status == 2
    assert err == "error: code document has no 'two-part.decode.2' entry\n"


@pytest.mark.parametrize(
    "line",
    ["two-part.decode.0 = 5 1 1 0", "x_size = 2"],
    ids=["decode-row", "x-size"],
)
def test_audit_repeated_key_is_parse_error(tmp_path, capsys, line):
    # read last-wins, a wrong row before the right one would go unseen
    key = line.partition(" = ")[0]
    text = (GOLDEN / "example1.code.txt").read_text(encoding="utf-8")
    status, err = _audit_error(tmp_path, capsys, text.replace(f"{key} =", f"{line}\n{key} =", 1))
    assert status == 2
    assert f"duplicate key {key!r}" in err


@pytest.mark.parametrize(
    "text",
    [
        (GOLDEN / "example1.code.txt").read_text(encoding="utf-8").replace("codeword.0 =", "codeword.00 ="),
        (GOLDEN / "example1.code.txt").read_text(encoding="utf-8") + "two-part.codeword.00 = 0\n",
    ],
    ids=["renamed", "added"],
)
def test_audit_codeword_read_only_at_its_canonical_key(tmp_path, capsys, text):
    status, err = _audit_error(tmp_path, capsys, text)
    assert status == 2
    assert "two-part.codeword.* must be numbered 0..3" in err


def test_audit_aliased_decode_row_is_a_mismatch(tmp_path):
    # `two-part.decode.00` is not row 0 under another spelling but a stray
    # key, so the right row there no longer hides a wrong row 0
    text = _golden_doc_with("example1", "two-part.decode.0", "5 1 1 0")
    text = text.replace("two-part.decode.1 =", "two-part.decode.00 = 2 1 1 0\ntwo-part.decode.1 =", 1)
    status, out = _audit_text(tmp_path, text)
    assert status == 1
    assert _violations(out) == ["two-part: serialized decode table mismatch", "two-part: lossless_prob"]


def _block_outcome(read, doc, key, n, width, convert):
    """The block's dtype, shape and bytes, or the ParseError's text."""
    try:
        a = read(doc, key, n, width, convert)
    except ParseError as exc:
        return str(exc)
    return a.dtype.str, a.shape, a.tobytes()


BLOCK_TOKENS = ["abc", "", "1e400", "nan", "-0", "0x1", "3/4", "1_0", "1.5", str(2**64), str(-(2**64)), str(2**63)]


@st.composite
def mutated_blocks(draw):
    """A block of rows ``b.0`` .. ``b.{n-1}`` of ints or decimals, after one
    to three edits, each one of: drop a row, drop a token from a row, add a
    token to a row, set a token to a hostile one, or ask for rows past those
    present."""
    convert = draw(st.sampled_from([codec._floats, codec._ints]))
    n, width = draw(st.integers(0, 5)), draw(st.integers(0, 4))
    token = st.integers(-3, 40).map(str) if convert is codec._ints else st.floats(0, 1).map(repr)
    rows = {i: [draw(token) for _ in range(width)] for i in range(n)}
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["drop", "short", "extra", "hostile", "past"]))
        if edit == "past":
            n += draw(st.integers(1, 3) | st.just(10**30))
        elif rows:
            row = rows[at := draw(st.sampled_from(sorted(rows)))]
            if edit == "drop":
                del rows[at]
            elif edit == "short" and row:
                del row[draw(st.integers(0, len(row) - 1))]
            elif edit == "extra":
                row.insert(draw(st.integers(0, len(row))), draw(token))
            elif edit == "hostile" and row:
                row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(BLOCK_TOKENS))
    return {f"b.{i}": " ".join(row) for i, row in rows.items()}, n, width, convert


@given(mutated_blocks())
@example(({"b.0": "1 2 3", "b.1": "4"}, 2, 2, codec._ints))  # ragged rows whose total is n * width
@example(({"b.0": f"{2**64} 1", "b.1": "abc 1"}, 2, 2, codec._ints))
@example(({"b.0": "0.5 1e400"}, 10**30, 2, codec._floats))
@example(({}, 0, 3, codec._floats))
def test_doc_block_reader_oracle(block):
    # one conversion per block reads the same array as one per row, or raises
    # the same ParseError
    doc, n, width, convert = block
    want = _block_outcome(loop_doc_block, doc, "b", n, width, convert)
    assert _block_outcome(codec._doc_block, doc, "b", n, width, convert) == want


GOLDEN_CODE_DOCS = [p.read_text(encoding="utf-8") for p in sorted(GOLDEN.glob("*.code.txt"))]
HOSTILE_TOKENS = ["abc", "", "1e400", "nan", "-0", str(2**64), "-1", "0x1", "3/4", "1_0"]
# keys indexed by a symbol, each with the entry that sizes its alphabet
INDEXED_KEYS = [
    ("joint.{}", "x_size"),
    ("two-part.p_y_given_u.{}", "two-part.u_size"),
    ("two-part.codeword.{}", "two-part.u_size"),
    ("two-part.decode.{}", "x_size"),
]


@st.composite
def mutated_code_documents(draw):
    """A golden code document after one to four edits, each one of: drop a
    key, set a value to a hostile token, insert a key with an out-of-range or
    negative index at a random position, or duplicate a line."""
    lines = draw(st.sampled_from(GOLDEN_CODE_DOCS)).splitlines()
    sizes = dict(line.split(" = ", 1) for line in lines)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "hostile", "insert", "duplicate"]))
        if edit == "drop":
            del lines[at]
        elif edit == "hostile":
            lines[at] = lines[at].partition(" = ")[0] + " = " + draw(st.sampled_from(HOSTILE_TOKENS))
        elif edit == "insert":
            key, size_key = draw(st.sampled_from(INDEXED_KEYS))
            size = int(sizes.get(size_key, 1))
            index = draw(st.integers(-(2**70), -1) | st.integers(size, size + 2) | st.integers(size, 2**70))
            value = draw(st.sampled_from(["0", "1", "0 0 0", *HOSTILE_TOKENS]))
            lines.insert(draw(st.integers(0, len(lines))), f"{key.format(index)} = {value}")
        else:
            lines.insert(at, lines[at])
    return "".join(line + "\n" for line in lines)


@pytest.fixture(scope="module")
def mutated_doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "doc.txt"


@given(mutated_code_documents())
# Example 1's last p_u entry raised from 1/6 to 4/15: the mixture misses
# P_Y by 0.075, which only the reader sees
@example(_golden_doc_with("example1", "two-part.p_u", "0.5 0.083333333333333315 0.25 0.26666666666666666"))
# a codeword that prefixes two others: u2's message does not decode
@example(_golden_doc_with("example1", "two-part.codeword.1", "1"))
def test_mutated_code_document_ends_in_a_verdict(mutated_doc_path, text):
    # exit 0 with every scheme's ok true, exit 1 naming a violation and
    # printing ok = false for each scheme a violation names (true for the
    # rest), or exit 2 with one error line; an uncaught exception, or a
    # warning (an error under the test settings), fails the test
    import io
    from contextlib import redirect_stderr

    mutated_doc_path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with redirect_stderr(err):
        status, out = run_cli(["--cmd", "audit", "--input", str(mutated_doc_path)])
    if status == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        return
    named = {v.split(": ", 1)[0] for v in _violations(out)}
    assert status == (1 if named else 0)
    schemes = codec.parse_code_document(text)[2]
    verdicts = [line for line in out.splitlines() if ".audit.ok = " in line]
    assert verdicts == [f"{s}.audit.ok = {'false' if s in named else 'true'}" for s in schemes]


def _zero_mass_symbol_doc():
    """Example 1 with a fifth U symbol of no mass appended: P(Y|U=4) is
    P(Y|U=0), u0's codeword 0 is split into 00 for u0 and 01 for u4, and
    u4's decode column is -1. No event reaches u4."""
    doc = codec.parse_code_document((GOLDEN / "example1.code.txt").read_text(encoding="utf-8"))[0]
    doc = {k: v for k, v in doc.items() if ".audit." not in k}
    doc["two-part.u_size"] = "5"
    doc["two-part.p_u"] += " 0"
    doc["two-part.p_y_given_u.4"] = doc["two-part.p_y_given_u.0"]
    doc["two-part.codeword.0"], doc["two-part.codeword.4"] = "00", "01"
    for x in range(2):
        doc[f"two-part.decode.{x}"] += " -1"
    return doc


def _tally_pool():
    """{name: (document, joint)} of the documents the check tally edits: the
    golden code documents, those of two seeded draws of each member family,
    and Example 1 with a zero-mass symbol appended."""
    texts = {f"golden{i}": text for i, text in enumerate(GOLDEN_CODE_DOCS)}
    rng = np.random.default_rng(7)
    for family in ("det-f", "common-info", "rect"):
        for i in range(2):
            d = families.FAMILIES[family](rng)
            codes = codec.build_codes(mm.analyze(d))
            lines = codec.write_head(d, [c.scheme for c in codes]) + sum((codec.write_code(c) for c in codes), [])
            texts[f"{family}{i}"] = "".join(line + "\n" for line in lines)
    texts["zero-mass"] = "".join(f"{k} = {v}\n" for k, v in _zero_mass_symbol_doc().items())
    return {name: codec.parse_code_document(text)[:2] for name, text in texts.items()}


def _tally_edits(doc):
    """Single edits of a two-part document's codewords, decode entries, p_u
    entries and P(Y|U) columns, each column edit a move of mass that keeps
    the column's sum: (name, edited document) pairs."""
    f = codec.FLOAT.__mod__
    n, y_size = int(doc["two-part.u_size"]), int(doc["y_size"])
    words = [doc[f"two-part.codeword.{u}"] for u in range(n)]
    p_u = [float(v) for v in doc["two-part.p_u"].split()]
    for u, w in enumerate(words):
        for edited in (w + "0", w + "000", w[:-1], words[(u + 1) % n]):
            yield f"codeword.{u} = {edited}", {**doc, f"two-part.codeword.{u}": edited}
        for scale in (1.0 + 1e-9, 1.0 + 1e-4, 1.25, 0.0):
            value = " ".join(f(v * scale) if i == u else f(v) for i, v in enumerate(p_u))
            yield f"p_u.{u} * {scale}", {**doc, "two-part.p_u": value}
        col = [float(v) for v in doc[f"two-part.p_y_given_u.{u}"].split()]
        for y0 in np.flatnonzero(col):
            for y1 in range(y_size):
                for share in (1e-5, 0.5, 1.0) if y1 != y0 else ():
                    moved = list(col)
                    moved[y0], moved[y1] = col[y0] * (1.0 - share), col[y1] + col[y0] * share
                    yield f"p_y_given_u.{u}: {share} of y{y0} to y{y1}", {
                        **doc,
                        f"two-part.p_y_given_u.{u}": " ".join(map(f, moved)),
                    }
    for x in range(int(doc["x_size"])):
        row = doc[f"two-part.decode.{x}"].split()
        for u, entry in enumerate(row):
            for value in (-1, (int(entry) + 1) % y_size):
                if value != int(entry):
                    edited = " ".join(str(value) if i == u else e for i, e in enumerate(row))
                    yield f"decode.{x}.{u} = {value}", {**doc, f"two-part.decode.{x}": edited}


# each two-part violation's check, by the text that names it
TALLY_CHECKS = {
    "column leakage residual": "residual",
    "mixture does not reproduce": "mixture",
    "serialized decode table mismatch": "decode table",
    "not decodable": "not decodable",
    "not prefix-free": "prefix",
    "exceeds H(U)": "cap",
    "below the converse": "converse",
    "leakage mi_c_x": "leakage",
    "lossless_prob": "lossless",
    "a message does not decode": "message",
}


def test_mutated_code_document_check_tally():
    # single edits to two-part documents, each audited as `audit` audits
    # it. Each reader check, and the cap, is on some edit the only
    # violation, so none of them can go; a y that no U symbol covers is
    # always named by the decode-table rebuild, as not decodable
    tally, alone = Counter(), Counter()
    pool = _tally_pool()
    for pool_name, (doc, d) in pool.items():
        converse = dist.conditional_entropies(d).max()
        code, found = codec.read_code(doc, codec.TWO_PART, d)
        assert found == [] and codec.check_audit(code, codec.audit(code, d), converse) == [], pool_name
        for name, edited in _tally_edits(doc):
            try:
                code, found = codec.read_code(edited, codec.TWO_PART, d)
            except InputError:
                tally["input error"] += 1
                continue
            violations = cli.render_audit_result(code, found, d, converse, cli.Lines(True))
            checks = [next(c for text, c in TALLY_CHECKS.items() if text in v) for v in violations]
            tally.update(checks or ["ok"])
            tally["edits"] += 1
            if len(checks) == 1:
                alone[checks[0]] += 1
            if not (code.p_u_given_y > 0.0).any(axis=0).all():
                assert "not decodable" in checks, (pool_name, name, violations)
    for check in ("residual", "mixture", "decode table", "prefix", "cap"):
        assert alone[check] > 0, (check, alone)
    assert tally["edits"] > 2000 and tally["ok"] > 0
    # the zero-mass symbol's codeword and decode column: only the reader's
    # prefix and decode-table checks see them
    doc, d = pool["zero-mass"]
    for key, value, named in (
        ("two-part.codeword.4", "000", "two-part: codewords are not prefix-free"),
        ("two-part.decode.1", "3 5 4 5 2", "two-part: serialized decode table mismatch"),
    ):
        rebuilt = codec.read_code({**doc, key: value}, codec.TWO_PART, d)
        assert cli.render_audit_result(*rebuilt, d, 1.5, cli.Lines(True)) == [named]


def test_lossless_prob_prints_all_digits_in_both_formats(tmp_path):
    # a wrong decode entry fails 1/48 of the mass; .6g would print 0.979167,
    # and a failure a hair below 1 would print as 1
    path = tmp_path / "tampered.txt"
    path.write_text(_golden_doc_with("example1", "two-part.decode.1", "3 3 4 5"))
    printed = []
    for fmt in ("text", "structured"):
        status, out = run_cli(["--cmd", "audit", "--input", str(path), "--format", fmt])
        assert status == 1 and "violation = two-part: lossless_prob = 0.979166" in out
        printed += [line for line in out.splitlines() if line.startswith("two-part.audit.lossless_prob")]
    assert printed == ["two-part.audit.lossless_prob = 0.97916666666666663"] * 2


def test_code_of_a_vertex_with_round_off_passes_its_audit(tmp_path):
    # one component, so the whole-joint LP path: a vertex solved with
    # 1.05e-16 where it is 0 used to leave a (x, y, u) event of ~1e-17 that
    # the decode table skips, and the audit failed with lossless_prob =
    # 0.9999999999999999
    path = tmp_path / "round_off.txt"
    path.write_text(
        "joint:\n"
        "0.4775918702971727 0.32600148648573934 0\n"
        "0.03272398568080093 0 0.02233720596843733\n"
        "0.06325205534542142 0 0.04317549218971223\n"
        "0.02075242030447381 0 0.01416548372824208\n"
    )
    status, out = run_cli(["--cmd", "code", "--input", str(path), "--format", "structured"])
    assert status == 0
    assert "schemes = two-part direct-pad" in out
    assert "two-part.audit.ok = true" in out


def _code_then_audit(tmp_path, joint):
    """(status, output) of ``code --format structured`` on ``joint``, then of
    ``audit`` on the document it wrote."""
    path = tmp_path / "joint.txt"
    path.write_text(joint)
    coded = run_cli(["--cmd", "code", "--input", str(path), "--format", "structured"])
    doc = tmp_path / "doc.txt"
    doc.write_text(coded[1])
    return coded, run_cli(["--cmd", "audit", "--input", str(doc), "--format", "structured"])


def test_decode_table_counts_every_triple_of_positive_mass(tmp_path):
    # the (x=0, y=0, u=1) triple has mass 1e-24; the audit counts it, and
    # a decode table that dropped every triple at or below 1e-12 made code
    # fail with "pair (x=0, u=1) has no decodable y"
    (status, out), audited = _code_then_audit(tmp_path, "joint:\n1e-12 1e-12 0\n0 0 1\n")
    assert status == 0 and "two-part.decode.0 = 1 0" in out and "two-part.audit.ok = true" in out
    assert audited[0] == 0 and "two-part.audit.ok = true" in audited[1]


# the two-part code of the joint 1e-13 0.5 0 / 0 0 0.5, as built before the
# decode table named a y that no (x, u) carries
UNCOVERED_Y_DOC = """format = zeroleak-code-v3
x_size = 2
y_size = 3
joint.0 = 9.9999999999990007e-14 0.49999999999995004 0
joint.1 = 0 0 0.49999999999995004
schemes = two-part
two-part.key_size = 2
two-part.field_bits = 1
two-part.u_size = 1
two-part.p_u = 0.99999999999979994
two-part.p_y_given_u.0 = 0 0.50000000000005007 0.49999999999995004
two-part.codeword.0 = 0
two-part.decode.0 = 1
two-part.decode.1 = 2
"""


def test_y_that_no_u_symbol_covers_is_a_violation(tmp_path):
    # the coupling spends y0's weight of 2e-13, so P(u | y0) = 0 for every
    # u: encode would have no u to draw for y0, so the g0 mechanism is not
    # decodable, and with |Y| > |X| no scheme applies
    path = tmp_path / "joint.txt"
    path.write_text("joint:\n1e-13 0.5 0\n0 0 0.5\n")
    status, out = run_cli(["--cmd", "analyze", "--input", str(path), "--format", "structured"])
    assert status == 0 and "member = true\n" in out and "mechanism_decodable = false\n" in out
    status, out = run_cli(["--cmd", "code", "--input", str(path), "--format", "structured"])
    assert status == 2 and "schemes = \nerror = no applicable scheme" in out
    # a document that carries such a code anyway fails its audit, which
    # has no event of y0, on the reader's decode-table rebuild alone
    status, out = _audit_text(tmp_path, UNCOVERED_Y_DOC)
    assert status == 1 and "two-part.audit.lossless_prob = 1\n" in out
    assert "two-part.audit.ok = false\n" in out
    assert _violations(out) == ["two-part: not decodable (no live (x, u) pair carries y"]
    assert "violation = two-part: not decodable (no live (x, u) pair carries y = 0)\n" in out


@pytest.mark.parametrize("tiny", ["1e-320", "5e-324"])
def test_underflowing_mass_gives_finite_audit_figures(tmp_path, tiny):
    # y0's one entry is subnormal, so products of two masses of y0 underflow
    # to 0 in the audit's log ratios (at 5e-324 its event masses do too);
    # the coupling spends its weight, so only direct-pad applies
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (status, out), (audit_status, audited) = _code_then_audit(tmp_path, f"joint:\n{tiny} 0.5\n0 0.5\n")
    assert status == 0 and "schemes = direct-pad\n" in out
    assert "direct-pad.audit.mi_c_x_given_y = 0\n" in out and "direct-pad.audit.ok = true\n" in out
    assert "nan" not in out
    assert audit_status == 0 and "direct-pad.audit.mi_c_x_given_y = 0\n" in audited


@pytest.mark.parametrize(
    "key, value",
    [
        ("direct-pad.key_size", "0"),
        ("direct-pad.field_bits", "1"),
        ("direct-pad.key_size", "1"),
        ("direct-pad.field_bits", "7"),
    ],
)
def test_audit_direct_pad_fields_too_small_is_parse_error(tmp_path, capsys, key, value):
    # the scheme's own header is |Y| = 3 keys and a 2-bit field; any other
    # value, smaller or larger, is named
    path = tmp_path / "edited.txt"
    path.write_text(_golden_doc_with("uniform4x3", key, value))
    status, _ = run_cli(["--cmd", "audit", "--input", str(path)])
    assert status == 2
    assert f"{key} = {value}," in capsys.readouterr().err


def _rebind(monkeypatch, original, replacement):
    """Point every binding of the function ``original`` in the package at
    ``replacement``."""
    import sys

    for name, mod in list(sys.modules.items()):
        if name.startswith("zeroleak"):
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    monkeypatch.setattr(mod, attr, replacement)


def _count_calls(monkeypatch, argv):
    """Run the CLI on ``argv``, counting the calls of rank/nullity, X = f(Y),
    g0, the per-x entropies H(Y|X=x) and the H(U) bound LPs through every
    binding in the package."""
    from collections import Counter

    from zeroleak import linalg

    counts = Counter()
    originals = (
        linalg.rank_and_nullity,
        mm.x_is_function_of_y,
        mm.solve_g0,
        dist.conditional_entropies,
        mm.theorem1_bounds,
    )
    for original in originals:

        def counting(*args, _f=original, **kwargs):
            counts[_f.__name__] += 1
            return _f(*args, **kwargs)

        _rebind(monkeypatch, original, counting)
    status, out = run_cli(argv)
    return status, out, counts


def test_analyze_computes_rank_and_determinism_once(example1_file, monkeypatch):
    # rank/nullity, X = f(Y), H(Y|X=x) and the bounds live in the Analysis:
    # the kernel rank is taken once, plus once for the bound matrix; X = f(Y),
    # g0, the per-x entropies and the bound LPs once each, although both
    # render_analysis and report.build_report read the bounds
    status, out, counts = _count_calls(monkeypatch, ["--cmd", "analyze", "--input", example1_file])
    assert status == 0 and "kernel_nullity = 4" in out and "k_lower" in out
    assert counts == {
        "rank_and_nullity": 2,
        "x_is_function_of_y": 1,
        "solve_g0": 1,
        "conditional_entropies": 1,
        "theorem1_bounds": 1,
    }


def test_code_computes_the_converse_once(monkeypatch):
    # both schemes' audit checks read max_x H(Y|X=x) from the Analysis; code
    # prints no rank and no bound, so it takes no rank and solves no bound LP
    argv = ["--cmd", "code", "--input", str(GOLDEN / "uniform4x3.txt"), "--format", "structured"]
    status, out, counts = _count_calls(monkeypatch, argv)
    assert status == 0 and "two-part.audit.ok = true" in out and "direct-pad.audit.ok = true" in out
    assert counts["conditional_entropies"] == 1
    assert counts["rank_and_nullity"] == 0 and counts["theorem1_bounds"] == 0


def test_code_on_a_full_support_dependent_joint_walks_no_vertex(tmp_path, monkeypatch):
    # every (x, y) is live and a column of P(X|Y) is off P_X, so no U is
    # decodable: code skips the g0 synthesis, direct-pad or no scheme
    from zeroleak import linalg

    small_y = tmp_path / "small_y.txt"
    small_y.write_text("joint:\n0.2 0.1\n0.1 0.2\n0.2 0.2\n")

    def forbidden(*args, **kwargs):
        raise AssertionError("walked a vertex or solved an LP")

    for original in (linalg.enumerate_vertices, linalg.solve_lp):
        _rebind(monkeypatch, original, forbidden)
    status, out = run_cli(["--cmd", "code", "--input", str(small_y), "--format", "structured"])
    assert status == 0 and "schemes = direct-pad\n" in out and "direct-pad.audit.ok = true" in out
    status, out = run_cli(["--cmd", "code", "--input", str(GOLDEN / "noisy.txt")])
    assert status == 2 and "no applicable scheme" in out
    # analyze on the same joint still solves g0 and prints it
    monkeypatch.undo()
    status, out = run_cli(["--cmd", "analyze", "--input", str(small_y), "--format", "structured"])
    assert status == 0 and "member = false\nboundary = false\ng0_bits = " in out


def _code_document(a) -> str:
    lines = cli.Lines(True)
    cli.render_code_document(a, lines)
    return lines.text()


@given(st.sampled_from(sorted(families.FAMILIES)), st.integers(0, 2**32 - 1))
def test_reading_g0_first_leaves_the_code_document_unchanged(family, seed):
    # the lazy g0 changes no code: reading it before build_codes, or
    # letting the LP alone decide two-part, writes the same document
    d = families.FAMILIES[family](np.random.default_rng(seed))
    lazy = _code_document(mm.analyze(d))
    eager = mm.analyze(d)
    assert eager.g0 == eager.g0 or eager.boundary  # nan only on a boundary verdict
    assert _code_document(eager) == lazy
    assert _code_document(replace(mm.analyze(d), two_part_excluded=False)) == lazy


NEAR_INDEPENDENT = "joint:\n0.3 0.1000000001\n0.3 0.1\n"
# a 4x2 joint whose P(X|Y) columns differ by 7e-11: rank 1 at RANK_TOL, so a
# member, but its H(U) bound LPs are infeasible at TAU_LP
BOUND_LPS_FAIL = """joint:
0.0017149686904379675 0.0058336734091377134
0.20163107706220035 0.6858724919385228
0.0008575829318767257 0.002917172050958292
0.022985403694473487 0.07818763022239246
"""


@pytest.mark.parametrize("command", ["analyze", "mechanism", "code"])
def test_near_independent_joint_gets_a_boundary_verdict(tmp_path, command):
    # P(X|Y) has rank 2 at a condition number near 4e9, and the vertex the
    # walk finds misses P_Y by more than TAU_LP: the mixture LP is
    # infeasible, so the verdict is a non-member flagged boundary, with the
    # failed tolerance named; code pads Y
    path = tmp_path / "near.txt"
    path.write_text(NEAR_INDEPENDENT)
    status, out = run_cli(["--cmd", command, "--input", str(path), "--format", "structured"])
    assert status == 0
    if command == "code":
        assert "schemes = direct-pad\n" in out and "direct-pad.audit.ok = true" in out
    else:
        assert "member = false\nboundary = true\ng0_bits = nan\n" in out
        assert "note = g0 vertex walk or mixture LP infeasible at TAU_LP = 1e-09; not a member\n" in out


def test_member_with_infeasible_bound_lps_gets_a_boundary_verdict(tmp_path):
    path = tmp_path / "bound_lps_fail.txt"
    path.write_text(BOUND_LPS_FAIL)
    status, out = run_cli(["--cmd", "analyze", "--input", str(path), "--format", "structured"])
    assert status == 0 and "member = true\nboundary = true\n" in out
    assert "k_lower" not in out and "lower.lp_conditional_converse" not in out
    assert "note = H(U) bound LPs infeasible at TAU_LP = 1e-09; a member at TAU_ENT = 1e-07\n" in out
    status, out = run_cli(["--cmd", "code", "--input", str(path), "--format", "structured"])
    assert status == 0 and "two-part.audit.ok = true" in out


def test_readme_library_example_runs():
    # the README's one python block is run as written, so it cannot go stale
    blocks = re.findall(r"```python\n(.*?)```", README_PATH.read_text(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README_PATH), "exec"), {})


def test_code_direct_pad_small_y(tmp_path):
    path = tmp_path / "smally.txt"
    path.write_text("joint:\n" + "\n".join("1/12 1/12 1/12" for _ in range(4)) + "\n")
    status, out = run_cli(["--cmd", "code", "--input", str(path), "--format", "structured"])
    assert status == 0
    assert "direct-pad.field_bits = 2" in out
    assert "direct-pad.audit.ok = true" in out


def test_sweep_families():
    for family in families.FAMILIES:
        status, out = run_cli(["--cmd", "sweep", "--n", "5", "--family", family])
        assert status == 0, out
        assert "passed = 5/5" in out


def test_sweep_deterministic_given_seed():
    _, a = run_cli(["--cmd", "sweep", "--n", "4", "--family", "det-f", "--seed", "3"])
    _, b = run_cli(["--cmd", "sweep", "--n", "4", "--family", "det-f", "--seed", "3"])
    assert a == b


def test_code_document_does_not_depend_on_seed():
    # --seed seeds sweep only; the code document carries no seed
    outs = [
        run_cli(["--cmd", "code", "--input", str(EXAMPLE1_PATH), "--format", "structured", *seed])
        for seed in ([], ["--seed", "1"], ["--seed", "2"])
    ]
    assert outs[0][0] == 0 and outs[0] == outs[1] == outs[2]
    assert "seed" not in outs[0][1]


@pytest.mark.parametrize(
    "argv",
    [
        ["--cmd", "sweep", "--n", "4", "--seed", "-1"],
        ["--cmd", "code", "--input", str(EXAMPLE1_PATH), "--seed", "-5"],
        ["--cmd", "analyze", "--input", str(EXAMPLE1_PATH), "--seed", "-1"],
        ["--cmd", "mechanism", "--input", str(EXAMPLE1_PATH), "--seed", "-1"],
        ["--cmd", "audit", "--input", str(GOLDEN / "example1.code.txt"), "--seed", "-1"],
    ],
    ids=["sweep", "code", "analyze", "mechanism", "audit"],
)
def test_negative_seed_is_usage_error(capsys, argv):
    # numpy's generator takes no negative seed; every command rejects one
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "--seed must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, content, named",
    [
        ("analyze", "joint:\n0.5 -0.1\n0.3 0.3\n", "below"),
        ("analyze", "p_x_given_y:\n1 0\n0 1\np_y: -1 2\n", "below"),
        ("analyze", "joint:\n0 0\n0 0\n", "mass is zero"),
        ("analyze", "joint:\n1 1e400\n", "line 2, column 2"),
        ("analyze", None, "Is a directory"),
        ("analyze", b"\x89PNG\r\n\x1a\n\xff\xfe", "can't decode"),
        ("audit", _golden_doc_with("uniform4x3", "x_size", 0), "x_size = 0, expected at least 1"),
        ("audit", _golden_doc_with("uniform4x3", "y_size", -1), "y_size = -1, expected at least 1"),
        # the joint is cut to its first two rows, so two-part's header of
        # |X| = 4 keys is no longer the scheme's own, and is read first
        ("audit", _golden_doc_with("uniform4x3", "x_size", 2), "two-part.key_size = 4"),
        (
            "audit",
            _golden_doc_with("uniform4x3", "x_size", 2).replace("schemes = two-part direct-pad", "schemes = direct-pad"),
            "|Y| = 3 > |X| = 2",
        ),
        ("audit", _golden_doc_with("uniform4x3", "joint.0", "inf 0.1 0.1"), "entry inf is not finite"),
        ("audit", _golden_doc_with("uniform4x3", "joint.2", "0.1 nan 0.1"), "entry nan is not finite"),
        ("audit", _golden_doc_with("example1", "two-part.p_u", "0 0 0 0"), "two-part.p_u has no positive mass"),
        (
            "audit",
            _golden_doc_with("example1", "two-part.p_y_given_u.0", "nan 0 0 0 0 0"),
            "kernel entry nan is not finite",
        ),
        (
            "audit",
            _golden_doc_with("example1", "two-part.p_y_given_u.0", "0.5 0 0 0 0 0"),
            "kernel column 0 sums to 0.5, expected 1",
        ),
        (
            "audit",
            _golden_doc_with("example1", "two-part.p_y_given_u.0", "0 0 1.25 -0.25 0 0"),
            "kernel has negative entry -0.25",
        ),
        (
            "audit",
            _golden_doc_with("example1", "two-part.p_u", "nan 0.5 0.25 0.25"),
            "two-part.p_u entry nan is not finite",
        ),
        (
            "audit",
            _golden_doc_with("example1", "two-part.p_u", "inf 0 0 0"),
            "two-part.p_u entry inf is not finite",
        ),
        (
            "audit",
            _golden_doc_with("example1", "two-part.p_u", "-0.25 0.75 0.25 0.25"),
            "two-part.p_u entry -0.25 is negative",
        ),
        (
            "audit",
            _golden_doc_with("example1", "two-part.p_u", "5e-324 0 0 0"),
            "no (x, y, u, w) event has positive mass",
        ),
    ],
    ids=[
        "negative-joint-entry",
        "negative-p-y",
        "all-zero-joint",
        "overflowing-entry",
        "directory",
        "binary-file",
        "doc-x-size-0",
        "doc-y-size-negative",
        "doc-direct-pad-y-above-x",
        "doc-direct-pad-only-y-above-x",
        "doc-joint-inf",
        "doc-joint-nan",
        "doc-p-u-zero",
        "doc-kernel-nan",
        "doc-kernel-column-sum",
        "doc-kernel-negative",
        "doc-p-u-nan",
        "doc-p-u-inf",
        "doc-p-u-negative",
        "doc-p-u-subnormal",
    ],
)
def test_malformed_input_exits_2_with_named_error(tmp_path, capsys, command, content, named):
    # exit 2 with a one-line error, never exit 1 or an uncaught exception
    path = tmp_path / "input"
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    status, _ = run_cli(["--cmd", command, "--input", str(path)])
    err = capsys.readouterr().err
    assert status == 2
    assert err.startswith("error: ") and named in err


ZERO_MASS_INPUTS = {
    "joint-row": ("joint:\n0.5 0.25\n0 0\n0 0.25\n", "x = 1 has no probability mass: joint row 1"),
    "joint-column": ("joint:\n0.5 0 0.25\n0 0 0.25\n", "y = 1 has no probability mass: joint column 1"),
    "p-y-entry": ("p_x_given_y:\n1 0 0.5\n0 1 0.5\np_y: 0.5 0.5 0\n", "y = 2 has no probability mass"),
    "kernel-row": ("p_x_given_y:\n1 0.5\n0 0.5\n0 0\np_y: 0.5 0.5\n", "x = 2 has no probability mass"),
    "clamped-row": ("joint:\n0.5 0.5\n-1e-10 -5e-10\n", "x = 1 has no probability mass"),
}
ZERO_MASS_DOCS = {
    "doc-joint-row": (_golden_doc_with("uniform4x3", "joint.3", "0 0 0"), "x = 3 has no probability mass"),
    "doc-joint-column": (
        re.sub(r"^(joint\.\d = \S+ \S+) \S+$", r"\1 0", (GOLDEN / "uniform4x3.code.txt").read_text(), flags=re.M),
        "y = 2 has no probability mass",
    ),
}


@pytest.mark.parametrize(
    "command, case",
    [(command, case) for case in ZERO_MASS_INPUTS for command in ("analyze", "mechanism", "code")]
    + [("audit", case) for case in ZERO_MASS_DOCS],
)
def test_zero_mass_symbol_exits_2_naming_it(tmp_path, capsys, command, case):
    # every entry rejects an x or y of no mass, in the input's numbering,
    # with one error line
    content, named = (ZERO_MASS_INPUTS | ZERO_MASS_DOCS)[case]
    path = tmp_path / "input.txt"
    path.write_text(content)
    status, out = run_cli(["--cmd", command, "--input", str(path), "--format", "structured"])
    err = capsys.readouterr().err
    assert (status, out) == (2, "")
    assert err.startswith(f"error: {named}") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["analyze", "mechanism", "code"])
def test_tiny_total_normalizes_and_zero_total_exits_2(tmp_path, capsys, command):
    # entries summing to 4e-10, below TAU_PROB, describe the uniform 2x2 as
    # 1 1 / 1 1 does, byte for byte; a total of exactly 0 stays an error
    outs = []
    for content in ("joint:\n1e-10 1e-10\n1e-10 1e-10\n", "joint:\n1 1\n1 1\n"):
        path = tmp_path / "input.txt"
        path.write_text(content)
        outs.append([run_cli(["--cmd", command, "--input", str(path), "--format", f]) for f in ("text", "structured")])
        assert capsys.readouterr().err == ""
    assert outs[0] == outs[1] and outs[0][0][0] == 0
    path.write_text("joint:\n0 0\n0 0\n")
    assert run_cli(["--cmd", command, "--input", str(path)]) == (2, "")
    assert capsys.readouterr().err == "error: all probability mass is zero\n"


@pytest.fixture(scope="module")
def padded_joint_path(tmp_path_factory):
    return tmp_path_factory.mktemp("padded") / "joint.txt"


@given(st.sampled_from(sorted(families.FAMILIES)), st.integers(0, 2**32 - 1), st.sampled_from([0, 1]), st.data())
def test_inserted_zero_row_or_column_is_named(padded_joint_path, family, seed, axis, data):
    # a sweep draw gives every symbol mass; an all-zero row or column
    # inserted at any index makes analyze exit 2, naming that index
    p = families.FAMILIES[family](np.random.default_rng(seed)).p
    at = data.draw(st.integers(0, p.shape[axis]))
    padded = np.insert(p, at, 0.0, axis=axis)
    padded_joint_path.write_text("joint:\n" + "".join(" ".join(map(repr, row)) + "\n" for row in padded.tolist()))
    import io
    from contextlib import redirect_stderr

    err = io.StringIO()
    with redirect_stderr(err):
        status, out = run_cli(["--cmd", "analyze", "--input", str(padded_joint_path)])
    assert (status, out) == (2, "")
    assert err.getvalue().startswith(f"error: {'xy'[axis]} = {at} has no probability mass")


def test_overflowing_joint_is_normalized(tmp_path, capsys):
    # the entries sum past the largest double; the joint is still uniform
    path = tmp_path / "huge.txt"
    path.write_text("joint:\n1e308 1e308\n1e308 1e308\n")
    status, out = run_cli(["--cmd", "analyze", "--input", str(path), "--format", "structured"])
    assert status == 0 and capsys.readouterr().err == ""
    assert "p_x = 0.5 0.5" in out


def test_missing_input_is_usage_error():
    status, _ = run_cli(["--cmd", "analyze"])
    assert status == 2


def test_nonexistent_file_is_usage_error(tmp_path):
    status, _ = run_cli(["--cmd", "analyze", "--input", str(tmp_path / "nope.txt")])
    assert status == 2
