"""File parsing, commands, determinism, exit codes, audit round trips."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import bits

from zeroleak import cli, dist, families
from zeroleak import mechanism as mm
from zeroleak.errors import ParseError, StochasticityError

GOLDEN = Path(__file__).parent / "golden"
EXAMPLE1_PATH = Path(__file__).parents[1] / "data" / "example1.txt"
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
    # the plain-decimal fast path gives float(Fraction(tok)) bit for bit,
    # and raises where it raises
    want = _token_outcome(lambda t: float(Fraction(t)), tok)
    assert _token_outcome(lambda t: cli._parse_token(t, 1, 1), tok) == want


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
            assert _token_outcome(lambda s: cli._parse_token(s, 1, 1), t) == want, t


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
    assert "decode.0.0 = " in out


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
        if line.startswith("two-part.decode.0.0 ="):
            lines[i] = "two-part.decode.0.0 = 4"
            break
    doc = tmp_path / "tampered.txt"
    doc.write_text("\n".join(lines) + "\n")
    status, audit_out = run_cli(["--cmd", "audit", "--input", str(doc)])
    assert status == 1
    assert "violation" in audit_out


def _edited_example1_doc(example1_file, tmp_path, key, value):
    """Example 1's code document with ``key`` set to ``value``: appended when
    absent, dropped when ``value`` is None."""
    _, out = run_cli(["--cmd", "code", "--input", example1_file, "--format", "structured"])
    lines = [line for line in out.splitlines() if line.partition(" = ")[0] != key]
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
        ("joint.0", "0.125 0.25 0.375 0 0", "joint.0"),
        ("two-part.p_y_given_u.0", "0 0 0.75 0.25 0", "two-part.p_y_given_u.0"),
        ("two-part.decode.0.0", "abc", "two-part.decode.0.0"),
        ("two-part.decode.0.0.1", "2", "two-part.decode.0.0.1"),
        ("two-part.codeword.9", "0101", "two-part.codeword"),
        ("two-part.codeword.1", None, "two-part.codeword"),
        ("two-part.p_u", "0.5 0.5", "two-part.p_u"),
        ("two-part.key_size", "0", "two-part.key_size"),
        ("two-part.x_field_bits", "-1", "x_field_bits"),
        ("joint.1", "0 0 0 0 0 0", "all-zero row"),
        ("schemes", None, "schemes"),
        ("schemes", "", "schemes"),
    ],
    ids=[
        "missing",
        "malformed",
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
    ],
)
def test_audit_malformed_document_is_parse_error(
    example1_file, tmp_path, capsys, key, value, named
):
    doc = _edited_example1_doc(example1_file, tmp_path, key, value)
    status, _ = run_cli(["--cmd", "audit", "--input", doc])
    assert status == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("two-part.codeword.1", "0x1"),
        ("two-part.codeword.0", ""),
        ("two-part.codeword.2", "10"),
        ("two-part.decode.0.0", None),
    ],
    ids=["non-binary-codeword", "empty-codeword", "not-prefix-free", "decode-entry-missing"],
)
def test_audit_undecodable_code_is_named_violation(example1_file, tmp_path, key, value):
    doc = _edited_example1_doc(example1_file, tmp_path, key, value)
    status, out = run_cli(["--cmd", "audit", "--input", doc])
    assert status == 1
    assert "violation = two-part: a message does not decode" in out


@pytest.mark.parametrize(
    "name, command",
    [
        pytest.param("example1", "code", id="code"),
        pytest.param("example1", "audit", id="audit"),
        pytest.param("example1", "analyze", id="analyze"),
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
    if command == "audit":
        source = GOLDEN / f"{name}.code.txt"
    else:
        source = EXAMPLE1_PATH if name == "example1" else GOLDEN / f"{name}.txt"
    status, out = run_cli(["--cmd", command, "--input", str(source), "--format", "structured"])
    assert status == 0
    assert out == (GOLDEN / f"{name}.{command}.txt").read_text(encoding="utf-8")


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


def test_audit_reads_direct_pad_fields(tmp_path):
    # the document's direct-pad key size and field width are audited, not
    # rebuilt from the joint: a 7-bit field breaks the exact 2-bit length
    doc = (GOLDEN / "uniform4x3.code.txt").read_text(encoding="utf-8")
    doc = doc.replace("direct-pad.field_bits = 2", "direct-pad.field_bits = 7")
    doc = doc.replace("direct-pad.key_size = 3", "direct-pad.key_size = 1")
    path = tmp_path / "edited.txt"
    path.write_text(doc)
    status, out = run_cli(["--cmd", "audit", "--input", str(path)])
    assert status == 1
    assert "two-part.audit.ok = true" in out
    assert "direct-pad.audit.ok = false" in out
    assert "violation = direct-pad: message length is not exactly 2" in out


def _golden_doc_with(name, key, value):
    """The golden code document of ``name`` with ``key`` set to ``value``."""
    text = (GOLDEN / f"{name}.code.txt").read_text(encoding="utf-8")
    return "".join(
        f"{key} = {value}\n" if line.startswith(f"{key} =") else line + "\n"
        for line in text.splitlines()
    )


def test_lossless_prob_prints_all_digits_in_both_formats(tmp_path):
    # a wrong decode entry fails 1/48 of the mass; .6g would print 0.979167,
    # and a failure a hair below 1 would print as 1
    path = tmp_path / "tampered.txt"
    path.write_text(_golden_doc_with("example1", "two-part.decode.1.1", "3"))
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


@pytest.mark.parametrize(
    "key, value", [("direct-pad.key_size", "0"), ("direct-pad.field_bits", "1")]
)
def test_audit_direct_pad_fields_too_small_is_parse_error(tmp_path, capsys, key, value):
    path = tmp_path / "edited.txt"
    path.write_text(_golden_doc_with("uniform4x3", key, value))
    status, _ = run_cli(["--cmd", "audit", "--input", str(path)])
    assert status == 2
    assert "direct-pad.key_size" in capsys.readouterr().err


def _count_calls(monkeypatch, argv):
    """Run the CLI on ``argv``, counting the calls of rank/nullity, X = f(Y),
    g0 and the per-x entropies H(Y|X=x) through every binding in the package."""
    import sys
    from collections import Counter

    from zeroleak import linalg

    counts = Counter()
    originals = (linalg.rank_and_nullity, mm.x_is_function_of_y, mm.solve_g0, dist.conditional_entropies)
    for original in originals:

        def counting(*args, _f=original, **kwargs):
            counts[_f.__name__] += 1
            return _f(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("zeroleak"):
                for attr, obj in list(vars(mod).items()):
                    if obj is original:
                        monkeypatch.setattr(mod, attr, counting)
    status, out = run_cli(argv)
    return status, out, counts


def test_analyze_computes_rank_and_determinism_once(example1_file, monkeypatch):
    # rank/nullity, X = f(Y) and H(Y|X=x) live in the Analysis: the kernel
    # rank is taken once, plus once for the bound matrix; X = f(Y), g0 and
    # the per-x entropies once each
    status, out, counts = _count_calls(monkeypatch, ["--cmd", "analyze", "--input", example1_file])
    assert status == 0 and "kernel_nullity = 4" in out
    assert counts == {
        "rank_and_nullity": 2, "x_is_function_of_y": 1, "solve_g0": 1, "conditional_entropies": 1
    }


def test_code_computes_the_converse_once(monkeypatch):
    # both schemes' audit checks read max_x H(Y|X=x) from the Analysis
    argv = ["--cmd", "code", "--input", str(GOLDEN / "uniform4x3.txt"), "--format", "structured"]
    status, out, counts = _count_calls(monkeypatch, argv)
    assert status == 0 and "two-part.audit.ok = true" in out and "direct-pad.audit.ok = true" in out
    assert counts["conditional_entropies"] == 1


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


@pytest.mark.parametrize(
    "command, content, named",
    [
        ("analyze", "joint:\n0.5 -0.1\n0.3 0.3\n", "below"),
        ("analyze", "p_x_given_y:\n1 0\n0 1\np_y: -1 2\n", "below"),
        ("analyze", "joint:\n0 0\n0 0\n", "mass is zero"),
        ("analyze", "joint:\n1 1e400\n", "line 2, column 2"),
        ("analyze", None, "Is a directory"),
        ("analyze", b"\x89PNG\r\n\x1a\n\xff\xfe", "can't decode"),
        ("audit", _golden_doc_with("uniform4x3", "x_size", 0), "shape"),
        ("audit", _golden_doc_with("uniform4x3", "x_size", 2), "|Y| = 3 > |X| = 2"),
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
        "doc-direct-pad-y-above-x",
        "doc-joint-inf",
        "doc-joint-nan",
        "doc-p-u-zero",
        "doc-kernel-nan",
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
