"""File parsing, commands, determinism, exit codes, audit round trips."""

import numpy as np
import pytest

from zeroleak import cli, dist, families
from zeroleak import mechanism as mm
from zeroleak.errors import ParseError, StochasticityError

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
    assert "u_part_improves = true" in out


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


@pytest.mark.parametrize(
    "edit",
    [
        lambda line: None if line.startswith("two-part.u_size") else line,
        lambda line: "two-part.u_size = two" if line.startswith("two-part.u_size") else line,
    ],
    ids=["missing", "malformed"],
)
def test_audit_bad_u_size_is_parse_error(example1_file, tmp_path, capsys, edit):
    _, out = run_cli(["--cmd", "code", "--input", example1_file, "--format", "structured"])
    lines = [edit(line) for line in out.splitlines()]
    doc = tmp_path / "broken.txt"
    doc.write_text("".join(line + "\n" for line in lines if line is not None))
    status, _ = run_cli(["--cmd", "audit", "--input", str(doc)])
    assert status == 2
    assert "two-part.u_size" in capsys.readouterr().err


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


def test_code_direct_pad_small_y(tmp_path):
    path = tmp_path / "smally.txt"
    path.write_text("joint:\n" + "\n".join("1/12 1/12 1/12" for _ in range(4)) + "\n")
    status, out = run_cli(["--cmd", "code", "--input", str(path), "--format", "structured"])
    assert status == 0
    assert "direct-pad.field_bits = 2" in out
    assert "direct-pad.audit.ok = true" in out


def test_sweep_families():
    for family in ("det-f", "common-info", "invertible"):
        status, out = run_cli(["--cmd", "sweep", "--n", "5", "--family", family])
        assert status == 0, out
        assert "passed = 5/5" in out


def test_sweep_deterministic_given_seed():
    _, a = run_cli(["--cmd", "sweep", "--n", "4", "--family", "det-f", "--seed", "3"])
    _, b = run_cli(["--cmd", "sweep", "--n", "4", "--family", "det-f", "--seed", "3"])
    assert a == b


def test_missing_input_is_usage_error():
    status, _ = run_cli(["--cmd", "analyze"])
    assert status == 2


def test_nonexistent_file_is_usage_error(tmp_path):
    status, _ = run_cli(["--cmd", "analyze", "--input", str(tmp_path / "nope.txt")])
    assert status == 2
