"""CLI subcommands, output formats, and the exit-code contract."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fieldflower
from fieldflower.cli import main
from fieldflower.gfield import parse_word_list
import reference_constants as ref


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_transform_golay_pair(capsys):
    for src, dst in ref.GOLAY_PAIRS:
        code, out, _ = run_cli(capsys, "transform", "golay", src)
        assert code == 0
        assert out == dst + "\n"


def test_transform_hamming_pair(capsys):
    code, out, _ = run_cli(capsys, "transform", "hamming", "0011000")
    assert (code, out) == (0, "1111000\n")
    code, out, _ = run_cli(capsys, "transform", "hamming", "0000000")
    assert (code, out) == (0, "0000000\n")


def test_transform_usage_errors(capsys):
    # word does not parse under GF(2)
    code, _, err = run_cli(capsys, "transform", "hamming", "0021000")
    assert code == 2
    assert "error:" in err
    # wrong length
    code, _, err = run_cli(capsys, "transform", "hamming", "00110")
    assert code == 2
    # unknown transform name
    code, _, err = run_cli(capsys, "transform", "walsh", "0011000")
    assert code == 2
    # no transform at all
    code, _, err = run_cli(capsys, "transform", "0011000")
    assert code == 2
    assert "exactly one" in err


def test_transform_from_matrix_file(capsys, tmp_path):
    f = tmp_path / "m.txt"
    f.write_text("p=3\n0 1;\n1 0\n")
    code, out, _ = run_cli(capsys, "transform", "--matrix-file", str(f), "12")
    assert (code, out) == (0, "21\n")
    # a name and a file together is ambiguous
    code, _, err = run_cli(
        capsys, "transform", "hamming", "12", "--matrix-file", str(f)
    )
    assert code == 2


def test_invariants_hamming(capsys):
    code, out, _ = run_cli(capsys, "invariants", "hamming")
    assert code == 0
    assert out.splitlines() == ["dim=4", *ref.HAMMING_FIXED_BASIS]


def test_invariants_golay(capsys):
    code, out, _ = run_cli(capsys, "invariants", "golay")
    assert code == 0
    assert out.splitlines() == ["dim=6", *ref.GOLAY_FIXED_BASIS]


def test_invariants_identity_matrix_file(capsys, tmp_path):
    f = tmp_path / "id.txt"
    f.write_text("p=2\n1 0 0;\n0 1 0;\n0 0 1\n")
    code, out, _ = run_cli(capsys, "invariants", "--matrix-file", str(f))
    assert code == 0
    assert out.splitlines()[0] == "dim=3"


def test_spectrum_hamming(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "hamming")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lambda=1 dim=4"
    assert lines[1:] == list(ref.HAMMING_FIXED_BASIS)


def test_render_svg(capsys, tmp_path):
    out_file = tmp_path / "flower.svg"
    code, out, _ = run_cli(
        capsys, "render", "1011101", "--p", "2", "--out", str(out_file)
    )
    assert (code, out) == (0, "petals=3 thorns=0\n")
    data = out_file.read_bytes()
    assert data.startswith(b"<svg ")
    assert data.decode("ascii").count('class="petal"') == 3


def test_render_reference_thorn_word(capsys, tmp_path):
    out_file = tmp_path / "t.svg"
    code, out, _ = run_cli(capsys, "render", "0000101", "--out", str(out_file))
    assert (code, out) == (0, "petals=0 thorns=2\n")


def test_render_ternary_zero_word(capsys, tmp_path):
    out_file = tmp_path / "z.svg"
    code, out, _ = run_cli(
        capsys, "render", "000000000000", "--p", "3", "--out", str(out_file)
    )
    assert (code, out) == (0, "petals=0 thorns=0\n")


def test_render_tikz(capsys, tmp_path):
    out_file = tmp_path / "flower.tikz"
    code, out, _ = run_cli(
        capsys, "render", "1111111", "--format", "tikz", "--out", str(out_file)
    )
    assert (code, out) == (0, "petals=7 thorns=0\n")
    text = out_file.read_text()
    assert text.startswith("\\begin{tikzpicture}")


def test_render_default_output_name(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(capsys, "render", "1010110")
    assert code == 0
    assert (tmp_path / "1010110.svg").is_file()


def test_render_rejects_unwritable_path(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "render", "1010110", "--out", str(tmp_path / "no" / "dir.svg")
    )
    assert code == 2
    assert "error:" in err


def test_render_spec_flags(capsys, tmp_path):
    out_file = tmp_path / "c.svg"
    code, _, _ = run_cli(
        capsys, "render", "1110000", "--out", str(out_file),
        "--light-color", "ABCDEF", "--no-grid", "--label",
    )
    assert code == 0
    text = out_file.read_text()
    assert "#ABCDEF" in text
    assert 'class="axis"' not in text
    assert ">1110000</text>" in text


@pytest.mark.parametrize("flags", [
    ("--light-color", "0x1234"),
    ("--dark-color", "+12345"),
    ("--canvas", "inf"),
    ("--marker-radius", "nan"),
])
def test_render_bad_spec_exit_2(capsys, tmp_path, flags):
    out_file = tmp_path / "bad.svg"
    code, _, err = run_cli(capsys, "render", "1011", "--out", str(out_file), *flags)
    assert code == 2
    assert "error:" in err
    assert not out_file.exists()


def test_panel_all_binary_7(capsys, tmp_path):
    out_file = tmp_path / "panel.svg"
    code, out, _ = run_cli(
        capsys, "panel", "all-binary-7", "--columns", "16",
        "--out", str(out_file),
    )
    assert (code, out) == (0, "cells=128\n")
    assert out_file.read_text().count('class="cell"') == 128


def test_panel_worker_count_does_not_change_bytes(capsys, tmp_path):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    assert run_cli(capsys, "panel", "all-binary-7", "--out", str(a))[0] == 0
    assert run_cli(
        capsys, "panel", "all-binary-7", "--out", str(b), "--workers", "8"
    )[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_panel_from_word_list_file(capsys, tmp_path):
    listing = tmp_path / "words.txt"
    listing.write_text("# three invariant words\n" +
                       "\n".join(ref.GOLAY_INVARIANT_WORDS) + "\n")
    out_file = tmp_path / "p.svg"
    code, out, _ = run_cli(
        capsys, "panel", str(listing), "--p", "3", "--columns", "3",
        "--out", str(out_file),
    )
    assert (code, out) == (0, "cells=3\n")
    assert out_file.read_text().count('class="cell"') == 3


def test_panel_mixed_lengths_exit_2(capsys, tmp_path):
    listing = tmp_path / "bad.txt"
    listing.write_text("0011000\n000000111221\n")
    code, _, err = run_cli(
        capsys, "panel", str(listing), "--out", str(tmp_path / "x.svg")
    )
    assert code == 2
    assert "error:" in err


def test_panel_missing_file_exit_2(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "panel", str(tmp_path / "absent.txt"),
        "--out", str(tmp_path / "x.svg"),
    )
    assert code == 2


def test_verify_reports_and_exit_code(capsys):
    code, out, _ = run_cli(capsys, "verify")
    lines = out.splitlines()
    # one PASS/FAIL line per check plus the summary; the golay parameter
    # check is honestly red on a fresh build, so the exit code is 1
    assert code == 1
    assert lines[-1] == "12/13 checks passed"
    fails = [ln for ln in lines if ln.startswith("FAIL ")]
    assert len(fails) == 1
    assert "golay-code-parameters" in fails[0]
    assert any("hamming" in ln for ln in lines)
    assert any("golay" in ln for ln in lines)


def test_mindist_hamming(capsys):
    code, out, _ = run_cli(capsys, "mindist", "hamming")
    assert (code, out) == (0, "n=7 k=4 d=3\n")


def test_mindist_golay_prints_computed_distance(capsys):
    # prints the measured parameters of the built-in code: d=5, not the
    # nominal 6 (see test_codes.test_minimum_distance_golay_actual_value)
    code, out, _ = run_cli(capsys, "mindist", "--code", "golay")
    assert (code, out) == (0, "n=12 k=6 d=5\n")


def test_mindist_usage_errors(capsys):
    assert run_cli(capsys, "mindist")[0] == 2
    assert run_cli(capsys, "mindist", "hamming", "--code", "golay")[0] == 2
    assert run_cli(capsys, "mindist", "simplex")[0] == 2


def test_codewords_stdout(capsys):
    code, out, _ = run_cli(capsys, "codewords", "hamming")
    assert code == 0
    words = out.splitlines()
    assert len(words) == 16
    assert words[0] == "0000000"


def test_codewords_to_file(capsys, tmp_path):
    out_file = tmp_path / "golay.words"
    code, out, _ = run_cli(
        capsys, "codewords", "--code", "golay", "--out", str(out_file)
    )
    assert (code, out) == (0, "words=729\n")
    words = parse_word_list(out_file.read_text(), 3)
    assert len(words) == 729


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_console_script_entry_point():
    # Run the package under test, installed or not.
    src = str(Path(fieldflower.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "fieldflower", "transform", "hamming", "0011000"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == "1111000\n"
