"""CLI subcommands, output formats, and the exit-code contract."""

import argparse
import hashlib
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields
from pathlib import Path

import pytest

import fieldflower
from fieldflower import cli
from fieldflower.cli import main
from fieldflower.flowergeom import features
from fieldflower.gfield import parse_word, parse_word_list
from fieldflower.modlinalg import MAX_MATRIX_DIM
from fieldflower.ntt import MAX_SPECTRUM_MODULUS, MAX_SPECTRUM_WORK
from fieldflower.render import MAX_AXES, MAX_PANEL_PRIMITIVES, MAX_RINGS, RenderSpec, \
    panel, to_svg, to_tikz
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
    assert "one of the arguments name --matrix-file is required" in err


ABSENT = "absent-matrix.txt"
TRANSFORM_MISSING = "one of the arguments name --matrix-file is required"
TRANSFORM_BOTH = "argument --matrix-file: not allowed with argument name"
CODE_MISSING = "one of the arguments code --code is required"
CODE_BOTH = "argument --code: not allowed with argument code"


@pytest.mark.parametrize("argv, message", [
    (("transform", "0011000"), TRANSFORM_MISSING),
    (("invariants",), TRANSFORM_MISSING),
    (("spectrum",), TRANSFORM_MISSING),
    # the one positional given is taken as the word, so no transform is left
    (("transform", "golay"), TRANSFORM_MISSING),
    (("transform", "hamming", "0011000", "--matrix-file", ABSENT), TRANSFORM_BOTH),
    (("invariants", "hamming", "--matrix-file", ABSENT), TRANSFORM_BOTH),
    (("spectrum", "golay", "--matrix-file", ABSENT), TRANSFORM_BOTH),
    (("mindist",), CODE_MISSING),
    (("codewords",), CODE_MISSING),
    (("mindist", "hamming", "--code", "golay"), CODE_BOTH),
    (("codewords", "golay", "--code", "hamming"), CODE_BOTH),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_one_of_misuse_is_refused_while_parsing(capsys, tmp_path, argv, message):
    # exactly one transform (name or --matrix-file) and exactly one code
    # (name or --code); argparse refuses any other count before a file is read
    absent = str(tmp_path / ABSENT)
    argv = [absent if a == ABSENT else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: fieldflower {argv[0]} [-h] ")
    assert err.endswith(f"fieldflower {argv[0]}: error: {message}\n")
    assert ABSENT not in err


@pytest.mark.parametrize("argv", [("transform", "walsh", "0011000"),
                                  ("invariants", "walsh"), ("spectrum", "walsh")])
def test_transform_names_come_from_the_registry(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "invalid choice" in err
    assert "hamming" in err and "golay" in err
    code, out, _ = run_cli(capsys, argv[0], "--help")
    assert code == 0
    assert "{hamming,golay}" in out


@pytest.mark.parametrize("word", ["001\u0661000", "00\u00b21000"])
def test_transform_rejects_non_ascii_digits(capsys, word):
    code, out, err = run_cli(capsys, "transform", "hamming", word)
    assert (code, out) == (2, "")
    assert "at position" in err and "GF(2)" in err


@pytest.mark.parametrize("text", ["p=2\n1 0;\n0 \u0661\n", "p=13\n1 0;\n0 1_0\n"])
def test_matrix_file_rejects_lenient_integers(capsys, tmp_path, text):
    f = tmp_path / "m.txt"
    f.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "invariants", "--matrix-file", str(f))
    assert (code, out) == (2, "")
    assert "at position (1,1)" in err


def test_matrix_file_modulus_past_two_to_the_64_exit_2(capsys, tmp_path):
    f = tmp_path / "m.txt"
    f.write_text(f"p={2**64 + 13}\n1 0;\n0 1\n")
    code, out, err = run_cli(capsys, "invariants", "--matrix-file", str(f))
    assert (code, out) == (2, "")
    assert "below 2**64" in err


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


def test_spectrum_modulus_past_the_bound_refused(capsys, tmp_path):
    # the spectrum tries every lambda in GF(p); past the bound it exits 2
    # before the first null space
    p = 2**61 - 1
    f = tmp_path / "big.txt"
    f.write_text(f"p={p}\n1 2;\n3 4\n")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "spectrum", "--matrix-file", str(f))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert f"past the bound of p <= {MAX_SPECTRUM_MODULUS}" in err


def diagonal_text(n, p, values):
    """Matrix text for the n x n diagonal matrix over GF(p) whose entry i is
    1 + i % values: the identity for values = 1."""
    return f"p={p}\n" + ";\n".join(
        " ".join(str(1 + i % values) if i == j else "0" for j in range(n)) for i in range(n)
    ) + "\n"


def test_spectrum_work_past_the_bound_refused(capsys, tmp_path):
    # one null space per eigenvalue, roots*n**3 <= MAX_SPECTRUM_WORK: the
    # 100x100 identity over GF(4093) has one root and is admitted; a diagonal
    # matrix with 8 distinct entries has 8 and exits 2 before the first
    n, p = 100, 4093
    f = tmp_path / "wide.txt"
    f.write_text(diagonal_text(n, p, 1))
    code, out, _ = run_cli(capsys, "spectrum", "--matrix-file", str(f))
    lines = out.splitlines()
    assert (code, lines[0], len(lines)) == (0, "lambda=1 dim=100", 101)
    assert lines[1] == ",".join(["1"] + ["0"] * 99)  # over GF(p > 10), commas
    f.write_text(diagonal_text(n, p, 8))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "spectrum", "--matrix-file", str(f))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (f"error: the spectrum of a 100x100 matrix over GF(4093) takes one "
                   f"null space per eigenvalue, 8 in all, past the bound of "
                   f"roots*n**3 <= {MAX_SPECTRUM_WORK}\n")


# sha256 of `spectrum golay` stdout: each eigenvalue, its dimension and
# its canonical basis, byte for byte.
SPECTRUM_GOLAY_SHA256 = "6238e975ad3e17c7b54d857a2b9b29c7c6e33b2c0e5235dcd944d17b45c328a9"


def test_spectrum_golay_golden_stdout(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "golay")
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == SPECTRUM_GOLAY_SHA256


@pytest.mark.parametrize("text", ["p=2\n0 1;\n1 1\n", "p=3\n0 2;\n1 0\n"])
def test_spectrum_with_no_eigenvalue_in_the_base_field(capsys, tmp_path, text):
    # x**2 + x + 1 over GF(2) and x**2 + 1 over GF(3) are irreducible
    f = tmp_path / "m.txt"
    f.write_text(text)
    code, out, err = run_cli(capsys, "spectrum", "--matrix-file", str(f))
    assert (code, out, err) == (0, "no eigenvalues in the base field\n", "")


class ClosedStdout:
    """A stdout whose reader is gone, at the first write or only at flush."""

    def __init__(self, fails_at):
        self.fails_at = fails_at

    def write(self, text):
        if self.fails_at == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("fails_at", ["write", "flush"])
def test_closed_stdout_exits_2(capsys, monkeypatch, fails_at):
    monkeypatch.setattr(sys, "stdout", ClosedStdout(fails_at))
    code = main(["spectrum", "golay"])
    assert code == 2
    assert capsys.readouterr().err == \
        "error: stdout was closed before the output was written\n"


def test_closed_stdout_pipe_exits_2_without_a_traceback():
    # stdout is a pipe whose read end is closed before the command starts:
    # one error line, no traceback, nothing reported at interpreter exit
    src = str(Path(fieldflower.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fieldflower", "spectrum", "golay"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "error: stdout was closed before the output was written\n"


@pytest.mark.parametrize("rows,cols,message", [
    (MAX_MATRIX_DIM + 1, 1, f"matrix text has {MAX_MATRIX_DIM + 1} rows, "),
    (2, MAX_MATRIX_DIM + 1, f"matrix text has a row of more than {MAX_MATRIX_DIM} entries, "),
])
def test_matrix_past_the_dimension_bound_refused(capsys, tmp_path, rows, cols, message):
    # fixed_space is cubic in the dimension; text past the bound exits 2
    # naming it, before any row is built
    f = tmp_path / "big.txt"
    f.write_text("p=2\n" + ";\n".join(" ".join(["1"] * cols) for _ in range(rows)) + "\n")
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "invariants", "--matrix-file", str(f))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert message + f"past the bound of {MAX_MATRIX_DIM}" in err
    assert peak < 256 * 1024


def test_matrix_file_of_many_rows_refused_by_its_count(capsys, tmp_path):
    # 500,000 rows are counted, not split, and refused with the row bound
    f = tmp_path / "tall.txt"
    f.write_text("p=2\n" + "0;" * 500_000)
    code, out, err = run_cli(capsys, "spectrum", "--matrix-file", str(f))
    assert (code, out) == (2, "")
    assert err == f"error: matrix text has 500000 rows, past the bound of {MAX_MATRIX_DIM}\n"


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


# Every render flag, each set away from its RenderSpec default.
ALL_RENDER_FLAGS = ("--canvas", "300", "--radius-scale", "30", "--stroke-width", "2.5",
                    "--light-color", "#abcdef", "--dark-color", "123456",
                    "--marker-radius", "3", "--no-grid", "--label")
ALL_RENDER_SPEC = RenderSpec(canvas=300.0, radius_scale=30.0, stroke_width=2.5,
                             light_color="ABCDEF", dark_color="123456",
                             marker_radius=3.0, grid=False, label=True)


@pytest.mark.parametrize("argv, expected", [
    (("render", "2012", "--format", "svg"),
     lambda: to_svg(features(parse_word("2012", 3)), ALL_RENDER_SPEC)),
    (("render", "2012", "--format", "tikz"),
     lambda: to_tikz(features(parse_word("2012", 3)), ALL_RENDER_SPEC).encode()),
    (("panel", "words.txt", "--columns", "2"),
     lambda: panel(parse_word_list("2012\n0110\n1000\n", 3), 2, ALL_RENDER_SPEC)),
], ids=["render-svg", "render-tikz", "panel"])
def test_every_render_flag_reaches_its_field(capsys, tmp_path, argv, expected):
    default = RenderSpec()
    assert all(getattr(ALL_RENDER_SPEC, f.name) != getattr(default, f.name)
               for f in fields(RenderSpec))
    (tmp_path / "words.txt").write_text("2012\n0110\n1000\n")
    argv = [str(tmp_path / a) if a == "words.txt" else a for a in argv]
    out_file = tmp_path / "out"
    code, _, _ = run_cli(capsys, *argv, "--p", "3", "--out", str(out_file),
                         *ALL_RENDER_FLAGS)
    assert code == 0
    assert out_file.read_bytes() == expected()


@pytest.mark.parametrize("flags", [
    ("--light-color", "0x1234"),
    ("--dark-color", "+12345"),
    ("--canvas", "inf"),
    ("--marker-radius", "nan"),
    ("--radius-scale", "1e306"),
    ("--canvas", "10000.001"),
    ("--stroke-width", "1e400"),
])
def test_render_bad_spec_exit_2(capsys, tmp_path, flags):
    out_file = tmp_path / "bad.svg"
    code, _, err = run_cli(capsys, "render", "1,0,5,6", "--p", "997",
                           "--out", str(out_file), *flags)
    assert code == 2
    assert "error:" in err
    assert not out_file.exists()


@pytest.mark.parametrize("argv", [
    ("render", "0102", "--p", "\u0663"),
    ("render", "0102", "--p", "+3"),
    ("render", "0102", "--p", " 3"),
    ("render", "0,1,0,2", "--p", "1_1"),
    ("panel", "all-binary-7", "--p", "+3"),
    ("panel", "all-binary-7", "--columns", "1_6"),
    ("panel", "all-binary-7", "--workers", "\u0663"),
    ("panel", "all-binary-7", "--workers", "+4"),
    ("panel", "all-binary-7", "--workers", "1_0"),
])
def test_integer_options_take_ascii_digits_only(capsys, tmp_path, argv):
    bad, good = tmp_path / "bad.svg", tmp_path / "good.svg"
    code, out, err = run_cli(capsys, *argv, "--out", str(bad))
    assert (code, out) == (2, "")
    assert f"argument {argv[-2]}: expected ASCII digits" in err
    assert not bad.exists()
    # the value int() read from that text, written in ASCII digits, still works
    assert run_cli(capsys, *argv[:-1], str(int(argv[-1])), "--out", str(good))[0] == 0
    assert good.exists()


@pytest.mark.parametrize("argv", [
    ("render", "0,1"),
    ("render", "0,1", "--format", "tikz"),
    ("render", "0,1", "--no-grid"),
    ("panel", "words.txt"),
])
@pytest.mark.parametrize("p", [1009, 10007])
def test_modulus_past_the_ring_bound_refused(capsys, tmp_path, argv, p):
    # GF(p) draws p-1 grid rings; past the bound the command exits 2 naming
    # it, before any ring is drawn or any file written.
    (tmp_path / "words.txt").write_text("0,1\n1,0\n")
    argv = [str(tmp_path / a) if a == "words.txt" else a for a in argv]
    out_file = tmp_path / "out"
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv, "--p", str(p), "--out", str(out_file))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert f"GF({p}) would draw {p - 1} grid rings, past the bound of {MAX_RINGS}" in err
    assert not out_file.exists()
    assert peak < 256 * 1024


@pytest.mark.parametrize("argv", [
    ("render", "WORD"),
    ("render", "WORD", "--format", "tikz"),
    ("render", "WORD", "--no-grid"),
    ("panel", "words.txt"),
])
def test_word_past_the_axis_bound_refused(capsys, tmp_path, argv):
    # a word of n symbols draws n axes; past the bound the command exits 2
    # naming it, before any point is placed or any file written.  Parsing a
    # 100,000-symbol word alone peaks at about 1.9 MiB.
    def run(n, out_file):
        (tmp_path / "words.txt").write_text(f"{'1' * n}\n{'0' * n}\n")
        args = [str(tmp_path / a) if a == "words.txt" else "1" * n if a == "WORD" else a
                for a in argv]
        return run_cli(capsys, *args, "--p", "2", "--out", str(out_file))

    out_file = tmp_path / "out"
    for n, most in ((MAX_AXES + 1, 256 * 1024), (100_000, 4 * 1024 * 1024)):
        tracemalloc.start()
        try:
            code, out, err = run(n, out_file)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert f"a word of {n} symbols would draw {n} axes, past the bound of {MAX_AXES}" in err
        assert not out_file.exists()
        assert peak < most
    assert run(MAX_AXES, out_file)[0] == 0
    assert out_file.exists()


def test_panel_past_the_primitive_bound_refused(capsys, tmp_path):
    # a cell of two symbols over GF(997) counts 3*2 + 1 + 997 + 3 = 1007
    # primitives, most of them grid rings; one cell more than the bound
    # admits exits 2 naming it, before any cell is drawn or file written
    cells = MAX_PANEL_PRIMITIVES // 1007 + 1
    (tmp_path / "words.txt").write_text("0,1\n" * cells)
    out_file = tmp_path / "out.svg"
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "panel", str(tmp_path / "words.txt"),
                                 "--p", "997", "--out", str(out_file))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert (f"a panel of {cells} cells of 2 symbols over GF(997) could draw "
            f"{cells * 1007} primitives, past the bound of {MAX_PANEL_PRIMITIVES}") in err
    assert not out_file.exists()
    assert peak < 256 * 1024


def test_panel_columns_past_the_primitive_bound_refused(capsys, tmp_path):
    out_file = tmp_path / "out.svg"
    code, out, err = run_cli(capsys, "panel", "all-binary-7", "--columns", "1" + "0" * 400,
                             "--out", str(out_file))
    assert (code, out) == (2, "")
    assert f"error: columns past the bound of {MAX_PANEL_PRIMITIVES} could only be empty" in err
    assert not out_file.exists()


def test_panel_all_binary_7(capsys, tmp_path):
    out_file = tmp_path / "panel.svg"
    code, out, _ = run_cli(
        capsys, "panel", "all-binary-7", "--columns", "16",
        "--out", str(out_file),
    )
    assert (code, out) == (0, "cells=128\n")
    assert out_file.read_text().count('class="cell"') == 128
    # word i is i in binary, most significant bit first: x_0 is bit 6
    words = [parse_word(f"{i:07b}", 2) for i in range(128)]
    assert out_file.read_bytes() == panel(words, columns=16)


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
    listing.write_text("0011000\n00110\n")
    code, _, err = run_cli(
        capsys, "panel", str(listing), "--out", str(tmp_path / "x.svg")
    )
    assert code == 2
    assert "panel words must share length and modulus" in err


@pytest.mark.parametrize("bad", ["01x1010", "0121010"])
def test_panel_bad_word_names_its_line(capsys, tmp_path, bad):
    # line 5 counts the comment and the blank line before it
    listing = tmp_path / "words.txt"
    listing.write_text(f"# words\n0011000\n\n1111000\n{bad}\n0000000\n")
    out_file = tmp_path / "x.svg"
    code, out, err = run_cli(capsys, "panel", str(listing), "--out", str(out_file))
    assert (code, out) == (2, "")
    assert "line 5:" in err
    assert not out_file.exists()


def test_panel_bad_modulus_names_no_line(capsys, tmp_path):
    listing = tmp_path / "words.txt"
    listing.write_text("0011000\n")
    code, out, err = run_cli(
        capsys, "panel", str(listing), "--p", "4",
        "--out", str(tmp_path / "x.svg"),
    )
    assert (code, out) == (2, "")
    assert "modulus must be a prime int, got 4" in err
    assert "line" not in err


@pytest.mark.parametrize("p, message", [
    ("4", "modulus must be a prime int, got 4"),
    ("3", "panel needs at least one word"),
])
def test_panel_of_no_words_checks_the_modulus_first(capsys, tmp_path, p, message):
    listing = tmp_path / "empty.txt"
    listing.write_text("# no words\n\n")
    out_file = tmp_path / "x.svg"
    code, out, err = run_cli(capsys, "panel", str(listing), "--p", p, "--out", str(out_file))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not out_file.exists()


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


# sha256 of `verify` stdout: every check's PASS/FAIL line, its detail and
# the 12/13 summary, byte for byte.
VERIFY_SHA256 = "20520cfbe1e625f3417e934ce9191a33651f1ff180d8ac5f81fbba65c5d0aeee"


def test_verify_golden_stdout(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == VERIFY_SHA256


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


@pytest.mark.parametrize("argv", [("mindist", "simplex"), ("mindist", "--code", "simplex"),
                                  ("codewords", "simplex"),
                                  ("codewords", "--code", "simplex")])
def test_code_names_come_from_the_registry(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    where = "--code" if "--code" in argv else "code"
    assert f"argument {where}: invalid choice: 'simplex'" in err
    assert "'hamming', 'golay'" in err
    code, out, _ = run_cli(capsys, argv[0], "--help")
    assert code == 0
    assert "--code {hamming,golay}" in out and "built-in code: hamming, golay" in out


def test_codewords_stdout(capsys):
    code, out, _ = run_cli(capsys, "codewords", "hamming")
    assert code == 0
    words = out.splitlines()
    assert len(words) == 16
    assert words[0] == "0000000"


# sha256 of `codewords <name>` stdout: pins every codeword and the message
# order of the listing, byte for byte.
CODEWORDS_SHA256 = {
    "hamming": "6638082c978db57d6927aecdbbcae681b3950cb890d9f53b414e7c968aec7f62",
    "golay": "bfbdb0ebfa85bfb1f9153a908d7f2b9d4f0394938b7cd6b7b411d9790cadc30f",
}


@pytest.mark.parametrize("name", sorted(CODEWORDS_SHA256))
def test_codewords_golden_stdout(capsys, name):
    code, out, _ = run_cli(capsys, "codewords", name)
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == CODEWORDS_SHA256[name]


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


# One process's parser serves every call, so no parse may leak into the
# next: a success, render flags then their defaults, each kind of refusal and
# both --help forms, then the first success again.
PARSER_REUSE_SESSION = [
    ("transform", "hamming", "0011000"),
    ("render", "0110101", "--format", "tikz", "--no-grid", "--label"),
    ("render", "0110101", "--format", "tikz"),
    ("transform", "walsh", "0011000"),
    ("--help",),
    ("mindist", "--help"),
    ("mindist", "hamming", "--code", "golay"),
    ("render", "0102", "--p", "+3"),
    ("transform", "hamming", "0011000"),
]


def _reuse_session(capsys, out_file):
    results = []
    for argv in PARSER_REUSE_SESSION:
        if argv[0] == "render":
            argv += ("--out", str(out_file))
        code = main(list(argv))
        captured = capsys.readouterr()
        written = out_file.read_bytes() if out_file.exists() else None
        out_file.unlink(missing_ok=True)
        results.append((code, captured.out, captured.err, written))
    return results


def test_one_parser_serves_every_call_as_a_fresh_one_would(capsys, tmp_path,
                                                          monkeypatch):
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        lambda self, *a: parsers.append(self) or parse_args(self, *a))
    cached = _reuse_session(capsys, tmp_path / "out")
    assert len(parsers) == len(PARSER_REUSE_SESSION)
    assert all(parser is parsers[0] for parser in parsers)
    assert [r[0] for r in cached] == [0, 0, 0, 2, 0, 0, 2, 2, 0]
    assert cached[1][3] != cached[2][3]
    assert cached[-1] == cached[0]

    parsers.clear()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = _reuse_session(capsys, tmp_path / "out")
    assert len({id(parser) for parser in parsers}) == len(PARSER_REUSE_SESSION)
    assert cached == fresh


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
