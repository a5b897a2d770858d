"""The README's examples hold: every command line marked `# -> expected`
prints that line through `cli.main`, and the Library block runs."""

import re
import shlex
from pathlib import Path

import pytest

from fieldflower.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)
COMMANDS = [
    (shlex.split(m[1]), m[2])
    for lang, body in BLOCKS if lang == "text"
    for m in re.finditer(r"^fieldflower (.*?)\s*# -> (.*)$", body, re.MULTILINE)
]


def test_readme_has_its_examples():
    assert [" ".join(argv) for argv, _ in COMMANDS] == [
        "transform golay 102010022101",
        "transform hamming 0011000",
        "mindist --code hamming",
        "render 1011101 --p 2 --out f.svg",
    ]


@pytest.mark.parametrize("argv,expected", COMMANDS, ids=[" ".join(a) for a, _ in COMMANDS])
def test_readme_command(argv, expected, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected + "\n"


def test_readme_library_block(capsys):
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert capsys.readouterr().out == "5\n"  # the d of the golay code
    assert namespace["space"].dimension == 6
    assert namespace["svg_bytes"].startswith(b"<svg")
