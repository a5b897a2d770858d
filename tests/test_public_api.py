"""The names the package exports, the modules each one loads, and the oldest
Python the package runs on, pinned."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fieldflower

SRC = Path(fieldflower.__file__).resolve().parent

PUBLIC_API = [
    "BUILTIN_TRANSFORMS",
    "CheckResult",
    "ConstellationPoint",
    "ENUMERATION_LIMIT",
    "EigenSpace",
    "FieldElement",
    "FlowerShape",
    "GOLAY",
    "HAMMING",
    "LinearCode",
    "MatrixOverGfp",
    "RenderSpec",
    "RrefResult",
    "Transform",
    "Word",
    "apply",
    "apply_addition_only",
    "builtin_code",
    "code_from_fixed_space",
    "constellation",
    "eigen_spectrum",
    "enumerate_codewords",
    "features",
    "fixed_space",
    "format_matrix",
    "format_report",
    "format_word",
    "format_word_list",
    "golay_ntt_matrix",
    "golay_ntt_signed_rows",
    "hamming_code",
    "hamming_generator",
    "hamming_ntt_matrix",
    "identity",
    "is_codeword",
    "is_prime",
    "mat_vec",
    "matrix_from_words",
    "minimum_distance",
    "null_space",
    "panel",
    "parse_matrix",
    "parse_word",
    "parse_word_list",
    "petal_shades",
    "render_grid",
    "rref",
    "run_checks",
    "same_row_space",
    "to_svg",
    "to_tikz",
]


def test_public_api_is_the_recorded_list():
    assert fieldflower.__all__ == PUBLIC_API
    assert len(set(fieldflower.__all__)) == len(fieldflower.__all__)
    for name in fieldflower.__all__:
        value = getattr(fieldflower, name, None)
        assert value is not None, name
        home = importlib.import_module(f"fieldflower.{fieldflower._HOME[name]}")
        assert value is getattr(home, name), name
        assert getattr(value, "__module__", home.__name__) == home.__name__, name
        # kept as a global, so the module __getattr__ runs once per name
        assert vars(fieldflower)[name] is value, name
    star = {}
    exec("from fieldflower import *", star)
    assert sorted(star.keys() - {"__builtins__"}) == sorted(PUBLIC_API)
    assert set(PUBLIC_API) <= set(dir(fieldflower))
    with pytest.raises(AttributeError) as info:
        fieldflower.nope
    assert str(info.value) == "module 'fieldflower' has no attribute 'nope'"
    assert getattr(fieldflower, "nope", None) is None


# The fieldflower modules loaded by importing the package and touching one
# name (None: touching none), and nothing more.
LOADS = [
    (None, []),
    ("RenderSpec", ["flowergeom", "gfield", "render"]),
    ("minimum_distance", ["codes", "gfield", "modlinalg", "ntt"]),
    ("run_checks",
     ["codes", "flowergeom", "gfield", "modlinalg", "ntt", "render", "verify"]),
    ("rref", ["gfield", "modlinalg"]),
]


@pytest.mark.parametrize("name, modules", LOADS)
def test_a_name_loads_only_the_modules_it_reaches(name, modules):
    # A fresh interpreter, since this one has imported every module by now.
    code = ("import sys, fieldflower\n"
            + (f"assert {name!r} not in vars(fieldflower)\nfieldflower.{name}\n" if name else "")
            + "print(sorted(m.split('.', 1)[1] for m in sys.modules"
              " if m.startswith('fieldflower.')))")
    path = os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert ast.literal_eval(proc.stdout) == modules


def test_int_byte_conversions_name_their_byte_order():
    # the package declares Python 3.10, where int.to_bytes and int.from_bytes
    # still require the byteorder argument
    calls = [(path.name, node.lineno)
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", None) in ("to_bytes", "from_bytes")
             and len(node.args) < 2
             and "byteorder" not in {k.arg for k in node.keywords}]
    assert calls == []
