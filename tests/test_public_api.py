"""The names the package exports, and the oldest Python it runs on, pinned."""

import ast
from pathlib import Path

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
        assert getattr(fieldflower, name, None) is not None, name


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
