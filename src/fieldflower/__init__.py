"""Finite-field transforms, linear block codes, and flower renderings.

The package bundles two fixed number-theoretic transforms (a 7-point binary
one and a 12-point ternary one whose matrix needs no multiplications), the
linear-algebra and coding machinery around them, and a deterministic renderer
that draws any GF(p) word as a flower of petals and thorns.

``import fieldflower`` loads none of the modules: a public name's module is
imported on the first use of that name (PEP 562), so a caller pays only for
the modules it reaches.
"""

__version__ = "0.1.0"

# Each public name and the module it lives in, in ``__all__`` order.
_HOME = {
    "BUILTIN_TRANSFORMS": "ntt",
    "CheckResult": "verify",
    "ConstellationPoint": "flowergeom",
    "ENUMERATION_LIMIT": "codes",
    "EigenSpace": "ntt",
    "FieldElement": "gfield",
    "FlowerShape": "flowergeom",
    "GOLAY": "ntt",
    "HAMMING": "ntt",
    "LinearCode": "codes",
    "MatrixOverGfp": "modlinalg",
    "RenderSpec": "render",
    "RrefResult": "modlinalg",
    "Transform": "ntt",
    "Word": "gfield",
    "apply": "ntt",
    "apply_addition_only": "ntt",
    "builtin_code": "codes",
    "code_from_fixed_space": "codes",
    "constellation": "flowergeom",
    "eigen_spectrum": "ntt",
    "enumerate_codewords": "codes",
    "features": "flowergeom",
    "fixed_space": "ntt",
    "format_matrix": "modlinalg",
    "format_report": "verify",
    "format_word": "gfield",
    "format_word_list": "gfield",
    "golay_ntt_matrix": "ntt",
    "golay_ntt_signed_rows": "ntt",
    "hamming_code": "codes",
    "hamming_generator": "codes",
    "hamming_ntt_matrix": "ntt",
    "identity": "modlinalg",
    "is_codeword": "codes",
    "is_prime": "gfield",
    "mat_vec": "modlinalg",
    "matrix_from_words": "modlinalg",
    "minimum_distance": "codes",
    "null_space": "modlinalg",
    "panel": "render",
    "parse_matrix": "modlinalg",
    "parse_word": "gfield",
    "parse_word_list": "gfield",
    "petal_shades": "flowergeom",
    "render_grid": "render",
    "rref": "modlinalg",
    "run_checks": "verify",
    "same_row_space": "modlinalg",
    "to_svg": "render",
    "to_tikz": "render",
}

__all__ = list(_HOME)


def __getattr__(name):
    """Import ``name``'s module and keep the value, so the next lookup of
    ``name`` is a plain global and never comes back here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows in -X importtime
    module = __import__(f"{__name__}.{_HOME[name]}", fromlist=[name])
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
