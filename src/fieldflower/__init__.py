"""Finite-field transforms, linear block codes, and flower renderings.

The package bundles two fixed number-theoretic transforms (a 7-point binary
one and a 12-point ternary one whose matrix needs no multiplications), the
linear-algebra and coding machinery around them, and a deterministic renderer
that draws any GF(p) word as a flower of petals and thorns.
"""

from .codes import (
    ENUMERATION_LIMIT,
    LinearCode,
    builtin_code,
    code_from_fixed_space,
    enumerate_codewords,
    hamming_code,
    hamming_generator,
    is_codeword,
    minimum_distance,
)
from .flowergeom import (
    ConstellationPoint,
    FlowerShape,
    constellation,
    features,
    petal_shades,
)
from .gfield import (
    FieldElement,
    Word,
    format_word,
    format_word_list,
    is_prime,
    parse_word,
    parse_word_list,
)
from .modlinalg import (
    MatrixOverGfp,
    RrefResult,
    format_matrix,
    identity,
    mat_vec,
    matrix_from_words,
    null_space,
    parse_matrix,
    rref,
    same_row_space,
)
from .ntt import (
    BUILTIN_TRANSFORMS,
    GOLAY,
    HAMMING,
    EigenSpace,
    Transform,
    apply,
    apply_addition_only,
    eigen_spectrum,
    fixed_space,
    golay_ntt_matrix,
    golay_ntt_signed_rows,
    hamming_ntt_matrix,
)
from .render import RenderSpec, panel, render_grid, to_svg, to_tikz
from .verify import CheckResult, format_report, run_checks

__version__ = "0.1.0"

__all__ = [
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
