"""Built-in verification suite: every reference claim, checkable at runtime.

Each check pins one reference fact about the built-in transforms and codes:
the matrix constants themselves (by checksum), worked transform pairs, known
invariant words, the eigenspace/generator identity, code parameters, the
transform/code isomorphism, the addition-only evaluation path, flower feature
counts, and rendering determinism.  The matrices are injectable so tests can
corrupt one and watch the right checks go red.  A run builds each matrix's
fixed-space code once.  The isomorphism and addition-only checks take the
built-in codes, the Hamming generator's and the fixed space of the built-in
GOLAY (which its checksum pins), never the fixed space of a matrix under
test: a matrix that moves one of their codewords fails the isomorphism check.

Two linear maps agree on a code exactly when they agree on its generator
rows.  `enumerate_codewords` lists messages in order, first row most
significant, so the first codeword on which they differ is the zero word if
their images differ in length, else the last row they differ on: every
message listed before that row's unit message combines only later rows.
Both checks walk `_first_words`, the zero word and then the rows last first,
and list no code.  The addition-only check compares `apply_addition_only`
with `mat_vec(tg, .)`; the 729 golay codewords and the 10,000 seeded words
its detail names span GF(3)^12, so the two agree on them exactly when tg is
`golay_ntt_signed_rows()` mod 3, and only when those 144 entries differ does
it walk `_first_words`.  It always runs `apply_addition_only`, whose table of
signed columns the entries never reach, on the 24 words v * e_j (v = 1, 2).

The nominal minimum distance of the 12-point transform's fixed-space code is
6; the actual distance of the code generated by the built-in matrix is 5
(weight-5 fixed words exist, e.g. 000101200202).  The golay-code-parameters
check asserts the nominal value and therefore fails on a fresh build.  That
is deliberate: the check records the claim, not the behavior.
"""

from __future__ import annotations

import hashlib
from functools import cache
from itertools import chain

from .codes import LinearCode, code_from_fixed_space, hamming_code, hamming_generator, \
    minimum_distance
from .flowergeom import features
from .gfield import Word, _Frozen, _all_binary_7, format_word, parse_word
from .modlinalg import MatrixOverGfp, format_matrix, mat_vec, matrix_from_words, \
    same_row_space
from .ntt import apply_addition_only, fixed_space, golay_ntt_matrix, \
    golay_ntt_signed_rows, hamming_ntt_matrix
from .render import RenderSpec, _drawer, _flower_svg, _panel, panel, to_svg

HAMMING_MATRIX_SHA256 = \
    "d5088ccc0fa0a6500f6e162a78f6dd5d3fc8d8740ed081e438078389ffb9e578"
GOLAY_MATRIX_SHA256 = \
    "6cee364bdfb20b78190ecabeceed80349ba7e63d71ecd1733a3287006d677457"

_HAMMING_PAIRS = (("0011000", "1111000"), ("0000000", "0000000"))
_HAMMING_INVARIANTS = ("1100001",)
_GOLAY_PAIRS = (
    ("102010022101", "101021012210"),
    ("000000111221", "111221001210"),
    ("201100010110", "021220022122"),
)
_GOLAY_INVARIANTS = ("100000011111", "010000101221", "001000110122")

_RANDOM_WORDS = 10000


class CheckResult(_Frozen):
    """One named check: whether it passed, and the line that says why."""

    def __init__(self, name: str, passed: bool, detail: str) -> None:
        set_field = object.__setattr__
        set_field(self, "name", name)
        set_field(self, "passed", passed)
        set_field(self, "detail", detail)


def _check_checksum(m: MatrixOverGfp, expected: str) -> tuple[bool, str]:
    got = hashlib.sha256(format_matrix(m).encode("ascii")).hexdigest()
    if got == expected:
        return True, f"sha256 {got[:12]}.."
    return False, f"sha256 {got[:12]}.. != expected {expected[:12]}.."


def _check_pairs(m: MatrixOverGfp, pairs, p: int) -> tuple[bool, str]:
    for src, dst in pairs:
        got = mat_vec(m, parse_word(src, p))
        if got != parse_word(dst, p):
            return False, f"T({src}) = {format_word(got)}, expected {dst}"
    return True, f"{len(pairs)} transform pairs hold"


def _moved(m: MatrixOverGfp, words):
    """The first of the words that m does not fix, or None."""
    return next((w for w in words if mat_vec(m, w) != w), None)


def _check_invariants(m: MatrixOverGfp, words, p: int) -> tuple[bool, str]:
    w = _moved(m, (parse_word(src, p) for src in words))
    if w is not None:
        return False, f"{format_word(w)} is not a fixed point"
    return True, f"{len(words)} invariant words hold"


def _check_eigen_generator(th: MatrixOverGfp) -> tuple[bool, str]:
    space = fixed_space(th)
    if space.dimension != 4:
        return False, f"fixed space has dimension {space.dimension}, expected 4"
    g = hamming_generator()
    if not same_row_space(matrix_from_words(space.basis), g):
        return False, "fixed space differs from the generator row space"
    w = _moved(th, (Word(2, row) for row in g.entries))
    if w is not None:
        return False, f"generator row {w.symbols} is not a fixed point"
    return True, "dim 4, row space matches generator, all 4 rows fixed"


def _check_code_parameters(code: LinearCode,
                           expected: tuple[int, int, int]) -> tuple[bool, str]:
    got = (code.length, code.dimension, minimum_distance(code))
    label = "n={} k={} d={}".format(*got)
    if got == expected:
        return True, label
    want = "n={} k={} d={}".format(*expected)
    return False, f"{label}, expected {want}"


def _first_words(code: LinearCode):
    """The zero word, then the generator rows, last first: the first of these
    on which two linear maps differ is the first listed codeword they do."""
    yield Word(code.modulus, (0,) * code.length)
    for row in reversed(code.generator.entries):
        yield Word(code.modulus, row)


def _check_isomorphism(th: MatrixOverGfp, tg: MatrixOverGfp,
                       golay: LinearCode) -> tuple[bool, str]:
    hamming = hamming_code()
    for m, code in ((th, hamming), (tg, golay)):
        w = _moved(m, _first_words(code))
        if w is not None:
            return False, f"codeword {format_word(w)} is not fixed"
    return True, f"all {hamming.size + golay.size} codewords are fixed points"


def _check_addition_only(tg: MatrixOverGfp, golay: LinearCode) -> tuple[bool, str]:
    # both paths are linear, so they agree on words spanning GF(3)^12
    # exactly when tg is the signed matrix mod 3
    agree = tg.modulus == 3 and tg.entries == tuple(
        tuple(e % 3 for e in row) for row in golay_ntt_signed_rows())
    walked = () if agree else _first_words(golay)
    # the entries never reach apply_addition_only's column table; the words
    # v * e_j read each of its nonzero entries once
    units = (Word(3, (0,) * j + (v,) + (0,) * (11 - j)) for j in range(12) for v in (1, 2))
    w = next((w for w in chain(walked, units)
              if apply_addition_only(w) != mat_vec(tg, w)), None)
    if w is not None:
        return False, f"paths disagree on {format_word(w)}"
    return True, f"paths agree on {golay.size} codewords + {_RANDOM_WORDS} random words"


def _check_flower_features() -> tuple[bool, str]:
    for i, word in enumerate(_all_binary_7()):
        bits = word.symbols
        shape = features(word)
        petals = sum(1 for k in range(7) if bits[k] and bits[(k + 1) % 7])
        thorns = sum(1 for k in range(7)
                     if bits[k] and not bits[(k - 1) % 7] and not bits[(k + 1) % 7])
        if len(shape.petals) != petals or len(shape.thorns) != thorns:
            return False, f"counts wrong for word index {i}"
    for text, np_, nt in (("0000101", 0, 2), ("1010110", 1, 2)):
        shape = features(parse_word(text, 2))
        if (len(shape.petals), len(shape.thorns)) != (np_, nt):
            return False, (f"{text}: got {len(shape.petals)} petals "
                           f"{len(shape.thorns)} thorns, expected {np_}/{nt}")
    return True, "128-word sweep + figure words hold"


def _check_render_determinism() -> tuple[bool, str]:
    spec = RenderSpec()
    shape = features(parse_word("1010110", 2))
    # Drawers outlive a call, so to_svg may meet one set up before this
    # check; an uncached set-up draws the same word beside it.
    fresh = _flower_svg(shape, spec, _drawer.__wrapped__)
    if not fresh == to_svg(shape, spec) == to_svg(shape, spec):
        return False, "repeated to_svg runs differ"
    # workers is ignored, so the panels are serial: the fresh one checks
    # the tables the cached drawer has filled so far
    words = _all_binary_7()[:8]
    fresh = _panel(words, 4, spec, _drawer.__wrapped__)
    if not fresh == panel(words, 4, spec, workers=1) == panel(words, 4, spec, workers=4):
        return False, "repeated panel runs differ"
    return True, "repeat and parallel renders byte-identical"


def run_checks(hamming_matrix: MatrixOverGfp | None = None,
               golay_matrix: MatrixOverGfp | None = None) -> list[CheckResult]:
    """Run the full suite and return one result per named check.

    Pass replacement matrices to exercise failure paths; by default the
    built-in transforms are checked.
    """
    th = hamming_matrix if hamming_matrix is not None else hamming_ntt_matrix()
    tg = golay_matrix if golay_matrix is not None else golay_ntt_matrix()
    # One fixed-space code per matrix value: with the built-in tg, the
    # parameter, isomorphism and addition-only checks share one golay code.
    fixed_code = cache(code_from_fixed_space)
    checks = [
        ("hamming-matrix-checksum",
         lambda: _check_checksum(th, HAMMING_MATRIX_SHA256)),
        ("golay-matrix-checksum",
         lambda: _check_checksum(tg, GOLAY_MATRIX_SHA256)),
        ("hamming-transform-pair",
         lambda: _check_pairs(th, _HAMMING_PAIRS, 2)),
        ("hamming-invariant",
         lambda: _check_invariants(th, _HAMMING_INVARIANTS, 2)),
        ("golay-transform-pairs",
         lambda: _check_pairs(tg, _GOLAY_PAIRS, 3)),
        ("golay-invariants",
         lambda: _check_invariants(tg, _GOLAY_INVARIANTS, 3)),
        ("hamming-eigenspace-generator",
         lambda: _check_eigen_generator(th)),
        ("hamming-code-parameters",
         lambda: _check_code_parameters(hamming_code(), (7, 4, 3))),
        ("golay-code-parameters",
         lambda: _check_code_parameters(fixed_code(tg), (12, 6, 6))),
        ("transform-code-isomorphism",
         lambda: _check_isomorphism(th, tg, fixed_code(golay_ntt_matrix()))),
        ("golay-addition-only",
         lambda: _check_addition_only(tg, fixed_code(golay_ntt_matrix()))),
        ("flower-features", _check_flower_features),
        ("render-determinism", _check_render_determinism),
    ]
    results = []
    for name, fn in checks:
        # A crashing check must surface as a failure line, not kill the run.
        try:
            passed, detail = fn()
        except Exception as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, detail))
    return results


def format_report(results: list[CheckResult]) -> str:
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}"
        for r in results
    ]
    passed = sum(1 for r in results if r.passed)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
