"""Built-in verification suite: every reference claim, checkable at runtime.

Each check pins one reference fact about the built-in transforms and codes:
the matrix constants themselves (by checksum), worked transform pairs, known
invariant words, the eigenspace/generator identity, code parameters, the
transform/code isomorphism, the addition-only evaluation path, flower feature
counts, and rendering determinism.  The matrices are injectable so tests can
corrupt one and watch the right checks go red.

The transform/code isomorphism and the addition-only check decide on
`modlinalg._Batch`es, one packed product per batch and one comparison,
rather than word by word.  Only a batch that differs is walked in order with
the per-word functions (`mat_vec`, `apply_addition_only`), codewords before
the seeded random words, and the first word that fails is named; over a
field or shape the per-word functions refuse they raise the same error.
The seeded random words are drawn straight into the batch's packed rows.

The nominal minimum distance of the 12-point transform's fixed-space code is
6; the actual distance of the code generated by the built-in matrix is 5
(weight-5 fixed words exist, e.g. 000101200202).  The golay-code-parameters
check asserts the nominal value and therefore fails on a fresh build.  That
is deliberate: the check records the claim, not the behavior.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import chain

from .codes import LinearCode, code_from_fixed_space, enumerate_codewords, \
    hamming_code, hamming_generator, minimum_distance
from .flowergeom import features
from .gfield import Word, _all_binary_7, format_word, parse_word
from .modlinalg import MatrixOverGfp, _Batch, _mat_batch, format_matrix, \
    mat_vec, matrix_from_words, same_row_space
from .ntt import _addition_only_batch, apply_addition_only, fixed_space, \
    golay_ntt_matrix, hamming_ntt_matrix
from .render import RenderSpec, panel, to_svg

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

_RNG_SEED = 12345
_TOP_TWO_BITS = bytes(b >> 6 for b in range(256))
_DRAWN_AGAIN = bytes(range(0xC0, 0x100))  # the bytes whose top two bits are 3


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


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


def _check_invariants(m: MatrixOverGfp, words, p: int) -> tuple[bool, str]:
    for src in words:
        w = parse_word(src, p)
        if mat_vec(m, w) != w:
            return False, f"{src} is not a fixed point"
    return True, f"{len(words)} invariant words hold"


def _check_eigen_generator(th: MatrixOverGfp) -> tuple[bool, str]:
    space = fixed_space(th)
    if space.dimension != 4:
        return False, f"fixed space has dimension {space.dimension}, expected 4"
    g = hamming_generator()
    if not same_row_space(matrix_from_words(space.basis), g):
        return False, "fixed space differs from the generator row space"
    for row in g.entries:
        w = Word(2, row)
        if mat_vec(th, w) != w:
            return False, f"generator row {row} is not a fixed point"
    return True, "dim 4, row space matches generator, all 4 rows fixed"


def _check_code_parameters(code: LinearCode,
                           expected: tuple[int, int, int]) -> tuple[bool, str]:
    got = (code.length, code.dimension, minimum_distance(code))
    label = "n={} k={} d={}".format(*got)
    if got == expected:
        return True, label
    want = "n={} k={} d={}".format(*expected)
    return False, f"{label}, expected {want}"


def _codewords(code: LinearCode) -> tuple[list[Word], _Batch]:
    """The code's listing and the same words as one batch."""
    words = enumerate_codewords(code)
    return words, _Batch.of(code.modulus, (w.symbols for w in words))


def _check_isomorphism(th: MatrixOverGfp, tg: MatrixOverGfp) -> tuple[bool, str]:
    total = 0
    for m, code in ((th, hamming_code()), (tg, code_from_fixed_space(tg))):
        words, batch = _codewords(code)
        if _mat_batch(m, batch) != batch:
            w = next(w for w in words if mat_vec(m, w) != w)
            return False, f"codeword {format_word(w)} is not fixed"
        total += batch.size
    return True, f"all {total} codewords are fixed points"


def _random_rows() -> tuple[bytes, ...]:
    """The 10,000 seeded ternary 12-symbol words the addition-only check
    runs after the codewords, packed: row j holds symbol j of every word.

    They are the draws of rng.randrange(3), which takes getrandbits(2) and
    draws again on 3.  getrandbits(2) is the top two bits of one 32-bit
    output, and getrandbits(32 * m) is m outputs, the first least
    significant; so byte 3 of each little-endian 4-byte group, shifted
    right by 6, is one draw, and a byte whose top two bits are 3 is drawn
    again.
    """
    rng = random.Random(_RNG_SEED)
    need = 12 * 10000
    stream = b""
    while len(stream) < need:
        m = need - len(stream)
        draws = rng.getrandbits(32 * m).to_bytes(4 * m, "little")[3::4]
        stream += draws.translate(_TOP_TWO_BITS, _DRAWN_AGAIN)
    return tuple(stream[j:need:12] for j in range(12))


def _check_addition_only(tg: MatrixOverGfp) -> tuple[bool, str]:
    words, batch = _codewords(code_from_fixed_space(tg))
    randoms = _Batch(3, _random_rows())
    # codewords first: over a field other than GF(3) they raise as
    # apply_addition_only would on the first of them
    for b in (batch, randoms):
        if _addition_only_batch(b) != _mat_batch(tg, b):
            drawn = (Word(3, v) for v in zip(*randoms.rows))
            w = next(w for w in chain(words, drawn)
                     if apply_addition_only(w) != mat_vec(tg, w))
            return False, f"paths disagree on {format_word(w)}"
    return True, f"paths agree on {batch.size} codewords + {randoms.size} random words"


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
    if to_svg(shape, spec) != to_svg(shape, spec):
        return False, "repeated to_svg runs differ"
    words = _all_binary_7()[:8]
    serial = panel(words, columns=4, spec=spec, workers=1)
    parallel = panel(words, columns=4, spec=spec, workers=4)
    if serial != parallel:
        return False, "serial and parallel panel bytes differ"
    return True, "repeat and parallel renders byte-identical"


def run_checks(hamming_matrix: MatrixOverGfp | None = None,
               golay_matrix: MatrixOverGfp | None = None) -> list[CheckResult]:
    """Run the full suite and return one result per named check.

    Pass replacement matrices to exercise failure paths; by default the
    built-in transforms are checked.
    """
    th = hamming_matrix if hamming_matrix is not None else hamming_ntt_matrix()
    tg = golay_matrix if golay_matrix is not None else golay_ntt_matrix()
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
         lambda: _check_code_parameters(code_from_fixed_space(tg), (12, 6, 6))),
        ("transform-code-isomorphism",
         lambda: _check_isomorphism(th, tg)),
        ("golay-addition-only",
         lambda: _check_addition_only(tg)),
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
