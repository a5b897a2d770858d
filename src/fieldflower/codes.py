"""Linear block codes over GF(p): generators, enumeration, distance, membership.

A code is represented by a generator matrix with independent rows.  Everything
downstream (codeword enumeration, minimum distance, membership) is exact and
exhaustive; the dimensions in play are small enough that brute force is the
honest implementation, guarded by an explicit enumeration cap.

Codebook walks split the k generator rows into a high half g[:k//2] and a
low half g[k//2:] and precompute the span of each, so every codeword costs
one n-symbol addition hi + lo rather than k rows of multiply-adds, and the
extra memory is p**ceil(k/2) words.  Over GF(2), `minimum_distance` walks
the same split on int bit masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .gfield import Word, _same_field
from .modlinalg import MatrixOverGfp, matrix_from_words, rref
from .ntt import Transform, fixed_space, hamming_ntt_matrix

# Hard cap on p**k for any operation that walks the whole codebook.
ENUMERATION_LIMIT = 10**7

_HAMMING_GENERATOR_ROWS = (
    (1, 1, 0, 0, 0, 0, 1),
    (1, 1, 1, 0, 0, 1, 0),
    (1, 0, 1, 0, 1, 0, 0),
    (0, 1, 1, 1, 0, 0, 0),
)


@dataclass(frozen=True)
class LinearCode:
    """An [n, k] linear code over GF(p), given by a full-rank generator."""

    generator: MatrixOverGfp

    def __post_init__(self) -> None:
        k = self.generator.rows
        if k < 1:
            raise ValueError("generator matrix has no rows")
        if rref(self.generator).rank != k:
            raise ValueError("generator rows are linearly dependent")

    @property
    def modulus(self) -> int:
        return self.generator.modulus

    @property
    def length(self) -> int:
        return self.generator.cols

    @property
    def dimension(self) -> int:
        return self.generator.rows

    @property
    def size(self) -> int:
        return self.modulus ** self.dimension


def hamming_generator() -> MatrixOverGfp:
    """Generator of the binary Hamming(7,4) code, in its reference row order."""
    return MatrixOverGfp(2, _HAMMING_GENERATOR_ROWS)


def hamming_code() -> LinearCode:
    return LinearCode(hamming_generator())


def code_from_fixed_space(transform: Transform | MatrixOverGfp) -> LinearCode:
    """The code whose codewords are exactly the fixed points of the transform."""
    space = fixed_space(transform)
    if space.dimension == 0:
        raise ValueError("transform has no fixed points besides zero; no code")
    return LinearCode(matrix_from_words(space.basis))


def builtin_code(name: str) -> LinearCode:
    """Look up a named built-in code: 'hamming' or 'golay'."""
    if name == "hamming":
        return hamming_code()
    if name == "golay":
        from .ntt import GOLAY
        return code_from_fixed_space(GOLAY)
    raise ValueError(f"unknown code {name!r}, expected 'hamming' or 'golay'")


def _check_enumerable(code: LinearCode) -> None:
    if code.size > ENUMERATION_LIMIT:
        raise ValueError(
            f"code has {code.modulus}^{code.dimension} codewords, "
            f"refusing to enumerate past {ENUMERATION_LIMIT}"
        )


def _span(p: int, n: int, rows: tuple[tuple[int, ...], ...]) -> list[tuple[int, ...]]:
    """Every sum c_0*r_0 + c_1*r_1 + ... over GF(p), for c in lexicographic
    order with the first row as the most significant digit."""
    span = [(0,) * n]
    for row in rows:
        multiples = [tuple([c * x % p for x in row]) for c in range(p)]
        span = [tuple([(x + y) % p for x, y in zip(v, m)])
                for v in span for m in multiples]
    return span


def _half_spans(code: LinearCode) -> tuple[list, list]:
    """Spans of the high generator rows g[:k//2] and of the low rows g[k//2:].

    Codeword u*G is hi + lo, with hi fixed by the high digits of u and lo by
    the low ones, so a walk with hi outer and lo inner visits u in
    lexicographic order.  Each span holds at most p**ceil(k/2) words.
    """
    _check_enumerable(code)
    g = code.generator.entries
    h = len(g) // 2
    return (_span(code.modulus, code.length, g[:h]),
            _span(code.modulus, code.length, g[h:]))


def _codewords(code: LinearCode) -> Iterator[tuple[int, ...]]:
    """Yield the symbols of each codeword, in `enumerate_codewords` order."""
    p = code.modulus
    high, low = _half_spans(code)
    for hi in high:
        for lo in low:
            yield tuple([(x + y) % p for x, y in zip(hi, lo)])


def enumerate_codewords(code: LinearCode) -> list[Word]:
    """All p**k codewords u*G, ordered by the message word u lexicographically."""
    p = code.modulus
    return [Word(p, t) for t in _codewords(code)]


def minimum_distance(code: LinearCode) -> int:
    """Minimum Hamming distance, by exhaustive weight enumeration.

    For a linear code the minimum distance equals the minimum weight over
    nonzero codewords, so one streamed pass over the codebook suffices.  Each
    codeword is the sum of one word from the span of the high half of the
    generator rows and one from the span of the low half; over GF(2) the
    words are int bit masks, summed by XOR and weighed by `int.bit_count`.
    """
    n = code.length
    if code.modulus == 2:
        high, low = ([int("".join(map(str, t)), 2) for t in span]
                     for span in _half_spans(code))
        weights = ((hi ^ lo).bit_count() for hi in high for lo in low)
    else:
        weights = (n - t.count(0) for t in _codewords(code))
    return min(filter(None, weights), default=n + 1)


def is_codeword(code: LinearCode, word: Word) -> bool:
    """Membership test: does the word lie in the row space of the generator?"""
    _same_field(word, code)
    if len(word) != code.length:
        raise ValueError(f"word has length {len(word)}, code has length {code.length}")
    stacked = MatrixOverGfp(
        code.modulus, code.generator.entries + (word.symbols,)
    )
    return rref(stacked).rank == code.dimension
