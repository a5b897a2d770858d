"""Linear block codes over GF(p): generators, enumeration, distance, membership.

A code is represented by a generator matrix with independent rows.  Everything
downstream (codeword enumeration, minimum distance, membership) is exact and
exhaustive; the dimensions in play are small enough that brute force is the
honest implementation, guarded by an explicit enumeration cap.

Codebook walks split the k generator rows into a high half g[:k//2] and a
low half g[k//2:]: each codeword is hi + lo, one word from the span of each
half, at an extra memory of about p**ceil(k/2) words.  Words are packed into
ints, symbol j in lane j of W bits (native byte order of the `array` format),
with W the narrowest of 8, 16 and 32 such that p <= 2**(W-1).  Lanes of hi + lo
lie in 0..2p-2; adding 2**(W-1) - p to each sets its top bit exactly when it
is p or more, without a carry into the next lane, so subtracting p where the
top bit is set reduces it.  A bias of 2**(W-1) - 1 instead marks each nonzero
lane, so the weight of a reduced word is a popcount.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from itertools import islice
from struct import calcsize
from typing import Iterator

from .gfield import Word, _reduced_word, _require_prime, _same_field
from .modlinalg import MatrixOverGfp, matrix_from_words, rref
from .ntt import GOLAY, Transform, fixed_space

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
        if rref(self.generator).rank != self.generator.rows:
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
        return code_from_fixed_space(GOLAY)
    raise ValueError(f"unknown code {name!r}, expected 'hamming' or 'golay'")


def _check_enumerable(code: LinearCode) -> None:
    if code.size > ENUMERATION_LIMIT:
        raise ValueError(
            f"code has {code.modulus}^{code.dimension} codewords, "
            f"refusing to enumerate past {ENUMERATION_LIMIT}"
        )


def _lanes(p: int, n: int) -> tuple[str, int, int, int]:
    """Layout of n symbols of GF(p) as one int: the lane format, its width W,
    ONE (1 in every lane) and TOP (the top bit of every lane)."""
    fmt = next(f for f in "BHI" if p <= 1 << 8 * calcsize(f) - 1)
    w = 8 * calcsize(fmt)
    one = ((1 << w * n) - 1) // ((1 << w) - 1)
    return fmt, w, one, one << w - 1


def _span(p: int, rows: tuple[tuple[int, ...], ...]) -> Iterator[int]:
    """Yield every sum c_0*r_0 + c_1*r_1 + ... over GF(p), packed, for c in
    lexicographic order with the first row most significant: hi + lo, with hi
    over the span of rows[:h] outside and lo over that of rows[h:] inside."""
    fmt, w, one, top = _lanes(p, len(rows[0]))
    if len(rows) == 1:
        for c in range(p):
            multiple = array(fmt, [c * x % p for x in rows[0]])
            yield int.from_bytes(multiple, sys.byteorder)
        return
    h = len(rows) // 2
    low = list(_span(p, rows[h:]))
    bias = ((1 << w - 1) - p) * one
    for hi in _span(p, rows[:h]):
        for lo in low:
            s = hi + lo
            yield s - p * (((s + bias) & top) >> w - 1)


def enumerate_codewords(code: LinearCode) -> list[Word]:
    """All p**k codewords u*G, ordered by the message word u lexicographically;
    the modulus is checked once and each packed word by one lane test."""
    _check_enumerable(code)
    p, n = code.modulus, code.length
    _require_prime(p)
    fmt, w, one, top = _lanes(p, n)
    size = n * w // 8
    bias = ((1 << w - 1) - p) * one
    span, words = _span(p, code.generator.entries), []
    # Unpacked 4096 words at a time: one buffer for all would raise the peak.
    while chunk := list(islice(span, 4096)):
        packed = bytearray()
        for s in chunk:
            if (s | s + bias) & top:  # a lane with its top bit set or biased to it
                k = len(words) + len(packed) // size
                raise ValueError(f"codeword {k} has a symbol >= {p}")
            packed += s.to_bytes(size, sys.byteorder)
        symbols = iter(memoryview(packed).cast(fmt))
        words += [_reduced_word(p, t) for t in zip(*[symbols] * n)]
    return words


def minimum_distance(code: LinearCode) -> int:
    """Minimum Hamming distance, by exhaustive weight enumeration.

    For a linear code the minimum distance equals the minimum weight over
    nonzero codewords (the full-rank generator's rows are some), so one
    streamed pass over the codebook suffices.
    """
    _check_enumerable(code)
    _, _, one, top = _lanes(code.modulus, code.length)
    nonzero = top - one
    weights = (((s + nonzero) & top).bit_count()
               for s in _span(code.modulus, code.generator.entries))
    return min(filter(None, weights))


def is_codeword(code: LinearCode, word: Word) -> bool:
    """Membership test: does the word lie in the row space of the generator?"""
    _same_field(word, code)
    if len(word) != code.length:
        raise ValueError(f"word has length {len(word)}, code has length {code.length}")
    stacked = MatrixOverGfp(
        code.modulus, code.generator.entries + (word.symbols,)
    )
    return rref(stacked).rank == code.dimension
