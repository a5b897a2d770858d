"""Linear block codes over GF(p): generators, enumeration, distance, membership.

A code is represented by a generator matrix with independent rows.  Everything
downstream (codeword enumeration, minimum distance, membership) is exact and
exhaustive; the dimensions in play are small enough that brute force is the
honest implementation, guarded by an explicit enumeration cap.
"""

from __future__ import annotations

import itertools
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


def _codewords(code: LinearCode) -> Iterator[Word]:
    """Yield the codewords of `enumerate_codewords` one at a time, in its order."""
    _check_enumerable(code)
    p = code.modulus
    g = code.generator.entries
    n = code.length
    for u in itertools.product(range(p), repeat=code.dimension):
        acc = [0] * n
        for coeff, row in zip(u, g):
            if coeff == 0:
                continue
            for j in range(n):
                acc[j] = (acc[j] + coeff * row[j]) % p
        yield Word(p, tuple(acc))


def enumerate_codewords(code: LinearCode) -> list[Word]:
    """All p**k codewords u*G, ordered by the message word u lexicographically."""
    return list(_codewords(code))


def minimum_distance(code: LinearCode) -> int:
    """Minimum Hamming distance, by exhaustive weight enumeration.

    For a linear code the minimum distance equals the minimum weight over
    nonzero codewords, so one streamed pass over the codebook suffices.
    """
    weights = (w.weight() for w in _codewords(code))
    return min((wt for wt in weights if wt), default=code.length + 1)


def is_codeword(code: LinearCode, word: Word) -> bool:
    """Membership test: does the word lie in the row space of the generator?"""
    _same_field(word, code)
    if len(word) != code.length:
        raise ValueError(f"word has length {len(word)}, code has length {code.length}")
    stacked = MatrixOverGfp(
        code.modulus, code.generator.entries + (word.symbols,)
    )
    return rref(stacked).rank == code.dimension
