"""Linear block codes over GF(p): generators, enumeration, distance, membership.

A code is represented by a generator matrix with independent rows.  Everything
downstream is exact.  Codeword enumeration and minimum distance are
exhaustive; the dimensions in play are small enough that brute force is the
honest implementation, guarded by an explicit enumeration cap.  Membership is
a syndrome test: a word w lies in the code exactly when H*w = 0, with H the
canonical null space of the generator (MacWilliams & Sloane, ch. 1), built at
the code's first membership test and kept on it.

Codebook walks split the k generator rows into an outer part g[:k//2] and an
inner part g[k//2:]: each codeword is hi + lo, one word from the span of each,
in message order.  A word of n symbols is packed into an int, symbol j in lane
j of W bits, with W the narrowest of 8, 16 and 32 such that p <= 2**(W-1) and
n < 2**W.  The inner span, p**ceil(k/2) words, is packed once into blocks of m
words (fewer when that would pass _BLOCK_LANES lanes), word i at bit i*n*W;
each hi is repeated into every word of a block, so one big-int sum gives m
codewords, and one `to_bytes` unpacks them, little-endian.  Lanes of hi + lo
lie in 0..2p-2; adding 2**(W-1) - p to each sets its top bit exactly when it
is p or more, without a carry into the next lane, so subtracting p where the
top bit is set reduces it.  A bias of 2**(W-1) - 1 instead sets the top bit of
each nonzero lane.  Those bits, moved to the bottom of their lanes and
multiplied by a 1 in each of n lanes, sum each word's bits into its last lane:
its weight, which cannot carry out of the lane because n < 2**W.

A listing is built with automatic cyclic garbage collection paused
(`gc.disable()` around the block loop of `enumerate_codewords`), and each
block's Words are made by C-level maps in `gfield._reduced_words`.  A Word
holds only an int and a tuple of ints, so a listing cannot form a reference
cycle: no collection during the walk could free any of it, and each would
only traverse the growing listing again.  The pause is process-wide, so
another thread's cyclic garbage waits until the listing ends, at most
ENUMERATION_LIMIT words.  A `finally` turns the collector back on when the
walk ends or raises, and only if it was on at entry.  The listing's first
collection is deferred, not skipped: it runs at the caller's next allocation
of a tracked object, or finds nothing left if the listing is freed first.
"""

from __future__ import annotations

import gc
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, starmap
from struct import Struct
from typing import Iterator

from .gfield import Word, _reduced_words, _require_prime, _same_field
from .modlinalg import (
    MatrixOverGfp, _fields_only, mat_vec, matrix_from_words, null_space, rref)
from .ntt import GOLAY, Transform, fixed_space

# Hard cap on p**k for any operation that walks the whole codebook.
ENUMERATION_LIMIT = 10**7

# Most lanes in one packed block of a codebook walk: bounds the size of its int.
_BLOCK_LANES = 1 << 16

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

    __getstate__ = _fields_only

    @cached_property
    def _parity_check(self) -> MatrixOverGfp:
        """H of `is_codeword`: the canonical null space of the generator,
        built at the first membership test."""
        return matrix_from_words(null_space(self.generator))

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


# The named built-in codes, each built on request.
BUILTIN_CODES = {
    "hamming": hamming_code,
    "golay": lambda: code_from_fixed_space(GOLAY),
}


def builtin_code(name: str) -> LinearCode:
    """Look up a named built-in code, one of BUILTIN_CODES."""
    if name not in BUILTIN_CODES:
        names = " or ".join(map(repr, BUILTIN_CODES))
        raise ValueError(f"unknown code {name!r}, expected {names}")
    return BUILTIN_CODES[name]()


def _check_enumerable(code: LinearCode) -> None:
    if code.size > ENUMERATION_LIMIT:
        raise ValueError(
            f"code has {code.modulus}^{code.dimension} codewords, "
            f"refusing to enumerate past {ENUMERATION_LIMIT}"
        )


def _lanes(p: int, n: int, words: int = 1) -> tuple[str, int, int, int]:
    """Layout of `words` words of n symbols of GF(p) as one int: the lane
    format, its width W, ONE (1 in every lane) and TOP (the top bit of every
    lane).  W is the narrowest of 8, 16 and 32 with p <= 2**(W-1), room for
    the bias, and n < 2**W, room for a word's weight."""
    fmt, w = next((f, w) for f, w in (("B", 8), ("H", 16), ("I", 32))
                  if p <= 1 << w - 1 and n < 1 << w)
    one = _ones(w, n * words)
    return fmt, w, one, one << w - 1


def _ones(w: int, lanes: int) -> int:
    """A 1 at the bottom of each of `lanes` lanes of w bits."""
    return ((1 << w * lanes) - 1) // ((1 << w) - 1)


def _shape(p: int, n: int, k: int) -> tuple[int, int]:
    """How a walk of k rows is blocked: (h, m), with rows[:h] the outer rows
    and m the words per block.  A block holds the whole inner span, of
    rows[h:], or _BLOCK_LANES lanes' worth (at least one word) of it."""
    h = k // 2
    return h, min(p ** (k - h), max(1, _BLOCK_LANES // n))


def _span(p: int, rows: tuple[tuple[int, ...], ...]) -> Iterator[int]:
    """Yield every sum c_0*r_0 + c_1*r_1 + ... over GF(p), packed, for c in
    lexicographic order with the first row most significant: each multiple
    of the first row plus each word of the span of the rest, listed once."""
    n = len(rows[0])
    fmt, w, one, top = _lanes(p, n)
    pack, bias = Struct(f"<{n}{fmt}").pack, ((1 << w - 1) - p) * one
    rest = list(_span(p, rows[1:])) if len(rows) > 1 else [0]
    for c in range(p):
        hi = int.from_bytes(pack(*[c * x % p for x in rows[0]]), "little")
        for lo in rest:
            s = hi + lo
            yield s - p * (((s + bias) & top) >> w - 1)


def _blocks(p: int, rows: tuple[tuple[int, ...], ...]) -> Iterator[tuple[int, int]]:
    """Yield (m, s): the next m words of `_span(p, rows)`, in its order, as
    one int s with word i at bit i*n*W.  The inner span is packed once into
    blocks (see `_shape`); each hi of the outer span is repeated into every
    word of a block (hi * REP, REP a 1 at the bottom of each word, built as m
    copies of hi's bytes), added to it, and the sum reduced lane-wise."""
    n = len(rows[0])
    h, m = _shape(p, n, len(rows))
    fmt, w, one, top = _lanes(p, n, m)
    bias, size = ((1 << w - 1) - p) * one, n * w // 8

    def packed(span):
        while chunk := list(islice(span, m)):
            lows = b"".join(lo.to_bytes(size, "little") for lo in chunk)
            yield len(chunk), int.from_bytes(lows, "little")

    # With one row there is one outer word, 0, and the inner span streams.
    inner = list(packed(_span(p, rows[h:]))) if h else packed(_span(p, rows))
    for hi in _span(p, rows[:h]) if h else (0,):
        hi_bytes = hi.to_bytes(size, "little")
        for count, lows in inner:
            s = int.from_bytes(hi_bytes * count, "little") + lows
            yield count, s - p * (((s + bias) & top) >> w - 1)


def enumerate_codewords(code: LinearCode) -> list[Word]:
    """All p**k codewords u*G, ordered by the message word u lexicographically;
    the modulus is checked once and each packed block by one lane test."""
    _check_enumerable(code)
    p, n = code.modulus, code.length
    _require_prime(p)
    fmt, w, one, top = _lanes(p, n, _shape(p, n, code.dimension)[1])
    size, bias = n * w // 8, ((1 << w - 1) - p) * one
    unpack, words = Struct(f"<{n}{fmt}").iter_unpack, []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for m, s in _blocks(p, code.generator.entries):
            # A lane with its top bit set, or biased to it, holds a symbol >= p.
            if bad := (s | s + bias) & top:
                k = len(words) + ((bad & -bad).bit_length() - 1) // (n * w)
                raise ValueError(f"codeword {k} has a symbol >= {p}")
            words += _reduced_words(p, unpack(s.to_bytes(m * size, "little")))
    finally:
        if enabled:
            gc.enable()
    return words


def minimum_distance(code: LinearCode) -> int:
    """Minimum Hamming distance, by exhaustive weight enumeration.

    For a linear code the minimum distance equals the minimum weight over
    nonzero codewords (the full-rank generator's rows are some), so one
    streamed pass over the codebook suffices.
    """
    _check_enumerable(code)
    p, n = code.modulus, code.length
    fmt, w, one, top = _lanes(p, n, _shape(p, n, code.dimension)[1])
    size, nonzero, spread = n * w // 8, top - one, _ones(w, n)
    # Shifted down, word i's weight is in lane i*n: item i*n of the native
    # cast when little-endian, item (m-1-i)*n + n-1 when big-endian.
    first = 0 if sys.byteorder == "little" else n - 1

    def weights(m: int, s: int) -> memoryview:
        flags = ((s + nonzero) & top) >> w - 1
        sums = (flags * spread >> (n - 1) * w).to_bytes(m * size, sys.byteorder)
        return memoryview(sums).cast(fmt)[first::n]

    blocks = starmap(weights, _blocks(p, code.generator.entries))
    return min(filter(None, chain.from_iterable(blocks)))


def is_codeword(code: LinearCode, word: Word) -> bool:
    """Membership test: is the syndrome H*w of the word zero?  H spans the
    dual code; a code of k = n has no parity rows and holds every word."""
    _same_field(word, code)
    if len(word) != code.length:
        raise ValueError(f"word has length {len(word)}, code has length {code.length}")
    if code.dimension == code.length:
        return True
    return not any(mat_vec(code._parity_check, word).symbols)
