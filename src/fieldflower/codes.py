"""Linear block codes over GF(p): generators, enumeration, distance, membership.

A code is represented by a generator matrix with independent rows.  Everything
downstream is exact.  Codeword enumeration walks all p**k codewords, guarded
by an explicit enumeration cap, which minimum distance also honours.
Membership is a syndrome test: a word w lies in the code exactly when
H*w = 0, with H the canonical null space of the generator (MacWilliams &
Sloane, ch. 1), read off the elimination of its rank check and kept on it.

Minimum distance is found by the Brouwer-Zimmermann search (A. Zimmermann,
1996, as described by M. Grassl, "Searching for linear codes with large
minimum distance", 2006), which looks at low-weight messages only.  G_1 is
the reduced generator, kept on the code from its rank check; G_j is the
generator's rows, reordered by one itemgetter so that the columns no earlier
G_j took as pivots come first, eliminated by `modlinalg._eliminate` with no
matrix built, so that r_j of its k pivots lie among them (r_1 = k, and r_j
never grows).  For w = 1, 2, ..., the messages of weight w of each G_j, first
nonzero symbol 1, are weighed, and U is the least weight seen.  A codeword
not yet seen has a message of weight above w_j in every G_j weighed up to
w_j, so at least w_j + 1 - (k - r_j) nonzero symbols on the r_j pivots of
G_j that no other G_j has; the column sets are disjoint, so its weight is at
least the sum of max(0, w_j + 1 - (k - r_j)) over j.  The search stops when
U reaches that bound, or when G_1 has been weighed up to k, which has seen
every codeword.  A new G_j is built only when it could add more than 1 to
the bound at the current w, more than one more level of a full-rank G_j
adds without an elimination.  Messages are weighed in packed blocks (below) on
the n - k columns that are not pivots, which carry the message: a head is a
prefix of w - 1 rows, its tail the multiples of the rows after its last.

Both walks add words in the `modlinalg._Lanes` layout, whose docstring
explains the lane widths, the bias reduction and the weight sum, a block of
`_block_sums` at a time.  A codebook walk splits the k generator rows into
an outer part g[:k//2] and an inner part g[k//2:], each codeword hi + lo, one
word from the span of each, in message order: the heads are the outer span,
every tail is the inner span, packed once, and a block holds the inner span
or _BLOCK_LANES lanes of it.

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
from functools import cached_property
from itertools import count, repeat
from math import comb
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .gfield import Word, _Frozen, _reduced_words, _same_field
from .modlinalg import (
    MatrixOverGfp, _eliminate, _Lanes, _null_basis, _reduced_matrix, _word_lanes, mat_vec)
from .ntt import GOLAY, Transform, fixed_space

# Hard cap on p**k for any operation that walks the whole codebook.
ENUMERATION_LIMIT = 10**7

# Most lanes in one packed block of `_block_sums`: bounds the size of its int.
_BLOCK_LANES = 1 << 16

_HAMMING_GENERATOR_ROWS = (
    (1, 1, 0, 0, 0, 0, 1),
    (1, 1, 1, 0, 0, 1, 0),
    (1, 0, 1, 0, 1, 0, 0),
    (0, 1, 1, 1, 0, 0, 0),
)


class LinearCode(_Frozen):
    """An [n, k] linear code over GF(p), given by a full-rank generator."""

    def __init__(self, generator: MatrixOverGfp) -> None:
        object.__setattr__(self, "generator", generator)
        if len(self._reduced[1]) != generator.rows:
            raise ValueError("generator rows are linearly dependent")

    @cached_property
    def _reduced(self) -> tuple[list[tuple[int, ...]], list[int]]:
        """The reduced rows and pivot columns of the generator's one
        elimination: their rank checks the rows, they are G_1 of
        `minimum_distance`, and H is read off them."""
        return _eliminate(self.modulus, self.generator.entries)

    @cached_property
    def _parity_check(self) -> MatrixOverGfp:
        """H of `is_codeword`: the canonical null space of the generator,
        read off `_reduced` at the first membership test of a code of k < n."""
        p = self.modulus
        basis = _null_basis(p, self.length, *self._reduced)
        return _reduced_matrix(p, tuple(w.symbols for w in basis))

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
    return LinearCode(_reduced_matrix(space.basis[0].modulus,
                                      tuple(w.symbols for w in space.basis)))


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


def _shape(p: int, n: int, k: int) -> tuple[int, int]:
    """`enumerate_codewords`' blocks for k rows: (h, m), rows[:h] the outer
    rows, and m words a block, the inner span or _BLOCK_LANES lanes of it."""
    h = k // 2
    return h, min(p ** (k - h), max(1, _BLOCK_LANES // n))


def _span(p: int, rows: tuple[tuple[int, ...], ...]) -> Iterator[int]:
    """Yield every sum c_0*r_0 + c_1*r_1 + ... over GF(p), packed, for c in
    lexicographic order with the first row most significant: each multiple
    of the first row plus each word of the span of the rest, listed once."""
    lanes = _word_lanes(p, len(rows[0]))
    rest = list(_span(p, rows[1:])) if len(rows) > 1 else [0]
    for hi in lanes.multiples(lanes.pack(rows[0])):
        for lo in rest:
            yield lanes.reduce(hi + lo)


def _block_sums(m: int, lanes: _Lanes, pairs: Iterable[tuple[int, bytes]]
                ) -> Iterator[tuple[int, int]]:
    """Yield (c, s): the next c words head + x, pair by pair, a head one
    packed word and x each word of its tail, packed end to end, as one int s
    with word i at byte i*size, reduced lane-wise; a block runs on from one
    pair into the next, every block but the last holds m words, and `lanes`
    lays out m words."""
    size, room, heads, tails, last = lanes.size, m * lanes.size, [], [], (b"", 0)

    def block() -> int:
        # A codebook walk's blocks are mostly one whole tail, so its int is kept.
        nonlocal last
        if (lows := b"".join(tails)) is not last[0]:
            last = lows, int.from_bytes(lows, "little")
        return lanes.reduce(int.from_bytes(b"".join(heads), "little") + last[1])

    for head, tail in pairs:
        head, a, end = head.to_bytes(size, "little"), 0, len(tail)
        while end - a >= room:
            heads.append(head * (room // size))
            tails.append(tail[a:a + room])
            a += room
            yield m, block()
            heads, tails, room = [], [], m * size
        if a < end:
            heads.append(head * ((end - a) // size))
            tails.append(tail[a:])
            room -= end - a
    if tails:
        yield m - room // size, block()


def enumerate_codewords(code: LinearCode) -> list[Word]:
    """All p**k codewords u*G, ordered by the message word u lexicographically;
    the generator is a checked matrix, and each packed block is checked by
    one lane test."""
    _check_enumerable(code)
    p, n, rows = code.modulus, code.length, code.generator.entries
    h, m = _shape(p, n, len(rows))
    lanes, words = _Lanes(p, n, m), []
    size, unpack = lanes.size, lanes.struct.iter_unpack
    inner = (lo.to_bytes(size, "little") for lo in _span(p, rows[h:]))
    # With one row the outer span is 0 alone, and the inner span streams.
    pairs = zip(_span(p, rows[:h]), repeat(b"".join(inner))) if h else zip(repeat(0), inner)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for c, s in _block_sums(m, lanes, pairs):
            # A lane with its top bit set, or biased to it, holds a symbol >= p.
            if bad := (s | s + lanes.bias) & lanes.top:
                k = len(words) + ((bad & -bad).bit_length() - 1) // (n * lanes.w)
                raise ValueError(f"codeword {k} has a symbol >= {p}")
            words += _reduced_words(p, unpack(s.to_bytes(c * size, "little")))
    finally:
        if enabled:
            gc.enable()
    return words


class _InformationSet:
    """G_j of the minimum-distance search, from the reduced rows and pivot
    columns of a generator of the code whose columns were reordered so that
    the `unused` ones, which no earlier G_j used, come first.  r of its k
    pivots lie among those, and `unused` lists the ones still unused after
    it.  `rows` are its rows cut to the n - k columns that are not pivots,
    so a message u of weight w gives a codeword of weight w plus the weight
    of u*rows.  `level` is the largest w whose messages have all been
    weighed."""

    def __init__(self, p: int, reduced: Sequence[tuple[int, ...]],
                 pivot_columns: Iterable[int], unused: list[int]) -> None:
        pivots = set(pivot_columns)
        free = [c for c in range(len(reduced[0])) if c not in pivots]
        self.p, self.level = p, 0
        self.r = len(pivots.intersection(range(len(unused))))
        self.unused = [c for i, c in enumerate(unused) if i not in pivots]
        self.rows = tuple(tuple(row[c] for c in free) for row in reduced)

    @cached_property
    def _packed(self):
        """Built at the first level above 1: the one-word `_Lanes`; multiples[i],
        the packed c*row_i for c = 1..p-1; and all of them as bytes, in order."""
        lanes = _word_lanes(self.p, len(self.rows[0]))
        multiples = [list(lanes.multiples(lanes.pack(row)))[1:] for row in self.rows]
        data = b"".join(x.to_bytes(lanes.size, "little") for xs in multiples for x in xs)
        return lanes, multiples, data

    def _prefixes(self, depth: int, stop: int) -> Iterator[tuple[int, int]]:
        """(i, s): s the reduced sum of rows i_1 < ... < i_depth = i < stop,
        row i_1 times 1 and each other times one of 1..p-1, packed."""
        lanes, multiples, _ = self._packed
        if depth == 1:
            yield from ((i, multiples[i][0]) for i in range(stop))
            return
        for i, s in self._prefixes(depth - 1, stop - 1):
            for j in range(i + 1, stop):
                for x in multiples[j]:
                    yield j, lanes.reduce(s + x)

    def weights(self, level: int) -> Iterator[list[int] | memoryview]:
        """The weight of u*rows for every message u of this weight whose
        first nonzero symbol is 1, a list or memoryview at a time: level 1
        counts each row's nonzero symbols, and above it each block of
        `_block_sums` is weighed lane-wise."""
        k, n, p = len(self.rows), len(self.rows[0]), self.p
        if level == 1:
            yield [n - row.count(0) for row in self.rows]
            return
        lanes, _, data = self._packed
        m = min(max(1, _BLOCK_LANES // n), comb(k, level) * (p - 1) ** (level - 1))
        # Lanes of the longest block.  A shorter one holds 0 past its end,
        # which stays below the top bit when biased, and weighs 0.
        block, w, size = _Lanes(p, n, m), lanes.w, lanes.size
        shift, nonzero = (n - 1) * w, block.top - block.one
        # Shifted down, word i's weight is in lane i*n: item i*n of the
        # native cast when little-endian, item (m-1-i)*n + n-1 when big-endian.
        first = 0 if sys.byteorder == "little" else n - 1
        pairs = ((s, data[(i + 1) * (p - 1) * size:])
                 for i, s in self._prefixes(level - 1, k - 1))
        for c, s in _block_sums(m, block, pairs):
            sums = (((s + nonzero) & block.top) >> w - 1) * lanes.one >> shift
            yield memoryview(sums.to_bytes(c * size, sys.byteorder)).cast(lanes.fmt)[first::n]


def minimum_distance(code: LinearCode) -> int:
    """Minimum Hamming distance, by the Brouwer-Zimmermann search.

    For a linear code the minimum distance equals the minimum weight over
    nonzero codewords.  G_1, G_2, ... are generators systematic on pairwise
    disjoint column sets, each built when the bound first needs it; the
    messages of weight 1, 2, ... of each are weighed until the least weight
    found reaches the bound on every codeword not yet seen (see the module
    docstring).
    """
    _check_enumerable(code)
    p, n, k = code.modulus, code.length, code.dimension
    best, unused, sets = n, list(range(n)), []
    for w in count(1):
        for j in count():
            if j == len(sets):
                # A new G_j has r <= len(unused) and adds r + w + 1 - k at w.
                # Built only when that passes 1, which weighing a full-rank
                # G_j one level deeper adds without an elimination.
                if len(unused) <= k - w:
                    break
                if sets:  # the generator with the unused columns moved first
                    order = itemgetter(*unused, *sorted(set(range(n)).difference(unused)))
                    reduced, pivots = _eliminate(p, list(map(order, code.generator.entries)))
                else:
                    reduced, pivots = code._reduced
                g = _InformationSet(p, reduced, pivots, unused)
                if not g.r:
                    unused = []
                    break
                sets.append(g)
                unused = g.unused
            g = sets[j]
            if g.r < k - w:  # adds nothing at w, nor does a later G_j: r never grows
                break
            for level in range(g.level + 1, w + 1):
                best = min(best, level + min(map(min, g.weights(level))))
            g.level = w
            # G_j full-rank and weighed up to k: every codeword was seen
            if best <= sum(max(0, s.level + 1 - k + s.r) for s in sets) or g.r == w == k:
                return best


def is_codeword(code: LinearCode, word: Word) -> bool:
    """Membership test: is the syndrome H*w of the word zero?  H spans the
    dual code; a code of k = n has no parity rows and holds every word."""
    _same_field(word, code)
    if len(word) != code.length:
        raise ValueError(f"word has length {len(word)}, code has length {code.length}")
    if code.dimension == code.length:
        return True
    return not any(mat_vec(code._parity_check, word).symbols)
