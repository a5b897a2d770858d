"""Dense linear algebra over GF(p).

Matrices are immutable tuples of residue rows.  Elimination is Gauss-Jordan
with Fermat inverses, exact for every accepted modulus (any prime below
2**64), on rows packed as `_Lanes` for p <= _PACKED_MAX and on lists of ints
past it (`_eliminate`).  Its reduced rows and pivot columns are read directly
by null spaces, row spaces, `ntt`'s eigenspaces and codes; only `rref` wraps
them in an `RrefResult`.  Pivot choices are deterministic (first nonzero
entry scanning rows top-down, columns left-to-right), so that output, in
particular canonical null-space bases, is byte-reproducible.

Entries are checked by `gfield._residues`, in `MatrixOverGfp` and so in
`parse_matrix` and `matrix_from_words`, and operands matched by
`gfield._same_field`; this module has no value check of its own.  What it
derives from a checked matrix is residues by construction and is not
checked again: a product's image and each null-space vector are built by
`gfield._reduced_word`, and `rref`'s matrix by `_reduced_matrix`, which
`codes` also uses for a parity check and a fixed-space generator.

Products are packed into lanes of big ints (Kronecker substitution).  A sum
of n products of residues is at most n(p-1)**2, and `_lane_bytes` gives the
fewest whole bytes that hold it, so a lane of that width never carries into
the next.  `mat_vec` packs each column j of M once, entry i in lane i, into
the matrix's cached `_packed` at its first product; the image is
then sum_j x_j * column_j, one big-int sum whose lane i is y_i before its
reduction mod p.  One-byte lanes (n(p-1)**2 <= 255: 7 for the 7-point
transform, 48 for the 12-point one) are reduced by one `bytes.translate`
through a v % p table, wider ones by shift, mask and % p.
"""

from __future__ import annotations

import re
from functools import cache, cached_property, lru_cache
from itertools import chain, islice
from operator import mul
from struct import Struct
from typing import Iterator, Sequence

from .gfield import Word, _Frozen, _is_decimal, _reduced_word, _residues, _same_field


class MatrixOverGfp(_Frozen):
    """A dense rows x cols matrix of residues over GF(p)."""

    def __init__(self, modulus: int, entries: tuple[tuple[int, ...], ...]) -> None:
        entries = tuple(tuple(row) for row in entries)
        if len(entries) == 0 or len(entries[0]) == 0:
            raise ValueError("matrix must have at least one row and one column")
        width = len(entries[0])
        for i, row in enumerate(entries):
            if len(row) != width:
                raise ValueError(f"row {i} has {len(row)} entries, expected {width}")
        _residues(modulus, chain.from_iterable(entries), width)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "entries", entries)

    @cached_property
    def _packed(self) -> tuple[int, tuple[int, ...]]:
        """The lane width in bytes and the packed columns of `mat_vec`,
        entry i in lane i, built at the first product."""
        size = _lane_bytes(self.cols, self.modulus)
        return size, tuple(
            int.from_bytes(b"".join([e.to_bytes(size, "little") for e in c]), "little")
            for c in zip(*self.entries)
        )

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def __repr__(self) -> str:
        return f"MatrixOverGfp({self.rows}x{self.cols} over GF({self.modulus}))"


def _reduced_matrix(p: int, entries: tuple[tuple[int, ...], ...]) -> MatrixOverGfp:
    """A matrix built without `_residues`, as `gfield._reduced_word` builds a
    Word: the caller has checked that p is prime and that the entries are a
    tuple of equally long tuple rows of ints in 0..p-1, at least one of one."""
    m = object.__new__(MatrixOverGfp)
    object.__setattr__(m, "modulus", p)
    object.__setattr__(m, "entries", entries)
    return m


def identity(n: int, p: int) -> MatrixOverGfp:
    return MatrixOverGfp(p, tuple(
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
    ))


class RrefResult(_Frozen):
    """Reduced row-echelon form plus rank and pivot columns."""

    def __init__(self, rref: MatrixOverGfp, rank: int, pivot_columns: tuple[int, ...]) -> None:
        set_field = object.__setattr__
        set_field(self, "rref", rref)
        set_field(self, "rank", rank)
        set_field(self, "pivot_columns", pivot_columns)


def _require_operand(m: MatrixOverGfp, x: Word) -> None:
    """Require x to be over the field of m, with one symbol per column."""
    _same_field(m, x)
    if m.cols != len(x):
        raise ValueError(f"matrix has {m.cols} columns, word has {len(x)} symbols")


def _lane_bytes(n: int, p: int) -> int:
    """The fewest whole bytes in a lane that holds a sum of n products of
    residues mod p, each at most (p-1)**2, without a carry."""
    return -(-(n * (p - 1) ** 2).bit_length() // 8)


def mat_vec(m: MatrixOverGfp, x: Word) -> Word:
    """y_i = sum_j M[i][j] * x_j mod p, as one packed sum of M's columns."""
    _require_operand(m, x)
    p, (size, columns) = m.modulus, m._packed
    y = sum(map(mul, x.symbols, columns))
    if size == 1:
        image = y.to_bytes(m.rows, "little").translate(_residue_table(p))
        return _reduced_word(p, tuple(image))
    w = 8 * size
    mask = (1 << w) - 1
    return _reduced_word(p, tuple((y >> s & mask) % p for s in range(0, w * m.rows, w)))


@cache
def _residue_table(p: int) -> bytes:
    """v % p for every byte value v."""
    return bytes(v % p for v in range(256))


class _Lanes:
    """`words` words of n symbols of GF(p) as one int, the layout of
    elimination here and of the walks in `codes`: symbol j of word i in lane
    i*n + j of W bits, little-endian, W the narrowest of 8, 16 and 32 with
    p <= 2**(W-1), room for the bias, and n < 2**W, room for a weight.
    `one`, `top` and `bias` hold 1, 2**(W-1) and 2**(W-1) - p in each lane.

    A lane of a sum of two residue words lies in 0..2p-2; adding `bias` sets
    its top bit exactly when it is p or more, without a carry into the next
    lane, so subtracting p where it is set reduces every lane (`reduce`).  A
    bias of 2**(W-1) - 1 sets the top bit of each nonzero lane instead; moved
    to the bottom of its lane and times a word's `one`, those bits sum into
    its last lane: its weight."""

    def __init__(self, p: int, n: int, words: int = 1) -> None:
        for fmt, w in ("B", 8), ("H", 16), ("I", 32):
            if p <= 1 << w - 1 and n < 1 << w:
                break
        else:
            raise ValueError(f"no lane holds words of {n} symbols over GF({p})")
        self.p, self.n, self.fmt, self.w, self.mask = p, n, fmt, w, (1 << w) - 1
        self.size, self.struct = n * w // 8, Struct(f"<{n}{fmt}")
        self.one = one = int.from_bytes((1).to_bytes(w // 8, "little") * (n * words), "little")
        self.top, self.bias = one << w - 1, ((1 << w - 1) - p) * one

    def pack(self, row: Sequence[int]) -> int:
        return int.from_bytes(self.struct.pack(*row), "little")

    def unpack(self, x: int) -> tuple[int, ...]:
        return self.struct.unpack(x.to_bytes(self.size, "little"))

    def reduce(self, s: int) -> int:
        """s with each lane, in 0..2p-2, reduced mod p."""
        return s - self.p * (((s + self.bias) & self.top) >> self.w - 1)

    def times(self, c: int, x: int) -> int:
        """c*x reduced lane-wise, for 0 < c < p, by double-and-add, with
        `reduce` written out: a call per step costs 10% at p = 61."""
        p, w, top, bias, y = self.p, self.w - 1, self.top, self.bias, x
        for bit in bin(c)[3:]:
            y += y
            y -= p * (((y + bias) & top) >> w)
            if bit == "1":
                y += x
                y -= p * (((y + bias) & top) >> w)
        return y

    def multiples(self, x: int) -> Iterator[int]:
        """Yield c*x reduced lane-wise for c = 0..p-1, each the last plus x."""
        yield (y := 0)
        for _ in range(self.p - 1):
            yield (y := self.reduce(y + x))


# The one-word layout of (p, n), built once; a block's layout is built per
# call, as its ints grow with the block.
_word_lanes = lru_cache(maxsize=64)(_Lanes)


# The largest modulus eliminated on packed rows: past it double-and-add
# costs more than the list loop's products and `% p`, and past 2**31 no lane
# holds p.  Speed against the list loop: 1.08x at 12x24 and p = 61, 0.79x at
# p = 127, 7-8x at 100x100 over GF(2) and GF(3), 0.56-0.81x at 3x3 (any p).
_PACKED_MAX = 61


def _eliminate(p: int, rows: Sequence[Sequence[int]]) -> tuple[list[tuple[int, ...]], list[int]]:
    """The reduced rows and pivot columns of Gauss-Jordan elimination of
    residue rows over GF(p): the pivot in each column, left to right, is the
    first nonzero entry of the remaining rows, top-down."""
    if p > _PACKED_MAX:
        return _gauss_jordan(p, rows)
    lanes = _word_lanes(p, len(rows[0]))
    w, mask, top, bias = lanes.w, lanes.mask, lanes.top, lanes.bias
    a = list(map(lanes.pack, rows))
    pivots: list[int] = []
    for c in range(lanes.n):
        r, shift = len(pivots), c * w
        for i in range(r, len(a)):
            if a[i] >> shift & mask:
                break
        else:
            continue
        a[r], a[i] = a[i], a[r]
        row = a[r]
        if (e := row >> shift & mask) != 1:
            row = a[r] = lanes.times(pow(e, p - 2, p), row)
        # other - f*row is other + (p-f)*row, one multiple per distinct f; the
        # add's `reduce` is written out: a call per row costs 4-10% from 10x20
        multiples: dict[int, int] = {}
        for i, other in enumerate(a):
            if (f := other >> shift & mask) and i != r:
                if (x := multiples.get(f)) is None:
                    x = multiples[f] = lanes.times(p - f, row)
                s = other + x
                a[i] = s - p * (((s + bias) & top) >> w - 1)
        pivots.append(c)
        if r + 1 == len(a):
            break
    return list(map(lanes.unpack, a)), pivots


def _gauss_jordan(p: int, rows: Sequence[Sequence[int]]) -> tuple[list[tuple[int, ...]], list[int]]:
    """`_eliminate` on lists of ints, with Fermat inverses: the path for
    every modulus past _PACKED_MAX, and the oracle of the packed one."""
    a = [list(row) for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(len(a[0])):
        for i in range(r, len(a)):
            if a[i][c]:
                break
        else:
            continue
        a[r], a[i] = a[i], a[r]
        # Left of column c the pivot row is zero: each earlier pivot column
        # was cleared in it, and each other earlier column is zero in every
        # row from r on.  So only columns c.. change.
        row = a[r]
        if row[c] != 1:
            inv = pow(row[c], p - 2, p)
            row[c:] = [(inv * e) % p for e in row[c:]]
        tail = row[c:]
        for other in a:
            f = other[c]
            if f and other is not row:
                other[c:] = [(x - f * y) % p for x, y in zip(other[c:], tail)]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return [tuple(row) for row in a], pivots


def rref(m: MatrixOverGfp) -> RrefResult:
    """Gauss-Jordan elimination with deterministic pivoting.

    The pivot in each column is the first nonzero entry scanning the
    remaining rows top-down; columns are processed left to right.
    """
    rows, pivots = _eliminate(m.modulus, m.entries)
    return RrefResult(rref=_reduced_matrix(m.modulus, tuple(rows)), rank=len(pivots),
                      pivot_columns=tuple(pivots))


def _null_basis(p: int, n: int, rows: Sequence[Sequence[int]],
                pivots: Sequence[int]) -> list[Word]:
    """`null_space` of an n-column matrix from the rows and pivot columns of
    its `_eliminate`."""
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[f] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-rows[i][f]) % p
        basis.append(_reduced_word(p, tuple(v)))
    return basis


def null_space(m: MatrixOverGfp) -> list[Word]:
    """Canonical basis of {x : Mx = 0}.

    One basis vector per free column in ascending column order; the free
    variable is pinned to 1 and all other free variables to 0, with pivot
    variables read off the RREF.  Size is cols - rank.
    """
    return _null_basis(m.modulus, m.cols, *_eliminate(m.modulus, m.entries))


def same_row_space(a: MatrixOverGfp, b: MatrixOverGfp) -> bool:
    """True iff the canonical RREFs agree after dropping all-zero rows."""
    _same_field(a, b)
    if a.cols != b.cols:
        raise ValueError(f"column count mismatch: {a.cols} vs {b.cols}")
    (rows_a, pivots_a), (rows_b, pivots_b) = (_eliminate(m.modulus, m.entries) for m in (a, b))
    return rows_a[:len(pivots_a)] == rows_b[:len(pivots_b)]


# fixed_space of a dense random 200x200 matrix takes about 0.02 s over GF(2)
# and GF(3), on packed rows, and 1.7-2.5 s over GF(2**61 - 1), on lists of
# ints (Python 3.11, one core of a 2-vCPU host); elimination is n**3, so the
# bound holds every admitted one near 2 s.
MAX_MATRIX_DIM = 200

# One row of matrix text: a `;`-separated chunk from its first character that
# is neither `;` nor whitespace, so each chunk that is not blank matches once.
_ROW = re.compile(r"[^;\s][^;]*")


def parse_matrix(text: str) -> MatrixOverGfp:
    """Parse the matrix text format: header line `p=<modulus>`, then rows
    separated by `;` (newlines around separators are ignored), entries
    separated by spaces.  Text of more than MAX_MATRIX_DIM rows or columns
    is refused before any row is built, and past MAX_MATRIX_DIM rows before
    any is split off the text."""
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty matrix text")
    header, _, body = stripped.partition("\n")
    header = header.strip()
    if not header.startswith("p="):
        raise ValueError(f"matrix text must start with a p=<modulus> header, got {header!r}")
    modulus = header[2:].strip()
    if not _is_decimal(modulus):
        raise ValueError(f"invalid modulus in header {header!r}")
    p = int(modulus)
    # one scan: at most one row past the bound is kept, and the rest of an
    # over-long text is counted one match at a time, never listed
    matches = _ROW.finditer(body)
    chunks = [m.group() for m in islice(matches, MAX_MATRIX_DIM + 1)]
    if not chunks:
        raise ValueError("matrix text has no rows")
    if len(chunks) > MAX_MATRIX_DIM:
        count = len(chunks) + sum(1 for _ in matches)
        raise ValueError(f"matrix text has {count} rows, "
                         f"past the bound of {MAX_MATRIX_DIM}")
    # a row of more than MAX_MATRIX_DIM entries splits into one item more
    table = [c.split(None, MAX_MATRIX_DIM) for c in chunks]
    if max(map(len, table)) > MAX_MATRIX_DIM:
        raise ValueError(f"matrix text has a row of more than {MAX_MATRIX_DIM} "
                         f"entries, past the bound of {MAX_MATRIX_DIM}")
    rows = []
    for tokens in table:
        for col, token in enumerate(tokens):
            if not _is_decimal(token):
                raise ValueError(
                    f"invalid entry {token!r} at position ({len(rows)},{col}) "
                    f"in matrix over GF({p}): expected ASCII digits 0-9"
                )
        rows.append(tuple(map(int, tokens)))
    return MatrixOverGfp(p, tuple(rows))


def format_matrix(m: MatrixOverGfp) -> str:
    body = ";\n".join(" ".join(str(e) for e in row) for row in m.entries)
    return f"p={m.modulus}\n{body}\n"


def matrix_from_words(words: Sequence[Word]) -> MatrixOverGfp:
    """Stack words as matrix rows; all words must share p and length."""
    if not words:
        raise ValueError("cannot build a matrix from an empty word list")
    p = words[0].modulus
    n = len(words[0])
    for w in words:
        if w.modulus != p or len(w) != n:
            raise ValueError("words must share a common modulus and length")
    return MatrixOverGfp(p, tuple(w.symbols for w in words))
