"""Dense linear algebra over GF(p).

Matrices are immutable tuples of residue rows.  Elimination is plain
Gauss-Jordan with Fermat inverses over exact Python integers, correct for
every accepted modulus (any prime below 2**64); the built-in transforms are
small (p = 2 and 3, dimensions <= 16), so this is also fast.
All pivot choices are deterministic (first nonzero entry scanning rows
top-down, columns left-to-right) so that downstream output, in particular
canonical null-space bases, is byte-reproducible.

Entries are checked by `gfield._residues` and operands matched by
`gfield._same_field`; this module has no value check of its own.

Products are packed into lanes of big ints (Kronecker substitution).  A sum
of n products of residues is at most n(p-1)**2, and `_lane_bytes` gives the
fewest whole bytes that hold it, so a lane of that width never carries into
the next.  `mat_vec` packs each column j of M once, entry i in lane i, into
the matrix's cached `_packed` at its first product; the image is
then sum_j x_j * column_j, one big-int sum whose lane i is y_i before its
reduction mod p.  One-byte lanes (n(p-1)**2 <= 255: 7 for the 7-point
transform, 48 for the 12-point one) are reduced by one `bytes.translate`
through a v % p table, wider ones by shift, mask and % p.

`_mat_batch` multiplies a whole `_Batch` of vectors at once.  A batch stores
symbol j of every vector in row j; for the product each row becomes one int
with a one-byte lane per vector, so output row i is sum_j M[i][j] * X_j, lane
by lane, reduced by the same `bytes.translate`.  That needs one-byte lanes;
past them the product is taken with `mat_vec` vector by vector.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache, cached_property
from itertools import chain
from operator import mul
from typing import Iterable, Sequence

from .gfield import Word, _is_decimal, _residues, _same_field


def _fields_only(value) -> dict:
    """The pickled state of a dataclass value: its fields, and none of the
    caches kept in its `__dict__`, which the loaded value builds again."""
    return {f.name: getattr(value, f.name) for f in fields(value)}


@dataclass(frozen=True)
class MatrixOverGfp:
    """A dense rows x cols matrix of residues over GF(p)."""

    modulus: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "entries", tuple(tuple(row) for row in self.entries)
        )
        if len(self.entries) == 0 or len(self.entries[0]) == 0:
            raise ValueError("matrix must have at least one row and one column")
        width = len(self.entries[0])
        for i, row in enumerate(self.entries):
            if len(row) != width:
                raise ValueError(f"row {i} has {len(row)} entries, expected {width}")
        _residues(self.modulus, chain.from_iterable(self.entries), width)

    __getstate__ = _fields_only

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


def identity(n: int, p: int) -> MatrixOverGfp:
    return MatrixOverGfp(p, tuple(
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
    ))


@dataclass(frozen=True)
class RrefResult:
    """Reduced row-echelon form plus rank and pivot columns."""

    rref: MatrixOverGfp
    rank: int
    pivot_columns: tuple[int, ...]


def _require_operand(m: MatrixOverGfp, x: Word | _Batch) -> None:
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
        return Word(p, tuple(y.to_bytes(m.rows, "little").translate(_residue_table(p))))
    w = 8 * size
    mask = (1 << w) - 1
    return Word(p, tuple((y >> s & mask) % p for s in range(0, w * m.rows, w)))


@dataclass(frozen=True)
class _Batch:
    """Vectors over GF(p) stored position by position: rows[j] holds symbol
    j of every vector, as bytes (one byte per vector) while p <= 256 and as
    a tuple past that.

    Like a `Word`, it has a modulus and its len() is the symbol count.  The
    values are residues by construction (codewords, or seeded draws built
    as packed rows) and are not checked again.  Batches only decide, by
    comparing as wholes; the vectors are `zip(*rows)`.
    """

    modulus: int
    rows: tuple

    @classmethod
    def of(cls, p: int, vectors: Iterable[Sequence[int]]) -> _Batch:
        row = bytes if p <= 256 else tuple
        return cls(p, tuple(row(column) for column in zip(*vectors)))

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def size(self) -> int:
        """The number of vectors."""
        return len(self.rows[0])

    def lanes(self) -> list[int]:
        """Each row as one int, vector b in bits 8b..8b+7."""
        return [int.from_bytes(row, "little") for row in self.rows]


@cache
def _residue_table(p: int) -> bytes:
    """v % p for every byte value v."""
    return bytes(v % p for v in range(256))


def _reduce_lanes(p: int, sums: Iterable[int], size: int) -> tuple[bytes, ...]:
    """Each packed sum of `size` 8-bit lanes, every lane reduced mod p."""
    table = _residue_table(p)
    return tuple(s.to_bytes(size, "little").translate(table) for s in sums)


def _mat_batch(m: MatrixOverGfp, x: _Batch) -> _Batch:
    """mat_vec(m, w) for every vector w of the batch, as a batch.  It only
    decides: to name a vector whose image differs, call `mat_vec` on it."""
    _require_operand(m, x)
    p = m.modulus
    if _lane_bytes(m.cols, p) > 1:
        return _Batch.of(p, (mat_vec(m, Word(p, v)).symbols for v in zip(*x.rows)))
    xs = x.lanes()
    sums = (sum(e * v for e, v in zip(row, xs) if e) for row in m.entries)
    return _Batch(p, _reduce_lanes(p, sums, x.size))


def rref(m: MatrixOverGfp) -> RrefResult:
    """Gauss-Jordan elimination with deterministic pivoting.

    The pivot in each column is the first nonzero entry scanning the
    remaining rows top-down; columns are processed left to right.
    """
    p = m.modulus
    a = [list(row) for row in m.entries]
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        pivot_row = next((i for i in range(r, m.rows) if a[i][c]), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [(inv * e) % p for e in a[r]]
        for i in range(m.rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    reduced = MatrixOverGfp(p, tuple(tuple(row) for row in a))
    return RrefResult(rref=reduced, rank=r, pivot_columns=tuple(pivots))


def null_space(m: MatrixOverGfp) -> list[Word]:
    """Canonical basis of {x : Mx = 0}.

    One basis vector per free column in ascending column order; the free
    variable is pinned to 1 and all other free variables to 0, with pivot
    variables read off the RREF.  Size is cols - rank.
    """
    p = m.modulus
    result = rref(m)
    reduced = result.rref.entries
    pivots = result.pivot_columns
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * m.cols
        v[f] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-reduced[i][f]) % p
        basis.append(Word(p, tuple(v)))
    return basis


def _nonzero_rows(m: MatrixOverGfp) -> tuple[tuple[int, ...], ...]:
    return tuple(row for row in m.entries if any(row))


def same_row_space(a: MatrixOverGfp, b: MatrixOverGfp) -> bool:
    """True iff the canonical RREFs agree after dropping all-zero rows."""
    _same_field(a, b)
    if a.cols != b.cols:
        raise ValueError(f"column count mismatch: {a.cols} vs {b.cols}")
    return _nonzero_rows(rref(a).rref) == _nonzero_rows(rref(b).rref)


def parse_matrix(text: str) -> MatrixOverGfp:
    """Parse the matrix text format: header line `p=<modulus>`, then rows
    separated by `;` (newlines around separators are ignored), entries
    separated by spaces."""
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
    rows = []
    for chunk in body.replace("\n", " ").split(";"):
        tokens = chunk.split()
        if not tokens:
            continue
        for col, token in enumerate(tokens):
            if not _is_decimal(token):
                raise ValueError(
                    f"invalid entry {token!r} at position ({len(rows)},{col}) "
                    f"in matrix over GF({p}): expected ASCII digits 0-9"
                )
        rows.append(tuple(map(int, tokens)))
    if not rows:
        raise ValueError("matrix text has no rows")
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
