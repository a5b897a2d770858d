"""Dense linear algebra over GF(p).

Matrices are immutable tuples of residue rows.  Elimination is plain
Gauss-Jordan with Fermat inverses: the fields here are tiny (p <= 7,
dimensions <= 16), so exact integer arithmetic is both correct and fast.
All pivot choices are deterministic (first nonzero entry scanning rows
top-down, columns left-to-right) so that downstream output, in particular
canonical null-space bases, is byte-reproducible.

Entries are checked by `gfield._residues` and operands matched by
`gfield._same_field`; this module has no value check of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from .gfield import Word, _residues, _same_field


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

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

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


def mat_vec(m: MatrixOverGfp, x: Word) -> Word:
    """y_i = sum_j M[i][j] * x_j mod p."""
    _same_field(m, x)
    if m.cols != len(x):
        raise ValueError(f"matrix has {m.cols} columns, word has {len(x)} symbols")
    p = m.modulus
    xs = x.symbols
    return Word(p, tuple(
        sum(e * v for e, v in zip(row, xs)) % p for row in m.entries
    ))


def mat_mul(a: MatrixOverGfp, b: MatrixOverGfp) -> MatrixOverGfp:
    _same_field(a, b)
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    p = a.modulus
    bt = tuple(zip(*b.entries))
    return MatrixOverGfp(p, tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % p for col in bt)
        for row in a.entries
    ))


def mat_sub(a: MatrixOverGfp, b: MatrixOverGfp) -> MatrixOverGfp:
    _same_field(a, b)
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} vs {b.rows}x{b.cols}")
    p = a.modulus
    return MatrixOverGfp(p, tuple(
        tuple((x - y) % p for x, y in zip(ra, rb))
        for ra, rb in zip(a.entries, b.entries)
    ))


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
    try:
        p = int(header[2:])
    except ValueError:
        raise ValueError(f"invalid modulus in header {header!r}") from None
    rows = []
    for chunk in body.replace("\n", " ").split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            rows.append(tuple(int(tok) for tok in chunk.split()))
        except ValueError:
            raise ValueError(f"invalid matrix row {chunk!r}") from None
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
