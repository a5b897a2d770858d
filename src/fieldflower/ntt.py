"""The two built-in number-theoretic transforms and eigen-analysis over GF(p).

The 7-point transform over GF(2) is derived from the Hamming code H(7,4,3);
the 12-point transform over GF(3) from the extended ternary Golay code.  Both
are fixed constants.  The 12-point matrix has entries in {0, +1, -1} (with
2 = -1 mod 3), so it admits an addition-only evaluation path that never
multiplies; that path is kept separate from the generic matrix product on
purpose, and the two are required to agree everywhere.

`apply` is the generic product, `modlinalg.mat_vec`: one big-int sum of the
matrix's packed columns.  Both built-in transforms fit its one-byte lanes,
so each image is reduced by one `bytes.translate`.

There is one addition-only evaluator, `_signed_sums`.  Each output row adds
its +1 columns, subtracts its -1 columns and adds an offset.  A batch packs
symbol j of every word into one int, an 8-bit lane per word, with `_OFFSET`
in every lane; `apply_addition_only` gives it one word's symbols, one lane
each, and `_OFFSET`.  One `bytes.translate` then reduces the lanes mod 3.
The offset is a multiple of 3, so it leaves every residue alone, and at
least 2 * (the most -1 entries in a row), so no lane goes below 0; a lane
stays at most _OFFSET + 2 * (the most +1 entries in a row) = 22 <= 255, so
none carries into the next.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, Sequence

from .gfield import FieldElement, Word
from .modlinalg import (
    MatrixOverGfp, _Batch, _reduce_lanes, _residue_table, mat_vec, null_space,
)

_HAMMING_ROWS = (
    (0, 1, 0, 1, 1, 0, 0),
    (1, 0, 1, 0, 0, 1, 0),
    (1, 0, 0, 1, 0, 0, 1),
    (0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 1),
)

# Signed form of the 12-point transform, entries in {-1, 0, +1}.  This is the
# multiplication-free representation; the canonical residue form below is the
# same matrix with -1 replaced by 2.
_GOLAY_SIGNED_ROWS = (
    (1, -1, -1, -1, -1, -1, 1, 0, 0, 0, 0, 0),
    (-1, 1, -1, 1, 1, -1, 0, 1, 0, 0, 0, 0),
    (-1, -1, 1, -1, 1, 1, 0, 0, 1, 0, 0, 0),
    (-1, 1, -1, 1, -1, 1, 0, 0, 0, 1, 0, 0),
    (-1, 1, 1, -1, 1, 1, 0, 0, 0, 0, 1, 0),
    (-1, -1, 1, 1, -1, 1, 0, 0, 0, 0, 0, 1),
    (-1, -1, 1, 0, 0, 1, -1, 1, 0, 0, 0, 0),
    (-1, 1, -1, 1, 0, 0, 1, 1, 1, 0, 0, 0),
    (-1, 0, 1, -1, 1, 0, 1, 0, 1, 1, 0, 0),
    (-1, 0, 0, 1, -1, 0, 1, 0, 0, 1, 1, 0),
    (-1, 1, 0, 0, 1, -1, 1, 0, 0, 0, 1, 1),
    (1, -1, -1, 0, -1, 0, 0, 1, 1, 0, 0, 1),
)


# Per row of the signed form: a getter for the symbols under its +1 entries
# and one for those under its -1 entries.  Every row has at least two of
# each, so each getter returns a tuple.
_SIGNED_GETTERS = tuple(
    (itemgetter(*(j for j, e in enumerate(row) if e == 1)),
     itemgetter(*(j for j, e in enumerate(row) if e == -1)))
    for row in _GOLAY_SIGNED_ROWS
)

# The least multiple of 3 that is at least 2 * (the most -1 entries in a row).
_OFFSET = 3 * -(-2 * max(row.count(-1) for row in _GOLAY_SIGNED_ROWS) // 3)


def hamming_ntt_matrix() -> MatrixOverGfp:
    """The 7x7 binary transform whose fixed space is the Hamming(7,4) code."""
    return MatrixOverGfp(2, _HAMMING_ROWS)


def golay_ntt_matrix() -> MatrixOverGfp:
    """The 12x12 ternary transform in canonical residue form (2 = -1 mod 3)."""
    return MatrixOverGfp(3, tuple(
        tuple(e % 3 for e in row) for row in _GOLAY_SIGNED_ROWS
    ))


def golay_ntt_signed_rows() -> tuple[tuple[int, ...], ...]:
    """The same 12x12 transform with entries kept in {-1, 0, +1}."""
    return _GOLAY_SIGNED_ROWS


@dataclass(frozen=True)
class Transform:
    """A named linear transform over GF(p)."""

    name: str
    matrix: MatrixOverGfp


HAMMING = Transform("hamming", hamming_ntt_matrix())
GOLAY = Transform("golay", golay_ntt_matrix())

BUILTIN_TRANSFORMS = {t.name: t for t in (HAMMING, GOLAY)}


def _matrix_of(transform: Transform | MatrixOverGfp) -> MatrixOverGfp:
    return transform.matrix if isinstance(transform, Transform) else transform


def apply(transform: Transform | MatrixOverGfp, x: Word) -> Word:
    """Apply the transform to a word (generic matrix-vector product)."""
    return mat_vec(_matrix_of(transform), x)


def _signed_sums(xs: Sequence[int], offset: int) -> Iterator[int]:
    """The 12-point transform by additions and subtractions only: xs[j]
    packs symbol j of every word, and output row i, plus the offset, packs
    symbol i of every image before its reduction mod 3."""
    return (sum(plus(xs)) - sum(minus(xs)) + offset for plus, minus in _SIGNED_GETTERS)


def _require_golay_shape(x: Word | _Batch) -> None:
    if x.modulus != 3 or len(x) != 12:
        raise ValueError("expected a ternary word of length 12")


def apply_addition_only(x: Word) -> Word:
    """Evaluate the 12-point ternary transform without any multiplication.

    Each output coordinate is a signed accumulation over the {-1, 0, +1}
    matrix: add x_j where the entry is +1, subtract where it is -1, skip
    zeros, and reduce mod 3 once at the end, all 12 sums by one translate.
    """
    _require_golay_shape(x)
    sums = bytes(_signed_sums(x.symbols, _OFFSET))
    return Word(3, tuple(sums.translate(_residue_table(3))))


def _addition_only_batch(x: _Batch) -> _Batch:
    """apply_addition_only of every word of the batch, as a batch."""
    _require_golay_shape(x)
    offset = _OFFSET * int.from_bytes(b"\x01" * x.size, "little")
    return _Batch(3, _reduce_lanes(3, _signed_sums(x.lanes(), offset), x.size))


# eigen_spectrum takes one null space per lambda in GF(p): about 0.46 ms each
# for a 12x12 matrix (Python 3.11, one core of a 2-vCPU host), so p <= 4096 keeps
# that sweep near 2 s; elimination is n**3, so p*n**3 <= 4096*12**3 bounds every n.
MAX_SPECTRUM_MODULUS = 4096
MAX_SPECTRUM_WORK = MAX_SPECTRUM_MODULUS * 12**3


@dataclass(frozen=True)
class EigenSpace:
    """An eigenvalue in GF(p) together with a canonical eigenvector basis."""

    eigenvalue: FieldElement
    basis: tuple[Word, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _require_square(m: MatrixOverGfp) -> None:
    if m.rows != m.cols:
        raise ValueError(f"eigen-analysis needs a square matrix, got {m.rows}x{m.cols}")


def _eigen_space_for(m: MatrixOverGfp, lam: int) -> EigenSpace:
    """The eigenspace of lam: the null space of M - lam*I (M square)."""
    p = m.modulus
    shifted = MatrixOverGfp(p, tuple(
        tuple((e - lam) % p if i == j else e for j, e in enumerate(row))
        for i, row in enumerate(m.entries)
    ))
    return EigenSpace(FieldElement(lam, p), tuple(null_space(shifted)))


def eigen_spectrum(transform: Transform | MatrixOverGfp) -> list[EigenSpace]:
    """All nonempty eigenspaces, found by sweeping every lambda in GF(p).

    The sweep is exhaustive rather than clever: trying each candidate
    eigenvalue against a null-space computation is trivially correct.  A
    sweep past MAX_SPECTRUM_MODULUS or MAX_SPECTRUM_WORK is refused before
    any of them.  Spaces are returned in ascending eigenvalue order.
    """
    m = _matrix_of(transform)
    p, n = m.modulus, m.rows
    if p > MAX_SPECTRUM_MODULUS:
        raise ValueError(f"the spectrum would try all {p} values of GF({p}), "
                         f"past the bound of p <= {MAX_SPECTRUM_MODULUS}")
    _require_square(m)
    if p * n**3 > MAX_SPECTRUM_WORK:
        raise ValueError(f"the spectrum of a {n}x{n} matrix over GF({p}) is "
                         f"past the bound of p*n**3 <= {MAX_SPECTRUM_WORK}")
    spaces = (_eigen_space_for(m, lam) for lam in range(p))
    return [space for space in spaces if space.dimension >= 1]


def fixed_space(transform: Transform | MatrixOverGfp) -> EigenSpace:
    """The lambda = 1 eigenspace: all words with T*w = w.

    May have dimension 0, in which case the basis is empty.
    """
    m = _matrix_of(transform)
    _require_square(m)
    return _eigen_space_for(m, 1)
