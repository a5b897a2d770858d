"""The two built-in number-theoretic transforms and eigen-analysis over GF(p).

The 7-point transform over GF(2) is derived from the Hamming code H(7,4,3);
the 12-point transform over GF(3) from the extended ternary Golay code.  Both
are fixed constants.  The 12-point matrix has entries in {0, +1, -1} (with
2 = -1 mod 3), so it admits an addition-only evaluation path that never
multiplies; that path is kept separate from the generic matrix product on
purpose, and the two are required to agree everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gfield import FieldElement, Word
from .modlinalg import MatrixOverGfp, mat_vec, null_space

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


def apply_addition_only(x: Word) -> Word:
    """Evaluate the 12-point ternary transform without any multiplication.

    Each output coordinate is a signed accumulation over the {-1, 0, +1}
    matrix: add x_j where the entry is +1, subtract where it is -1, skip
    zeros, and reduce mod 3 once at the end.
    """
    if x.modulus != 3 or len(x) != 12:
        raise ValueError("expected a ternary word of length 12")
    out = []
    for row in _GOLAY_SIGNED_ROWS:
        acc = 0
        for e, v in zip(row, x.symbols):
            if e == 1:
                acc += v
            elif e == -1:
                acc -= v
        out.append(acc % 3)
    return Word(3, tuple(out))


@dataclass(frozen=True)
class EigenSpace:
    """An eigenvalue in GF(p) together with a canonical eigenvector basis."""

    eigenvalue: FieldElement
    basis: tuple[Word, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _eigen_space_for(m: MatrixOverGfp, lam: int) -> EigenSpace:
    """The eigenspace of lam: the null space of M - lam*I."""
    if m.rows != m.cols:
        raise ValueError(f"eigen-analysis needs a square matrix, got {m.rows}x{m.cols}")
    p = m.modulus
    shifted = MatrixOverGfp(p, tuple(
        tuple((e - lam) % p if i == j else e for j, e in enumerate(row))
        for i, row in enumerate(m.entries)
    ))
    return EigenSpace(FieldElement(lam, p), tuple(null_space(shifted)))


def eigen_spectrum(transform: Transform | MatrixOverGfp) -> list[EigenSpace]:
    """All nonempty eigenspaces, found by sweeping every lambda in GF(p).

    The sweep is exhaustive rather than clever: p is tiny, and trying each
    candidate eigenvalue against a null-space computation is trivially
    correct.  Spaces are returned in ascending eigenvalue order.
    """
    m = _matrix_of(transform)
    spaces = (_eigen_space_for(m, lam) for lam in range(m.modulus))
    return [space for space in spaces if space.dimension >= 1]


def fixed_space(transform: Transform | MatrixOverGfp) -> EigenSpace:
    """The lambda = 1 eigenspace: all words with T*w = w.

    May have dimension 0, in which case the basis is empty.
    """
    m = _matrix_of(transform)
    return _eigen_space_for(m, 1 % m.modulus)
