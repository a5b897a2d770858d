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

The signed matrix `_GOLAY_SIGNED_ROWS` is packed once, by columns, and
evaluated by additions only.  `_COLUMNS[j][v]` is v times signed column j,
one byte lane per output row (row 0 in the top lane), formed as c_j + c_j
for v = 2.  `apply_addition_only` sums the entry of each symbol onto
`_OFFSET_LANES`, which holds the offset `_OFFSET` in every lane.  The offset
is a multiple of 3, so it leaves every residue alone, and at least 2 * (the
most -1 entries in a row), so no lane ends below 0; a lane ends at most
_OFFSET + 2 * (the most +1 entries in a row) = 22 <= 255.  A partial sum
may have negative lanes, which borrow from the lane above, but the whole sum
is sum_i (_OFFSET + s_i) * 256**(11 - i), with s_i the signed sum of row i
and every _OFFSET + s_i in 0..22; so its 12 big-endian bytes are exactly
those lanes, and one `bytes.translate` reduces every lane mod 3.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

from .gfield import FieldElement, Word, _Frozen, _reduced_word
from .modlinalg import MatrixOverGfp, _eliminate, _null_basis, _residue_table, mat_vec

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


# The least multiple of 3 that is at least 2 * (the most -1 entries in a row).
_OFFSET = 3 * -(-2 * max(row.count(-1) for row in _GOLAY_SIGNED_ROWS) // 3)


def _pack_lanes(values: Sequence[int]) -> int:
    """The values packed one byte lane each, the first in the top lane."""
    return sum(v << 8 * k for k, v in enumerate(reversed(values)))


# Per column j of the signed form: 0, c_j and c_j + c_j, where c_j packs
# column j one lane per output row, so _COLUMNS[j][v] is v * column j.
_COLUMNS = tuple(
    (0, c, c + c) for c in map(_pack_lanes, zip(*_GOLAY_SIGNED_ROWS))
)
_OFFSET_LANES = _pack_lanes((_OFFSET,) * len(_GOLAY_SIGNED_ROWS))


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


class Transform(_Frozen):
    """A named linear transform over GF(p)."""

    def __init__(self, name: str, matrix: MatrixOverGfp) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "matrix", matrix)


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
    matrix.  The word's symbols pick one packed multiple of each signed
    column from `_COLUMNS`; their sum, on the offset lanes, holds all 12
    accumulations, reduced mod 3 at the end by one translate.
    """
    if x.modulus != 3 or len(x) != 12:
        raise ValueError("expected a ternary word of length 12")
    sums = sum(map(tuple.__getitem__, _COLUMNS, x.symbols), _OFFSET_LANES)
    return _reduced_word(3, tuple(sums.to_bytes(12, "big").translate(_residue_table(3))))


# eigen_spectrum tries every lambda in GF(p) on the characteristic polynomial
# (Horner, p*n steps; p <= 4096 bounds them) and takes a null space, n**3, at
# each root only (roots*n**3 <= 4096*12**3).  The polynomial costs about one
# null space, so it needs n**3 <= 4096*12**3 too.  On one core of a 2-vCPU host
# (Python 3.11) a 12x12 spectrum at p = 4093 takes 6-8 ms, 51 null spaces of a
# 51x51 matrix 0.4 s, and the polynomial of a 192x192 one 0.9 s.
MAX_SPECTRUM_MODULUS = 4096
MAX_SPECTRUM_WORK = MAX_SPECTRUM_MODULUS * 12**3


class EigenSpace(_Frozen):
    """An eigenvalue in GF(p) together with a canonical eigenvector basis."""

    def __init__(self, eigenvalue: FieldElement, basis: tuple[Word, ...]) -> None:
        object.__setattr__(self, "eigenvalue", eigenvalue)
        object.__setattr__(self, "basis", basis)

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _require_square(m: MatrixOverGfp) -> None:
    if m.rows != m.cols:
        raise ValueError(f"eigen-analysis needs a square matrix, got {m.rows}x{m.cols}")


def _eigen_space_for(m: MatrixOverGfp, lam: int) -> EigenSpace:
    """The eigenspace of lam: the null space of M - lam*I (M square)."""
    p = m.modulus
    shifted = [(*row[:i], (row[i] - lam) % p, *row[i + 1:]) for i, row in enumerate(m.entries)]
    return EigenSpace(FieldElement(lam, p), tuple(_null_basis(p, m.cols, *_eliminate(p, shifted))))


def _char_poly(m: MatrixOverGfp) -> list[int]:
    """det(xI - M) over GF(p), its coefficients from x**n (always 1) down.

    A copy of M is brought to upper Hessenberg form H by similarity
    transforms, which keep the polynomial.  In each column c the pivot is
    the first nonzero entry from the subdiagonal row s = c + 1 down; its row
    and column are swapped with row and column s, and each entry below it
    is cleared by a row operation whose compensating column operations are
    summed into column s.  The leading blocks of H then give det(xI - H) by
    the recurrence of Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 2.2.9.
    """
    p, n = m.modulus, m.rows
    h = [list(row) for row in m.entries]
    for c in range(n - 2):
        s = c + 1
        i = next((i for i in range(s, n) if h[i][c]), n)
        if i == n:
            continue
        if i != s:
            h[s], h[i] = h[i], h[s]
            for row in h:
                row[s], row[i] = row[i], row[s]
        inv, pivot = pow(h[s][c], p - 2, p), h[s][c:]
        us = [h[i][c] * inv % p for i in range(s + 1, n)]
        for i, u in enumerate(us, s + 1):
            if u:
                h[i][c:] = [(x - u * y) % p for x, y in zip(h[i][c:], pivot)]
        if any(us):
            for row in h:
                row[s] = (row[s] + sum(map(mul, us, row[s + 1:]))) % p
    # polys[k] = det(xI - H_k), H_k the leading k x k block, x**0 first:
    # polys[k+1] = x*polys[k] - sum_i h[i][k] * h[i+1][i]...h[k][k-1] * polys[i]
    polys = [[1]]
    for k in range(n):
        f, t = [0, *polys[k]], 1
        for i in range(k, -1, -1):
            if i < k:
                t = t * h[i + 1][i] % p
                if not t:
                    break
            a = h[i][k] * t % p
            if a:
                f[:i + 1] = [(x - a * y) % p for x, y in zip(f, polys[i])]
        polys.append(f)
    return polys[n][::-1]


def _roots(coefficients: list[int], p: int) -> list[int]:
    """Every lambda in GF(p), ascending, at which the polynomial (its
    coefficients from the highest degree down) is 0, by Horner's rule."""
    roots = []
    for lam in range(p):
        acc = 0
        for a in coefficients:
            acc = (acc * lam + a) % p
        if not acc:
            roots.append(lam)
    return roots


def eigen_spectrum(transform: Transform | MatrixOverGfp) -> list[EigenSpace]:
    """All nonempty eigenspaces, in ascending eigenvalue order.

    The eigenvalues are the roots of the characteristic polynomial, found by
    trying each lambda in GF(p) on it; one null space is then taken at each
    root, and none anywhere else.  A modulus past MAX_SPECTRUM_MODULUS, or a
    matrix whose polynomial would already be past MAX_SPECTRUM_WORK, is
    refused before any work; so are null spaces past MAX_SPECTRUM_WORK
    (roots*n**3), once the roots are known and before the first of them.
    """
    m = _matrix_of(transform)
    p, n = m.modulus, m.rows
    if p > MAX_SPECTRUM_MODULUS:
        raise ValueError(f"the spectrum would try all {p} values of GF({p}), "
                         f"past the bound of p <= {MAX_SPECTRUM_MODULUS}")
    _require_square(m)
    if n**3 > MAX_SPECTRUM_WORK:
        raise ValueError(f"the characteristic polynomial of a {n}x{n} matrix is "
                         f"past the bound of n**3 <= {MAX_SPECTRUM_WORK}")
    roots = _roots(_char_poly(m), p)
    if len(roots) * n**3 > MAX_SPECTRUM_WORK:
        raise ValueError(f"the spectrum of a {n}x{n} matrix over GF({p}) takes one "
                         f"null space per eigenvalue, {len(roots)} in all, past "
                         f"the bound of roots*n**3 <= {MAX_SPECTRUM_WORK}")
    return [_eigen_space_for(m, lam) for lam in roots]


def fixed_space(transform: Transform | MatrixOverGfp) -> EigenSpace:
    """The lambda = 1 eigenspace: all words with T*w = w.

    May have dimension 0, in which case the basis is empty.
    """
    m = _matrix_of(transform)
    _require_square(m)
    return _eigen_space_for(m, 1)
