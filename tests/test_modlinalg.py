"""Gauss-Jordan elimination, null spaces, and the matrix text format."""

import itertools
import random

import pytest

from fieldflower.gfield import Word
from fieldflower.modlinalg import (
    MatrixOverGfp,
    format_matrix,
    identity,
    mat_mul,
    mat_sub,
    mat_vec,
    matrix_from_words,
    null_space,
    parse_matrix,
    rref,
    same_row_space,
)
from reference_constants import HAMMING_GENERATOR_ROWS, HAMMING_ROWS


def test_matrix_validation():
    with pytest.raises(ValueError):
        MatrixOverGfp(2, ())
    with pytest.raises(ValueError):
        MatrixOverGfp(2, ((1, 0), (1,)))
    with pytest.raises(ValueError):
        MatrixOverGfp(2, ((0, 2),))
    with pytest.raises(ValueError):
        MatrixOverGfp(9, ((1, 0),))
    with pytest.raises(ValueError):
        MatrixOverGfp(3, ((1.0, 2),))


def test_identity_is_its_own_rref():
    m = identity(5, 3)
    r = rref(m)
    assert r.rref == m
    assert r.rank == 5
    assert r.pivot_columns == (0, 1, 2, 3, 4)


def test_rref_of_hamming_generator():
    r = rref(MatrixOverGfp(2, HAMMING_GENERATOR_ROWS))
    assert r.rank == 4
    assert r.pivot_columns == (0, 1, 2, 3)
    assert r.rref.entries == (
        (1, 0, 0, 0, 1, 1, 1),
        (0, 1, 0, 0, 1, 1, 0),
        (0, 0, 1, 0, 0, 1, 1),
        (0, 0, 0, 1, 1, 0, 1),
    )


def test_rref_is_idempotent():
    rng = random.Random(7)
    for p in (2, 3):
        for _ in range(25):
            rows = rng.randrange(1, 7)
            cols = rng.randrange(1, 7)
            m = MatrixOverGfp(p, tuple(
                tuple(rng.randrange(p) for _ in range(cols)) for _ in range(rows)
            ))
            once = rref(m)
            again = rref(once.rref)
            assert again.rref == once.rref
            assert again.rank == once.rank


def test_rref_of_zero_matrix():
    m = MatrixOverGfp(2, ((0, 0, 0), (0, 0, 0)))
    r = rref(m)
    assert r.rref == m
    assert r.rank == 0
    assert r.pivot_columns == ()


def test_null_space_of_identity_is_empty():
    assert null_space(identity(4, 2)) == []


def test_null_space_of_zero_matrix_is_standard_basis():
    m = MatrixOverGfp(3, ((0, 0, 0), (0, 0, 0)))
    basis = null_space(m)
    assert [w.symbols for w in basis] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_null_space_vectors_are_in_kernel_and_canonical():
    rng = random.Random(11)
    for p in (2, 3):
        for _ in range(25):
            rows = rng.randrange(1, 7)
            cols = rng.randrange(1, 7)
            m = MatrixOverGfp(p, tuple(
                tuple(rng.randrange(p) for _ in range(cols)) for _ in range(rows)
            ))
            free = [c for c in range(cols) if c not in rref(m).pivot_columns]
            basis = null_space(m)
            assert len(basis) == len(free)
            zero = Word(p, (0,) * rows)
            for w, f in zip(basis, free):
                assert mat_vec(m, w) == zero
                # the basis vector owning free column f has a 1 there and 0
                # in every other free column
                assert w[f] == 1
                assert all(w[g] == 0 for g in free if g != f)


def test_rank_nullity_against_exhaustive_kernel():
    rng = random.Random(13)
    for p in (2, 3):
        for _ in range(10):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 9 if p == 2 else 8)
            m = MatrixOverGfp(p, tuple(
                tuple(rng.randrange(p) for _ in range(cols)) for _ in range(rows)
            ))
            rank = rref(m).rank
            nullity = len(null_space(m))
            assert rank + nullity == cols
            zero = Word(p, (0,) * rows)
            kernel = sum(
                1 for v in itertools.product(range(p), repeat=cols)
                if mat_vec(m, Word(p, v)) == zero
            )
            assert kernel == p ** nullity


def test_mat_mul_matches_composed_mat_vec():
    rng = random.Random(17)
    for p in (2, 3, 5):
        a = MatrixOverGfp(p, tuple(
            tuple(rng.randrange(p) for _ in range(4)) for _ in range(3)
        ))
        b = MatrixOverGfp(p, tuple(
            tuple(rng.randrange(p) for _ in range(5)) for _ in range(4)
        ))
        ab = mat_mul(a, b)
        for v in itertools.product(range(p), repeat=5):
            x = Word(p, v)
            assert mat_vec(ab, x) == mat_vec(a, mat_vec(b, x))


def test_mat_sub_self_is_zero():
    m = MatrixOverGfp(3, ((1, 2), (0, 1)))
    assert mat_sub(m, m).entries == ((0, 0), (0, 0))


def test_transform_square_fixes_generator_rows():
    # rows fixed by T stay fixed under T squared
    t = MatrixOverGfp(2, HAMMING_ROWS)
    tt = mat_mul(t, t)
    for row in HAMMING_GENERATOR_ROWS:
        g = Word(2, row)
        assert mat_vec(tt, g) == g


def test_shape_and_modulus_mismatches_rejected():
    a = MatrixOverGfp(2, ((1, 0),))
    b = MatrixOverGfp(3, ((1, 0),))
    with pytest.raises(ValueError):
        mat_sub(a, b)
    with pytest.raises(ValueError):
        mat_vec(a, Word(2, (1, 0, 1)))
    with pytest.raises(ValueError):
        mat_mul(a, MatrixOverGfp(2, ((1, 0),)))


def test_same_row_space_invariant_under_row_operations():
    g = MatrixOverGfp(2, HAMMING_GENERATOR_ROWS)
    rows = list(HAMMING_GENERATOR_ROWS)
    shuffled = MatrixOverGfp(2, (rows[2], rows[0], rows[3], rows[1]))
    assert same_row_space(g, shuffled)
    summed = MatrixOverGfp(2, (
        rows[0],
        tuple((a + b) % 2 for a, b in zip(rows[0], rows[1])),
        rows[2],
        rows[3],
    ))
    assert same_row_space(g, summed)
    assert not same_row_space(g, identity(7, 2))


def test_same_row_space_handles_scaled_rows_over_gf3():
    a = MatrixOverGfp(3, ((1, 2, 0), (0, 1, 1)))
    b = MatrixOverGfp(3, ((2, 1, 0), (0, 2, 2)))
    assert same_row_space(a, b)


def test_matrix_text_round_trip():
    m = MatrixOverGfp(3, ((1, 2, 0), (0, 1, 1)))
    assert parse_matrix(format_matrix(m)) == m


def test_parse_matrix_tolerates_layout():
    text = "p=2\n1 0 1;\n0 1 1\n"
    m = parse_matrix(text)
    assert m.entries == ((1, 0, 1), (0, 1, 1))
    # same rows on a single line
    assert parse_matrix("p=2\n1 0 1; 0 1 1") == m


def test_parse_matrix_errors():
    with pytest.raises(ValueError):
        parse_matrix("")
    with pytest.raises(ValueError):
        parse_matrix("1 0 1")
    with pytest.raises(ValueError):
        parse_matrix("p=x\n1 0")
    with pytest.raises(ValueError):
        parse_matrix("p=2\n1 z")
    with pytest.raises(ValueError):
        parse_matrix("p=2\n1 2")


def test_matrix_from_words():
    words = [Word(2, (1, 0, 1)), Word(2, (0, 1, 1))]
    assert matrix_from_words(words).entries == ((1, 0, 1), (0, 1, 1))
    with pytest.raises(ValueError):
        matrix_from_words([])
    with pytest.raises(ValueError):
        matrix_from_words([Word(2, (1, 0)), Word(3, (1, 0))])
