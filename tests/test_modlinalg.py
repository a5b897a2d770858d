"""Gauss-Jordan elimination, null spaces, and the matrix text format."""

import dataclasses
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from fieldflower import modlinalg
from fieldflower.gfield import Word
from fieldflower.modlinalg import (
    MatrixOverGfp,
    _Batch,
    _mat_batch,
    format_matrix,
    identity,
    mat_vec,
    matrix_from_words,
    null_space,
    parse_matrix,
    rref,
    same_row_space,
)
from reference_constants import HAMMING_GENERATOR_ROWS, HAMMING_ROWS
from reference_paths import reference_mat_vec
from test_gfield import ROUND_TRIP_PRIMES


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


def test_transform_square_fixes_generator_rows():
    # rows fixed by T stay fixed under T squared
    t = MatrixOverGfp(2, HAMMING_ROWS)
    for row in HAMMING_GENERATOR_ROWS:
        g = Word(2, row)
        assert mat_vec(t, mat_vec(t, g)) == g


def test_shape_and_modulus_mismatches_rejected():
    a = MatrixOverGfp(2, ((1, 0),))
    b = MatrixOverGfp(3, ((1, 0),))
    with pytest.raises(ValueError):
        mat_vec(b, Word(2, (1, 0)))
    with pytest.raises(ValueError):
        mat_vec(a, Word(2, (1, 0, 1)))


def batch_product(m, words):
    batch = _Batch.of(m.modulus, [w.symbols for w in words])
    assert batch.size == len(words) and len(batch) == m.cols
    out = _mat_batch(m, batch)
    assert out.size == len(words) and len(out) == m.rows
    return [Word(m.modulus, v) for v in zip(*out.rows)]


def lane_stress(rng, p, rows, n, count):
    """A matrix whose first row is all p-1 and vectors led by the all-(p-1)
    one, so that lane sums reach n*(p-1)**2; the rest is random."""
    m = MatrixOverGfp(p, ((p - 1,) * n,) + tuple(
        tuple(rng.randrange(p) for _ in range(n)) for _ in range(rows - 1)
    ))
    words = [Word(p, (p - 1,) * n), Word(p, (0,) * n)] + [
        Word(p, tuple(rng.randrange(p) for _ in range(n)))
        for _ in range(count - 2)
    ]
    return m, words


# (p, n, packed): n*(p-1)**2 is 255 at (2, 255), the widest exact lane sum,
# and 256 at (2, 256), (3, 64), (5, 16) and (17, 1); past p = 256 the batch
# rows are tuples.
@pytest.mark.parametrize("p,n,packed", [
    (2, 7, True), (3, 12, True), (3, 63, True), (5, 15, True),
    (2, 255, True), (2, 256, False), (3, 64, False), (5, 16, False),
    (17, 1, False), (7, 12, False), (257, 3, False),
])
def test_batch_product_matches_per_word_mat_vec(monkeypatch, p, n, packed):
    rng = random.Random(p * 1000 + n)
    m, words = lane_stress(rng, p, 6, n, 40)
    expected = [reference_mat_vec(m, w) for w in words]
    calls = []
    monkeypatch.setattr(modlinalg, "mat_vec",
                        lambda *a: calls.append(a) or mat_vec(*a))
    assert batch_product(m, words) == expected
    # past the lane bound, and only there, the product is taken word by word
    assert len(calls) == (0 if packed else len(words))


# (p, n, lane bytes): n*(p-1)**2 is 255 at (2, 255), (3, 63) is 252, (5, 15)
# 240, (7, 7) 252 and (13, 1) 144, all in one byte; one more column, or
# p = 17, passes 255.  Past p = 256 the lanes grow to 3, 5, 8 and 16 bytes.
@pytest.mark.parametrize("p,n,width", [
    (2, 255, 1), (2, 256, 2), (3, 63, 1), (3, 64, 2), (5, 15, 1), (5, 16, 2),
    (7, 7, 1), (7, 8, 2), (13, 1, 1), (13, 2, 2), (17, 1, 2), (17, 3, 2),
    (257, 3, 3), (65537, 3, 5), (2**31 - 1, 3, 8), (2**61 - 1, 3, 16),
])
@pytest.mark.parametrize("rows", [1, 5, "n"])
def test_mat_vec_matches_reference_at_every_lane_width(p, n, width, rows):
    assert modlinalg._lane_bytes(n, p) == width
    rng = random.Random(p * 1000 + n)
    m, words = lane_stress(rng, p, n if rows == "n" else rows, n, 12)
    for w in words:
        assert mat_vec(m, w) == reference_mat_vec(m, w)


@st.composite
def small_products(draw):
    """A matrix of up to 6x6 over GF(p) and a word it multiplies."""
    p = draw(st.sampled_from((2, 3, 5, 7, 13, 17, 257, 65537, 2**31 - 1, 2**61 - 1)))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    symbol = st.integers(0, p - 1)
    entries = draw(st.tuples(*[st.tuples(*[symbol] * cols)] * rows))
    return MatrixOverGfp(p, entries), Word(p, draw(st.tuples(*[symbol] * cols)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(small_products())
def test_mat_vec_matches_reference_on_random_matrices(product):
    m, x = product
    assert mat_vec(m, x) == reference_mat_vec(m, x)
    assert mat_vec(m, x) == reference_mat_vec(m, x)  # from the stored columns


def test_packed_columns_do_not_leak():
    fresh, filled = (MatrixOverGfp(3, ((1, 2, 0), (0, 1, 1))) for _ in range(2))
    x = Word(3, (2, 1, 1))
    expected = reference_mat_vec(fresh, x)
    assert mat_vec(filled, x) == expected
    assert "_packed" in vars(filled) and "_packed" not in vars(fresh)
    assert filled == fresh and hash(filled) == hash(fresh)
    assert repr(filled) == repr(fresh) == "MatrixOverGfp(2x3 over GF(3))"
    assert [f.name for f in dataclasses.fields(filled)] == ["modulus", "entries"]
    assert dataclasses.asdict(filled) == dataclasses.asdict(fresh)
    assert dataclasses.astuple(filled) == dataclasses.astuple(fresh)
    for m in (fresh, filled):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            # the pickle of a used matrix is that of a fresh one
            data = pickle.dumps(m, protocol=protocol)
            assert len(data) == len(pickle.dumps(fresh, protocol=protocol))
            back = pickle.loads(data)
            assert back == fresh and hash(back) == hash(fresh)
            assert "_packed" not in vars(back)
            assert mat_vec(back, x) == expected
        assert dataclasses.replace(m) == fresh
        # a replaced matrix packs its own columns, at its own lane width
        other = dataclasses.replace(m, entries=((2, 2, 1), (1, 0, 2)))
        assert "_packed" not in vars(other)
        assert mat_vec(other, x) == reference_mat_vec(other, x) != expected
        wide, y = dataclasses.replace(m, modulus=257), Word(257, (256, 255, 7))
        assert mat_vec(wide, y) == reference_mat_vec(wide, y)


@pytest.mark.parametrize("size", [1, 2, 729, 10729])
def test_batch_product_over_batch_sizes(size):
    rng = random.Random(size)
    m, words = lane_stress(rng, 3, 12, 12, max(size, 2))
    words = words[:size]
    assert batch_product(m, words) == [mat_vec(m, w) for w in words]


def test_batch_product_rejects_what_mat_vec_rejects():
    m = MatrixOverGfp(2, ((1, 0),))
    for x in (_Batch.of(2, [(1, 0, 1)]), _Batch.of(3, [(1, 0)])):
        with pytest.raises(ValueError) as batch_error:
            _mat_batch(m, x)
        with pytest.raises(ValueError) as word_error:
            mat_vec(m, Word(x.modulus, next(zip(*x.rows))))
        assert str(batch_error.value) == str(word_error.value)


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


@st.composite
def text_matrices(draw):
    """A matrix of up to 6x6 over one of the round-trip moduli."""
    p = draw(st.sampled_from(ROUND_TRIP_PRIMES))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    symbol = st.integers(0, p - 1)
    return MatrixOverGfp(p, draw(st.tuples(*[st.tuples(*[symbol] * cols)] * rows)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(text_matrices())
def test_matrix_text_round_trip(m):
    text = format_matrix(m)
    assert parse_matrix(text) == m
    assert format_matrix(parse_matrix(text)) == text


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
    # only ASCII [0-9]+ entries and moduli, though int() takes the others
    for bad in ("p=2\n0 \u0661", "p=2\n0 +1", "p=13\n1_0 0", "p=1_1\n1 0",
                "p=\u0663\n1 0", "p=2\n0 -1"):
        with pytest.raises(ValueError, match="invalid"):
            parse_matrix(bad)
    with pytest.raises(ValueError, match=r"'1_0' at position \(1,0\) .* GF\(13\)"):
        parse_matrix("p=13\n1 0; 1_0 2")


def test_matrix_from_words():
    words = [Word(2, (1, 0, 1)), Word(2, (0, 1, 1))]
    assert matrix_from_words(words).entries == ((1, 0, 1), (0, 1, 1))
    with pytest.raises(ValueError):
        matrix_from_words([])
    with pytest.raises(ValueError):
        matrix_from_words([Word(2, (1, 0)), Word(3, (1, 0))])
