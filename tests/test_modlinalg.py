"""Gauss-Jordan elimination, null spaces, and the matrix text format."""

import dataclasses
import itertools
import math
import pickle
import random
import tracemalloc
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from fieldflower import modlinalg, verify
from fieldflower.codes import LinearCode, builtin_code, enumerate_codewords
from fieldflower.gfield import Word, format_word
from fieldflower.modlinalg import (
    MatrixOverGfp,
    RrefResult,
    format_matrix,
    identity,
    mat_vec,
    matrix_from_words,
    null_space,
    parse_matrix,
    rref,
    same_row_space,
)
from fieldflower.ntt import hamming_ntt_matrix
import oracle
from reference_paths import reference_isomorphism, rref_certified
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
    r = rref(MatrixOverGfp(2, oracle.HAMMING_GENERATOR))
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


def _next_prime(q):
    return next(c for c in itertools.count(q + 1)
                if all(c % d for d in range(2, math.isqrt(c) + 1)))


# Moduli on both sides of the packed rows' cutoff; 2**64 - 59, the largest
# accepted prime, is past every lane width.
ELIMINATION_PRIMES = (2, 3, 5, 7, 13, 61, _next_prime(modlinalg._PACKED_MAX), 127,
                      2**31 - 1, 2**61 - 1, 2**64 - 59)


def elimination_inputs(rng, p):
    """Residue rows of each shape an elimination meets: 1x1, 1xn, nx1, wide,
    tall, sparse, zero, identity, planted dependent rows, and 260 columns,
    where lanes are 16 bits wide."""
    def draw(k, n, zeros=0.0):
        return [[0 if rng.random() < zeros else rng.randrange(p) for _ in range(n)]
                for _ in range(k)]
    planted, c = draw(10, 16), rng.randrange(1, p)
    planted[4] = [(x + c * y) % p for x, y in zip(planted[0], planted[2])]
    planted[7] = [c * x % p for x in planted[1]]
    planted[9] = planted[4]
    return [draw(1, 1), draw(1, 23), draw(23, 1), draw(12, 40), draw(40, 12),
            draw(12, 40, zeros=0.8), draw(5, 9, zeros=1.0),
            [[int(i == j) for j in range(9)] for i in range(9)], planted, draw(6, 260)]


@pytest.mark.parametrize("p", ELIMINATION_PRIMES)
def test_rref_matches_the_list_loop(monkeypatch, p):
    # rref against the list loop, the path past the cutoff and the oracle
    # below it: pivots, rank and rows.
    inputs = elimination_inputs(random.Random(p), p)
    for rows in inputs:
        reduced, pivots = modlinalg._gauss_jordan(p, rows)
        got = rref(MatrixOverGfp(p, tuple(map(tuple, rows))))
        assert got == RrefResult(MatrixOverGfp(p, tuple(reduced)), len(pivots), tuple(pivots))
    # Packed rows hold every p <= 2**31, so past the cutoff they agree too.
    if p <= 2**31:
        monkeypatch.setattr(modlinalg, "_PACKED_MAX", p)
        for rows in inputs:
            assert modlinalg._eliminate(p, rows) == modlinalg._gauss_jordan(p, rows)


@pytest.mark.parametrize("p, n", [(2, 100), (2, 200), (3, 100), (3, 200), (2**61 - 1, 100)])
def test_rref_certificate_on_large_matrices(p, n):
    rng = random.Random(n)
    m = MatrixOverGfp(p, tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n)))
    result = rref(m)
    assert rref_certified(m, result)
    if n == 100:  # the certificate refuses the rows out of order
        swapped = MatrixOverGfp(p, result.rref.entries[::-1])
        assert not rref_certified(m, dataclasses.replace(result, rref=swapped))


# The lane width W switches at p = 2**(W-1) + 1 and at n = 2**W: moduli and
# word lengths on each side of each switch, with the width each one needs.
LANE_MODULI = {2: 8, 3: 8, 127: 8, 131: 16, 32749: 16, 32771: 32, 2**31 - 1: 32}
LANE_LENGTHS = {1: 8, 255: 8, 256: 16, 65535: 16, 65536: 32}


@pytest.mark.parametrize("p, n", [(p, n) for p in LANE_MODULI for n in (1, 255, 256)]
                         + [(p, n) for p in (2, 32749) for n in (65535, 65536)])
def test_lanes_match_the_per_symbol_arithmetic(p, n):
    # The layout against per-symbol arithmetic mod p: a round trip, the
    # lane-wise reduction over a block of three words, c*x, and the multiples.
    rng = random.Random(f"{p},{n}")
    lanes = modlinalg._word_lanes(p, n)
    assert lanes is modlinalg._word_lanes(p, n)
    assert lanes.w == max(LANE_MODULI[p], LANE_LENGTHS[n])
    row = tuple(rng.choice((0, p - 1, rng.randrange(p))) for _ in range(n))
    x = lanes.pack(row)
    assert lanes.unpack(x) == row
    # A lane of a sum lies in 0..2p-2; 0, p-1, p and 2p-2 in the first,
    # middle or last lane of the block, every other lane a random sum.
    block, drawn = modlinalg._Lanes(p, n, 3), [rng.randrange(2 * p - 1) for _ in range(3 * n)]
    for lane in (0, 3 * n // 2, 3 * n - 1):
        for v in (0, p - 1, p, 2 * p - 2):
            sums = drawn.copy()
            sums[lane] = v
            s = int.from_bytes(b"".join(block.struct.pack(*sums[i:i + n])
                                        for i in range(0, 3 * n, n)), "little")
            reduced = block.reduce(s).to_bytes(3 * block.size, "little")
            assert [e for word in block.struct.iter_unpack(reduced) for e in word] == \
                [e % p for e in sums]
    for c in {c for c in (1, 2, p - 2, p - 1) if 0 < c < p}:
        assert lanes.unpack(lanes.times(c, x)) == tuple(c * e % p for e in row)
    if p <= 131:  # the multiples are p ints of n lanes each
        assert list(map(lanes.unpack, lanes.multiples(x))) == \
            [tuple(c * e % p for e in row) for c in range(p)]


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
            free = [c for c in range(cols) if c not in oracle.rref(m.entries, p)[2]]
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
            rank = oracle.rank(m.entries, p)
            nullity = len(null_space(m))
            assert rank + nullity == cols
            zero = Word(p, (0,) * rows)
            kernel = sum(
                1 for v in itertools.product(range(p), repeat=cols)
                if mat_vec(m, Word(p, v)) == zero
            )
            assert kernel == p ** nullity


@pytest.mark.parametrize("p", [2, 3, 2**61 - 1])
def test_null_space_of_wide_and_tall_matrices_matches_the_oracle(p):
    # Symbol for symbol against the oracle's basis: a wide 60x200 matrix, and
    # a tall 200x60 one whose 20 planted columns, at random places, combine
    # the other 40, so that its kernel is not zero.  Up to p = 61
    # elimination runs on packed rows, past it on lists of ints.
    rng = random.Random(p)
    wide = [[rng.randrange(p) for _ in range(200)] for _ in range(60)]
    columns = [[rng.randrange(p) for _ in range(200)] for _ in range(40)]
    columns += [[sum(map(mul, cs, row)) % p for row in zip(*columns)]
                for cs in ([rng.randrange(p) for _ in range(40)] for _ in range(20))]
    rng.shuffle(columns)
    tall = list(zip(*columns))
    for rows, nullity in ((wide, 140), (tall, 20)):
        m = MatrixOverGfp(p, tuple(map(tuple, rows)))
        expected = oracle.null_space(m.entries, p)
        assert len(expected) == nullity
        assert [w.symbols for w in null_space(m)] == expected


def test_transform_square_fixes_generator_rows():
    # rows fixed by T stay fixed under T squared
    t = MatrixOverGfp(2, oracle.HAMMING_T)
    for row in oracle.HAMMING_GENERATOR:
        g = Word(2, row)
        assert mat_vec(t, mat_vec(t, g)) == g


def test_shape_and_modulus_mismatches_rejected():
    a = MatrixOverGfp(2, ((1, 0),))
    b = MatrixOverGfp(3, ((1, 0),))
    with pytest.raises(ValueError):
        mat_vec(b, Word(2, (1, 0)))
    with pytest.raises(ValueError):
        mat_vec(a, Word(2, (1, 0, 1)))


def isomorphism_walk(monkeypatch, m, code):
    """verify's isomorphism check of m on the code (after the Hamming code,
    which the built-in matrix fixes), and the products it took word by word."""
    calls = []
    monkeypatch.setattr(verify, "mat_vec", lambda *a: calls.append(a) or mat_vec(*a))
    return verify._check_isomorphism(hamming_ntt_matrix(), m, code), calls


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


def fixing(p, v, u):
    """I + u v^T: it fixes every word orthogonal to v and moves the others."""
    return MatrixOverGfp(p, tuple(
        tuple((int(i == j) + a * b) % p for j, b in enumerate(v.symbols))
        for i, a in enumerate(u.symbols)))


# (p, n, fits): fits says whether one byte holds a lane sum of n products of
# residues mod p, n*(p-1)**2 <= 255, as at (2, 255), (3, 63) and (5, 15); the
# sum is 256 at (2, 256), (3, 64), (5, 16) and (17, 1), and past p = 256 no
# symbol fits a byte.  At every (p, n) the isomorphism check multiplies the
# zero word and the generator rows, last first, and lists no code.
@pytest.mark.parametrize("p,n,fits", [
    (2, 7, True), (3, 12, True), (3, 63, True), (5, 15, True),
    (2, 255, True), (2, 256, False), (3, 64, False), (5, 16, False),
    (17, 1, False), (7, 12, False), (257, 3, False),
])
def test_isomorphism_on_rows_last_first_matches_the_listing_walk(monkeypatch, p, n, fits):
    assert fits == (n * (p - 1) ** 2 <= 255 and p <= 256)
    rng = random.Random(p * 1000 + n)
    m, words = lane_stress(rng, p, n, n, 40)
    # a code of k random rows, and matrices that fix all of it (I, and
    # I + e_0 v^T with v orthogonal to every row), fix its last row and move
    # its first, which the listing reaches after the multiples of the last,
    # or are m
    k = 1 if n == 1 or p > 17 else 2
    code = LinearCode(matrix_from_words(words[2:2 + k]))
    g = code.generator
    unit = Word(p, (1,) + (0,) * (n - 1))
    fixes_code = null_space(g)
    fixes_last = [v for v in null_space(MatrixOverGfp(p, g.entries[-1:]))
                  if mat_vec(g, v).symbols[0]]
    cases = [identity(n, p), m] + [fixing(p, v, unit) for v in fixes_code[:1] + fixes_last[:1]]
    listing = enumerate_codewords(code)
    walk = [Word(p, (0,) * n)] + [Word(p, row) for row in reversed(g.entries)]
    for t in cases:
        expected = reference_isomorphism(hamming_ntt_matrix(), t, code)
        result, calls = isomorphism_walk(monkeypatch, t, code)
        assert result == expected
        # the Hamming zero word and 4 rows, then the code's zero word and
        # rows, last first, up to the first moved, which is the listing's
        moved = [w for w in walk if mat_vec(t, w) != w]
        taken = walk[:walk.index(moved[0]) + 1] if moved else walk
        if moved:
            first = next(w for w in listing if mat_vec(t, w) != w)
            assert moved[0] == first
            assert result == (False, f"codeword {format_word(first)} is not fixed")
        else:
            assert result == (True, f"all {16 + p ** k} codewords are fixed points")
        assert [w for _, w in calls[5:]] == taken


# (p, n, lane bytes): n*(p-1)**2 is 255 at (2, 255), (3, 63) is 252, (5, 15)
# 240, (7, 7) 252 and (13, 1) 144, all in one byte; one more column, or
# p = 17, passes 255.  Past p = 256 the lanes grow to 3, 4, 5, 8 and 16 bytes.
@pytest.mark.parametrize("p,n,width", [
    (2, 255, 1), (2, 256, 2), (3, 63, 1), (3, 64, 2), (5, 15, 1), (5, 16, 2),
    (7, 7, 1), (7, 8, 2), (13, 1, 1), (13, 2, 2), (17, 1, 2), (17, 3, 2),
    (257, 3, 3), (4099, 3, 4), (65537, 3, 5), (2**31 - 1, 3, 8), (2**61 - 1, 3, 16),
])
@pytest.mark.parametrize("rows", [1, 5, "n"])
def test_mat_vec_matches_reference_at_every_lane_width(p, n, width, rows):
    assert modlinalg._lane_bytes(n, p) == width
    rng = random.Random(p * 1000 + n)
    m, words = lane_stress(rng, p, n if rows == "n" else rows, n, 12)
    for w in words:
        # built without a second range check, the image is still a Word
        # equal, hash-equal and pickle-equal to the checked one
        y, expected = mat_vec(m, w), Word(p, oracle.mat_vec(m.entries, w.symbols, p))
        assert type(y) is Word and y == expected and hash(y) == hash(expected)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(y, protocol)) == y


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
    expected = Word(m.modulus, oracle.mat_vec(m.entries, x.symbols, m.modulus))
    assert mat_vec(m, x) == expected
    assert mat_vec(m, x) == expected  # from the stored columns


def test_packed_columns_do_not_leak():
    fresh, filled = (MatrixOverGfp(3, ((1, 2, 0), (0, 1, 1))) for _ in range(2))
    x = Word(3, (2, 1, 1))
    expected = Word(3, oracle.mat_vec(fresh.entries, x.symbols, 3))
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
        assert mat_vec(other, x) == \
            Word(3, oracle.mat_vec(other.entries, x.symbols, 3)) != expected
        wide, y = dataclasses.replace(m, modulus=257), Word(257, (256, 255, 7))
        assert mat_vec(wide, y) == Word(257, oracle.mat_vec(wide.entries, y.symbols, 257))


def test_batch_product_rejects_what_mat_vec_rejects():
    # handed a matrix that is not 12 x 12 over GF(3), the golay checks
    # raise mat_vec's error
    golay = builtin_code("golay")
    zero = Word(3, (0,) * 12)
    for m in (identity(12, 2), identity(11, 3), MatrixOverGfp(3, ((1, 0),))):
        with pytest.raises(ValueError) as word_error:
            mat_vec(m, zero)
        for check in (lambda: verify._check_isomorphism(hamming_ntt_matrix(), m, golay),
                      lambda: verify._check_addition_only(m, golay)):
            with pytest.raises(ValueError) as check_error:
                check()
            assert str(check_error.value) == str(word_error.value)


def test_same_row_space_invariant_under_row_operations():
    g = MatrixOverGfp(2, oracle.HAMMING_GENERATOR)
    rows = list(oracle.HAMMING_GENERATOR)
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


def test_same_row_space_rejects_mismatched_column_counts():
    a = MatrixOverGfp(3, ((1, 2, 0), (0, 1, 1)))
    with pytest.raises(ValueError, match="column count mismatch: 3 vs 2"):
        same_row_space(a, MatrixOverGfp(3, ((1, 2), (0, 1))))
    with pytest.raises(ValueError):
        same_row_space(a, MatrixOverGfp(5, ((1, 2, 0),)))


@pytest.mark.parametrize("p", [2, 3, 61, 67, 2**61 - 1])
def test_same_row_space_matches_the_reference_rank(p):
    # A and B span the same space iff rank A = rank B = rank of A on B.
    # Rows are drawn from the span of a few random rows, so both matrices
    # are often rank-deficient; A has a zero row in the middle, B another
    # row count, and C is B with one row moved, most often out of the span.
    # p up to 61 eliminates on packed rows, past it on lists of ints.
    rng, n, outcomes = random.Random(p), 6, []
    for _ in range(60):
        basis = [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randint(1, 4))]

        def spanned(count):
            coefficients = [[rng.randrange(p) for _ in basis] for _ in range(count)]
            return [tuple(sum(map(mul, cs, column)) % p for column in zip(*basis))
                    for cs in coefficients]

        a, b = spanned(rng.randint(1, 5)), spanned(rng.randint(1, 7))
        a.insert(len(a) // 2 + 1, (0,) * n)
        c = list(b)
        i, j = rng.randrange(len(c)), rng.randrange(n)
        c[i] = c[i][:j] + ((c[i][j] + 1) % p,) + c[i][j + 1:]
        for x, y in ((a, b), (b, a), (a, c), (c, b)):
            expected = oracle.rank(x, p) == oracle.rank(y, p) == oracle.rank(x + y, p)
            assert same_row_space(MatrixOverGfp(p, x), MatrixOverGfp(p, y)) == expected, (x, y)
            outcomes.append(expected)
    assert outcomes.count(True) >= 20 and outcomes.count(False) >= 20


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


def test_parse_matrix_dimension_bound(monkeypatch):
    n = modlinalg.MAX_MATRIX_DIM
    square = "p=2\n" + ";\n".join(" ".join(["0"] * n) for _ in range(n)) + ";\n;;\n"
    assert parse_matrix(square) == MatrixOverGfp(2, ((0,) * n,) * n)
    checked = []
    monkeypatch.setattr(modlinalg, "_is_decimal",
                        lambda t: checked.append(t) or t.isdigit())
    for text in ("p=2\n" + "1;" * (n + 1), "p=2\n" + "1 " * (n + 1),
                 "p=2\n1\n;" + "\t1\n" * (n + 1)):
        with pytest.raises(ValueError, match=f"past the bound of {n}$"):
            parse_matrix(text)
    # refused from the header alone: no entry was looked at
    assert checked == ["2"] * 3


def test_parse_matrix_counts_rows_without_splitting_the_text():
    # 500,000 rows of `0;` are refused by a count of one match at a time:
    # the peak stays under twice the text, with the same message
    text = "p=2\n" + "0;" * 500_000
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as refused:
            parse_matrix(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == "matrix text has 500000 rows, past the bound of 200"
    assert peak < 2 * len(text)
    # blank chunks, of any whitespace, are no rows
    assert parse_matrix("p=2\n" + ";" * 100_000 + " \u2003\n;1 0;\t;") == \
        MatrixOverGfp(2, ((1, 0),))
    with pytest.raises(ValueError, match="^matrix text has no rows$"):
        parse_matrix("p=2\n;\u00a0; \n;")


def test_matrix_from_words():
    words = [Word(2, (1, 0, 1)), Word(2, (0, 1, 1))]
    assert matrix_from_words(words).entries == ((1, 0, 1), (0, 1, 1))
    with pytest.raises(ValueError):
        matrix_from_words([])
    with pytest.raises(ValueError):
        matrix_from_words([Word(2, (1, 0)), Word(3, (1, 0))])
