"""The built-in transforms: constants, worked pairs, eigenspaces, kernels."""

import ast
import hashlib
import inspect
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from fieldflower.gfield import Word, format_word, parse_word
from fieldflower.modlinalg import (
    MatrixOverGfp,
    format_matrix,
    identity,
    mat_vec,
    matrix_from_words,
    rref,
    same_row_space,
)
from fieldflower import ntt
from fieldflower.ntt import (
    _COLUMNS,
    _OFFSET,
    _OFFSET_LANES,
    BUILTIN_TRANSFORMS,
    GOLAY,
    HAMMING,
    MAX_SPECTRUM_MODULUS,
    MAX_SPECTRUM_WORK,
    apply,
    apply_addition_only,
    eigen_spectrum,
    fixed_space,
    golay_ntt_matrix,
    golay_ntt_signed_rows,
    hamming_ntt_matrix,
)
import oracle
import reference_constants as ref
from reference_paths import eigen_space_certified, reference_eigen_spectrum


def test_builtin_matrices_match_reference_transcription():
    assert hamming_ntt_matrix().entries == oracle.HAMMING_T
    assert golay_ntt_signed_rows() == oracle.GOLAY_SIGNED
    assert golay_ntt_matrix().entries == tuple(
        tuple(e % 3 for e in row) for row in oracle.GOLAY_SIGNED
    )


def test_builtin_matrix_checksums():
    for m, expected in (
        (hamming_ntt_matrix(), ref.HAMMING_MATRIX_SHA256),
        (golay_ntt_matrix(), ref.GOLAY_MATRIX_SHA256),
    ):
        got = hashlib.sha256(format_matrix(m).encode("ascii")).hexdigest()
        assert got == expected


def test_signed_rows_only_use_zero_and_units():
    for row in golay_ntt_signed_rows():
        assert set(row) <= {-1, 0, 1}


def test_hamming_worked_pairs():
    for src, dst in ref.HAMMING_PAIRS:
        assert format_word(apply(HAMMING, parse_word(src, 2))) == dst
    for src in ref.HAMMING_INVARIANT_WORDS:
        w = parse_word(src, 2)
        assert apply(HAMMING, w) == w


def test_golay_worked_pairs():
    for src, dst in ref.GOLAY_PAIRS:
        assert format_word(apply(GOLAY, parse_word(src, 3))) == dst
    for src in ref.GOLAY_INVARIANT_WORDS:
        w = parse_word(src, 3)
        assert apply(GOLAY, w) == w


def test_zero_maps_to_zero():
    z7 = Word(2, (0,) * 7)
    z12 = Word(3, (0,) * 12)
    assert apply(HAMMING, z7) == z7
    assert apply(GOLAY, z12) == z12


def test_hamming_single_one_example():
    assert format_word(apply(HAMMING, parse_word("0000101", 2))) == "1010101"


@pytest.mark.parametrize("transform,seed,count", [
    (HAMMING, 1001, 1000),
    (GOLAY, 2001, 1000),
])
def test_transform_linearity_on_random_tuples(transform, seed, count):
    p = transform.matrix.modulus
    n = transform.matrix.cols
    rng = random.Random(seed)
    for _ in range(count):
        x = Word(p, tuple(rng.randrange(p) for _ in range(n)))
        y = Word(p, tuple(rng.randrange(p) for _ in range(n)))
        a = rng.randrange(p)
        b = rng.randrange(p)
        combo = Word(p, tuple(
            (a * xv + b * yv) % p for xv, yv in zip(x.symbols, y.symbols)
        ))
        tx, ty = apply(transform, x), apply(transform, y)
        expected = Word(p, tuple(
            (a * xv + b * yv) % p for xv, yv in zip(tx.symbols, ty.symbols)
        ))
        assert apply(transform, combo) == expected


def test_addition_only_batch_at_each_rows_extremes():
    # per row: 2 under every -1 entry and 0 elsewhere puts that lane at its
    # least sum (-2 * #(-1)), 2 under every +1 entry at its largest
    words = [Word(3, (2,) * 12)]
    for row in oracle.GOLAY_SIGNED:
        for sign in (-1, 1):
            words.append(Word(3, tuple(2 if e == sign else 0 for e in row)))
    expected = [Word(3, oracle.mat_vec(oracle.GOLAY_SIGNED, w.symbols, 3)) for w in words]
    assert [apply_addition_only(w) for w in words] == expected


def test_addition_only_offset_rule():
    most_negative = max(row.count(-1) for row in oracle.GOLAY_SIGNED)
    most_positive = max(row.count(1) for row in oracle.GOLAY_SIGNED)
    assert _OFFSET % 3 == 0
    assert 2 * most_negative <= _OFFSET < 2 * most_negative + 3
    assert _OFFSET + 2 * most_positive <= 255


def test_addition_only_columns_are_the_signed_columns_packed():
    # _COLUMNS[j][v] on the offset lanes unpacks, row 0 in the top lane, to
    # _OFFSET + v times signed column j
    assert len(_COLUMNS) == 12
    assert _OFFSET_LANES.to_bytes(12, "big") == bytes([_OFFSET] * 12)
    for j, column in enumerate(zip(*oracle.GOLAY_SIGNED)):
        assert _COLUMNS[j][0] == 0
        assert _COLUMNS[j][2] == _COLUMNS[j][1] + _COLUMNS[j][1]
        for v in range(3):
            lanes = (_COLUMNS[j][v] + _OFFSET_LANES).to_bytes(12, "big")
            assert [lane - _OFFSET for lane in lanes] == [v * e for e in column]


def test_addition_only_evaluation_never_multiplies():
    # the per-word path only adds table entries: no product, power or
    # operator.mul appears in its body
    tree = ast.parse(inspect.getsource(apply_addition_only))
    ops = {type(node.op) for node in ast.walk(tree) if isinstance(node, ast.BinOp)}
    assert not ops & {ast.Mult, ast.Pow, ast.MatMult}
    names = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)}
    assert not names & {"mul", "mat_vec"}


ternary_words = st.tuples(*[st.integers(0, 2)] * 12).map(lambda t: Word(3, t))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(ternary_words, min_size=1, max_size=12))
def test_addition_only_agrees_with_matrix_product(words):
    # the packed columns, the per-symbol oracle and the product give one
    # image per word; built without a second range check, it is still a Word equal, hash-equal and pickle-equal to the
    # checked one
    expected = [Word(3, oracle.mat_vec(oracle.GOLAY_SIGNED, w.symbols, 3)) for w in words]
    images = [apply_addition_only(w) for w in words]
    assert images == expected and list(map(hash, images)) == list(map(hash, expected))
    assert all(type(y) is Word for y in images)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(images, protocol)) == expected
    assert [apply(GOLAY, w) for w in words] == expected


def test_addition_only_worked_pair_and_zero():
    src, dst = "201100010110", "021220022122"
    assert format_word(apply_addition_only(parse_word(src, 3))) == dst
    zero = Word(3, (0,) * 12)
    assert apply_addition_only(zero) == zero


def test_addition_only_exhaustive_over_padded_prefixes():
    # every ternary word whose last six symbols are zero
    words = [Word(3, prefix + (0,) * 6)
             for prefix in itertools.product(range(3), repeat=6)]
    expected = [Word(3, oracle.mat_vec(oracle.GOLAY_SIGNED, x.symbols, 3)) for x in words]
    assert [apply_addition_only(x) for x in words] == expected
    assert expected == [apply(GOLAY, x) for x in words]


def test_addition_only_rejects_wrong_shape():
    with pytest.raises(ValueError):
        apply_addition_only(Word(3, (0, 1, 2)))
    with pytest.raises(ValueError):
        apply_addition_only(Word(2, (0,) * 12))
    with pytest.raises(ValueError, match="ternary word of length 12"):
        apply_addition_only(Word(3, (0,) * 13))


def test_fixed_space_hamming():
    space = fixed_space(HAMMING)
    assert space.eigenvalue.value == 1
    assert space.dimension == 4
    assert tuple(format_word(w) for w in space.basis) == ref.HAMMING_FIXED_BASIS
    for w in space.basis:
        assert apply(HAMMING, w) == w
    assert same_row_space(
        matrix_from_words(space.basis),
        MatrixOverGfp(2, oracle.HAMMING_GENERATOR),
    )


def test_fixed_space_golay():
    space = fixed_space(GOLAY)
    assert space.dimension == 6
    assert tuple(format_word(w) for w in space.basis) == ref.GOLAY_FIXED_BASIS
    for w in space.basis:
        assert apply(GOLAY, w) == w


def test_eigen_spectrum_of_identity():
    spaces = eigen_spectrum(identity(7, 2))
    assert len(spaces) == 1
    assert spaces[0].eigenvalue.value == 1
    assert spaces[0].dimension == 7


def test_eigen_spectrum_of_builtins():
    ham = eigen_spectrum(HAMMING)
    assert [(s.eigenvalue.value, s.dimension) for s in ham] == [(1, 4)]
    gol = eigen_spectrum(GOLAY)
    assert [(s.eigenvalue.value, s.dimension) for s in gol] == [(1, 6)]


def test_both_builtin_matrices_are_invertible():
    assert rref(hamming_ntt_matrix()).rank == 7
    assert rref(golay_ntt_matrix()).rank == 12


def test_eigen_spectrum_eigenvectors_check_out():
    # a GF(3) matrix with several eigenvalues: diag(1, 2, 0) plus coupling
    m = MatrixOverGfp(3, ((1, 1, 0), (0, 2, 0), (0, 0, 0)))
    spaces = eigen_spectrum(m)
    assert [s.eigenvalue.value for s in spaces] == [0, 1, 2]
    for space in spaces:
        lam = space.eigenvalue.value
        for w in space.basis:
            got = mat_vec(m, w)
            assert got.symbols == tuple((lam * v) % 3 for v in w.symbols)


def test_eigen_spectrum_rejects_non_square():
    with pytest.raises(ValueError):
        eigen_spectrum(MatrixOverGfp(2, ((1, 0, 1),)))
    with pytest.raises(ValueError):
        fixed_space(MatrixOverGfp(2, ((1, 0, 1),)))


def test_eigen_spectrum_modulus_past_the_bound_refused(monkeypatch):
    # 4093 is the largest prime at or below the bound, 4099 the next one
    assert MAX_SPECTRUM_MODULUS == 4096
    assert [s.eigenvalue.value for s in eigen_spectrum(identity(1, 4093))] == [1]

    def no_null_space(p, rows):
        raise AssertionError("null space taken past the bound")

    monkeypatch.setattr(ntt, "_eliminate", no_null_space)
    for p in (4099, 2**61 - 1):
        with pytest.raises(ValueError, match=f"GF\\({p}\\), past the bound of p <= 4096"):
            eigen_spectrum(identity(12, p))
    # fixed_space tries lambda = 1 only and takes no bound
    with pytest.raises(AssertionError, match="null space taken"):
        fixed_space(identity(1, 4099))


def diagonal(n, p, r):
    """The n x n diagonal matrix over GF(p) whose entry i is i % r: its
    eigenvalues are exactly 0..r-1."""
    return MatrixOverGfp(p, tuple(
        tuple(i % r if i == j else 0 for j in range(n)) for i in range(n)
    ))


def counted_null_spaces(monkeypatch):
    """Patch the elimination of ntt's null spaces to record the rows of each
    matrix it gets and return no pivots, so every column is free."""
    taken = []
    monkeypatch.setattr(ntt, "_eliminate", lambda p, rows: taken.append(rows) or ([], []))
    return taken


@pytest.mark.parametrize("n, admitted, refused", [
    (12, 4093, 4099), (13, 3221, 3229), (20, 883, 887), (100, 7, 11), (150, 2, 3),
])
def test_eigen_spectrum_work_past_the_bound_refused(monkeypatch, n, admitted, refused):
    # the null spaces taken, one per root of the characteristic polynomial,
    # may do no more elimination than 4096 of a 12x12 matrix:
    # roots*n**3 <= 4096*12**3.  `admitted` and `refused` are the primes
    # either side of the old bound p*n**3, which counted every lambda in
    # GF(p); at either one a diagonal matrix with r distinct entries has r
    # roots, and up to `most` of them are admitted
    assert MAX_SPECTRUM_WORK == 4096 * 12**3
    most = MAX_SPECTRUM_WORK // n**3
    taken = counted_null_spaces(monkeypatch)
    for p in (admitted, refused):
        if p > MAX_SPECTRUM_MODULUS:
            with pytest.raises(ValueError, match=f"GF\\({p}\\), past the bound of p <= 4096"):
                eigen_spectrum(identity(n, p))
            assert taken == []
            continue
        for r in sorted({1, min(n, p, most)}):
            spaces = eigen_spectrum(diagonal(n, p, r))
            assert [s.eigenvalue.value for s in spaces] == list(range(r))
            assert len(taken) == r
            taken.clear()
        if most < min(n, p):
            message = (f"{n}x{n} matrix over GF\\({p}\\) takes one null space per "
                       f"eigenvalue, {most + 1} in all, past the bound of "
                       f"roots\\*n\\*\\*3 <= 7077888")
            with pytest.raises(ValueError, match=message):
                eigen_spectrum(diagonal(n, p, most + 1))
            assert taken == []


def test_eigen_spectrum_polynomial_past_the_work_bound_refused(monkeypatch):
    # the characteristic polynomial costs about one null space, so a matrix
    # whose n**3 alone is past the bound is refused before it; such a matrix
    # was past the old bound p*n**3 at every p
    assert 192**3 <= MAX_SPECTRUM_WORK < 193**3
    taken = counted_null_spaces(monkeypatch)
    assert [s.eigenvalue.value for s in eigen_spectrum(identity(192, 2))] == [1]
    assert len(taken) == 1

    def no_polynomial(m):
        raise AssertionError("polynomial taken past the bound")

    monkeypatch.setattr(ntt, "_char_poly", no_polynomial)
    with pytest.raises(ValueError, match="193x193 matrix is past the bound of "
                                         "n\\*\\*3 <= 7077888"):
        eigen_spectrum(identity(193, 2))


def spectrum_cases(rng, p, n):
    """Seeded n x n matrices over GF(p), one of each kind, by name."""
    def rand():
        return rng.randrange(p)

    def conjugated(rows):
        # similarity by elementary operations and swaps: the same spectrum,
        # with the structure hidden from the Hessenberg reduction
        rows = [list(row) for row in rows]
        for _ in range(2 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            if rng.random() < 0.3:
                rows[i], rows[j] = rows[j], rows[i]
                for row in rows:
                    row[i], row[j] = row[j], row[i]
            else:
                u = rand()
                rows[i] = [(a + u * b) % p for a, b in zip(rows[i], rows[j])]
                for row in rows:
                    row[j] = (row[j] - u * row[i]) % p
        return rows

    planted = rng.sample(range(p), min(p, 3))
    triangular = [[rng.choice(planted) if i == j else rand() if j > i else 0
                   for j in range(n)] for i in range(n)]
    rank = rng.randrange(n)
    basis = [[rand() for _ in range(n)] for _ in range(rank)]
    perm = rng.sample(range(n), n)
    cases = {
        "random": [[rand() for _ in range(n)] for _ in range(n)],
        "sparse": [[rand() if rng.random() < 0.2 else 0 for _ in range(n)]
                   for _ in range(n)],
        "zero": [[0] * n for _ in range(n)],
        "identity": identity(n, p).entries,
        "permutation": [[int(j == perm[i]) for j in range(n)] for i in range(n)],
        "nilpotent": conjugated([[rand() if j > i else 0 for j in range(n)]
                                 for i in range(n)]),
        "rank-deficient": [[sum(rand() * b[j] for b in basis) % p for j in range(n)]
                           for _ in range(n)],
        "triangular": triangular,
        "similar": conjugated(triangular),
    }
    return {kind: MatrixOverGfp(p, rows) for kind, rows in cases.items()}


# The sweep takes p null spaces, about 1 s for a dense 12x12 matrix at
# p = 4093; so at that prime it takes one kind at each of a few sizes
SWEPT_AT_4093 = ((1, "random"), (2, "similar"), (3, "permutation"), (4, "nilpotent"),
                 (5, "rank-deficient"), (6, "triangular"), (12, "similar"))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 4093])
def test_eigen_spectrum_matches_the_sweep(p):
    rng = random.Random(3100 + p)
    pairs = SWEPT_AT_4093 if p == 4093 else [(n, None) for n in range(1, 13)]
    for n, only in pairs:
        for kind, m in spectrum_cases(rng, p, n).items():
            if only in (None, kind):
                assert eigen_spectrum(m) == reference_eigen_spectrum(m), (kind, n, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 4093])
def test_every_eigen_space_is_certified(p):
    # M*b = lambda*b on each basis vector and dim = n - rank(M - lambda*I),
    # checked by mat_vec and the reference rank, at every size up to 12x12;
    # where the eigenvalues are known (the planted diagonal of the triangular
    # kinds), they are exactly those found
    rng = random.Random(3200 + p)
    for n in range(1, 13):
        cases = spectrum_cases(rng, p, n)
        planted = sorted({row[i] for i, row in enumerate(cases["triangular"].entries)})
        known = {"zero": [0], "identity": [1], "nilpotent": [0],
                 "triangular": planted, "similar": planted}
        for kind, m in cases.items():
            spaces = eigen_spectrum(m)
            assert all(s.dimension and eigen_space_certified(m, s) for s in spaces), \
                (kind, n, p)
            if kind in known:
                assert [s.eigenvalue.value for s in spaces] == known[kind], (kind, n, p)
    for t in (HAMMING, GOLAY):
        assert all(eigen_space_certified(t.matrix, s) for s in eigen_spectrum(t))
    assert eigen_space_certified(GOLAY.matrix, fixed_space(GOLAY))


def test_eigen_spectrum_checks_squareness_before_any_null_space(monkeypatch):
    def no_null_space(p, rows):
        raise AssertionError("null space taken before the shape check")

    monkeypatch.setattr(ntt, "_eliminate", no_null_space)
    with pytest.raises(ValueError, match="needs a square matrix, got 1x3"):
        eigen_spectrum(MatrixOverGfp(5, ((1, 0, 1),)))


def test_builtin_transform_registry():
    assert set(BUILTIN_TRANSFORMS) == {"hamming", "golay"}
    assert BUILTIN_TRANSFORMS["hamming"].matrix == hamming_ntt_matrix()
    assert BUILTIN_TRANSFORMS["golay"].matrix == golay_ntt_matrix()
