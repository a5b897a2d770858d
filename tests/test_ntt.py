"""The built-in transforms: constants, worked pairs, eigenspaces, kernels."""

import hashlib
import itertools
import random

import pytest

from fieldflower.gfield import Word, format_word, parse_word
from fieldflower.modlinalg import (
    MatrixOverGfp,
    _Batch,
    format_matrix,
    identity,
    mat_vec,
    matrix_from_words,
    rref,
    same_row_space,
)
from fieldflower import ntt
from fieldflower.ntt import (
    _OFFSET,
    BUILTIN_TRANSFORMS,
    GOLAY,
    HAMMING,
    MAX_SPECTRUM_MODULUS,
    MAX_SPECTRUM_WORK,
    _addition_only_batch,
    apply,
    apply_addition_only,
    eigen_spectrum,
    fixed_space,
    golay_ntt_matrix,
    golay_ntt_signed_rows,
    hamming_ntt_matrix,
)
import reference_constants as ref
from reference_paths import reference_addition_only


def test_builtin_matrices_match_reference_transcription():
    assert hamming_ntt_matrix().entries == ref.HAMMING_ROWS
    assert golay_ntt_signed_rows() == ref.GOLAY_SIGNED_ROWS
    assert golay_ntt_matrix().entries == tuple(
        tuple(e % 3 for e in row) for row in ref.GOLAY_SIGNED_ROWS
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


def test_addition_only_agrees_with_matrix_product():
    rng = random.Random(99)
    for _ in range(2000):
        x = Word(3, tuple(rng.randrange(3) for _ in range(12)))
        assert apply_addition_only(x) == reference_addition_only(x)
        assert apply_addition_only(x) == apply(GOLAY, x)


def batched_addition_only(words):
    out = _addition_only_batch(_Batch.of(3, [w.symbols for w in words]))
    return [Word(3, v) for v in zip(*out.rows)]


ALL_TWO = Word(3, (2,) * 12)  # every lane at its largest symbol


@pytest.mark.parametrize("size", [1, 2, 729, 10729])
def test_addition_only_batch_matches_reference_loop(size):
    rng = random.Random(size)
    words = [ALL_TWO] + [Word(3, tuple(rng.randrange(3) for _ in range(12)))
                         for _ in range(size - 1)]
    assert batched_addition_only(words) == [reference_addition_only(w)
                                            for w in words]


def test_addition_only_batch_at_each_rows_extremes():
    # per row: 2 under every -1 entry and 0 elsewhere puts that lane at its
    # least sum (-2 * #(-1)), 2 under every +1 entry at its largest
    words = [ALL_TWO]
    for row in ref.GOLAY_SIGNED_ROWS:
        for sign in (-1, 1):
            words.append(Word(3, tuple(2 if e == sign else 0 for e in row)))
    expected = [reference_addition_only(w) for w in words]
    assert batched_addition_only(words) == expected
    assert [apply_addition_only(w) for w in words] == expected


def test_addition_only_offset_rule():
    most_negative = max(row.count(-1) for row in ref.GOLAY_SIGNED_ROWS)
    most_positive = max(row.count(1) for row in ref.GOLAY_SIGNED_ROWS)
    assert _OFFSET % 3 == 0
    assert 2 * most_negative <= _OFFSET < 2 * most_negative + 3
    assert _OFFSET + 2 * most_positive <= 255


def test_addition_only_worked_pair_and_zero():
    src, dst = "201100010110", "021220022122"
    assert format_word(apply_addition_only(parse_word(src, 3))) == dst
    zero = Word(3, (0,) * 12)
    assert apply_addition_only(zero) == zero


def test_addition_only_exhaustive_over_padded_prefixes():
    # every ternary word whose last six symbols are zero
    words = [Word(3, prefix + (0,) * 6)
             for prefix in itertools.product(range(3), repeat=6)]
    expected = [reference_addition_only(x) for x in words]
    assert [apply_addition_only(x) for x in words] == expected
    assert batched_addition_only(words) == expected
    assert expected == [apply(GOLAY, x) for x in words]


def test_addition_only_rejects_wrong_shape():
    with pytest.raises(ValueError):
        apply_addition_only(Word(3, (0, 1, 2)))
    with pytest.raises(ValueError):
        apply_addition_only(Word(2, (0,) * 12))
    for p, n in ((3, 3), (2, 12), (3, 13)):
        with pytest.raises(ValueError, match="ternary word of length 12"):
            _addition_only_batch(_Batch.of(p, [(0,) * n] * 2))


def test_fixed_space_hamming():
    space = fixed_space(HAMMING)
    assert space.eigenvalue.value == 1
    assert space.dimension == 4
    assert tuple(format_word(w) for w in space.basis) == ref.HAMMING_FIXED_BASIS
    for w in space.basis:
        assert apply(HAMMING, w) == w
    assert same_row_space(
        matrix_from_words(space.basis),
        MatrixOverGfp(2, ref.HAMMING_GENERATOR_ROWS),
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

    def no_null_space(m):
        raise AssertionError("null space taken past the bound")

    monkeypatch.setattr(ntt, "null_space", no_null_space)
    for p in (4099, 2**61 - 1):
        with pytest.raises(ValueError, match=f"GF\\({p}\\), past the bound of p <= 4096"):
            eigen_spectrum(identity(12, p))
    # fixed_space tries lambda = 1 only and takes no bound
    with pytest.raises(AssertionError, match="null space taken"):
        fixed_space(identity(1, 4099))


@pytest.mark.parametrize("n, admitted, refused", [
    (12, 4093, 4099), (13, 3221, 3229), (20, 883, 887), (100, 7, 11), (150, 2, 3),
])
def test_eigen_spectrum_work_past_the_bound_refused(monkeypatch, n, admitted, refused):
    # a sweep may do no more elimination than a 12x12 one at p = 4096:
    # p*n**3 <= 4096*12**3; `admitted` and `refused` are the primes either side
    assert MAX_SPECTRUM_WORK == 4096 * 12**3
    taken = []

    def counted_null_space(m):
        taken.append(m)
        return []

    monkeypatch.setattr(ntt, "null_space", counted_null_space)
    assert eigen_spectrum(identity(n, admitted)) == []
    assert len(taken) == admitted
    taken.clear()
    message = (f"{n}x{n} matrix over GF\\({refused}\\) is "
               f"past the bound of p\\*n\\*\\*3 <= 7077888")
    if refused > MAX_SPECTRUM_MODULUS:
        message = f"GF\\({refused}\\), past the bound of p <= 4096"
    with pytest.raises(ValueError, match=message):
        eigen_spectrum(identity(n, refused))
    assert taken == []


def test_eigen_spectrum_checks_squareness_before_any_null_space(monkeypatch):
    def no_null_space(m):
        raise AssertionError("null space taken before the shape check")

    monkeypatch.setattr(ntt, "null_space", no_null_space)
    with pytest.raises(ValueError, match="needs a square matrix, got 1x3"):
        eigen_spectrum(MatrixOverGfp(5, ((1, 0, 1),)))


def test_builtin_transform_registry():
    assert set(BUILTIN_TRANSFORMS) == {"hamming", "golay"}
    assert BUILTIN_TRANSFORMS["hamming"].matrix == hamming_ntt_matrix()
    assert BUILTIN_TRANSFORMS["golay"].matrix == golay_ntt_matrix()
