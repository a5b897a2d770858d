"""Linear code machinery over the two built-in codes."""

import ast
import contextlib
import dataclasses
import gc
import itertools
import pickle
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from fieldflower import codes, gfield, modlinalg
from fieldflower.codes import (
    ENUMERATION_LIMIT,
    LinearCode,
    builtin_code,
    code_from_fixed_space,
    enumerate_codewords,
    hamming_code,
    hamming_generator,
    is_codeword,
    minimum_distance,
)
from fieldflower.gfield import Word, format_word, format_word_list, parse_word
from fieldflower.modlinalg import MatrixOverGfp, identity, null_space, rref, same_row_space
from fieldflower.ntt import GOLAY, HAMMING, apply
import oracle
import reference_constants as ref
from reference_paths import reference_codewords, reference_is_codeword
from test_modlinalg import assert_built_alike, eliminated_matrices


def test_hamming_generator_matches_reference():
    assert hamming_generator().entries == oracle.HAMMING_GENERATOR


def test_code_shape_properties():
    code = hamming_code()
    assert (code.length, code.dimension, code.modulus, code.size) == (7, 4, 2, 16)


def test_dependent_generator_rows_rejected():
    with pytest.raises(ValueError):
        LinearCode(MatrixOverGfp(2, ((1, 0, 1), (1, 0, 1))))


def test_enumeration_order_and_count():
    words = enumerate_codewords(hamming_code())
    assert len(words) == 16
    assert len(set(words)) == 16
    assert words[0].symbols == (0,) * 7
    # message order is lexicographic, so word 1 is generator row 3 (u=0001)
    assert words[1].symbols == oracle.HAMMING_GENERATOR[3]
    assert words[8].symbols == oracle.HAMMING_GENERATOR[0]


def test_hamming_weight_distribution():
    dist = Counter(w.weight() for w in enumerate_codewords(hamming_code()))
    assert dict(dist) == ref.HAMMING_WEIGHT_DISTRIBUTION


def test_golay_weight_distribution():
    dist = Counter(w.weight() for w in enumerate_codewords(builtin_code("golay")))
    assert dict(dist) == ref.GOLAY_WEIGHT_DISTRIBUTION


def test_minimum_distance_hamming():
    assert minimum_distance(hamming_code()) == 3


def test_minimum_distance_golay_actual_value():
    # The nominal parameters for this construction say d=6; the code the
    # built-in matrix actually generates contains weight-5 words, so the
    # true minimum distance is 5.  This test pins the computed truth; the
    # acceptance suite tracks the nominal claim separately.
    code = builtin_code("golay")
    assert minimum_distance(code) == 5
    w5 = parse_word(ref.GOLAY_WEIGHT5_WORD, 3)
    assert w5.weight() == 5
    assert is_codeword(code, w5)
    assert apply(GOLAY, w5) == w5


@pytest.mark.parametrize("name", ["hamming", "golay"])
def test_minimum_distance_equals_pairwise_oracle(name):
    code = builtin_code(name)
    words = enumerate_codewords(code)
    d = min(
        sum(1 for x, y in zip(a.symbols, b.symbols) if x != y)
        for a, b in itertools.combinations(words, 2)
    )
    assert minimum_distance(code) == d


def test_membership_exhaustive_hamming():
    code = hamming_code()
    book = set(enumerate_codewords(code))
    for bits in itertools.product(range(2), repeat=7):
        w = Word(2, bits)
        assert is_codeword(code, w) == (w in book)


def test_membership_golay_codebook_and_sampled_negatives():
    code = builtin_code("golay")
    book = set(enumerate_codewords(code))
    for w in book:
        assert is_codeword(code, w)
    rng = random.Random(23)
    for _ in range(500):
        w = Word(3, tuple(rng.randrange(3) for _ in range(12)))
        assert is_codeword(code, w) == (w in book)


def test_membership_of_named_words():
    golay = builtin_code("golay")
    for text in ref.GOLAY_INVARIANT_WORDS:
        assert is_codeword(golay, parse_word(text, 3))
    assert is_codeword(golay, Word(3, (0,) * 12))
    # weight 1 is below any nonzero codeword weight
    assert not is_codeword(golay, parse_word("100000000000", 3))
    hamming = hamming_code()
    for row in oracle.HAMMING_GENERATOR:
        assert is_codeword(hamming, Word(2, row))


def test_is_codeword_shape_checks():
    code = hamming_code()
    with pytest.raises(ValueError):
        is_codeword(code, Word(3, (0,) * 7))
    with pytest.raises(ValueError):
        is_codeword(code, Word(2, (0,) * 6))


@pytest.mark.parametrize("code", [hamming_code(), LinearCode(identity(7, 2))],
                         ids=["hamming", "k=n"])
def test_is_codeword_shape_errors_once_the_parity_check_is_built(code):
    assert is_codeword(code, Word(2, (0,) * 7))
    for word, message in ((Word(3, (0,) * 7), r"^modulus mismatch: GF\(3\) vs GF\(2\)$"),
                          (Word(2, (0,) * 6), "^word has length 6, code has length 7$")):
        with pytest.raises(ValueError, match=message):
            is_codeword(code, word)


def test_parity_check_does_not_leak():
    fresh, filled = hamming_code(), hamming_code()
    words = [Word(2, bits) for bits in itertools.product(range(2), repeat=7)]
    expected = [reference_is_codeword(fresh, w) for w in words]
    assert [is_codeword(filled, w) for w in words] == expected
    assert "_parity_check" in vars(filled) and "_parity_check" not in vars(fresh)
    assert filled == fresh and hash(filled) == hash(fresh)
    assert repr(filled) == repr(fresh) == \
        "LinearCode(generator=MatrixOverGfp(4x7 over GF(2)))"
    assert [f.name for f in dataclasses.fields(filled)] == ["generator"]
    assert dataclasses.asdict(filled) == dataclasses.asdict(fresh)
    assert dataclasses.astuple(filled) == dataclasses.astuple(fresh)
    for code in (fresh, filled):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            # the pickle of a used code is that of a fresh one
            data = pickle.dumps(code, protocol=protocol)
            assert len(data) == len(pickle.dumps(fresh, protocol=protocol))
            back = pickle.loads(data)
            assert back == fresh and hash(back) == hash(fresh)
            assert "_parity_check" not in vars(back)
            assert [is_codeword(back, w) for w in words] == expected
        assert dataclasses.replace(code) == fresh
        # a replaced code builds the parity check of its own generator
        other = dataclasses.replace(
            code, generator=MatrixOverGfp(2, identity(7, 2).entries[3:]))
        assert "_parity_check" not in vars(other)
        assert [is_codeword(other, w) for w in words] == \
            [reference_is_codeword(other, w) for w in words] != expected


def test_generator_is_eliminated_once(monkeypatch):
    # the rank check, H of `is_codeword` and G_1 of `minimum_distance` all
    # read the one elimination of the generator that the code keeps
    generator, eliminated = hamming_generator(), []

    def spy(eliminate):
        def counted(p, rows):
            eliminated.append(tuple(map(tuple, rows)) == generator.entries)
            return eliminate(p, rows)
        return counted

    for module in (modlinalg, codes):
        monkeypatch.setattr(module, "_eliminate", spy(module._eliminate))
    code = LinearCode(generator)
    word = Word(2, oracle.HAMMING_GENERATOR[0])
    assert is_codeword(code, word) and is_codeword(code, word)
    assert minimum_distance(code) == 3
    assert eliminated.count(True) == 1


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickles_of_used_golay_values_stay_fresh_sized(protocol):
    # One membership test fills golay's parity check (and its packed
    # columns); one product fills the GOLAY matrix's packed columns.
    code, fresh_code = builtin_code("golay"), builtin_code("golay")
    matrix, fresh_matrix = GOLAY.matrix, MatrixOverGfp(3, GOLAY.matrix.entries)
    words = [parse_word(text, 3) for text in ("0" * 12, "1" * 12, "012012012012")]
    members = [is_codeword(code, w) for w in words]
    products = [apply(GOLAY, w) for w in words]
    assert "_parity_check" in vars(code) and "_packed" in vars(matrix)
    for used, fresh in ((code, fresh_code), (matrix, fresh_matrix)):
        data = pickle.dumps(used, protocol=protocol)
        assert len(data) == len(pickle.dumps(fresh, protocol=protocol))
        assert pickle.loads(data) == used
        assert dataclasses.asdict(used) == dataclasses.asdict(fresh)
        assert dataclasses.astuple(used) == dataclasses.astuple(fresh)
    back_code = pickle.loads(pickle.dumps(code, protocol=protocol))
    back_matrix = pickle.loads(pickle.dumps(matrix, protocol=protocol))
    assert [is_codeword(back_code, w) for w in words] == members
    assert [apply(back_matrix, w) for w in words] == products


def test_code_from_fixed_space_hamming_equals_generator_space():
    code = code_from_fixed_space(HAMMING)
    assert (code.length, code.dimension) == (7, 4)
    assert same_row_space(code.generator, hamming_generator())


def test_code_from_fixed_space_golay_basis():
    code = code_from_fixed_space(GOLAY)
    assert (code.length, code.dimension) == (12, 6)
    got = tuple(format_word(Word(3, row)) for row in code.generator.entries)
    assert got == ref.GOLAY_FIXED_BASIS


def test_code_from_fixed_space_of_identity_is_full_space():
    code = code_from_fixed_space(identity(5, 3))
    assert (code.length, code.dimension, code.size) == (5, 5, 243)


def test_code_from_fixed_space_without_fixed_points():
    # 2I over GF(3) fixes only the zero word
    with pytest.raises(ValueError):
        code_from_fixed_space(MatrixOverGfp(3, ((2, 0), (0, 2))))


def test_minimum_distance_of_full_space():
    assert minimum_distance(LinearCode(identity(3, 2))) == 1


def test_builtin_code_lookup():
    assert builtin_code("hamming").generator == hamming_generator()
    assert builtin_code("golay").dimension == 6
    assert list(codes.BUILTIN_CODES) == ["hamming", "golay"]
    with pytest.raises(ValueError, match="expected 'hamming' or 'golay'"):
        builtin_code("reed-muller")


def test_enumeration_guard(monkeypatch):
    def no_span(*args):
        raise AssertionError("span built before the enumeration cap was checked")

    # p=2 and p=3 fit 8-bit lanes; no lane width holds a prime past 2**31
    bigs = [LinearCode(identity(k, p)) for p, k in ((2, 24), (3, 15), (2147483659, 1))]
    # nor is an information set of the distance search built: neither G_1,
    # from the code's own elimination, nor a later one, from a new elimination
    for name in ("_span", "_block_sums", "_InformationSet", "_eliminate"):
        monkeypatch.setattr(codes, name, no_span)
    for big in bigs:
        assert big.size > ENUMERATION_LIMIT
        with pytest.raises(ValueError, match="refusing to enumerate"):
            enumerate_codewords(big)
        with pytest.raises(ValueError, match="refusing to enumerate"):
            minimum_distance(big)


def reference_min_weight(words):
    """The least count of nonzero symbols over the nonzero words."""
    return min(sum(1 for s in w.symbols if s) for w in words if any(w.symbols))


# Largest k per p that keeps a differential case at most 729 codewords.
_MAX_K = {2: 9, 3: 6, 5: 4, 7: 3}


def random_full_rank_code(rng, p, k, n, zero_cols=frozenset()):
    """A random full-rank [n, k] code over GF(p), zero in the columns zero_cols."""
    while True:
        rows = tuple(
            tuple(0 if j in zero_cols else rng.randrange(p) for j in range(n))
            for _ in range(k)
        )
        if oracle.rank(rows, p) == k:
            return LinearCode(MatrixOverGfp(p, rows))


# Seed s draws a code of the field and shape _SHAPES[s % 16]: 'k=1', 'k=n'
# (the full space), 'zero columns' or 'any'.
_SHAPES = tuple(itertools.product((2, 3, 5, 7), ("k=1", "k=n", "zero columns", "any")))


def differential_code(seed):
    p, shape = _SHAPES[seed % len(_SHAPES)]
    rng = random.Random(seed)
    k = 1 if shape == "k=1" else rng.randint(1, _MAX_K[p])
    n = k if shape == "k=n" else k + rng.randint(1, 5)
    zero_cols = set(rng.sample(range(n), n - k)) if shape == "zero columns" else set()
    return random_full_rank_code(rng, p, k, n, zero_cols)


# Moduli on each side of the 8/16-bit and the 16/32-bit lane-width switch, at
# the largest k that keeps p**k under ENUMERATION_LIMIT.
_LANE_BOUNDARY_K = {127: 2, 131: 2, 32749: 1, 32771: 1}
# Binary word lengths on each side of the 8/16-bit switch: a weight of n
# needs n < 2**W.
_LANE_BOUNDARY_N = (255, 256)


def test_differential_codes_cover_the_edge_shapes():
    seen = set()
    for seed in range(208):
        c = differential_code(seed)
        k, n = c.dimension, c.length
        zero_col = any(not any(col) for col in zip(*c.generator.entries))
        seen.update((c.modulus, tag) for tag, hit in (
            ("k=1", k == 1), ("odd k>1", k > 1 and k % 2), ("k=n", k == n),
            ("zero column", zero_col)) if hit)
    assert seen == set(itertools.product(
        (2, 3, 5, 7), ("k=1", "odd k>1", "k=n", "zero column")))


@pytest.mark.parametrize("code", [
    *(pytest.param(differential_code(s), id=str(s)) for s in range(208)),
    *(pytest.param(random_full_rank_code(random.Random(p), p, k, k + 3), id=f"p={p}")
      for p, k in _LANE_BOUNDARY_K.items()),
    *(pytest.param(random_full_rank_code(random.Random(n), 2, 4, n), id=f"n={n}")
      for n in _LANE_BOUNDARY_N),
    *(pytest.param(LinearCode(MatrixOverGfp(2, ((1,) * n,))), id=f"ones n={n}")
      for n in _LANE_BOUNDARY_N),
    # d = 150: the two halves and their sum weigh 150, 150 and 300
    pytest.param(LinearCode(MatrixOverGfp(2, ((1,) * 150 + (0,) * 150,
                                              (0,) * 150 + (1,) * 150))), id="[300,2]"),
])
def test_split_walk_matches_reference_walk(code):
    expected = reference_codewords(code)
    got = enumerate_codewords(code)
    assert got == expected
    assert format_word_list(got) == \
        "".join(oracle.text(w.symbols, w.modulus) + "\n" for w in expected)
    assert all(type(w) is Word for w in got)
    # The walk builds its Words without _residues: each must round-trip
    # through it (int symbols in 0..p-1) to an equal, hash-equal Word.
    for w in got:
        rebuilt = Word(w.modulus, w.symbols)
        assert w == rebuilt and hash(w) == hash(rebuilt)
    assert minimum_distance(code) == reference_min_weight(expected)


@pytest.mark.parametrize("lanes", [1, 13, 64])
def test_walk_in_blocks_smaller_than_the_inner_span(monkeypatch, lanes):
    # Capped this small, a block holds a few words (at least one), so the
    # inner span is cut into several blocks, the last of them short.
    monkeypatch.setattr(codes, "_BLOCK_LANES", lanes)
    for seed in range(0, 208, 7):
        code = differential_code(seed)
        expected = reference_codewords(code)
        assert enumerate_codewords(code) == expected
        assert minimum_distance(code) == reference_min_weight(expected)


def test_a_walk_block_runs_on_into_the_next_outer_word(monkeypatch):
    # Capped at 13 lanes, a block holds 2 words of 5 symbols.  The inner
    # span of a [5,4]_3 code holds 9, so every other outer word starts in
    # the middle of a block: blocks are cut from the whole walk, not from
    # each outer word's run.
    monkeypatch.setattr(codes, "_BLOCK_LANES", 13)
    sizes, block_sums = [], codes._block_sums

    def spied(*args):
        for c, s in block_sums(*args):
            sizes.append(c)
            yield c, s

    monkeypatch.setattr(codes, "_block_sums", spied)
    code = random_full_rank_code(random.Random(13), 3, 4, 5)
    h, m = codes._shape(3, 5, 4)
    assert (h, m) == (2, 2)
    assert enumerate_codewords(code) == reference_codewords(code)
    assert sizes == [m] * 40 + [1]


def test_lane_boundary_cases_straddle_the_switches():
    widths = [codes._Lanes(p, 4).w for p in _LANE_BOUNDARY_K]
    assert widths == [8, 16, 16, 32]
    assert [codes._Lanes(2, n).w for n in _LANE_BOUNDARY_N + (300,)] == [8, 16, 16]
    # past 2**31 no lane holds the bias, and the layout says so
    with pytest.raises(ValueError, match="no lane holds"):
        codes._Lanes(2**31 + 11, 4)


@st.composite
def small_codes(draw):
    """A full-rank code over GF(p) of at most 729 codewords (131 words at
    p = 131, in 16-bit lanes), with up to 6 columns past k."""
    p = draw(st.sampled_from((2, 3, 5, 7, 131)))
    k = draw(st.integers(1, _MAX_K.get(p, 1)))
    n = draw(st.integers(k, k + 6))
    rows = tuple(draw(st.tuples(*[st.integers(0, p - 1)] * n)) for _ in range(k))
    assume(oracle.rank(rows, p) == k)
    return LinearCode(MatrixOverGfp(p, rows))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(small_codes())
def test_walks_match_the_reference_walk_on_random_codes(code):
    expected = reference_codewords(code)
    assert enumerate_codewords(code) == expected
    assert minimum_distance(code) == reference_min_weight(expected)


def listed_min_weight(code):
    """The least weight over the nonzero words of the oracle's codebook walk."""
    return oracle.walk(code.generator.entries, code.modulus)[0]


def walk_bench_codes(seed):
    """The random codes of the benchmark's codebook_walk at this seed: each
    generator drawn row by row, symbol by symbol, from one Random seeded
    with the workload's string, and drawn again while its rank is short."""
    rng = random.Random(f"fieldflower-bench:codebook_walk:{seed}")
    for n, k, p in ((20, 10, 3), (32, 16, 2), (16, 8, 3), (24, 12, 2), (10, 6, 5)):
        while True:
            rows = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(k))
            if oracle.rank(rows, p) == k:
                yield pytest.param(LinearCode(MatrixOverGfp(p, rows)),
                                   id=f"seed {seed} [{n},{k}]_{p}")
                break


@pytest.mark.parametrize("code", [c for seed in (1, 2, 3) for c in walk_bench_codes(seed)])
def test_minimum_distance_of_the_benchmark_walk_codes(code):
    assert minimum_distance(code) == listed_min_weight(code)


def extended_golay_code():
    """The binary [24,12,8] code: the shifts of the cyclic Golay code's
    generator polynomial 1 + x^2 + x^4 + x^5 + x^6 + x^10 + x^11, each with
    an overall parity symbol."""
    g = (1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1)
    rows = [(0,) * i + g + (0,) * (11 - i) for i in range(12)]
    return LinearCode(MatrixOverGfp(2, tuple(r + (sum(r) % 2,) for r in rows)))


def reed_solomon_code(n, k, q):
    """Evaluations of the polynomials of degree < k at 1..n over GF(q): a
    nonzero one has fewer than k roots, so d = n - k + 1 (an MDS code)."""
    return LinearCode(MatrixOverGfp(q, tuple(
        tuple(pow(x, i, q) for x in range(1, n + 1)) for i in range(k))))


def parity_check_distance(code):
    """d of a code of redundancy 2, from the columns of H: 1 if one is zero,
    2 if two are proportional, else 3 (three columns of GF(p)^2 are
    always dependent)."""
    p = code.modulus
    cols = list(zip(*(w.symbols for w in null_space(code.generator))))
    if not all(any(c) for c in cols):
        return 1
    points = {min(tuple(a * x % p for x in c) for a in range(1, p)) for c in cols}
    return 2 if len(points) < len(cols) else 3


def test_minimum_distance_of_adversarial_codes():
    golay24 = extended_golay_code()
    assert minimum_distance(golay24) == listed_min_weight(golay24) == 8
    for n, k, q in ((10, 5, 11), (12, 6, 13)):
        assert minimum_distance(reed_solomon_code(n, k, q)) == n - k + 1
    assert minimum_distance(LinearCode(MatrixOverGfp(2, ((1,) * 30,)))) == 30
    # Random [14,12]_3 codes: G_1 leaves two columns, of rank 2 at most.
    for seed, d in ((0, 1), (2, 2)):
        code = random_full_rank_code(random.Random(seed), 3, 12, 14)
        assert minimum_distance(code) == parity_check_distance(code) == d
    # Random [40,10]_2 codes: four disjoint information sets.
    for seed in (1, 7):
        code = random_full_rank_code(random.Random(seed), 2, 10, 40)
        assert minimum_distance(code) == listed_min_weight(code)
    assert minimum_distance(code) == 9
    # Zero columns are never pivots, so the search runs out of columns.
    code = random_full_rank_code(random.Random(5), 3, 4, 11, zero_cols={0, 3, 7, 10})
    assert minimum_distance(code) == listed_min_weight(code)
    # Of the eight columns that G_1 of this [14,6]_3 code leaves, three are
    # zero, so G_2 has rank 5 there.  Counted as full-rank, G_2 would lift
    # the bound to 4 after weight 1, before any weight-3 codeword was seen.
    code = LinearCode(MatrixOverGfp(3, ((0, 2, 0, 2, 2, 0, 2, 0, 0, 1, 1, 1, 2, 0),
                                        (0, 2, 0, 1, 1, 0, 1, 0, 1, 0, 1, 1, 2, 2),
                                        (1, 0, 0, 2, 2, 0, 1, 0, 0, 1, 1, 1, 1, 2),
                                        (2, 2, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 1, 1),
                                        (1, 2, 0, 1, 2, 0, 2, 0, 1, 0, 2, 0, 1, 1),
                                        (1, 2, 0, 1, 2, 0, 2, 0, 1, 2, 2, 2, 0, 0))))
    assert minimum_distance(code) == listed_min_weight(code) == 3
    # k = n: every word is a codeword, so a unit word is.
    assert minimum_distance(random_full_rank_code(random.Random(3), 5, 4, 4)) == 1


def test_minimum_distance_past_rank_deficient_information_sets(monkeypatch):
    # The ranks r of the G_j the search builds, in order.
    ranks, init = [], codes._InformationSet.__init__

    def counted(self, *args):
        init(self, *args)
        ranks.append(self.r)
    monkeypatch.setattr(codes._InformationSet, "__init__", counted)
    # [I_3 | v v | 0]_2 with v = 111: at w = 1 the least weight is 3 against
    # a bound of 2, and G_2 has rank 1 < k - w = 2, so the search moves on
    # to w = 2, where the first two rows sum to 110000
    code = LinearCode(MatrixOverGfp(2, ((1, 0, 0, 1, 1, 0),
                                        (0, 1, 0, 1, 1, 0),
                                        (0, 0, 1, 1, 1, 0))))
    assert minimum_distance(code) == listed_min_weight(code) == 2
    assert ranks == [3, 1]
    # [I_4 | A | 0 0 0 0]_5: G_2 takes A's three columns as pivots, so G_3
    # has only the zero columns left, and rank 0
    a = ((1, 4, 2, 3), (3, 1, 2, 4), (3, 1, 1, 3))
    code = LinearCode(MatrixOverGfp(5, tuple(
        tuple(int(i == j) for j in range(4)) + tuple(c[i] for c in a) + (0,) * 4
        for i in range(4))))
    ranks.clear()
    assert minimum_distance(code) == listed_min_weight(code) == 3
    assert ranks == [4, 3, 0]


def reference_message_weights(p, rows, level):
    """The weight of u*rows for every message u of this weight whose first
    nonzero symbol is 1, in any order."""
    out = []
    for u in itertools.product(range(p), repeat=len(rows)):
        if sum(1 for c in u if c) == level and next(c for c in u if c) == 1:
            word = [sum(c * row[j] for c, row in zip(u, rows)) % p
                    for j in range(len(rows[0]))]
            out.append(sum(1 for s in word if s))
    return sorted(out)


@pytest.mark.parametrize("lanes", [1, 13, codes._BLOCK_LANES])
def test_message_weights_match_the_reference(monkeypatch, lanes):
    # Each information set's packed levels against the messages one by one;
    # a small _BLOCK_LANES cuts the multiples of the later rows into runs.
    monkeypatch.setattr(codes, "_BLOCK_LANES", lanes)
    for seed in range(0, 208, 5):
        code = differential_code(seed)
        if code.dimension == code.length:
            continue
        reduced = rref(code.generator)
        g = codes._InformationSet(code.modulus, reduced.rref.entries,
                                  reduced.pivot_columns, list(range(code.length)))
        for level in range(1, code.dimension + 1):
            got = sorted(itertools.chain.from_iterable(g.weights(level)))
            assert got == reference_message_weights(code.modulus, g.rows, level), (seed, level)


@pytest.mark.parametrize("code, steps", [
    pytest.param(hamming_code(), [(0, 1), (0, 2)], id="hamming"),
    pytest.param(builtin_code("golay"), [(0, 1), (1, 1), (0, 2), (1, 2)], id="golay"),
    pytest.param(extended_golay_code(),
                 [(0, 1), (1, 1), (0, 2), (1, 2), (0, 3), (1, 3)], id="[24,12,8]_2"),
    pytest.param(LinearCode(MatrixOverGfp(2, ((1,) * 30,))), [(0, 1)], id="[30,1]_2"),
    pytest.param(random_full_rank_code(random.Random(2), 3, 12, 14), [(0, 1)], id="[14,12]_3"),
])
def test_search_stops_where_the_bound_meets_the_least_weight(monkeypatch, code, steps):
    # Which information set is weighed at which level, in order: the search
    # builds G_j only when it can raise the bound, and stops at the first
    # level where the bound reaches the least weight found.
    seen, weights = [], codes._InformationSet.weights

    def spy(g, level):
        seen.append((g, level))
        return weights(g, level)

    monkeypatch.setattr(codes._InformationSet, "weights", spy)
    d = minimum_distance(code)
    order = list(dict.fromkeys(g for g, _ in seen))
    assert [(order.index(g), level) for g, level in seen] == steps, d


def test_syndrome_membership_matches_the_rank_test():
    # Every codeword of the 208 differential codes and of a k = n code is a
    # member; a sample of them, each with one symbol moved, and random words
    # are asked of both tests.
    answers = Counter()
    for seed in range(209):
        code = differential_code(seed) if seed < 208 else LinearCode(identity(5, 7))
        p, n = code.modulus, code.length
        book = reference_codewords(code)
        assert all(is_codeword(code, w) for w in book), seed
        rng = random.Random(seed)
        asked = []
        for w in rng.sample(book, min(len(book), 8)):
            j = rng.randrange(n)
            moved = w.symbols[:j] + ((w[j] + rng.randrange(1, p)) % p,) + w.symbols[j + 1:]
            asked += [w, Word(p, moved), Word(p, tuple(rng.randrange(p) for _ in range(n)))]
        for w in asked:
            answer = reference_is_codeword(code, w)
            assert is_codeword(code, w) == answer, (seed, w)
            answers[answer] += 1
    assert min(answers.values()) > 1000


@pytest.mark.parametrize("name,transform", [("hamming", HAMMING), ("golay", GOLAY)])
def test_every_codeword_is_a_fixed_point(name, transform):
    code = builtin_code(name)
    for w in enumerate_codewords(code):
        assert apply(transform, w) == w


def loads_of(name, node, scope="<module>"):
    """The enclosing function (or '<module>') of each read of `name`, as a
    bare name or as an attribute, in the syntax tree under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = node.name
    if isinstance(getattr(node, "ctx", None), ast.Load) and \
            name in (getattr(node, "id", None), getattr(node, "attr", None)):
        yield scope
    for child in ast.iter_child_nodes(node):
        yield from loads_of(name, child, scope)


# The trust boundary: each builder that makes a value without `_residues`,
# or sets a frozen value's fields, and the (module, scope) pairs that may use
# it, None standing for any module.  The Word builders serve the codebook
# walk, the per-word images, digit-string parsing and null-space vectors; the
# matrix builder serves rref's result, a code's H and a fixed-space code; a
# frozen value is set up in its `__init__`, or in `_reduced_matrix`, and never
# written after: a derived cache is a `cached_property`.  Widening a trusted
# path means editing this table on purpose.
TRUSTED_USERS = {
    ("_reduced_words",): {("codes", "enumerate_codewords")},
    ("_reduced_word",): {
        ("modlinalg", "mat_vec"), ("ntt", "apply_addition_only"), ("gfield", "parse_word"),
        ("modlinalg", "_null_basis"),
    },
    ("_set_modulus", "_set_symbols"): {("gfield", "_reduced_word"), ("gfield", "_reduced_words")},
    ("_reduced_matrix",): {
        ("modlinalg", "rref"), ("codes", "_parity_check"), ("codes", "code_from_fixed_space"),
    },
    ("__setattr__",): {(None, "__init__"), ("modlinalg", "_reduced_matrix")},
}


@pytest.mark.parametrize("names", TRUSTED_USERS, ids="/".join)
def test_trusted_builders_are_used_only_by_their_pinned_users(names):
    allowed = TRUSTED_USERS[names]
    for name in names:
        users = {
            (None if (None, scope) in allowed else path.stem, scope)
            for path in Path(codes.__file__).parent.glob("*.py")
            for scope in loads_of(name, ast.parse(path.read_text(encoding="utf-8")))
        }
        assert users == allowed, name


def fixing_code(code):
    """A square matrix whose fixed space is the code: I + A*H, with H the
    oracle's null space of the generator and A the first n - k columns of
    I, so T*x = x exactly when H*x = 0."""
    p, n = code.modulus, code.length
    h = oracle.null_space(code.generator.entries, p)
    return MatrixOverGfp(p, tuple(
        tuple((int(i == j) + (h[i][j] if i < len(h) else 0)) % p for j in range(n))
        for i in range(n)))


def test_trusted_code_matrices_match_checked_builds():
    # A code's H and a fixed-space code's generator are built without a
    # check; the oracle's rows go through MatrixOverGfp.
    for seed in range(208):
        code = differential_code(seed)
        p, rows = code.modulus, code.generator.entries
        if code.dimension < code.length:
            assert_built_alike(code._parity_check,
                               MatrixOverGfp(p, tuple(oracle.null_space(rows, p))))
        t = fixing_code(code)
        generator = code_from_fixed_space(t).generator
        assert_built_alike(generator, MatrixOverGfp(p, tuple(oracle.fixed_basis(t.entries, p))))
        assert same_row_space(generator, code.generator), seed
    for t in (HAMMING, GOLAY):
        assert_built_alike(code_from_fixed_space(t).generator, MatrixOverGfp(
            t.matrix.modulus, tuple(oracle.fixed_basis(t.matrix.entries, t.matrix.modulus))))


def test_derived_values_are_not_checked_again(monkeypatch):
    # On checked inputs, rref, null_space, is_codeword (whose first call
    # builds H) and code_from_fixed_space build their matrices and vectors
    # without `_residues`.  The one check left is the fixed space's
    # eigenvalue, a checked FieldElement(1, p).
    residues, calls = gfield._residues, []

    def counted(p, values, width=None):
        calls.append(p)
        return residues(p, values, width)

    matrices = [MatrixOverGfp(p, tuple(map(tuple, rows))) for p, rows in eliminated_matrices()]
    checked = [(code, fixing_code(code), Word(code.modulus, code.generator.entries[0]))
               for code in map(differential_code, range(208)) if code.dimension < code.length]
    for module in (gfield, modlinalg):
        monkeypatch.setattr(module, "_residues", counted)
    for m in matrices:
        rref(m), null_space(m)
    for code, _, word in checked:
        assert "_parity_check" not in vars(code)
        assert is_codeword(code, word)
    assert calls == []
    for _, t, _ in checked:
        code_from_fixed_space(t)
        assert calls == [t.modulus]
        calls.clear()


def test_reduced_words_match_checked_words():
    # The mapped bulk builder against `Word(p, t)`, over the listing of
    # every differential code, fed as an iterator as the walk feeds it.
    assert gfield._reduced_words(5, iter(())) == []
    for seed in range(208):
        code = differential_code(seed)
        p, rows = code.modulus, [w.symbols for w in reference_codewords(code)]
        words = gfield._reduced_words(p, iter(rows))
        assert type(words) is list and len(words) == len(rows), seed
        for word, symbols in zip(words, rows):
            assert type(word) is Word and word == Word(p, symbols), seed
            assert word.modulus == p and word.symbols is symbols, seed


@contextlib.contextmanager
def collector(enabled):
    """Run the block with automatic cyclic collection on or off, and put
    back the state it had before."""
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if before else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_enumeration_leaves_the_collector_as_the_caller_set_it(monkeypatch, enabled):
    # Paused while each block's Words are built, and never turned on for a
    # caller who turned it off.
    states, reduced_words = [], codes._reduced_words

    def watched(p, rows):
        states.append(gc.isenabled())
        return reduced_words(p, rows)

    monkeypatch.setattr(codes, "_reduced_words", watched)
    code = random_full_rank_code(random.Random(16), 2, 16, 32)
    with collector(enabled):
        assert len(enumerate_codewords(code)) == 2**16
        assert gc.isenabled() is enabled
    assert len(states) > 1 and not any(states)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_enumeration_restores_the_collector_when_a_block_is_refused(monkeypatch, enabled):
    # The bad-block setup of the test below: a clean one-word block, then
    # a block whose word 0 holds p in its middle lane.
    p = 3
    code = LinearCode(MatrixOverGfp(p, identity(3, p).entries[:1]))
    _, m = codes._shape(p, 3, 1)
    w = codes._Lanes(p, 3, m).w
    blocks = ((1, 0), (m, p << w))
    monkeypatch.setattr(codes, "_block_sums", lambda *_: iter(blocks))
    with collector(enabled):
        with pytest.raises(ValueError, match=f"^codeword 1 has a symbol >= {p}$"):
            enumerate_codewords(code)
        assert gc.isenabled() is enabled


def test_listings_do_not_depend_on_the_collector():
    listed = []
    for enabled in (True, False):
        with collector(enabled):
            listed.append([enumerate_codewords(code) for code in (
                hamming_code(), builtin_code("golay"),
                random_full_rank_code(random.Random(20), 3, 10, 20),
                random_full_rank_code(random.Random(32), 2, 16, 32))])
    assert listed[0] == listed[1]
    assert all(type(w) is Word for listing in listed[1] for w in listing)


@pytest.mark.parametrize("p", [2, 3, 131, 32771])
def test_enumeration_refuses_an_unreduced_packed_word(monkeypatch, p):
    # Blocks of m words of 3 symbols, in lanes of 8 bits (p = 2, 3), 16 (131)
    # or 32 (32771).  A clean one-word block comes first, so the message must
    # count the words before the block.  A lane holding p, 2p-2 (the largest
    # unreduced hi + lo) or all ones (which the bias carries out of), in the
    # first or last lane of the first, middle or last word of a block, must
    # be refused, and no Word built from that block.
    k = 3 if p == 2 else 1
    code = LinearCode(MatrixOverGfp(p, identity(3, p).entries[:k]))
    _, m = codes._shape(p, 3, k)
    w = codes._Lanes(p, 3, m).w
    assert m >= 3 and w == {2: 8, 3: 8, 131: 16, 32771: 32}[p]
    built, reduced_words = [], codes._reduced_words

    def counted(p, rows):
        rows = list(rows)
        built.append(len(rows))
        return reduced_words(p, rows)

    monkeypatch.setattr(codes, "_reduced_words", counted)
    cases = [(lane, i, j) for lane in (p, 2 * p - 2, (1 << w) - 1)
             for i in (0, m // 2, m - 1) for j in (0, 2)]
    for lane, i, j in cases:
        blocks = ((1, 0), (m, lane << (3 * i + j) * w))
        monkeypatch.setattr(codes, "_block_sums", lambda *_: iter(blocks))
        with pytest.raises(ValueError, match=f"^codeword {1 + i} has a symbol >= {p}$"):
            enumerate_codewords(code)
    assert built == [1] * len(cases)
    # the middle lane of the middle word holding p - 1 passes
    blocks = ((1, 0), (m, (p - 1) << (3 * (m // 2) + 1) * w))
    monkeypatch.setattr(codes, "_block_sums", lambda *_: iter(blocks))
    words = enumerate_codewords(code)
    assert len(words) == 1 + m and built[-1] == m
    assert words[1 + m // 2] == Word(p, (0, p - 1, 0))
    assert sum(map(Word.weight, words)) == 1
