"""Acceptance gate: eleven criteria, one test and one printed line each.

Every tolerance is exact equality; the whole module runs in seconds.

Criterion 6 is expected to stay red: the nominal parameters for the
12-point construction are (12, 6, 6), but the fixed-space code of the
built-in matrix contains weight-5 words (000101200202 is one), so its true
minimum distance is 5.  The criterion is asserted as stated rather than
weakened to match the measured value; the computed truth is pinned in
tests/test_codes.py.
"""

import itertools
import random
import time

from fieldflower.codes import (
    builtin_code,
    enumerate_codewords,
    hamming_code,
    hamming_generator,
    minimum_distance,
)
from fieldflower.flowergeom import features
from fieldflower.gfield import FieldElement, Word, format_word, parse_word
from fieldflower.modlinalg import (
    MatrixOverGfp,
    mat_vec,
    matrix_from_words,
    null_space,
    rref,
    same_row_space,
)
from fieldflower.ntt import GOLAY, HAMMING, apply, apply_addition_only, fixed_space
from fieldflower.render import RenderSpec, panel, to_svg
import oracle
import reference_constants as ref


def check(criterion: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_01_hamming_transform_pair():
    got = format_word(apply(HAMMING, parse_word("0011000", 2)))
    check("criterion 1 (hamming transform pair)", got == "1111000",
          f"T(0011000) = {got}, expected 1111000")


def test_criterion_02_hamming_invariant():
    w = parse_word("1100001", 2)
    got = format_word(apply(HAMMING, w))
    check("criterion 2 (hamming invariant)", apply(HAMMING, w) == w,
          f"T(1100001) = {got}, expected 1100001")


def test_criterion_03_golay_transform_pairs():
    bad = []
    for src, dst in ref.GOLAY_PAIRS:
        got = format_word(apply(GOLAY, parse_word(src, 3)))
        if got != dst:
            bad.append(f"T({src}) = {got} != {dst}")
    check("criterion 3 (golay transform pairs)", not bad,
          "; ".join(bad) if bad else "all 3 displayed pairs hold")


def test_criterion_04_golay_invariants():
    bad = []
    for src in ref.GOLAY_INVARIANT_WORDS:
        w = parse_word(src, 3)
        if apply(GOLAY, w) != w:
            bad.append(src)
    check("criterion 4 (golay invariants)", not bad,
          "; ".join(bad) if bad else "all 3 invariant words are fixed points")


def test_criterion_05_eigenvector_generator_identity():
    space = fixed_space(HAMMING)
    g = hamming_generator()
    dim_ok = space.dimension == 4
    span_ok = dim_ok and same_row_space(matrix_from_words(space.basis), g)
    rows_fixed = all(
        mat_vec(HAMMING.matrix, Word(2, row)) == Word(2, row)
        for row in g.entries
    )
    check("criterion 5 (eigenvector/generator identity)",
          dim_ok and span_ok and rows_fixed,
          f"dim={space.dimension}, same row space: {span_ok}, "
          f"all 4 generator rows fixed: {rows_fixed}")


def test_criterion_06_code_parameters():
    start = time.perf_counter()
    ham = hamming_code()
    ham_d = minimum_distance(ham)
    gol_space = fixed_space(GOLAY)
    gol = builtin_code("golay")
    gol_d = minimum_distance(gol)
    elapsed = time.perf_counter() - start
    ham_ok = (ham.length, ham.dimension, ham_d) == (7, 4, 3)
    dim_ok = gol_space.dimension == 6
    gol_ok = gol_d == 6
    check("criterion 6 (code parameters)",
          ham_ok and dim_ok and gol_ok and elapsed < 1.0,
          f"hamming (7,4,d={ham_d}); golay dim={gol_space.dimension}, "
          f"d={gol_d} (nominal 6); {elapsed:.3f}s")


def test_criterion_07_transform_code_isomorphism():
    counts = []
    ok = True
    for transform, code in ((HAMMING, hamming_code()),
                            (GOLAY, builtin_code("golay"))):
        words = enumerate_codewords(code)
        ok = ok and all(apply(transform, w) == w for w in words)
        counts.append(len(words))
    check("criterion 7 (transform/code isomorphism)",
          ok and counts == [16, 729],
          f"{counts[0]} + {counts[1]} codewords all fixed: {ok}")


def test_criterion_08_multiplication_free_path():
    words = enumerate_codewords(builtin_code("golay"))
    rng = random.Random(420)
    randoms = [Word(3, tuple(rng.randrange(3) for _ in range(12)))
               for _ in range(10000)]
    ok = all(apply_addition_only(w) == Word(3, oracle.mat_vec(oracle.GOLAY_SIGNED, w.symbols, 3))
             == apply(GOLAY, w) for w in words + randoms)
    check("criterion 8 (multiplication-free path)", ok,
          f"addition-only agrees with the matrix product on "
          f"{len(words)} codewords + {len(randoms)} random words: {ok}")


def test_criterion_09_geometry_features():
    ok = True
    for bits in itertools.product(range(2), repeat=7):
        shape = features(Word(2, bits))
        petals = sum(1 for k in range(7) if bits[k] and bits[(k + 1) % 7])
        thorns = sum(
            1 for k in range(7)
            if bits[k] and not bits[(k - 1) % 7] and not bits[(k + 1) % 7]
        )
        ok = ok and (len(shape.petals), len(shape.thorns)) == (petals, thorns)
    figures_ok = True
    for text, expected in (("0000101", (0, 2)), ("1010110", (1, 2))):
        shape = features(parse_word(text, 2))
        figures_ok = figures_ok and \
            (len(shape.petals), len(shape.thorns)) == expected
    check("criterion 9 (geometry features)", ok and figures_ok,
          f"128-word sweep: {ok}; figure words: {figures_ok}")


def test_criterion_10_rendering_determinism():
    spec = RenderSpec(label=True)
    shape = features(parse_word("1010110", 2))
    svg_ok = to_svg(shape, spec) == to_svg(shape, spec)
    words = [Word(2, tuple((i >> (6 - k)) & 1 for k in range(7)))
             for i in range(128)]
    serial = panel(words, columns=16, spec=spec, workers=1)
    repeat = panel(words, columns=16, spec=spec, workers=1)
    parallel = panel(words, columns=16, spec=spec, workers=8)
    cells = serial.decode("ascii").count('class="cell"')
    check("criterion 10 (rendering determinism)",
          svg_ok and serial == repeat and serial == parallel and cells == 128,
          f"to_svg repeat: {svg_ok}; panel repeat/parallel identical: "
          f"{serial == repeat and serial == parallel}; cells={cells}")


def test_criterion_11_property_suites():
    axioms_ok = True
    for p in (2, 3, 5, 7):
        elems = [FieldElement(v, p) for v in range(p)]
        for a, b, c in itertools.product(elems, repeat=3):
            axioms_ok = axioms_ok and \
                ((a + b) + c).value == (a + (b + c)).value and \
                ((a * b) * c).value == (a * (b * c)).value and \
                (a * (b + c)).value == (a * b + a * c).value
        for a in elems:
            axioms_ok = axioms_ok and (a + (-a)).value == 0
            if a.value:
                axioms_ok = axioms_ok and (a * a.inverse()).value == 1

    linear_ok = True
    rng = random.Random(917)
    for transform in (HAMMING, GOLAY):
        p = transform.matrix.modulus
        n = transform.matrix.cols
        for _ in range(1000):
            x = Word(p, tuple(rng.randrange(p) for _ in range(n)))
            y = Word(p, tuple(rng.randrange(p) for _ in range(n)))
            a, b = rng.randrange(p), rng.randrange(p)
            combo = Word(p, tuple(
                (a * xv + b * yv) % p for xv, yv in zip(x.symbols, y.symbols)
            ))
            tx, ty = apply(transform, x), apply(transform, y)
            want = Word(p, tuple(
                (a * xv + b * yv) % p for xv, yv in zip(tx.symbols, ty.symbols)
            ))
            linear_ok = linear_ok and apply(transform, combo) == want

    rank_ok = True
    for p in (2, 3):
        for _ in range(8):
            rows = rng.randrange(1, 9)
            cols = rng.randrange(1, 9)
            m = MatrixOverGfp(p, tuple(
                tuple(rng.randrange(p) for _ in range(cols))
                for _ in range(rows)
            ))
            nullity = len(null_space(m))
            rank_ok = rank_ok and rref(m).rank + nullity == cols
            zero = Word(p, (0,) * rows)
            kernel = sum(
                1 for v in itertools.product(range(p), repeat=cols)
                if mat_vec(m, Word(p, v)) == zero
            )
            rank_ok = rank_ok and kernel == p ** nullity

    check("criterion 11 (property suites)",
          axioms_ok and linear_ok and rank_ok,
          f"field axioms p in 2,3,5,7: {axioms_ok}; "
          f"linearity 1000 tuples/transform: {linear_ok}; "
          f"rank-nullity vs exhaustive kernels: {rank_ok}")
