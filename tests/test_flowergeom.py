"""Constellation geometry, petal/thorn derivation, and shade assignment."""

import itertools
import math
import random
from dataclasses import replace

from fieldflower.flowergeom import MAX_AXES, ConstellationPoint, _plan, _point, \
    constellation, features, petal_shades
from fieldflower.gfield import Word, parse_word
import oracle
import reference_constants as ref
from reference_paths import reference_constellation


def test_constellation_angles_and_radii():
    w = parse_word("1011101", 2)
    points = constellation(w)
    assert len(points) == 7
    for k, pt in enumerate(points):
        assert pt.index == k
        assert pt.radius == w[k]
        assert math.isclose(pt.angle, math.tau * k / 7, abs_tol=1e-12)
        assert math.isclose(math.hypot(pt.x, pt.y), w[k], abs_tol=1e-12)


def _exact(points) -> list[tuple]:
    """Points with their floats as float.hex, so -0.0 differs from 0.0."""
    return [(k, type(v), v, *map(float.hex, floats)) for k, v, *floats in points]


def _assert_matches_reference(word: Word) -> None:
    points = constellation(word)
    assert type(points) is tuple
    assert all(type(pt) is ConstellationPoint for pt in points)
    got = [(pt.index, pt.radius, pt.angle, pt.x, pt.y) for pt in points]
    assert _exact(got) == _exact(reference_constellation(word)), word


# Every (k, v) of n = 1..16 symbols over GF(2), GF(3), GF(5) and GF(7):
# the constant words put each value on every axis.
SMALL_FIELD_WORDS = [Word(p, (v,) * n) for n in range(1, 17) for p in (2, 3, 5, 7)
                     for v in range(p)]


def test_shared_points_equal_points_placed_afresh():
    for word in SMALL_FIELD_WORDS:
        _assert_matches_reference(word)
    rng = random.Random(24)
    for n in range(1, 17):
        _assert_matches_reference(Word(2**61 - 1, tuple(
            rng.randrange(2**61 - 1) for _ in range(n))))


def test_shared_points_survive_eviction():
    # 2,312 distinct (k, v, n) keys against 1,024 entries: the sweep evicts
    # the points of its own first words before it ends, and takes them again
    size = _point.cache_info().maxsize
    assert sum(len(w) for w in SMALL_FIELD_WORDS) > 2 * size
    for _ in range(2):
        for word in SMALL_FIELD_WORDS:
            _assert_matches_reference(word)
    assert _point.cache_info().currsize == size
    # points of equal keys are one shared value
    word = SMALL_FIELD_WORDS[-1]
    assert all(a is b for a, b in zip(constellation(word), constellation(word)))


def test_constellation_starts_on_positive_real_axis():
    points = constellation(parse_word("1000000", 2))
    assert math.isclose(points[0].x, 1.0, abs_tol=1e-12)
    assert math.isclose(points[0].y, 0.0, abs_tol=1e-12)
    # counterclockwise: the next axis has positive imaginary part
    assert constellation(parse_word("0100000", 2))[1].y > 0


def test_all_zero_word_collapses_to_origin():
    for pt in constellation(Word(3, (0,) * 12)):
        assert pt.x == 0.0 and pt.y == 0.0 and pt.radius == 0


def test_ternary_points_sit_on_the_two_rings():
    w = parse_word("102010022101", 3)
    for pt in constellation(w):
        assert math.isclose(math.hypot(pt.x, pt.y), w[pt.index], abs_tol=1e-12)
        assert w[pt.index] in (0, 1, 2)


def test_reference_feature_counts():
    for text, (petals, thorns) in ref.FLOWER_COUNTS.items():
        shape = features(parse_word(text, 2))
        assert (len(shape.petals), len(shape.thorns)) == (petals, thorns), text


def test_features_exhaustive_over_binary_7_words():
    for bits in itertools.product(range(2), repeat=7):
        shape = features(Word(2, bits))
        petals = {
            (k, (k + 1) % 7) for k in range(7)
            if bits[k] and bits[(k + 1) % 7]
        }
        thorns = {
            k for k in range(7)
            if bits[k] and not bits[(k - 1) % 7] and not bits[(k + 1) % 7]
        }
        assert set(shape.petals) == petals
        assert set(shape.thorns) == thorns
        # petals come sorted by start index, thorns ascending
        assert list(shape.petals) == sorted(shape.petals)
        assert list(shape.thorns) == sorted(shape.thorns)
        # a thorn index touches no petal, and every nonzero position is
        # covered by a petal or is a thorn
        petal_members = {i for pair in petals for i in pair}
        assert not (set(shape.thorns) & petal_members)
        for k in range(7):
            if bits[k]:
                assert k in petal_members or k in shape.thorns


def test_features_commute_with_rotation():
    w = parse_word("1010110", 2)
    base = features(w)
    n = len(w)
    for r in range(n):
        rotated = Word(2, tuple(w[(k - r) % n] for k in range(n)))
        shape = features(rotated)
        assert set(shape.petals) == {
            ((a + r) % n, (b + r) % n) for a, b in base.petals
        }
        assert set(shape.thorns) == {(t + r) % n for t in base.thorns}


def test_ternary_features_and_shades():
    shape = features(parse_word("102010022101", 3))
    assert shape.petals == ((7, 8), (8, 9), (11, 0))
    assert shape.thorns == (2, 4)
    assert petal_shades(shape) == ["light", "dark", "light"]


def test_shades_empty_and_singleton():
    assert petal_shades(features(parse_word("0000101", 2))) == []
    shape = features(parse_word("1100000", 2))
    assert shape.petals == ((0, 1),)
    assert petal_shades(shape) == ["light"]


def test_shades_two_disjoint_runs_start_light_independently():
    # petals start at 0,1 (run one) and 4 (run two)
    shape = features(parse_word("11101100", 2))
    assert shape.petals == ((0, 1), (1, 2), (4, 5))
    assert petal_shades(shape) == ["light", "dark", "light"]


def test_shades_anchor_at_lowest_index_in_wrapped_run():
    # petals (0,1) and (6,0): one run crossing the wrap, anchored at 0
    shape = features(parse_word("1100001", 2))
    assert shape.petals == ((0, 1), (6, 0))
    assert petal_shades(shape) == ["light", "dark"]


def test_shades_full_cycle_tolerates_one_seam_pair():
    shape = features(parse_word("1111111", 2))
    shades = petal_shades(shape)
    assert shades == ["light", "dark", "light", "dark", "light", "dark", "light"]
    collisions = sum(
        1 for i in range(7) if shades[i] == shades[(i + 1) % 7]
    )
    assert collisions == 1


def test_shades_alternate_within_every_run():
    # sweep every binary 7-word; within a run, cyclically adjacent petals
    # get different shades, except the single allowed seam when the run is
    # the whole cycle with an odd petal count
    for bits in itertools.product(range(2), repeat=7):
        shape = features(Word(2, bits))
        if not shape.petals:
            continue
        shades = dict(zip(shape.petals, petal_shades(shape)))
        starts = {k for k, _ in shape.petals}
        whole_cycle = len(starts) == 7
        collisions = 0
        for k in starts:
            if (k + 1) % 7 in starts:
                a = shades[(k, (k + 1) % 7)]
                b = shades[((k + 1) % 7, (k + 2) % 7)]
                if a == b:
                    collisions += 1
        if whole_cycle:
            assert collisions == 1
        else:
            assert collisions == 0


def test_features_and_shades_match_the_reference_rules():
    # every zero pattern up to N = 12, which is all that petals, thorns and
    # shades depend on, and all that a panel keys its cell plans on
    for n in range(1, 13):
        for bits in itertools.product(range(2), repeat=n):
            shape = features(Word(2, bits))
            petals, thorns = oracle.petals(bits), oracle.thorns(bits)
            assert (list(shape.petals), list(shape.thorns)) == (petals, thorns)
            assert petal_shades(shape) == oracle.shades(bits), bits
            plan_petals, plan_thorns, parities, nonzero = _plan(tuple(map(bool, bits)))
            assert list(plan_petals) == petals
            assert [("light", "dark")[d] for d in parities] == oracle.shades(bits)
            assert (list(plan_thorns), list(nonzero)) == \
                (thorns, [k for k in range(n) if bits[k]])


def test_features_keeps_plans_only_of_drawable_patterns():
    # a plan grows with its word and features bounds no length, so past
    # MAX_AXES symbols a word is planned afresh and no plan is kept
    rng = random.Random(37)
    long_words = [Word(2, (1,) * (MAX_AXES + 1))] + [
        Word(3, tuple(rng.randrange(3) for _ in range(20_000))) for _ in range(3)]
    _plan.cache_clear()
    for word in long_words:
        shape = features(word)
        assert (list(shape.petals), list(shape.thorns)) == \
            (oracle.petals(word.symbols), oracle.thorns(word.symbols))
    assert _plan.cache_info().currsize == 0
    # a drawable pattern is kept once, whatever its nonzero values
    for word in (Word(3, (1, 2, 0) * (MAX_AXES // 3)), Word(3, (2, 2, 0) * (MAX_AXES // 3))):
        shape = features(word)
        assert (list(shape.petals), list(shape.thorns)) == \
            (oracle.petals(word.symbols), oracle.thorns(word.symbols))
        assert _plan.cache_info().currsize == 1
    assert all(type(part) is tuple for part in _plan((True, False, True, True)))


def test_petal_shades_follow_a_hand_built_shapes_petals():
    # petal_shades reads shape.petals, not its word's pattern: a hand-built
    # shape is shaded by the petals it was given
    word = parse_word("1101100", 2)  # petals at 0 and 3, both light
    assert petal_shades(features(word)) == ["light", "light"]
    other = parse_word("1110111", 2)  # one run 4, 5, 6, 0, 1 through the wrap
    shape = replace(features(word), petals=features(other).petals)
    assert petal_shades(shape) == oracle.shades(other.symbols) == \
        ["light", "dark", "dark", "light", "dark"]
    shape = replace(features(word), petals=((5, 6), (6, 0)))
    assert petal_shades(shape) == ["light", "dark"]
