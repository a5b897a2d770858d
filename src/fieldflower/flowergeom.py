"""Geometric flower form of a GF(p) word: constellation, petals, thorns.

Symbol k of a length-N word is placed at z_k = x_k * exp(j*2*pi*k/N), so each
position owns a radial axis and the symbol value is the radius.  Two cyclically
consecutive nonzero symbols span a petal (the triangle origin, z_k, z_{k+1});
a nonzero symbol with zero on both sides is a thorn (a bare radial segment).
This module is the only place besides render where floating point appears;
everything upstream stays in exact integer arithmetic.

Constellation points are shared immutable values: each (k, x_k, N) is placed
once and its frozen point handed to every word that has it, from a bounded
cache filled on first use.  A word's petals, thorns and shades depend only on
which of its symbols are nonzero: _plan is the one place their rules run, kept
per pattern of up to MAX_AXES symbols and read by features and render's drawer.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress, repeat

from .gfield import Word, _Frozen

# render refuses to draw a word of more symbols, and features keeps no plan of
# one: a plan's size grows with its length, which features does not bound.
MAX_AXES = 256


class ConstellationPoint(_Frozen):
    """One plotted symbol: polar (radius, angle) plus its cartesian image."""

    def __init__(self, index: int, radius: int, angle: float, x: float, y: float) -> None:
        set_field = object.__setattr__
        set_field(self, "index", index)
        set_field(self, "radius", radius)
        set_field(self, "angle", angle)
        set_field(self, "x", x)
        set_field(self, "y", y)


class FlowerShape(_Frozen):
    """A word together with its derived geometry.

    petals are (k, (k+1) mod N) pairs in ascending k order; thorns are bare
    indices in ascending order.  The outline runs through points in order.
    """

    def __init__(self, word: Word, points: tuple[ConstellationPoint, ...],
                 petals: tuple[tuple[int, int], ...], thorns: tuple[int, ...]) -> None:
        set_field = object.__setattr__
        set_field(self, "word", word)
        set_field(self, "points", points)
        set_field(self, "petals", petals)
        set_field(self, "thorns", thorns)


def _placement(k: int, v: float, n: int) -> tuple[float, float, float]:
    """Angle, x and y of z_k = v * exp(j*2*pi*k/N): value v on axis k of n."""
    angle = math.tau * k / n
    return angle, v * math.cos(angle), v * math.sin(angle)


@lru_cache(maxsize=1024)
def _point(k: int, v: int, n: int) -> ConstellationPoint:
    """The point of value v on axis k of n; frozen, so words share it."""
    return ConstellationPoint(k, v, *_placement(k, v, n))


def constellation(word: Word) -> tuple[ConstellationPoint, ...]:
    """Map a word to its constellation points.

    Index 0 sits on the positive real axis and angles increase
    counterclockwise.  Zero symbols land on the origin.
    """
    n = len(word)
    return tuple(map(_point, range(n), word.symbols, repeat(n)))


def _shade_parities(starts: list[int], n: int) -> list[int]:
    """petal_shades' rule on ascending petal starts: 0 is light, 1 dark.

    A run through N-1 that goes on at 0, short of the whole cycle, has its
    lowest start at 0: its starts before the wrap count from N.
    """
    seam = 0 < len(starts) < n and starts[0] == 0
    out, head, prev = [], 0, None
    for i, k in enumerate(starts):
        if k - 1 != prev:
            head = n if seam and len(starts) - i == n - k else k
        out.append((k - head) % 2)
        prev = k
    return out


@lru_cache(maxsize=64)
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Every petal pair (k, (k+1) mod N) of N = n axes, which the plans of
    n symbols share."""
    return tuple((k, (k + 1) % n) for k in range(n))


@lru_cache(maxsize=1024)
def _plan(x: tuple[bool, ...]):
    """The nonzero pattern x's petals as (k, (k+1) mod N) pairs, thorns, petal
    shade parities (0 light, 1 dark) and nonzero indices, all in ascending k.
    A pattern longer than MAX_AXES, whose plan features does not keep, keeps
    no pairs either."""
    n = len(x)
    # x[k - 1] and x[k + 1 - n] are the cyclic neighbours of x[k], 0 <= k < n.
    starts = [k for k in range(n) if x[k] and x[k + 1 - n]]
    thorns = tuple(k for k in range(n) if x[k] and not x[k - 1] and not x[k + 1 - n])
    pairs = (_pairs if n <= MAX_AXES else _pairs.__wrapped__)(n)
    return (tuple(map(pairs.__getitem__, starts)), thorns,
            tuple(_shade_parities(starts, n)), tuple(compress(range(n), x)))


def features(word: Word) -> FlowerShape:
    """Derive the points, petals and thorns of a word, from its pattern's plan."""
    support = tuple(map(bool, word.symbols))
    plan = _plan if len(support) <= MAX_AXES else _plan.__wrapped__
    petals, thorns = plan(support)[:2]
    return FlowerShape(word=word, points=constellation(word), petals=petals, thorns=thorns)


def petal_shades(shape: FlowerShape) -> list[str]:
    """Alternating 'light'/'dark' assignment, aligned with shape.petals.

    Petals whose start indices are cyclically consecutive form a run; within
    each run shades alternate and the petal at the run's numerically lowest
    start index is light.  When every position starts a petal the run is the
    whole cycle, and an odd petal count then forces one same-shade pair at
    the wrap seam; the anchor rule above still fixes the assignment.
    """
    starts = [k for k, _ in shape.petals]
    return [("light", "dark")[d] for d in _shade_parities(starts, len(shape.word))]
