"""Deterministic SVG and TikZ emission for flower shapes, grids, and panels.

Every drawing routine here is a pure function of (shape, spec): element order
is fixed, floats are printed with a fixed 6-decimal convention, and no locale,
clock, or scheduling input leaks into the output.  Rendering the same input
twice must produce identical bytes; golden-file tests depend on it.

One walk, _drawer, decides which primitives a cell has and in what order; SVG
and TikZ differ only in the format table that turns each primitive into text.
A cell looks up its points in one table per axis, in caches panels share, and
what it draws in flowergeom's plan of its nonzero pattern, the one features
reads; every SVG is assembled as bytes, a panel cell by cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from itertools import product
from operator import getitem

from .flowergeom import MAX_AXES, FlowerShape, _placement, _plan
from .gfield import Word, _require_prime, format_word

_AXIS_COLOR = "B0B0B0"
_RING_COLOR = "B0B0B0"
_ARROW_COLOR = "808080"
_OUTLINE_COLOR = "404040"
_LABEL_COLOR = "333333"
_HEX_DIGITS = "0123456789abcdefABCDEF"

# A cell of n symbols over GF(p) has n axes and p-1 grid rings; n past MAX_AXES
# or a larger p is refused before drawing.  So is a panel whose cells could
# draw more primitives in all, or with more columns (which could only be
# empty); at the bound a panel peaks at 34-90 MB with sizes up to MAX_SPEC_SIZE.
MAX_RINGS = 1000
MAX_PANEL_PRIMITIVES = 250_000
MAX_SPEC_SIZE = 10_000


@dataclass(frozen=True)
class RenderSpec:
    """Visual constants for one rendering; all fields overridable from the CLI.

    canvas is the side length of one cell in abstract units, radius_scale the
    units per field value; each of the four sizes is in (0, MAX_SPEC_SIZE].
    Colors are 6-hex-digit RGB, with or without a leading '#'.
    """

    canvas: float = 240.0
    radius_scale: float = 40.0
    stroke_width: float = 1.5
    light_color: str = "9ECAE1"
    dark_color: str = "2171B5"
    marker_radius: float = 5.0
    grid: bool = True
    label: bool = False

    def __post_init__(self) -> None:
        for name in ("canvas", "radius_scale", "stroke_width", "marker_radius"):
            v = getattr(self, name)
            if not 0 < v <= MAX_SPEC_SIZE:
                raise ValueError(f"{name} must be positive and at most {MAX_SPEC_SIZE}, got {v}")
        object.__setattr__(self, "light_color", _clean_color(self.light_color))
        object.__setattr__(self, "dark_color", _clean_color(self.dark_color))


def _clean_color(color: str) -> str:
    c = color.removeprefix("#")
    if len(c) != 6 or not all(ch in _HEX_DIGITS for ch in c):
        raise ValueError(f"color must be 6 hex digits, got {color!r}")
    return c.upper()


def _fmt(v: float) -> str:
    out = f"{v:.6f}"
    return "0.000000" if out == "-0.000000" else out


def _arrow_geometry(n: int, p: int, spec: RenderSpec):
    """Arc-plus-head geometry for the symbol-ordering arrow between axes 0 and 1.

    Returned in math coordinates (y up, origin at center): arc start/end
    points, arc radius, start/end angles, and the two arrowhead wing points.
    """
    r = (p - 1) * spec.radius_scale + 0.35 * spec.radius_scale
    a0 = 0.15 * math.tau / n
    a1 = 0.85 * math.tau / n
    sx, sy = r * math.cos(a0), r * math.sin(a0)
    ex, ey = r * math.cos(a1), r * math.sin(a1)
    # Head wings point back against the counterclockwise tangent at the tip.
    tx, ty = math.sin(a1), -math.cos(a1)
    h = 0.18 * spec.radius_scale + 0.08 * r
    wings = []
    for phi in (0.45, -0.45):
        wx = tx * math.cos(phi) - ty * math.sin(phi)
        wy = tx * math.sin(phi) + ty * math.cos(phi)
        wings.append((ex + h * wx, ey + h * wy))
    return (sx, sy), (ex, ey), r, a0, a1, wings


def _svg_arrow(start, end, r, a0, a1, wings, w):
    large = int(a1 - a0 > math.pi)
    d = f"M {start[0]} {start[1]} A {r} {r} 0 {large} 0 {end[0]} {end[1]}"
    for x, y in wings:
        d += f" M {x} {y} L {end[0]} {end[1]}"
    return (f'<path class="arrow" d="{d}" fill="none" '
            f'stroke="#{_ARROW_COLOR}" stroke-width="{w}"/>')


def _tikz_color(color: str) -> str:
    r, g, b = bytes.fromhex(color)
    return f"{{rgb,255:red,{r};green,{g};blue,{b}}}"


# Format tables: one f-string formatter per primitive kind.  "at" maps a point
# in math coordinates (y up, origin at the cell centre c) to the format's
# (x, y) strings; "color" maps a 6-hex-digit RGB to the format's colour
# syntax; "vertex" formats a point of an outline or a petal.  o
# is the cell centre, w a formatted line width, and the trailing index argument
# numbers the primitive within its kind.  A petal takes its centre and points
# as vertex text.
_SVG = {
    "at": lambda c, x, y: (_fmt(c + x), _fmt(c - y)),
    "color": lambda color: color,
    "axis": lambda o, q, w, k: (
        f'<line class="axis" x1="{o[0]}" y1="{o[1]}" x2="{q[0]}" y2="{q[1]}" '
        f'stroke="#{_AXIS_COLOR}" stroke-width="{w}"/>'),
    "ring": lambda o, r, w, i: (
        f'<circle class="ring" cx="{o[0]}" cy="{o[1]}" r="{r}" fill="none" '
        f'stroke="#{_RING_COLOR}" stroke-width="{w}" stroke-dasharray="3 3"/>'),
    "arrow": _svg_arrow,
    "petal": lambda o, a, b, color, i: (
        f'<polygon class="petal" points="{o} {a} {b}" fill="#{color}" stroke="none"/>'),
    "vertex": lambda q: f"{q[0]},{q[1]}",
    "outline": lambda vertices, w: (
        '<polygon class="outline" points="' + " ".join(vertices)
        + f'" fill="none" stroke="#{_OUTLINE_COLOR}" stroke-width="{w}"/>'),
    "thorn": lambda o, q, color, w, i: (
        f'<line class="thorn" x1="{o[0]}" y1="{o[1]}" x2="{q[0]}" y2="{q[1]}" '
        f'stroke="#{color}" stroke-width="{w}"/>'),
    "marker": lambda q, r, color, k: (
        f'<circle class="marker" cx="{q[0]}" cy="{q[1]}" r="{r}" '
        f'fill="#{color}"/>'),
    "label": lambda o, spec, p, text: (
        f'<text class="label" x="{o[0]}" '
        f'y="{_fmt(spec.canvas / 2 + spec.canvas / 2 - 0.02 * spec.canvas)}" '
        f'text-anchor="middle" font-family="monospace" '
        f'font-size="{_fmt(0.05 * spec.canvas)}" '
        f'fill="#{_LABEL_COLOR}">{text}</text>'),
}

_TIKZ = {
    "at": lambda c, x, y: (_fmt(x), _fmt(y)),
    "color": _tikz_color,
    "axis": lambda o, q, w, k: (
        f"\\draw[gray!60, line width={w}pt] (0,0) -- ({q[0]},{q[1]}); "
        f"% axis {k}"),
    "ring": lambda o, r, w, i: (
        f"\\draw[gray!60, dashed] (0,0) circle[radius={r}]; % ring {i}"),
    "arrow": lambda start, end, r, a0, a1, wings, w: (
        f"\\draw[->, gray] ({start[0]},{start[1]}) "
        f"arc[start angle={_fmt(math.degrees(a0))}, "
        f"end angle={_fmt(math.degrees(a1))}, radius={r}]; % arrow"),
    "petal": lambda o, a, b, color, i: (
        f"\\draw[fill={color}, draw=none] (0,0) -- {a} -- {b} -- cycle; % petal {i}"),
    "vertex": lambda q: f"({q[0]},{q[1]})",
    "outline": lambda vertices, w: (
        f"\\draw[line width={w}pt] " + " -- ".join(vertices) + " -- cycle; % outline"),
    "thorn": lambda o, q, color, w, i: (
        f"\\draw[draw={color}, line width={w}pt] (0,0) -- ({q[0]},{q[1]}); "
        f"% thorn {i}"),
    "marker": lambda q, r, color, k: (
        f"\\fill[fill={color}] ({q[0]},{q[1]}) circle[radius={r}]; "
        f"% marker {k}"),
    "label": lambda o, spec, p, text: (
        f"\\node[anchor=north, font=\\ttfamily] at "
        f"(0,{_fmt(-((p - 1) * spec.radius_scale + 0.6 * spec.radius_scale))}) "
        f"{{{text}}}; % label"),
}

_FORMATS = {"svg": _SVG, "tikz": _TIKZ}


def _require_drawable(n: int, p: int, cells: int = 1) -> None:
    """Refuse cells of n symbols over GF(p) past MAX_AXES or MAX_RINGS, and
    that many past MAX_PANEL_PRIMITIVES: a cell draws at most n + p grid
    lines, n petals, an outline, n//2 thorns, n markers, a label, a group."""
    if n > MAX_AXES:
        raise ValueError(f"a word of {n} symbols would draw {n} axes, "
                         f"past the bound of {MAX_AXES}")
    if p - 1 > MAX_RINGS:
        raise ValueError(f"GF({p}) would draw {p - 1} grid rings, "
                         f"past the bound of {MAX_RINGS}")
    most = cells * (3 * n + n // 2 + p + 3)
    if most > MAX_PANEL_PRIMITIVES:
        raise ValueError(f"a panel of {cells} cells of {n} symbols over GF({p}) "
                         f"could draw {most} primitives, past the bound of "
                         f"{MAX_PANEL_PRIMITIVES}")


class _Axis(dict):
    """A drawer's points on one axis by symbol value; place(v) fills a miss, kept if keep."""

    __slots__ = ("place", "keep")

    def __missing__(self, v):
        point = self.place(v)
        if self.keep:
            self[v] = point
        return point


@lru_cache(maxsize=1024)
def _drawer(fmt: str, spec: RenderSpec, n: int, p: int):
    """The drawing walk for cells of n symbols over GF(p), in format fmt.

    Returns (head, cell): [the joined grid text (axes, rings, arrow)], [] if
    not spec.grid, and cell(word), the word's primitives in the fixed order
    head, petals, outline, thorns, markers, label.  Callers check
    _require_drawable first.  A cell's points, each (point, outline vertex,
    marker text), come from one _Axis per axis, and a drawer of n*p <= 512
    keeps, so places once, each (k, x_k).  Callers that cycle through a few
    hundred keys (48 words x 4 specs x 2 formats is 384) still hit.
    """
    f = _FORMATS[fmt]
    at, c, s = f["at"], spec.canvas / 2, spec.radius_scale
    o = at(c, 0.0, 0.0)
    lines = []
    if spec.grid:
        w = _fmt(spec.stroke_width * 0.5)
        for k in range(n):
            _, x, y = _placement(k, (p - 1) * s, n)
            lines.append(f["axis"](o, at(c, x, y), w, k))
        lines.extend(f["ring"](o, _fmt(i * s), w, i) for i in range(1, p))
        start, end, r, a0, a1, wings = _arrow_geometry(n, p, spec)
        lines.append(f["arrow"](at(c, *start), at(c, *end), _fmt(r), a0, a1,
                                [at(c, *wing) for wing in wings], w))
    head = ["\n".join(lines)] if lines else []
    shades = (f["color"](spec.light_color), f["color"](spec.dark_color))
    w, mr = _fmt(spec.stroke_width), _fmt(spec.marker_radius)
    petal, outline, vertex, thorn, marker = (
        f["petal"], f["outline"], f["vertex"], f["thorn"], f["marker"])
    o_vertex = vertex(o)

    def place(k, v):
        _, x, y = _placement(k, v, n)
        q = at(c, s * x, s * y)
        return q, vertex(q), marker(q, mr, shades[1], k)

    # Points are kept while all n*p fit in 512 entries, a few hundred bytes
    # each, so a drawer's tables stay under about 300 KB; random words would
    # rarely meet a point twice in larger tables, so those place afresh.
    axes = [_Axis({0: (o, o_vertex, None)}) for _ in range(n)]  # zero sits on the centre
    for k, axis in enumerate(axes):
        axis.place, axis.keep = partial(place, k), n * p <= 512

    def cell(word):
        x = word.symbols
        petals, lone, parities, nonzero = _plan(tuple(map(bool, x)))
        out = head.copy()
        # The all-zero word, every point on the origin, draws no petal or dot.
        if nonzero:
            pts = list(map(getitem, axes, x))
            out += [petal(o_vertex, pts[a][1], pts[b][1], shades[d], i)
                    for i, ((a, b), d) in enumerate(zip(petals, parities))]
            out.append(outline([q[1] for q in pts], w))
            out += [thorn(o, pts[k][0], shades[1], w, i) for i, k in enumerate(lone)]
            out += [pts[k][2] for k in nonzero]
        if spec.label:
            out.append(f["label"](o, spec, p, format_word(word)))
        return out

    return head, cell


def _one_cell(fmt: str, spec: RenderSpec, shape: FlowerShape,
              setup=_drawer) -> list[str]:
    """shape.word's primitives, by the drawer setup(fmt, spec, n, p) returns:
    the cached _drawer, or _drawer.__wrapped__ for one set up afresh."""
    word = shape.word
    _require_drawable(len(word), word.modulus)
    return setup(fmt, spec, len(word), word.modulus)[1](word)


def _svg_document(width: float, height: float, body) -> bytes:
    """The SVG document around body's text pieces, each encoded as it comes; "" adds no line."""
    w, h = _fmt(width), _fmt(height)
    return b"\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">'.encode(), *map(str.encode, filter(None, body)),
        b"</svg>", b""])


def _flower_svg(shape: FlowerShape, spec: RenderSpec, setup=_drawer) -> bytes:
    """to_svg's document, its cell drawn as _one_cell draws it with setup."""
    return _svg_document(spec.canvas, spec.canvas,
                         ["\n".join(_one_cell("svg", spec, shape, setup))])


def to_svg(shape: FlowerShape, spec: RenderSpec | None = None) -> bytes:
    """Standalone SVG document for one flower shape, drawn from shape.word:
    a hand-built shape whose points disagree with its word is drawn from the
    word, as its petals and thorns already are."""
    return _flower_svg(shape, spec or RenderSpec())


def render_grid(n: int, p: int, spec: RenderSpec | None = None) -> bytes:
    """Just the polar grid: n radial axes, p-1 rings, and the ordering arrow."""
    if n < 2:
        raise ValueError(f"grid needs at least 2 axes, got n={n}")
    _require_prime(p)
    spec = replace(spec or RenderSpec(), grid=True)
    _require_drawable(n, p)
    return _svg_document(spec.canvas, spec.canvas, _drawer("svg", spec, n, p)[0])


def panel(words: list[Word], columns: int, spec: RenderSpec | None = None,
          workers: int = 1) -> bytes:
    """Row-major grid of flowers, one cell per word, in list order.

    Cells are rendered serially.  workers is accepted for compatibility and
    ignored: threads only slowed this pure-Python string building down.  The
    cells share to_svg's drawer, its grid text and axis tables, and equal its
    cells byte for byte.  Each cell's group is encoded as it is drawn, so the
    document exists only as bytes.  A panel whose cells could draw more than
    MAX_PANEL_PRIMITIVES primitives, or with more columns, is refused first.
    """
    spec = spec or RenderSpec()
    if not words:
        raise ValueError("panel needs at least one word")
    if columns < 1:
        raise ValueError(f"columns must be at least 1, got {columns}")
    if columns > MAX_PANEL_PRIMITIVES:
        raise ValueError(f"columns past the bound of {MAX_PANEL_PRIMITIVES} could only be empty")
    n, p = len(words[0]), words[0].modulus
    for w in words:
        if len(w) != n or w.modulus != p:
            raise ValueError(
                f"panel words must share length and modulus; "
                f"got ({len(w)}, GF({w.modulus})) next to ({n}, GF({p}))"
            )
    _require_drawable(n, p, len(words))
    return _panel(words, columns, spec)


def _panel(words: list[Word], columns: int, spec: RenderSpec, setup=_drawer) -> bytes:
    """panel's document, drawn by setup's drawer; callers check the bounds."""
    cell = setup("svg", spec, len(words[0]), words[0].modulus)[1]
    rows = -(-len(words) // columns)
    # Every cell of a column shares its x offset, and of a row its y offset.
    offsets = product([_fmt(r * spec.canvas) for r in range(rows)],
                     [_fmt(i * spec.canvas) for i in range(min(columns, len(words)))])
    groups = ("\n".join([f'<g class="cell" transform="translate({x} {y})">', *cell(w), "</g>"])
              for (y, x), w in zip(offsets, words))
    return _svg_document(columns * spec.canvas, rows * spec.canvas, groups)


def to_tikz(shape: FlowerShape, spec: RenderSpec | None = None) -> str:
    """TikZ picture drawing the same primitives in the same order as to_svg.

    Coordinates are in pt with the flower centered on the origin; no y flip.
    Each primitive carries a trailing comment naming it, so element counts
    stay checkable on the text.  Like to_svg, it draws from shape.word.
    """
    spec = spec or RenderSpec()
    body = _one_cell("tikz", spec, shape)
    return "\n".join(["\\begin{tikzpicture}[x=1pt,y=1pt]", *body,
                      "\\end{tikzpicture}", ""])
