"""Deterministic SVG and TikZ emission for flower shapes, grids, and panels.

Every drawing routine here is a pure function of (shape, spec): element order
is fixed, floats are printed with a fixed 6-decimal convention, and no locale,
clock, or scheduling input leaks into the output.  Rendering the same input
twice must produce identical bytes; golden-file tests depend on it.

One walk, _draw, decides which primitives a cell has and in what order; SVG
and TikZ differ only in the format table that turns each primitive into text.
A panel sets the walk up once per call, and its cells share the texts and
plans that the walk keeps (see panel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache
from itertools import compress
from string import hexdigits

from .flowergeom import FlowerShape, _petals_and_thorns, _placement, _shade_parities
from .gfield import Word, _require_prime, format_word

_AXIS_COLOR = "B0B0B0"
_RING_COLOR = "B0B0B0"
_ARROW_COLOR = "808080"
_OUTLINE_COLOR = "404040"
_LABEL_COLOR = "333333"

# A cell of n symbols over GF(p) has n axes and p-1 grid rings; a longer word
# or a larger p is refused before drawing.  So is a panel whose cells could
# draw more primitives in all; at the bound a panel peaks at 42-90 MB.
MAX_AXES = 256
MAX_RINGS = 1000
MAX_PANEL_PRIMITIVES = 250_000


@dataclass(frozen=True)
class RenderSpec:
    """Visual constants for one rendering; all fields overridable from the CLI.

    canvas is the side length of one cell in abstract units, radius_scale the
    units per field value.  Colors are 6-hex-digit RGB, with or without a
    leading '#'.
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
            if not (math.isfinite(v) and v > 0):
                raise ValueError(
                    f"{name} must be finite and strictly positive, got {v}"
                )
        object.__setattr__(self, "light_color", _clean_color(self.light_color))
        object.__setattr__(self, "dark_color", _clean_color(self.dark_color))


def _clean_color(color: str) -> str:
    c = color.removeprefix("#")
    if len(c) != 6 or not all(ch in hexdigits for ch in c):
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


def _cell_plan(support: tuple[int, ...]):
    """What a cell of these symbols draws, by the flowergeom rules, which read
    only their nonzero pattern: its petal starts, their shade parities, its
    thorns and its nonzero indices, which get markers."""
    starts, thorns = _petals_and_thorns(support)
    return (starts, _shade_parities(starts, len(support)), thorns,
            list(compress(range(len(support)), support)))


def _draw(f: dict, spec: RenderSpec, n: int, p: int, cells: int = 1):
    """The drawing walk for cells of n symbols over GF(p), in format f.

    Checks the bounds for that many cells before any primitive and draws the
    grid lines (axes, rings, arrow) if spec.grid, once.  Returns (grid lines,
    place, cell): place(k, v, x, y) gives symbol v of axis k, at (x, y) in
    field units, as its point, outline vertex and marker texts; cell(word,
    pts, plan) the word's cell from pts[k] = place(k, ...) and its _cell_plan,
    in the fixed order grid (one item), petals, outline, thorns, markers, label.
    """
    _require_drawable(n, p, cells)
    at, c, s = f["at"], spec.canvas / 2, spec.radius_scale
    o = at(c, 0.0, 0.0)
    lines = []
    if spec.grid:
        w = _fmt(spec.stroke_width * 0.5)
        r_outer = (p - 1) * s
        axis = f["axis"]
        for k in range(n):
            _, x, y = _placement(k, r_outer, n)
            lines.append(axis(o, at(c, x, y), w, k))
        ring = f["ring"]
        lines.extend(ring(o, _fmt(i * s), w, i) for i in range(1, p))
        start, end, r, a0, a1, wings = _arrow_geometry(n, p, spec)
        lines.append(f["arrow"](at(c, *start), at(c, *end), _fmt(r), a0, a1,
                                [at(c, *wing) for wing in wings], w))
    head = ["\n".join(lines)] if lines else []
    shades = (f["color"](spec.light_color), f["color"](spec.dark_color))
    dark = shades[1]
    w, mr = _fmt(spec.stroke_width), _fmt(spec.marker_radius)
    petal, outline, vertex, thorn, marker = (
        f["petal"], f["outline"], f["vertex"], f["thorn"], f["marker"])
    o_vertex = vertex(o)

    def place(k, v, x, y):
        if not v:  # a zero symbol sits on the centre
            return o, o_vertex, None
        q = at(c, s * x, s * y)
        return q, vertex(q), marker(q, mr, dark, k)

    def cell(word, pts, plan):
        starts, parities, lone, nonzero = plan
        out = head.copy()
        out += [petal(o_vertex, pts[k][1], pts[(k + 1) % n][1], shades[d], i)
                for i, (k, d) in enumerate(zip(starts, parities))]
        # The all-zero word has every point on the origin; its outline would
        # be a degenerate dot, so it is omitted entirely.
        if nonzero:
            out.append(outline([q[1] for q in pts], w))
        out += [thorn(o, pts[k][0], dark, w, i) for i, k in enumerate(lone)]
        out += [pts[k][2] for k in nonzero]
        if spec.label:
            out.append(f["label"](o, spec, p, format_word(word)))
        return out

    return lines, place, cell


def _one_cell(f: dict, spec: RenderSpec, shape: FlowerShape) -> list[str]:
    word = shape.word
    _, place, cell = _draw(f, spec, len(word), word.modulus)
    return cell(word, [place(pt.index, pt.radius, pt.x, pt.y) for pt in shape.points],
                _cell_plan(word.symbols))


def _svg_document(width: float, height: float, body: list[str]) -> bytes:
    w, h = _fmt(width), _fmt(height)
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">', *body, "</svg>", ""]).encode("ascii")


def to_svg(shape: FlowerShape, spec: RenderSpec | None = None) -> bytes:
    """Standalone SVG document for one flower shape."""
    spec = spec or RenderSpec()
    return _svg_document(spec.canvas, spec.canvas, _one_cell(_SVG, spec, shape))


def render_grid(n: int, p: int, spec: RenderSpec | None = None) -> bytes:
    """Just the polar grid: n radial axes, p-1 rings, and the ordering arrow."""
    if n < 2:
        raise ValueError(f"grid needs at least 2 axes, got n={n}")
    _require_prime(p)
    spec = replace(spec or RenderSpec(), grid=True)
    return _svg_document(spec.canvas, spec.canvas, _draw(_SVG, spec, n, p)[0])


def panel(words: list[Word], columns: int, spec: RenderSpec | None = None,
          workers: int = 1) -> bytes:
    """Row-major grid of flowers, one cell per word, in list order.

    Cells are rendered serially.  workers is accepted for compatibility and
    ignored: threads only slowed this pure-Python string building down.  The
    bytes equal those of each cell drawn alone by to_svg.  Within one call the
    grid text is formatted once, each nonzero pattern's plan (petal starts
    and shades, thorns, markers) made once, and each (k, x_k) placed once,
    with its outline vertex and marker text.  A panel whose cells could draw
    more than MAX_PANEL_PRIMITIVES primitives is refused before drawing.
    """
    spec = spec or RenderSpec()
    if not words:
        raise ValueError("panel needs at least one word")
    if columns < 1:
        raise ValueError(f"columns must be at least 1, got {columns}")
    n, p = len(words[0]), words[0].modulus
    for w in words:
        if len(w) != n or w.modulus != p:
            raise ValueError(
                f"panel words must share length and modulus; "
                f"got ({len(w)}, GF({w.modulus})) next to ({n}, GF({p}))"
            )
    _, place, cell = _draw(_SVG, spec, n, p, len(words))

    @cache
    def point(k, v):
        return place(k, v, *_placement(k, v, n)[1:])

    # Every cell of a column shares its x offset, and of a row its y offset;
    # cells of one nonzero pattern share a plan.
    xs = [_fmt(i * spec.canvas) for i in range(min(columns, len(words)))]
    plans, body = {}, []
    for r in range(0, len(words), columns):
        y = _fmt(r // columns * spec.canvas)
        for x, w in zip(xs, words[r:r + columns]):
            support = tuple(map(bool, w.symbols))
            plan = plans.get(support) or plans.setdefault(support, _cell_plan(support))
            body.append(f'<g class="cell" transform="translate({x} {y})">')
            body.extend(cell(w, list(map(point, range(n), w.symbols)), plan))
            body.append("</g>")
    rows = -(-len(words) // columns)
    return _svg_document(columns * spec.canvas, rows * spec.canvas, body)


def to_tikz(shape: FlowerShape, spec: RenderSpec | None = None) -> str:
    """TikZ picture drawing the same primitives in the same order as to_svg.

    Coordinates are in pt with the flower centered on the origin; no y flip.
    Each primitive carries a trailing comment naming it, so element counts
    stay checkable on the text.
    """
    spec = spec or RenderSpec()
    body = _one_cell(_TIKZ, spec, shape)
    return "\n".join(["\\begin{tikzpicture}[x=1pt,y=1pt]", *body,
                      "\\end{tikzpicture}", ""])
