"""Reference paths that put the package's types around the oracle's answers.

The arithmetic, ranks, codebook listings, eigenspaces, text forms and
flower rules come from benchmarks/oracle.py, which imports nothing from the
package and which the benchmark checks its outputs against too.  What is
left here reads or builds Words, codes and shapes: certificates for rref
and for eigenspaces, the per-word evaluators, the verdicts of verify's two
golay checks, and the reference renderers, which set up render's drawing
walk afresh on every call.
"""

import math
import random
from functools import cache, partial
from itertools import compress, islice, product

import oracle
from fieldflower.flowergeom import FlowerShape, _placement, features
from fieldflower.gfield import FieldElement, Word
from fieldflower.modlinalg import MatrixOverGfp, mat_vec, rref
from fieldflower.ntt import EigenSpace, apply_addition_only
from fieldflower.render import _SVG, _TIKZ, RenderSpec, _arrow_geometry, _fmt, \
    _require_drawable, _svg_document, to_svg


@cache
def _listing(rows, p: int) -> tuple[Word, ...]:
    return tuple(Word(p, oracle.codeword(u, rows, p)) for u in product(range(p), repeat=len(rows)))


def reference_codewords(code) -> list[Word]:
    """Every codeword u*G by the oracle, with the messages u in lexicographic
    order: the order of enumerate_codewords."""
    return list(_listing(code.generator.entries, code.modulus))


def reference_isomorphism(th, tg, golay=None) -> tuple[bool, str]:
    """verify's transform-code-isomorphism verdict by walking every codeword:
    the Hamming listing under th, then the golay listing (the oracle's fixed
    space of the 12-point matrix unless another code is given) under tg,
    naming the first codeword moved."""
    golay_rows = (oracle.GOLAY_BASIS, 3) if golay is None else \
        (golay.generator.entries, golay.modulus)
    total = 0
    for m, words in ((th, _listing(oracle.HAMMING_GENERATOR, 2)), (tg, _listing(*golay_rows))):
        for w in words:
            if mat_vec(m, w) != w:
                return False, f"codeword {oracle.text(w.symbols, w.modulus)} is not fixed"
        total += len(words)
    return True, f"all {total} codewords are fixed points"


@cache
def _seeded_words() -> tuple[Word, ...]:
    return tuple(Word(3, v) for v in reference_random_words())


def reference_addition_only_check(tg, golay, signed_rows) -> tuple[bool, str]:
    """verify's golay-addition-only verdict by evaluating every word: unless
    tg is over GF(3) with 12 columns and the oracle's products by the signed
    rows and by tg agree on each golay codeword and seeded word, those words
    go in order through apply_addition_only and mat_vec; then the 24 words
    v * e_j do, naming the first word the two map apart."""
    words = [*_listing(golay.generator.entries, golay.modulus), *_seeded_words()]
    agree = tg.modulus == 3 and tg.cols == 12 and all(
        oracle.mat_vec(signed_rows, w.symbols, 3) == oracle.mat_vec(tg.entries, w.symbols, 3)
        for w in words)
    units = [Word(3, (0,) * j + (v,) + (0,) * (11 - j)) for j in range(12) for v in (1, 2)]
    for w in ([] if agree else words) + units:
        if apply_addition_only(w) != mat_vec(tg, w):
            return False, f"paths disagree on {oracle.text(w.symbols, w.modulus)}"
    return True, f"paths agree on {golay.size} codewords + {len(_seeded_words())} random words"


def rref_certified(m, result) -> bool:
    """A certificate for result = rref(m), from rref([M | I]) = [R | T]:
    T*M equals result's rows, each row of T*M taken by mat_vec of M
    transposed; those rows are in reduced echelon shape on result's pivot
    columns; and T has full rank by the oracle's rank.  Row-equivalent to M
    and reduced, they are M's one rref."""
    p, k, n = m.modulus, m.rows, m.cols
    augmented = rref(MatrixOverGfp(p, tuple(
        row + tuple(int(i == j) for j in range(k)) for i, row in enumerate(m.entries))))
    t = [row[n:] for row in augmented.rref.entries]
    transposed = MatrixOverGfp(p, tuple(zip(*m.entries)))
    reduced, pivots = result.rref.entries, result.pivot_columns
    if [mat_vec(transposed, Word(p, row)).symbols for row in t] != list(reduced):
        return False
    if result.rank != len(pivots) or list(pivots) != sorted(set(pivots)):
        return False
    if any(map(any, reduced[len(pivots):])):
        return False
    for i, c in enumerate(pivots):
        if any(reduced[i][:c]) or [row[c] for row in reduced] != [int(j == i) for j in range(k)]:
            return False
    return oracle.rank(t, p) == k


def reference_eigen_spectrum(m):
    """eigen_spectrum by the oracle's sweep: the canonical null space of
    M - lambda*I at every lambda in GF(p), kept where it is nonempty."""
    p = m.modulus
    return [EigenSpace(FieldElement(lam, p), tuple(Word(p, b) for b in basis))
            for lam, basis in oracle.eigen_spectrum(m.entries, p)]


def eigen_space_certified(m, space) -> bool:
    """A certificate for one eigenspace of the square matrix m, by mat_vec
    and the oracle's rank only: M*b = lambda*b for every basis vector b, the
    basis is independent, and its size is n - rank(M - lambda*I)."""
    p, n, lam = m.modulus, len(m.entries), space.eigenvalue.value
    if space.eigenvalue.modulus != p:
        return False
    if any(mat_vec(m, b).symbols != tuple(lam * v % p for v in b.symbols)
           for b in space.basis):
        return False
    if space.basis and oracle.rank([b.symbols for b in space.basis], p) != len(space.basis):
        return False
    shifted = [[(e - lam) % p if i == j else e for j, e in enumerate(row)]
               for i, row in enumerate(m.entries)]
    return space.dimension == n - oracle.rank(shifted, p)


def reference_is_codeword(code, word: Word) -> bool:
    """Membership by rank: the word lies in the code exactly when stacking
    it under the generator's k independent rows leaves the rank at k."""
    stacked = code.generator.entries + (word.symbols,)
    return oracle.rank(stacked, code.modulus) == code.dimension


def reference_parse_word(text: str, p: int) -> Word:
    """A word from its text form, one symbol at a time: base-p digits for
    p <= 10, or comma-separated ASCII decimals for any p (one decimal, no
    comma, for a one-symbol word over p > 10)."""
    if text == "":
        raise ValueError("empty word")
    if "," in text or p > 10:
        symbols = [part.strip() for part in text.split(",")]
    else:
        symbols = list(text)
    for k, symbol in enumerate(symbols):
        if not (symbol.isascii() and symbol.isdigit()):
            raise ValueError(
                f"invalid symbol {symbol!r} at position {k} in word {text!r} "
                f"over GF({p}): expected ASCII digits 0-9"
            )
    return Word(p, tuple(map(int, symbols)))


def reference_random_words() -> list[tuple[int, ...]]:
    """The addition-only check's 10,000 seeded ternary 12-symbol words, one
    symbol at a time: the draws of rng.randrange(3), which takes
    getrandbits(2) and draws again on 3."""
    rng = random.Random(12345)
    symbols = filter((3).__gt__, iter(partial(rng.getrandbits, 2), None))
    return list(islice(zip(*[symbols] * 12), 10000))


def reference_constellation(word: Word) -> list[tuple]:
    """(index, radius, angle, x, y) of each symbol, placed afresh, uncached:
    z_k = x_k * exp(j*2*pi*k/N), angle 2*pi*k/N."""
    n = len(word)
    out = []
    for k, v in enumerate(word.symbols):
        angle = math.tau * k / n
        out.append((k, v, angle, v * math.cos(angle), v * math.sin(angle)))
    return out


def reference_panel(words: list[Word], columns: int, spec: RenderSpec) -> bytes:
    """A panel built cell by cell: each cell wraps the body of its to_svg."""
    canvas = spec.canvas
    rows = -(-len(words) // columns)
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{columns * canvas:.6f}" '
             f'height="{rows * canvas:.6f}" viewBox="0 0 {columns * canvas:.6f} '
             f'{rows * canvas:.6f}">']
    for i, w in enumerate(words):
        tx, ty = (i % columns) * canvas, (i // columns) * canvas
        lines.append(f'<g class="cell" transform="translate({tx:.6f} {ty:.6f})">')
        lines.extend(to_svg(features(w), spec).decode("ascii").splitlines()[1:-1])
        lines.append("</g>")
    return ("\n".join(lines + ["</svg>"]) + "\n").encode("ascii")


def _cell_plan(x: tuple[int, ...]):
    """What a cell of these symbols draws, by the oracle's petal, thorn and
    shade rules: its petal starts, their shade parities (0 light, 1 dark),
    its thorns and its nonzero indices, which get markers."""
    return ([k for k, _ in oracle.petals(x)], [int(s == "dark") for s in oracle.shades(x)],
            oracle.thorns(x), list(compress(range(len(x)), x)))


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
            out.append(f["label"](o, spec, p, oracle.text(word.symbols, p)))
        return out

    return lines, place, cell


def _one_cell(f: dict, spec: RenderSpec, shape: FlowerShape) -> list[str]:
    word = shape.word
    _, place, cell = _draw(f, spec, len(word), word.modulus)
    return cell(word, [place(pt.index, pt.radius, pt.x, pt.y) for pt in shape.points],
                _cell_plan(word.symbols))


def reference_to_svg(shape: FlowerShape, spec: RenderSpec) -> bytes:
    """to_svg with the walk set up for this one call, points taken from
    shape.points, and nothing kept between calls."""
    return _svg_document(spec.canvas, spec.canvas, _one_cell(_SVG, spec, shape))


def reference_to_tikz(shape: FlowerShape, spec: RenderSpec) -> str:
    """to_tikz the same way as reference_to_svg."""
    body = _one_cell(_TIKZ, spec, shape)
    return "\n".join(["\\begin{tikzpicture}[x=1pt,y=1pt]", *body,
                      "\\end{tikzpicture}", ""])
