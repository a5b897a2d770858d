"""Per-word reference evaluators: the oracles for the package's fast paths.

They read the independent transcription in reference_constants and share no
code with src/, except reference_panel, which puts together cells that
to_svg draws one by one, reference_to_svg and reference_to_tikz, which
set up render's uncached walk on every call and so share its format tables,
reference_isomorphism, which walks codebook listings through mat_vec,
reference_addition_only_check, which walks words through apply_addition_only
and mat_vec, and reference_eigen_spectrum, which takes ntt's eigenspace of
every lambda in GF(p).
"""

import math
import random
from functools import cache, partial
from itertools import compress, islice

from fieldflower.codes import builtin_code, enumerate_codewords, hamming_code
from fieldflower.flowergeom import FlowerShape, _petals_and_thorns, _placement, \
    _shade_parities, features
from fieldflower.gfield import Word, format_word
from fieldflower.modlinalg import mat_vec
from fieldflower.ntt import _eigen_space_for, apply_addition_only
from fieldflower.render import _SVG, _TIKZ, RenderSpec, _arrow_geometry, _fmt, \
    _require_drawable, _svg_document, to_svg
from reference_constants import GOLAY_SIGNED_ROWS


def reference_addition_only(x: Word) -> Word:
    """The 12-point ternary transform of one word, one symbol at a time: add
    x_j under a +1 entry, subtract it under a -1 entry, reduce mod 3."""
    out = []
    for row in GOLAY_SIGNED_ROWS:
        acc = 0
        for e, v in zip(row, x.symbols):
            if e == 1:
                acc += v
            elif e == -1:
                acc -= v
        out.append(acc % 3)
    return Word(3, tuple(out))


def reference_mat_vec(m, x: Word) -> Word:
    """y_i = sum_j M[i][j] * x_j mod p, one row at a time."""
    p = m.modulus
    return Word(p, tuple(
        sum(e * v for e, v in zip(row, x.symbols)) % p for row in m.entries
    ))


def reference_isomorphism(th, tg, golay=None) -> tuple[bool, str]:
    """verify's transform-code-isomorphism verdict by walking every codeword:
    the Hamming listing under th, then the golay listing (the built-in golay
    code unless another is given) under tg, naming the first codeword moved."""
    total = 0
    for m, code in ((th, hamming_code()), (tg, golay or builtin_code("golay"))):
        words = enumerate_codewords(code)
        for w in words:
            if mat_vec(m, w) != w:
                return False, f"codeword {format_word(w)} is not fixed"
        total += len(words)
    return True, f"all {total} codewords are fixed points"


@cache
def _seeded_words() -> tuple[Word, ...]:
    return tuple(Word(3, v) for v in reference_random_words())


def reference_addition_only_check(tg, golay, signed_rows) -> tuple[bool, str]:
    """verify's golay-addition-only verdict by evaluating every word: unless
    tg is over GF(3) with 12 columns and the signed rows, summed symbol by
    symbol, give reference_mat_vec(tg, w) on each golay codeword and seeded
    word w, those words go in order through apply_addition_only and mat_vec;
    then the 24 words v * e_j do, naming the first word the two map apart."""
    words = enumerate_codewords(golay) + list(_seeded_words())

    def signed(w):
        return Word(3, tuple(sum(e * v for e, v in zip(row, w.symbols)) % 3
                             for row in signed_rows))
    agree = tg.modulus == 3 and tg.cols == 12 and all(
        signed(w) == reference_mat_vec(tg, w) for w in words)
    units = [Word(3, (0,) * j + (v,) + (0,) * (11 - j)) for j in range(12) for v in (1, 2)]
    for w in ([] if agree else words) + units:
        if apply_addition_only(w) != mat_vec(tg, w):
            return False, f"paths disagree on {format_word(w)}"
    return True, f"paths agree on {golay.size} codewords + {len(_seeded_words())} random words"


def _rank(p: int, rows) -> int:
    """The rank of the rows over GF(p), by forward elimination."""
    rows = [list(row) for row in rows]
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv % p
            rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def reference_eigen_spectrum(m):
    """eigen_spectrum by sweeping: the eigenspace of every lambda in GF(p),
    each one null space, keeping the nonempty ones in ascending order."""
    spaces = (_eigen_space_for(m, lam) for lam in range(m.modulus))
    return [space for space in spaces if space.dimension >= 1]


def eigen_space_certified(m, space) -> bool:
    """A certificate for one eigenspace of the square matrix m, by mat_vec
    and _rank only: M*b = lambda*b for every basis vector b, the basis is
    independent, and its size is n - rank(M - lambda*I)."""
    p, n, lam = m.modulus, len(m.entries), space.eigenvalue.value
    if space.eigenvalue.modulus != p:
        return False
    if any(mat_vec(m, b).symbols != tuple(lam * v % p for v in b.symbols)
           for b in space.basis):
        return False
    if space.basis and _rank(p, [b.symbols for b in space.basis]) != len(space.basis):
        return False
    shifted = [[(e - lam) % p if i == j else e for j, e in enumerate(row)]
               for i, row in enumerate(m.entries)]
    return space.dimension == n - _rank(p, shifted)


def reference_is_codeword(code, word: Word) -> bool:
    """Membership by rank: the word lies in the code exactly when stacking
    it under the generator's k independent rows leaves the rank at k."""
    stacked = code.generator.entries + (word.symbols,)
    return _rank(code.modulus, stacked) == code.dimension


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


def reference_format_word(word: Word) -> str:
    """A word's canonical text, one symbol at a time: base-p digits for
    p <= 10, else comma-separated decimals."""
    if word.modulus <= 10:
        return "".join(str(s) for s in word.symbols)
    return ",".join(str(s) for s in word.symbols)


def reference_constellation(word: Word) -> list[tuple]:
    """(index, radius, angle, x, y) of each symbol, placed afresh, uncached:
    z_k = x_k * exp(j*2*pi*k/N), angle 2*pi*k/N."""
    n = len(word)
    out = []
    for k, v in enumerate(word.symbols):
        angle = math.tau * k / n
        out.append((k, v, angle, v * math.cos(angle), v * math.sin(angle)))
    return out


def reference_petals_and_thorns(x: tuple[int, ...]):
    """Petal (k, k+1 mod N) pairs and thorn indices, by their definitions."""
    n = len(x)
    petals = [(k, (k + 1) % n) for k in range(n) if x[k] and x[(k + 1) % n]]
    thorns = [k for k in range(n)
              if x[k] and not x[(k - 1) % n] and not x[(k + 1) % n]]
    return petals, thorns


def reference_shades(petals, n: int) -> list[str]:
    """Shade each run of cyclically consecutive petal starts by walking its
    chain: alternate from the chain's lowest start, which is light."""
    starts = {k for k, _ in petals}
    shade_of = {}
    if len(starts) == n:
        heads = [0]
    else:
        heads = [k for k in starts if (k - 1) % n not in starts]
    for head in heads:
        chain = [head]
        while (chain[-1] + 1) % n in starts and (chain[-1] + 1) % n != head:
            chain.append((chain[-1] + 1) % n)
        anchor = chain.index(min(chain))
        for i, k in enumerate(chain):
            shade_of[k] = "light" if (i - anchor) % 2 == 0 else "dark"
    return [shade_of[k] for k, _ in petals]


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


def reference_to_svg(shape: FlowerShape, spec: RenderSpec) -> bytes:
    """to_svg with the walk set up for this one call, points taken from
    shape.points, and nothing kept between calls."""
    return _svg_document(spec.canvas, spec.canvas, _one_cell(_SVG, spec, shape))


def reference_to_tikz(shape: FlowerShape, spec: RenderSpec) -> str:
    """to_tikz the same way as reference_to_svg."""
    body = _one_cell(_TIKZ, spec, shape)
    return "\n".join(["\\begin{tikzpicture}[x=1pt,y=1pt]", *body,
                      "\\end{tikzpicture}", ""])
