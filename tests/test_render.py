"""Byte-deterministic SVG/TikZ emission and structural element counts."""

import gc
import hashlib
import itertools
import random
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from fieldflower import render
from fieldflower.flowergeom import _plan, features
from fieldflower.gfield import Word, format_word, parse_word
from fieldflower.render import MAX_AXES, MAX_PANEL_PRIMITIVES, MAX_RINGS, MAX_SPEC_SIZE, \
    RenderSpec, _drawer, _require_drawable, panel, render_grid, to_svg, to_tikz
import reference_constants as ref
from reference_paths import reference_panel, reference_to_svg, reference_to_tikz


def svg_count(data: bytes, cls: str) -> int:
    return data.decode("ascii").count(f'class="{cls}"')


def tikz_count(text: str, kind: str) -> int:
    return sum(1 for line in text.splitlines() if f"% {kind}" in line)


def test_spec_validation():
    with pytest.raises(ValueError):
        RenderSpec(canvas=0)
    with pytest.raises(ValueError):
        RenderSpec(radius_scale=-1)
    with pytest.raises(ValueError):
        RenderSpec(light_color="blue")
    with pytest.raises(ValueError):
        RenderSpec(dark_color="12345")
    for color in ("0x1234", "+12345", " 1234 ", "1_2345", "-ABCDE", "#0X1234"):
        with pytest.raises(ValueError):
            RenderSpec(light_color=color)
    for name in ("canvas", "radius_scale", "stroke_width", "marker_radius"):
        for bad in (float("inf"), float("-inf"), float("nan"), 0, -1e-300,
                    MAX_SPEC_SIZE * (1 + 2**-52), 1e306, 10**400):
            with pytest.raises(ValueError, match=f"at most {MAX_SPEC_SIZE}"):
                RenderSpec(**{name: bad})
        assert getattr(RenderSpec(**{name: MAX_SPEC_SIZE}), name) == MAX_SPEC_SIZE
    spec = RenderSpec(light_color="#aabbcc")
    assert spec.light_color == "AABBCC"
    # A colour digit is one of the 22 ASCII hex digits, no other character:
    # each substitution over U+0000-U+00FF and a few non-ASCII digits.
    for ch in [chr(i) for i in range(256)] + ["٣", "Ａ", "²"]:
        for pos in range(6):
            color = "0a0A0a"[:pos] + ch + "0a0A0a"[pos + 1:]
            if ch in "0123456789abcdefABCDEF":
                assert render._clean_color(color) == color.upper()
            else:
                with pytest.raises(ValueError):
                    render._clean_color(color)


def test_to_svg_is_deterministic():
    shape = features(parse_word("1010110", 2))
    spec = RenderSpec()
    assert to_svg(shape, spec) == to_svg(shape, spec)


def test_to_tikz_is_deterministic():
    shape = features(parse_word("102010022101", 3))
    assert to_tikz(shape) == to_tikz(shape)


@pytest.mark.parametrize("text", sorted(ref.FLOWER_COUNTS))
def test_svg_structural_counts(text):
    petals, thorns = ref.FLOWER_COUNTS[text]
    word = parse_word(text, 2)
    data = to_svg(features(word))
    assert svg_count(data, "petal") == petals
    assert svg_count(data, "thorn") == thorns
    assert svg_count(data, "marker") == word.weight()
    assert svg_count(data, "axis") == 7
    assert svg_count(data, "ring") == 1
    assert svg_count(data, "arrow") == 1


def test_all_zero_word_renders_grid_only():
    data = to_svg(features(Word(2, (0,) * 7)))
    for cls in ("petal", "thorn", "marker", "outline"):
        assert svg_count(data, cls) == 0
    assert svg_count(data, "axis") == 7


def test_figure_word_has_two_thorn_lines_and_no_petals():
    data = to_svg(features(parse_word("0000101", 2)))
    assert svg_count(data, "thorn") == 2
    assert svg_count(data, "petal") == 0


def test_no_grid_spec_omits_grid_elements():
    data = to_svg(features(parse_word("1010110", 2)), RenderSpec(grid=False))
    for cls in ("axis", "ring", "arrow"):
        assert svg_count(data, cls) == 0


def test_label_rendering():
    spec = RenderSpec(label=True)
    data = to_svg(features(parse_word("0011000", 2)), spec)
    assert svg_count(data, "label") == 1
    assert b">0011000</text>" in data
    text = to_tikz(features(parse_word("0011000", 2)), spec)
    assert "{0011000}; % label" in text


def test_custom_colors_show_up():
    spec = RenderSpec(light_color="ABCDEF", dark_color="012345")
    data = to_svg(features(parse_word("1110000", 2)), spec)
    assert b"#ABCDEF" in data
    assert b"#012345" in data
    text = to_tikz(features(parse_word("1110000", 2)), spec)
    assert "rgb,255:red,171;green,205;blue,239" in text
    assert "rgb,255:red,1;green,35;blue,69" in text


def test_no_negative_zero_in_output():
    # angles at pi and 3*pi/2 produce coordinates that round to -0.0
    for bits in itertools.product(range(2), repeat=4):
        if not any(bits):
            continue
        shape = features(Word(2, bits))
        assert b"-0.000000" not in to_svg(shape)
        assert "-0.000000" not in to_tikz(shape)


def test_svg_element_order_is_fixed():
    data = to_svg(features(parse_word("1010110", 2))).decode("ascii")
    order = ("axis", "ring", "arrow", "petal", "outline", "thorn", "marker")
    positions = [data.index(f'class="{cls}"') for cls in order]
    assert positions == sorted(positions)


def test_tikz_counts_match_svg_counts():
    # Same primitives in the same order: the SVG class names, in document
    # order, equal the kinds named by the TikZ trailing comments.
    words = [parse_word(text, 2) for text in sorted(ref.FLOWER_COUNTS)]
    words += [w for w in golden_words() if w.modulus in (2, 3, 5, 7)]
    for word, grid, label in itertools.product(words, (True, False), (True, False)):
        shape, spec = features(word), RenderSpec(grid=grid, label=label)
        svg = re.findall(r'class="(\w+)"', to_svg(shape, spec).decode("ascii"))
        tikz = [line.rsplit("; % ", 1)[1].split()[0]
                for line in to_tikz(shape, spec).splitlines()[1:-1]]
        assert svg == tikz


def test_svg_arrow_takes_the_large_arc_past_half_a_turn():
    # the arrow sweeps 0.7 * tau / N: 252 degrees at N=1, 126 at N=2
    for n, flag in ((1, "1"), (2, "0"), (7, "0")):
        svg = to_svg(features(Word(2, (1,) * n))).decode("ascii")
        arc = re.search(r'class="arrow" d="M \S+ \S+ A (\S+) \1 0 (\d) 0 ', svg)
        assert arc.group(2) == flag


def test_tikz_all_ones_has_seven_petal_triangles():
    tikz = to_tikz(features(parse_word("1111111", 2)))
    assert tikz_count(tikz, "petal") == 7
    assert tikz.startswith("\\begin{tikzpicture}")
    assert tikz.rstrip().endswith("\\end{tikzpicture}")


def test_render_grid_counts():
    for n, p, axes, rings in ((16, 5, 16, 4), (7, 2, 7, 1), (12, 3, 12, 2)):
        data = render_grid(n, p)
        assert svg_count(data, "axis") == axes
        assert svg_count(data, "ring") == rings
        assert svg_count(data, "arrow") == 1


def test_render_grid_ignores_the_grid_switch():
    assert render_grid(7, 2, RenderSpec(grid=False)) == render_grid(7, 2)


def test_calls_without_a_spec_build_no_spec(monkeypatch):
    # Each draws with the one kept default, and draws what an explicit
    # RenderSpec() draws; render_grid builds a spec only to turn a grid on.
    words = [parse_word(text, 3) for text in ("2101201", "0000000", "1112220")]
    shape, spec = features(words[0]), RenderSpec()
    expected = (to_svg(shape, spec), to_tikz(shape, spec), panel(words, 2, spec),
                render_grid(7, 3, spec))
    built, init = [], RenderSpec.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RenderSpec, "__init__", counted)
    assert (to_svg(shape), to_tikz(shape), panel(words, 2), render_grid(7, 3)) == expected
    assert render_grid(7, 3, spec) == expected[3]
    assert built == []
    assert render_grid(7, 3, RenderSpec(grid=False)) == expected[3]
    assert built[0] == {"grid": False} and len(built) == 2 and built[1]["grid"] is True


def test_render_grid_preconditions():
    with pytest.raises(ValueError):
        render_grid(1, 2)
    with pytest.raises(ValueError):
        render_grid(7, 6)


def test_moduli_past_the_ring_bound_refused():
    assert svg_count(render_grid(3, 997), "ring") == 996 <= MAX_RINGS
    shape = features(Word(1009, (0, 1)))
    assert svg_count(to_svg(features(Word(997, (0, 1)))), "ring") == 996
    with pytest.raises(ValueError, match=f"past the bound of {MAX_RINGS}"):
        render_grid(3, 1009)
    # without the grid no ring is drawn, but the bound holds all the same
    for spec in (RenderSpec(), RenderSpec(grid=False)):
        for draw in (lambda: to_svg(shape, spec), lambda: to_tikz(shape, spec),
                     lambda: panel([shape.word], columns=1, spec=spec)):
            with pytest.raises(ValueError, match=f"past the bound of {MAX_RINGS}"):
                draw()


def test_words_past_the_axis_bound_refused():
    assert MAX_AXES >= 64
    at_bound = Word(2, (1, 0) * (MAX_AXES // 2))
    assert svg_count(render_grid(MAX_AXES, 2), "axis") == MAX_AXES
    assert svg_count(to_svg(features(at_bound)), "axis") == MAX_AXES
    assert tikz_count(to_tikz(features(at_bound)), "axis") == MAX_AXES
    assert svg_count(panel([at_bound] * 2, columns=2), "axis") == 2 * MAX_AXES
    shape = features(Word(2, (1,) * (MAX_AXES + 1)))
    with pytest.raises(ValueError, match=f"past the bound of {MAX_AXES}"):
        render_grid(MAX_AXES + 1, 2)
    # without the grid no axis is drawn, but the bound holds all the same
    for spec in (RenderSpec(), RenderSpec(grid=False)):
        for draw in (lambda: to_svg(shape, spec), lambda: to_tikz(shape, spec),
                     lambda: panel([shape.word], columns=1, spec=spec)):
            with pytest.raises(ValueError, match=f"past the bound of {MAX_AXES}"):
                draw()


def test_panel_cell_count_and_layout():
    words = [Word(2, tuple((i >> (6 - k)) & 1 for k in range(7)))
             for i in range(128)]
    data = panel(words, columns=16)
    assert svg_count(data, "cell") == 128
    text = data.decode("ascii")
    # row-major: cell 17 sits at column 1, row 1
    assert 'translate(240.000000 240.000000)' in text
    assert text.index("translate(0.000000 0.000000)") < \
        text.index("translate(240.000000 0.000000)")


def test_panel_serial_and_parallel_bytes_match():
    words = [Word(2, tuple((i >> (6 - k)) & 1 for k in range(7)))
             for i in range(32)]
    spec = RenderSpec(label=True)
    serial = panel(words, columns=8, spec=spec, workers=1)
    parallel = panel(words, columns=8, spec=spec, workers=6)
    assert serial == parallel


def test_single_word_panel_contains_the_to_svg_body():
    word = parse_word("1010110", 2)
    spec = RenderSpec()
    doc = to_svg(features(word), spec).decode("ascii").splitlines()
    body = "\n".join(doc[1:-1])
    assert body in panel([word], columns=1, spec=spec).decode("ascii")


def test_panel_input_validation():
    with pytest.raises(ValueError):
        panel([], columns=4)
    with pytest.raises(ValueError):
        panel([Word(2, (1, 0))], columns=0)
    with pytest.raises(ValueError):
        panel([Word(2, (1, 0)), Word(2, (1, 0, 1))], columns=2)
    with pytest.raises(ValueError):
        panel([Word(2, (1, 0)), Word(3, (1, 0))], columns=2)


def test_panel_columns_past_the_primitive_bound_refused(monkeypatch):
    # a panel never has that many cells, so such columns could only be
    # empty; columns * canvas would not even fit a float at 10**400
    word = Word(2, (1, 0))
    assert panel([word], columns=MAX_PANEL_PRIMITIVES).startswith(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{MAX_PANEL_PRIMITIVES * 240}.000000"'
        .encode())
    monkeypatch.setattr(render, "_drawer", None)  # refused before any cell is drawn
    for columns in (MAX_PANEL_PRIMITIVES + 1, 10**400):
        with pytest.raises(ValueError, match=f"columns past the bound of {MAX_PANEL_PRIMITIVES}"):
            panel([word], columns=columns)


def test_ternary_panel():
    words = [parse_word(t, 3) for t in ref.GOLAY_INVARIANT_WORDS]
    data = panel(words, columns=3)
    assert svg_count(data, "cell") == 3
    assert svg_count(data, "ring") == 6  # two rings per ternary cell


# sha256 of each golden group's outputs joined by NUL bytes.  Any change to
# emitted bytes, element order or float formatting shows up here.
GOLDEN_SPECS = (
    RenderSpec(),
    RenderSpec(grid=False),
    RenderSpec(label=True),
    RenderSpec(canvas=300, radius_scale=25.5, stroke_width=0.75,
               light_color="#fee0d2", dark_color="de2d26",
               marker_radius=3.25, label=True),
)


def golden_words() -> list[Word]:
    """Random words for N = 1..16, all-zero, and all-nonzero at odd/even N."""
    rng = random.Random(2021)
    words = []
    for p in (2, 3, 5, 7, 11):
        words += [Word(p, tuple(rng.randrange(p) for _ in range(n)))
                  for n in range(1, 17)]
        words.append(Word(p, (0,) * 7))
        words += [Word(p, tuple(1 + k % (p - 1) for k in range(n)))
                  for n in (7, 12)]
    return words


def golden_outputs(group: str) -> list[bytes]:
    words = golden_words()
    if group in ("svg", "svg_n1"):
        picked = [w for w in words if (len(w) == 1) == (group == "svg_n1")]
        return [to_svg(features(w), spec) for w in picked for spec in GOLDEN_SPECS]
    if group == "tikz":
        return [to_tikz(features(w), spec).encode("ascii")
                for w in words for spec in GOLDEN_SPECS]
    if group == "grid":
        return [render_grid(n, p, spec) for n in (2, 3, 5, 7, 12, 16)
                for p in (2, 3, 5, 7, 11) for spec in GOLDEN_SPECS[::3]]
    assert group == "panel"
    ternary = [Word(3, digits) for digits in itertools.product(range(3), repeat=4)]
    return [panel(ternary, columns=9, spec=GOLDEN_SPECS[3])]


GOLDEN_SHA256 = {
    "svg": "4f48c08902dd9431da0a8e7322e2f117ce37395fbe5c5535bacb85493d15eee5",
    "svg_n1": "cdce8670b529db017e92f078fc5f03b15d5d9fdbcc1cb8f44ed96f0fc8eec817",
    "tikz": "b4c9bbc9faab54b1c31502e9d5ef18e79fdfedc9ebfca708b82c0b26026ad426",
    "grid": "cc2eb18b1e7a21b436bfb44e1448e0ad6dae423a2da1c6c08596ebbc17c0b9fc",
    "panel": "32bf608a767d0528a06198418988c52e965bf8b02af5e927a3f40c23d6a7e72d",
}


@pytest.mark.parametrize("group", ["svg", "svg_n1", "tikz", "grid", "panel"])
def test_golden_bytes(group):
    digest = hashlib.sha256(b"\0".join(golden_outputs(group))).hexdigest()
    assert digest == GOLDEN_SHA256[group]


def golden_groups() -> dict[tuple[int, int], list[Word]]:
    groups = {}
    for w in golden_words():
        groups.setdefault((len(w), w.modulus), []).append(w)
    return groups


def test_golden_groups_cover_the_edge_words():
    groups = golden_groups()
    assert len(groups) == 5 * 16
    assert all((1, p) in groups for p in (2, 3, 5, 7, 11))
    assert all(Word(p, (0,) * 7) in groups[7, p] for p in (2, 3, 5, 7, 11))
    # all-nonzero at odd n: a full cycle of petals with a same-shade seam
    assert all(all(groups[7, p][-1]) for p in (2, 3, 5, 7, 11))


SPEC_IDS = ["default", "no-grid", "label", "custom"]


@pytest.mark.parametrize("spec", GOLDEN_SPECS, ids=SPEC_IDS)
def test_panel_matches_cells_drawn_one_by_one(spec):
    # panel reuses the grid text, cell plans and placed points of one walk
    # over all its cells; drawing each cell alone through to_svg is the oracle
    for (n, p), words in golden_groups().items():
        words = words + words[::-1] + [Word(p, (0,) * n)]
        for columns in (1, 2):
            assert panel(words, columns, spec) == reference_panel(words, columns, spec), \
                (n, p, columns)


@pytest.mark.parametrize("spec", GOLDEN_SPECS, ids=SPEC_IDS)
@pytest.mark.parametrize("n, p", [(4, 3), (3, 5), (2, 7), (7, 2)])
def test_panel_of_every_word_matches_cells_drawn_one_by_one(n, p, spec):
    # every word of the length: most nonzero patterns recur with other values,
    # so cells share a plan but not their points; then the words reversed and
    # repeated, in rows of 10 with a shorter last row
    words = [Word(p, digits) for digits in itertools.product(range(p), repeat=n)]
    words += words[::-1] + words[:5]
    assert len(words) % 10
    assert panel(words, 10, spec) == reference_panel(words, 10, spec)


FLOWER_RENDER_PANEL_SHA256 = "ad4ae5a220540560d9608d7d9a19dff49038c21b827e1e267b6f1c4c657a2669"


def flower_render_panel() -> tuple[list[Word], bytes]:
    """The 2,187 ternary 7-words in 27 columns with the default spec, as the
    benchmark's flower_render draws them, and their panel."""
    words = [Word(3, digits) for digits in itertools.product(range(3), repeat=7)]
    return words, panel(words, 27)


def test_panel_of_all_ternary_7_words_matches_cells_drawn_one_by_one():
    words, data = flower_render_panel()
    assert data == reference_panel(words, 27, RenderSpec())
    assert hashlib.sha256(data).hexdigest() == FLOWER_RENDER_PANEL_SHA256


@pytest.mark.parametrize("spec", GOLDEN_SPECS, ids=SPEC_IDS)
def test_panel_past_the_kept_points_matches_cells_drawn_one_by_one(spec):
    # 48 * 11 = 528 points is past the 512 a drawer keeps, so every cell
    # places its points afresh; a label over GF(11) is comma-separated
    rng = random.Random(32)
    words = [Word(11, tuple(rng.randrange(11) for _ in range(48))) for _ in range(12)]
    words += [Word(11, (0,) * 48), Word(11, (10,) * 48), words[0]]
    assert "," in format_word(words[0])
    assert panel(words, 4, spec) == reference_panel(words, 4, spec)


def test_panel_peak_memory_stays_near_its_document():
    # cell groups are encoded as they are drawn, so the panel's text never
    # exists whole: the peak is the encoded groups and the joined document
    words, data = flower_render_panel()
    tracemalloc.start()
    try:
        panel(words, 27)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * len(data)


def test_panels_past_the_primitive_bound_refused(monkeypatch):
    # a cell of n symbols over GF(p) counts 3n + n//2 + p + 3 primitives
    for n, p, cells in ((7, 3, 3 ** 7), (7, 2, 128), (4, 3, 81), (MAX_AXES, 997, 1)):
        _require_drawable(n, p, cells)
    words = [Word(3, (1, 0, 2, 2, 0, 1, 0))] * 3
    monkeypatch.setattr("fieldflower.render.MAX_PANEL_PRIMITIVES", 90)
    assert svg_count(panel(words, columns=2), "cell") == 3
    monkeypatch.setattr("fieldflower.render.MAX_PANEL_PRIMITIVES", 89)
    with pytest.raises(ValueError, match="a panel of 3 cells of 7 symbols over GF[(]3[)] "
                                         "could draw 90 primitives, past the bound of 89"):
        panel(words, columns=2)


def differential_shapes() -> list:
    """Three shapes for every (n, p), n in 2..16 and p in {2, 3, 5, 7}: a
    seeded random word, the all-zero word and an all-nonzero word."""
    rng = random.Random(22)
    words = []
    for p, n in itertools.product((2, 3, 5, 7), range(2, 17)):
        words += [Word(p, tuple(rng.randrange(p) for _ in range(n))), Word(p, (0,) * n),
                  Word(p, tuple(1 + k % (p - 1) for k in range(n)))]
    return [features(w) for w in words]


def test_cached_cells_match_the_uncached_walk():
    # the reference sets its walk up on every call, places the points of
    # shape.points and keeps nothing; the cached drawers must give the same
    # bytes on a cold cache and again on a warm one
    cases = [(shape, spec) for shape in differential_shapes() for spec in GOLDEN_SPECS]
    want = [(reference_to_svg(*case), reference_to_tikz(*case)) for case in cases]
    _drawer.cache_clear()
    _plan.cache_clear()
    for _ in ("cold", "warm"):
        for case, pair in zip(cases, want):
            assert (to_svg(*case), to_tikz(*case)) == pair, \
                (format_word(case[0].word), case[0].word.modulus, case[1])
        # 15 lengths, 4 moduli, 4 specs and 2 formats: each key set up once
        assert _drawer.cache_info().misses == 15 * 4 * 4 * 2


def test_cells_are_drawn_from_the_word_not_its_points():
    word = parse_word("1010110", 2)
    shape = replace(features(word), points=features(parse_word("0101001", 2)).points)
    for spec in GOLDEN_SPECS:
        assert to_svg(shape, spec) == to_svg(features(word), spec)
        assert to_tikz(shape, spec) == to_tikz(features(word), spec)


def test_bounds_hold_after_a_cache_hit():
    assert _drawer.cache_info().maxsize == 1024
    assert _plan.cache_info().maxsize == 1024
    word = Word(3, (1, 0, 2, 2, 0, 1, 0))
    to_svg(features(word))  # the panel's key, ("svg", RenderSpec(), 7, 3), is now cached
    cells = MAX_PANEL_PRIMITIVES // 30 + 1  # a cell of 7 symbols over GF(3) counts 30
    info = _drawer.cache_info()
    with pytest.raises(ValueError, match=f"a panel of {cells} cells of 7 symbols over "
                                         f"GF[(]3[)] could draw {cells * 30} primitives, "
                                         f"past the bound of {MAX_PANEL_PRIMITIVES}"):
        panel([word] * cells, columns=100)
    # refused keys are never looked up, so they never enter the cache
    for bad, bound in ((Word(2, (1,) * (MAX_AXES + 1)), MAX_AXES),
                       (Word(1009, (0, 1)), MAX_RINGS)):
        for spec in (RenderSpec(), RenderSpec(grid=False)):
            for draw in (to_svg, to_tikz):
                with pytest.raises(ValueError, match=f"past the bound of {bound}"):
                    draw(features(bad), spec)
            with pytest.raises(ValueError, match=f"past the bound of {bound}"):
                panel([bad], columns=1, spec=spec)
    with pytest.raises(ValueError, match=f"past the bound of {MAX_AXES}"):
        render_grid(MAX_AXES + 1, 2)
    assert _drawer.cache_info() == info


def test_equal_specs_share_a_drawer_and_its_bytes():
    # equal specs are one cache key, so the second draws with the drawer the
    # first set up: both must give the bytes of their own uncached walk
    shape = features(Word(5, (1, 0, 4, 4, 2, 0, 3)))
    for a, b in ((RenderSpec(canvas=240), RenderSpec(canvas=240.0)),
                 (RenderSpec(grid=1), RenderSpec(grid=True)),
                 (RenderSpec(grid=0, label=1), RenderSpec(grid=False, label=True)),
                 (RenderSpec(light_color="#9ecae1"), RenderSpec(light_color="9ECAE1"))):
        assert a == b and hash(a) == hash(b)
        for first, second in ((a, b), (b, a)):
            _drawer.cache_clear()
            for spec in (first, second):
                assert to_svg(shape, spec) == reference_to_svg(shape, spec)
                assert to_tikz(shape, spec) == reference_to_tikz(shape, spec)
                assert panel([shape.word] * 2, 2, spec) == \
                    reference_panel([shape.word] * 2, 2, spec)
            assert _drawer.cache_info().currsize == 2  # one svg, one tikz


def test_specs_that_differ_draw_different_bytes():
    shape = features(Word(5, (1, 0, 4, 4, 2, 0, 3)))  # light and dark petals
    base = RenderSpec()
    assert {base: 1}[RenderSpec()] == 1
    others = (RenderSpec(label=True), RenderSpec(light_color="9ECAE0"),
              RenderSpec(dark_color="2171B4"))
    for spec in others:
        assert spec != base
        assert to_svg(shape, spec) != to_svg(shape, base)
        assert to_tikz(shape, spec) != to_tikz(shape, base)
    assert len({to_svg(shape, spec) for spec in others}) == len(others)


def test_a_second_round_of_cached_keys_retains_nothing_more():
    # one round of 48 words (4 moduli x 12 lengths), 4 specs and 2 formats
    # sets up 384 drawers; drawing the round again must only hit them
    rng = random.Random(23)
    shapes = [features(Word(p, tuple(rng.randrange(p) for _ in range(n))))
              for p in (2, 3, 5, 7) for n in range(5, 17)]
    specs = [RenderSpec(grid=g, label=lab) for g in (True, False) for lab in (False, True)]

    def draw_round():
        for shape, spec in itertools.product(shapes, specs):
            to_svg(shape, spec)
            to_tikz(shape, spec)
        gc.collect()
        # what the package's own frames allocated and still hold
        return sum(stat.size for stat in tracemalloc.take_snapshot().statistics("filename")
                   if Path(stat.traceback[0].filename).parent == package)

    package = Path(render.__file__).parent
    tracemalloc.start()
    try:
        _drawer.cache_clear()
        _plan.cache_clear()
        first, second = draw_round(), draw_round()
    finally:
        tracemalloc.stop()
    assert _drawer.cache_info().currsize == 384
    assert 0 < second <= first


def test_a_drawer_at_the_input_bounds_stays_small():
    # A drawer keeps its placed points only while all n*p of them fit in 512
    # entries; at the bounds, 20 random words leave it its grid text and the
    # plans of their patterns, under 512 KB in all.
    p = 997  # the largest prime that draws at most MAX_RINGS rings
    assert p - 1 <= MAX_RINGS < 1008
    rng = random.Random(5)
    words = [Word(p, tuple(rng.randrange(p) for _ in range(MAX_AXES))) for _ in range(20)]
    _drawer.cache_clear()
    tracemalloc.start()
    try:
        cell = _drawer("svg", RenderSpec(), MAX_AXES, p)[1]
        for w in words:
            cell(w)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 512 * 1024


def test_drawers_of_at_most_512_points_place_each_point_once(monkeypatch):
    placed, placement = [], render._placement

    def counted(k, v, n):
        placed.append((n, k, v))
        return placement(k, v, n)

    monkeypatch.setattr(render, "_placement", counted)
    rng = random.Random(7)
    spec = RenderSpec(grid=False)
    # flower_render's keys, n <= 16 and p <= 7, and the largest memoised n*p
    for n, p in ((16, 7), (5, 2), (256, 2)):
        words = [Word(p, tuple(rng.randrange(p) for _ in range(n))) for _ in range(4)]
        placed.clear()
        for w in words * 2:
            assert to_svg(features(w), spec) == reference_to_svg(features(w), spec)
        assert sorted(placed) == sorted({(n, k, v) for w in words
                                         for k, v in enumerate(w.symbols) if v})
    # past 512 points each cell places its points afresh
    w = Word(3, tuple(rng.randrange(1, 3) for _ in range(MAX_AXES)))
    placed.clear()
    to_svg(features(w), spec)
    to_svg(features(w), spec)
    assert len(placed) == 2 * MAX_AXES
