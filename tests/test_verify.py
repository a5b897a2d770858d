"""The built-in verification suite, including its deliberate red check."""

import hashlib
import random
from itertools import chain, combinations

import pytest

from fieldflower import codes, ntt, verify
from fieldflower.codes import code_from_fixed_space, enumerate_codewords, hamming_generator
from fieldflower.flowergeom import features
from fieldflower.gfield import Word, parse_word
from fieldflower.modlinalg import MatrixOverGfp, identity, mat_vec, null_space
from fieldflower.ntt import fixed_space, golay_ntt_matrix, hamming_ntt_matrix
from fieldflower.render import RenderSpec, _drawer, to_svg
from fieldflower.verify import format_report, run_checks
import oracle
from reference_paths import reference_addition_only_check, reference_isomorphism, \
    reference_random_words
from test_codes import differential_code, random_full_rank_code
from test_modlinalg import fixing

EXPECTED_CHECKS = [
    "hamming-matrix-checksum",
    "golay-matrix-checksum",
    "hamming-transform-pair",
    "hamming-invariant",
    "golay-transform-pairs",
    "golay-invariants",
    "hamming-eigenspace-generator",
    "hamming-code-parameters",
    "golay-code-parameters",
    "transform-code-isomorphism",
    "golay-addition-only",
    "flower-features",
    "render-determinism",
]


@pytest.fixture(scope="module")
def fresh_results():
    return run_checks()


def test_check_names_and_order(fresh_results):
    assert [r.name for r in fresh_results] == EXPECTED_CHECKS


def test_fresh_build_passes_everything_except_golay_parameters(fresh_results):
    by_name = {r.name: r for r in fresh_results}
    for name in EXPECTED_CHECKS:
        if name == "golay-code-parameters":
            continue
        assert by_name[name].passed, f"{name}: {by_name[name].detail}"
    # the nominal d=6 is not achieved by the built-in matrix; the check
    # records the claim and stays red on the computed d=5
    red = by_name["golay-code-parameters"]
    assert not red.passed
    assert "d=5" in red.detail and "d=6" in red.detail


def test_corrupted_hamming_matrix_trips_the_hamming_checks():
    results = run_checks(hamming_matrix=identity(7, 2))
    by_name = {r.name: r for r in results}
    assert not by_name["hamming-matrix-checksum"].passed
    assert not by_name["hamming-transform-pair"].passed
    assert not by_name["hamming-eigenspace-generator"].passed
    # golay-side checks are untouched
    assert by_name["golay-matrix-checksum"].passed
    assert by_name["golay-transform-pairs"].passed


def test_corrupted_golay_matrix_trips_the_golay_checks():
    entries = [list(row) for row in golay_ntt_matrix().entries]
    entries[0][0] = (entries[0][0] + 1) % 3
    corrupted = MatrixOverGfp(3, tuple(tuple(r) for r in entries))
    results = run_checks(golay_matrix=corrupted)
    by_name = {r.name: r for r in results}
    assert not by_name["golay-matrix-checksum"].passed
    assert not by_name["golay-transform-pairs"].passed
    assert not by_name["golay-addition-only"].passed
    assert by_name["hamming-matrix-checksum"].passed


def test_a_wrong_column_table_entry_trips_the_addition_only_check(monkeypatch):
    # the signed rows are the matrix mod 3, and only the per-word column
    # table is wrong: 2 * e_5 reads the bad entry
    columns = list(ntt._COLUMNS)
    columns[5] = (0, columns[5][1], columns[5][1])
    monkeypatch.setattr(ntt, "_COLUMNS", tuple(columns))
    by_name = {r.name: (r.passed, r.detail) for r in run_checks()}
    assert by_name["golay-addition-only"] == (False, "paths disagree on 000002000000")
    assert by_name["transform-code-isomorphism"][0]


def test_a_wrong_signed_row_entry_only_sends_the_batch_word_by_word(monkeypatch):
    # the entries only decide: with one signed entry flipped they differ,
    # so the zero word, the golay rows (last first) and the unit words go
    # through apply_addition_only and mat_vec, which agree, and the check
    # passes without naming a word
    signed = [list(row) for row in ntt.golay_ntt_signed_rows()]
    signed[0][1] = -signed[0][1]
    monkeypatch.setattr(verify, "golay_ntt_signed_rows", lambda: tuple(map(tuple, signed)))
    tg, golay = golay_ntt_matrix(), code_from_fixed_space(golay_ntt_matrix())
    seen = []
    monkeypatch.setattr(verify, "apply_addition_only",
                        lambda w: seen.append(w) or ntt.apply_addition_only(w))
    assert verify._check_addition_only(tg, golay) == \
        (True, "paths agree on 729 codewords + 10000 random words")
    units = [Word(3, (0,) * j + (v,) + (0,) * (11 - j)) for j in range(12) for v in (1, 2)]
    assert seen == [Word(3, (0,) * 12)] + \
        [Word(3, row) for row in reversed(golay.generator.entries)] + units


def test_format_report_shape(fresh_results):
    report = format_report(fresh_results)
    lines = report.splitlines()
    assert len(lines) == len(EXPECTED_CHECKS) + 1
    for line, name in zip(lines, EXPECTED_CHECKS):
        assert line.startswith(("PASS ", "FAIL "))
        assert name in line
    assert lines[-1] == f"{len(EXPECTED_CHECKS) - 1}/{len(EXPECTED_CHECKS)} checks passed"


def _flipped(m, i, j):
    entries = [list(row) for row in m.entries]
    entries[i][j] = (entries[i][j] + 1) % m.modulus
    return MatrixOverGfp(m.modulus, tuple(tuple(r) for r in entries))


HAMMING_ROWS = hamming_ntt_matrix().entries

# The detail strings of the isomorphism and addition-only checks under
# injected matrices, as a walk of every codeword reports them: which word is
# reported first, and which error a mismatched field or shape gives.  A
# non-square Hamming matrix maps 0000000 to a word of another length.
INJECTED_DETAILS = {
    "corrupted-golay": (
        {"golay_matrix": _flipped(golay_ntt_matrix(), 0, 0)},
        (False, "codeword 221120000001 is not fixed"),
        (False, "paths disagree on 221120000001"),
    ),
    "identity-hamming": (
        {"hamming_matrix": identity(7, 2)},
        (True, "all 745 codewords are fixed points"),
        (True, "paths agree on 729 codewords + 10000 random words"),
    ),
    "flipped-hamming": (
        {"hamming_matrix": _flipped(hamming_ntt_matrix(), 0, 0)},
        (False, "codeword 1010100 is not fixed"),
        (True, "paths agree on 729 codewords + 10000 random words"),
    ),
    "hamming-over-gf3": (
        {"hamming_matrix": identity(7, 3)},
        (False, "raised ValueError: modulus mismatch: GF(3) vs GF(2)"),
        (True, "paths agree on 729 codewords + 10000 random words"),
    ),
    "hamming-3x3": (
        {"hamming_matrix": identity(3, 2)},
        (False, "raised ValueError: matrix has 3 columns, word has 7 symbols"),
        (True, "paths agree on 729 codewords + 10000 random words"),
    ),
    "hamming-9x7": (
        {"hamming_matrix": MatrixOverGfp(2, HAMMING_ROWS + HAMMING_ROWS[:2])},
        (False, "codeword 0000000 is not fixed"),
        (True, "paths agree on 729 codewords + 10000 random words"),
    ),
    "hamming-5x7": (
        {"hamming_matrix": MatrixOverGfp(2, HAMMING_ROWS[:5])},
        (False, "codeword 0000000 is not fixed"),
        (True, "paths agree on 729 codewords + 10000 random words"),
    ),
    "golay-identity-3": (
        {"golay_matrix": identity(3, 3)},
        (False, "raised ValueError: matrix has 3 columns, word has 12 symbols"),
        (False, "raised ValueError: matrix has 3 columns, word has 12 symbols"),
    ),
}


@pytest.mark.parametrize("case", sorted(INJECTED_DETAILS))
def test_injected_matrix_details(case):
    kwargs, isomorphism, addition_only = INJECTED_DETAILS[case]
    by_name = {r.name: (r.passed, r.detail) for r in run_checks(**kwargs)}
    assert by_name["transform-code-isomorphism"] == isomorphism
    assert by_name["golay-addition-only"] == addition_only


def _outcome(check, *args):
    """A check's (passed, detail), or the error it raises, as run_checks
    reports it."""
    try:
        return check(*args)
    except ValueError as exc:
        return False, f"raised ValueError: {exc}"


def test_isomorphism_on_generator_rows_matches_the_listing_walk():
    # deciding on generator rows gives the verdict and detail of a walk of
    # every codeword: on each single-entry flip of the two matrices (49 over
    # GF(2), 2 * 144 over GF(3)) and on every injected matrix
    th, tg = hamming_ntt_matrix(), golay_ntt_matrix()
    pairs = [(_flipped(th, i, j), tg) for i in range(7) for j in range(7)]
    pairs += [(th, _flipped(_flipped(tg, i, j), i, j) if twice else _flipped(tg, i, j))
              for i in range(12) for j in range(12) for twice in (False, True)]
    assert len(pairs) == 337
    for kwargs, _, _ in INJECTED_DETAILS.values():
        pairs.append((kwargs.get("hamming_matrix", th), kwargs.get("golay_matrix", tg)))
    golay = code_from_fixed_space(tg)
    for pair in pairs:
        assert _outcome(verify._check_isomorphism, *pair, golay) == \
            _outcome(reference_isomorphism, *pair)


def test_random_words_are_the_seeded_draw():
    # the 10,000 words the addition-only success detail names
    words = reference_random_words()
    assert len(words) == 10000
    assert all(len(w) == 12 for w in words)
    digest = hashlib.sha256(bytes(chain.from_iterable(words))).hexdigest()
    assert digest == \
        "ea27fbeeef6ce72996bada924ce25885c77f177c001d463d0f8f4f0bf5bece90"


# A 12x12 matrix over GF(7) fixing e_0 and e_1: it is not over GF(3), so no
# entry comparison decides for it, and every product it takes part in is
# computed word by word.
GF7_MATRIX = MatrixOverGfp(7, (
    (1, 0, 3, 5, 0, 0, 6, 4, 0, 2, 4, 0),
    (0, 1, 0, 0, 3, 3, 0, 1, 0, 4, 3, 0),
    (0, 0, 0, 1, 5, 5, 4, 0, 4, 4, 3, 0),
    (0, 0, 4, 6, 1, 2, 3, 1, 4, 0, 4, 2),
    (0, 0, 5, 1, 0, 4, 4, 5, 1, 2, 0, 4),
    (0, 0, 4, 0, 4, 1, 3, 5, 4, 3, 6, 2),
    (0, 0, 3, 2, 2, 1, 6, 1, 5, 6, 1, 0),
    (0, 0, 4, 3, 2, 5, 3, 2, 4, 0, 0, 4),
    (0, 0, 6, 2, 1, 3, 3, 0, 5, 0, 6, 4),
    (0, 0, 6, 2, 2, 5, 2, 4, 3, 4, 6, 3),
    (0, 0, 0, 2, 3, 5, 5, 0, 0, 5, 5, 2),
    (0, 0, 5, 6, 3, 2, 5, 3, 5, 2, 0, 3),
))

GF7_RESULTS = [
    ("hamming-matrix-checksum", True, "sha256 d5088ccc0fa0.."),
    ("golay-matrix-checksum", False,
     "sha256 61d4c748181f.. != expected 6cee364bdfb2.."),
    ("hamming-transform-pair", True, "2 transform pairs hold"),
    ("hamming-invariant", True, "1 invariant words hold"),
    ("golay-transform-pairs", False,
     "raised ValueError: modulus mismatch: GF(7) vs GF(3)"),
    ("golay-invariants", False,
     "raised ValueError: modulus mismatch: GF(7) vs GF(3)"),
    ("hamming-eigenspace-generator", True,
     "dim 4, row space matches generator, all 4 rows fixed"),
    ("hamming-code-parameters", True, "n=7 k=4 d=3"),
    ("golay-code-parameters", False, "n=12 k=2 d=1, expected n=12 k=6 d=6"),
    ("transform-code-isomorphism", False,
     "raised ValueError: modulus mismatch: GF(7) vs GF(3)"),
    ("golay-addition-only", False,
     "raised ValueError: modulus mismatch: GF(7) vs GF(3)"),
    ("flower-features", True, "128-word sweep + figure words hold"),
    ("render-determinism", True, "repeat and parallel renders byte-identical"),
]


def test_golay_matrix_over_gf7(monkeypatch):
    calls = []
    monkeypatch.setattr(verify, "mat_vec",
                        lambda *a: calls.append(a) or mat_vec(*a))
    results = run_checks(golay_matrix=GF7_MATRIX)
    assert [(r.name, r.passed, r.detail) for r in results] == GF7_RESULTS
    # the pair, invariant and eigenspace checks take 2 + 1 + 1 + 1 + 4
    # products; the isomorphism check the Hamming zero word and 4 generator
    # rows, last first, then the golay zero word, which raises; the
    # addition-only check compares no entries over GF(7) and walks from the
    # golay zero word, which raises too
    hamming_rows = [Word(2, row) for row in reversed(hamming_generator().entries)]
    assert [w for _, w in calls[9:]] == \
        [Word(2, (0,) * 7)] + hamming_rows + [Word(3, (0,) * 12)] * 2


def test_addition_only_on_the_entries_matches_the_word_by_word_decision(monkeypatch):
    # comparing the 144 entries gives the verdict, detail or error of
    # comparing the signed rows with the product on all 10,729 words: on tg,
    # its 288 single-entry changes, the injected golay matrices, GF7_MATRIX,
    # -I and identity(3, 3), and on one signed-entry flip per row
    tg, golay = golay_ntt_matrix(), code_from_fixed_space(golay_ntt_matrix())
    signed = ntt.golay_ntt_signed_rows()
    minus_identity = MatrixOverGfp(3, tuple(
        tuple(2 * v for v in row) for row in identity(12, 3).entries))
    matrices = [tg] + [_flipped(_flipped(tg, i, j), i, j) if twice else _flipped(tg, i, j)
                       for i in range(12) for j in range(12) for twice in (False, True)]
    matrices += [kwargs["golay_matrix"] for kwargs, _, _ in INJECTED_DETAILS.values()
                 if "golay_matrix" in kwargs]
    matrices += [GF7_MATRIX, minus_identity, identity(3, 3)]
    matrices = list(dict.fromkeys(matrices))
    assert len(matrices) == 292
    for m in matrices:
        assert _outcome(verify._check_addition_only, m, golay) == \
            _outcome(reference_addition_only_check, m, golay, signed)
    for i, row in enumerate(signed):
        j = next(j % 12 for j in range(i, i + 12) if row[j % 12])
        flipped = [list(r) for r in signed]
        flipped[i][j] = -flipped[i][j]
        flipped = tuple(map(tuple, flipped))
        monkeypatch.setattr(verify, "golay_ntt_signed_rows", lambda: flipped)
        assert _outcome(verify._check_addition_only, tg, golay) == \
            _outcome(reference_addition_only_check, tg, golay, flipped) == \
            (True, "paths agree on 729 codewords + 10000 random words")


def test_walked_words_span_the_ternary_12_space():
    # the golay codewords and the seeded words have rank 12 over GF(3), so
    # two linear maps agree on all of them exactly when their matrices agree
    golay = code_from_fixed_space(golay_ntt_matrix())
    words = [w.symbols for w in enumerate_codewords(golay)] + reference_random_words()
    assert len(words) == 10729
    assert oracle.rank(words, 3) == 12


def test_golay_code_and_listing_are_built_once(monkeypatch, fresh_results):
    # one fixed-space code per matrix value: with the built-in tg, golay-
    # code-parameters, transform-code-isomorphism and golay-addition-only
    # share one golay code; verify has no listing and no seeded draw, and
    # the addition-only check decides on the entries and runs
    # apply_addition_only on the 24 unit words only
    for name in ("enumerate_codewords", "_random_words", "random", "_RNG_SEED"):
        assert not hasattr(verify, name)
    calls = []
    for name in ("code_from_fixed_space", "apply_addition_only"):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name,
                            lambda *a, real=real, name=name: calls.append((name,) + a) or real(*a))
    assert [(r.passed, r.detail) for r in run_checks()] == \
        [(r.passed, r.detail) for r in fresh_results]
    units = [Word(3, (0,) * j + (v,) + (0,) * (11 - j)) for j in range(12) for v in (1, 2)]
    assert calls == [("code_from_fixed_space", golay_ntt_matrix())] + \
        [("apply_addition_only", w) for w in units]
    # an injected tg builds its own code beside the built-in one
    calls.clear()
    tg = _flipped(golay_ntt_matrix(), 0, 0)
    run_checks(golay_matrix=tg)
    assert [c for c in calls if c[0] == "code_from_fixed_space"] == \
        [("code_from_fixed_space", tg), ("code_from_fixed_space", golay_ntt_matrix())]


# golay_ntt_matrix() with the parity-check row h = 022222100000 added to row
# 0: h is orthogonal to every golay codeword, so the matrix fixes the code,
# but it differs from the signed matrix, so the addition-only check names
# the first unit word it maps apart from apply_addition_only.  The listing
# walk of reference_addition_only_check names a seeded word instead.
PARITY_CHECK_ROW = (0, 2, 2, 2, 2, 2, 1, 0, 0, 0, 0, 0)
PARITY_SHIFTED = MatrixOverGfp(3, (
    tuple((a + b) % 3 for a, b in zip(golay_ntt_matrix().entries[0], PARITY_CHECK_ROW)),
) + golay_ntt_matrix().entries[1:])


def test_a_matrix_that_differs_only_off_the_code_is_named_by_a_unit_word():
    golay = code_from_fixed_space(golay_ntt_matrix())
    assert all(sum(a * b for a, b in zip(row, PARITY_CHECK_ROW)) % 3 == 0
               for row in golay.generator.entries)
    by_name = {r.name: (r.passed, r.detail) for r in run_checks(golay_matrix=PARITY_SHIFTED)}
    assert by_name["transform-code-isomorphism"] == (True, "all 745 codewords are fixed points")
    assert by_name["golay-addition-only"] == (False, "paths disagree on 010000000000")
    assert reference_addition_only_check(PARITY_SHIFTED, golay, ntt.golay_ntt_signed_rows()) == \
        (False, "paths disagree on 112202201220")


def test_no_check_lists_a_code(monkeypatch, fresh_results):
    # every detail is named without a listing: the default run, each
    # injected matrix, GF7_MATRIX and PARITY_SHIFTED give their pinned
    # details with enumerate_codewords raising
    def refuse(code):
        raise AssertionError("a code was listed")
    monkeypatch.setattr(codes, "enumerate_codewords", refuse)
    assert run_checks() == fresh_results
    for kwargs, isomorphism, addition_only in INJECTED_DETAILS.values():
        by_name = {r.name: (r.passed, r.detail) for r in run_checks(**kwargs)}
        assert by_name["transform-code-isomorphism"] == isomorphism
        assert by_name["golay-addition-only"] == addition_only
    assert [(r.name, r.passed, r.detail) for r in run_checks(golay_matrix=GF7_MATRIX)] == \
        GF7_RESULTS
    by_name = {r.name: (r.passed, r.detail) for r in run_checks(golay_matrix=PARITY_SHIFTED)}
    assert by_name["golay-addition-only"] == (False, "paths disagree on 010000000000")


def _first_apart(a, b, words):
    """The first of the words that a and b map apart, or None."""
    return next((w for w in words if mat_vec(a, w) != mat_vec(b, w)), None)


def _row_fixing_maps(rng, code):
    """I, four maps I + u v^T with v orthogonal to a random subset of the
    generator rows, which they fix (the others move where v . row != 0),
    and one non-square map: I with a row appended."""
    p, n, rows = code.modulus, code.length, code.generator.entries
    maps = [identity(n, p)]
    for _ in range(4):
        kept = [row for row in rows if rng.random() < 0.5]
        vs = null_space(MatrixOverGfp(p, tuple(kept))) if kept else \
            [Word(p, tuple(rng.randrange(p) for _ in range(n)))]
        if vs:
            u = Word(p, tuple(rng.randrange(p) for _ in range(n)))
            maps.append(fixing(p, rng.choice(vs), u))
    maps.append(MatrixOverGfp(p, identity(n, p).entries + (rows[0],)))
    return maps


def test_first_words_name_the_first_listed_codeword_two_maps_differ_on():
    # over random codes of GF(2, 3, 5, 7, 257), for each pair of maps that
    # fix some generator rows and move others (I among them) and for a
    # non-square map, the first of the zero word and the rows, last first,
    # that the two map apart is the first such word of the listing
    rng = random.Random(30)
    code_list = [differential_code(seed) for seed in range(48)]
    code_list += [random_full_rank_code(rng, 257, k, n) for k, n in ((1, 3), (2, 2), (2, 4))]
    named = set()
    for code in code_list:
        listing = enumerate_codewords(code)
        rows = [Word(code.modulus, row) for row in code.generator.entries]
        for a, b in combinations(_row_fixing_maps(rng, code), 2):
            first = _first_apart(a, b, verify._first_words(code))
            assert first == _first_apart(a, b, listing)
            named.add("none" if first is None else "zero" if not any(first.symbols)
                      else "last row" if first == rows[-1] else "earlier row")
    assert named == {"none", "zero", "last row", "earlier row"}


def test_a_golay_code_that_cannot_be_built_fails_each_check_that_uses_it():
    # -I over GF(3) fixes only zero, so no fixed-space code exists: the
    # parameter check reports the error on its line, and the two checks
    # that list the built-in golay code name its first nonzero word
    minus_identity = MatrixOverGfp(3, tuple(
        tuple(2 * v for v in row) for row in identity(12, 3).entries))
    by_name = {r.name: (r.passed, r.detail) for r in run_checks(golay_matrix=minus_identity)}
    assert by_name["golay-code-parameters"] == \
        (False, "raised ValueError: transform has no fixed points besides zero; no code")
    assert by_name["transform-code-isomorphism"] == \
        (False, "codeword 221120000001 is not fixed")
    assert by_name["golay-addition-only"] == (False, "paths disagree on 221120000001")
    assert by_name["hamming-code-parameters"] == (True, "n=7 k=4 d=3")


def test_render_determinism_compares_a_fresh_drawer_with_a_cached_one(monkeypatch):
    # with the check's key already cached, both to_svg calls are hits; the
    # check sets the walk up afresh beside them and beside the two panels,
    # and evicts no drawer
    spec = RenderSpec()
    to_svg(features(parse_word("1010110", 2)), spec)
    other = RenderSpec(grid=False)
    cached = _drawer("tikz", other, 12, 3)
    before = _drawer.cache_info()
    fresh = []
    real = _drawer.__wrapped__
    monkeypatch.setattr(_drawer, "__wrapped__", lambda *a: fresh.append(a) or real(*a))
    assert verify._check_render_determinism() == \
        (True, "repeat and parallel renders byte-identical")
    assert fresh == [("svg", spec, 7, 2)] * 2
    # the second to_svg and both 7-symbol panels hit too, and the drawers
    # cached before the check are still cached after it
    info = _drawer.cache_info()
    assert (info.misses, info.hits - before.hits, info.currsize) == \
        (before.misses, 4, before.currsize)
    assert _drawer("tikz", other, 12, 3) is cached


def test_a_fresh_drawer_that_draws_otherwise_fails_render_determinism(monkeypatch):
    real = _drawer.__wrapped__

    def drifted(*key):
        grid, cell = real(*key)
        return grid, lambda word: cell(word)[:-1]
    monkeypatch.setattr(_drawer, "__wrapped__", drifted)
    assert verify._check_render_determinism() == (False, "repeated to_svg runs differ")


def test_a_fresh_drawer_that_draws_the_panel_words_otherwise_fails_render_determinism(
        monkeypatch):
    # a drift on every word but the figure word 1010110 passes the to_svg
    # half; only the panel of the first 8 binary 7-words shows it
    real, figure = _drawer.__wrapped__, parse_word("1010110", 2)

    def drifted(*key):
        head, cell = real(*key)
        return head, lambda word: cell(word) if word == figure else cell(word)[:-1]
    monkeypatch.setattr(_drawer, "__wrapped__", drifted)
    assert verify._check_render_determinism() == (False, "repeated panel runs differ")


def test_a_fixed_space_that_misses_a_moved_generator_row_fails(monkeypatch):
    # the true fixed space shares the generator's row space, so only a wrong
    # fixed_space can pass the first two tests while th moves a row: the
    # flipped entry (0, 0) moves every row with x_0 = 1, the first of them
    th = _flipped(hamming_ntt_matrix(), 0, 0)
    space = fixed_space(hamming_ntt_matrix())
    monkeypatch.setattr(verify, "fixed_space", lambda m: space)
    assert verify._check_eigen_generator(th) == \
        (False, "generator row (1, 1, 0, 0, 0, 0, 1) is not a fixed point")


def test_wrong_features_fail_the_flower_features_check(monkeypatch):
    # in the 128-word sweep, 1010110 (index 86) drawn as the zero word
    real, figure, zero = features, parse_word("1010110", 2), Word(2, (0,) * 7)
    monkeypatch.setattr(verify, "features", lambda w: real(zero if w == figure else w))
    assert verify._check_flower_features() == (False, "counts wrong for word index 86")
    # right in the sweep, wrong for the figure words after it
    calls = []

    def late(w):
        calls.append(w)
        return real(w if len(calls) <= 128 else zero)
    monkeypatch.setattr(verify, "features", late)
    assert verify._check_flower_features() == \
        (False, "0000101: got 0 petals 0 thorns, expected 0/2")


def test_caches_keep_inputs_not_verdicts(fresh_results):
    # after a clean run, corrupted matrices still go red: every run takes
    # the products anew; only the binary 7-words, the points and the
    # drawers are kept
    assert [(r.passed, r.detail) for r in run_checks()] == \
        [(r.passed, r.detail) for r in fresh_results]
    golay, hamming = _flipped(golay_ntt_matrix(), 0, 0), _flipped(hamming_ntt_matrix(), 0, 0)
    by_name = {r.name: (r.passed, r.detail)
               for r in run_checks(hamming_matrix=hamming, golay_matrix=golay)}
    assert by_name["golay-addition-only"] == (False, "paths disagree on 221120000001")
    # the Hamming codewords are checked first
    assert by_name["transform-code-isomorphism"] == \
        (False, "codeword 1010100 is not fixed")
    assert [(r.passed, r.detail) for r in run_checks()] == \
        [(r.passed, r.detail) for r in fresh_results]
