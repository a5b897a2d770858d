"""The built-in verification suite, including its deliberate red check."""

import hashlib
from itertools import chain

import pytest

from fieldflower import modlinalg
from fieldflower.modlinalg import MatrixOverGfp, _Batch, identity, mat_vec
from fieldflower.ntt import golay_ntt_matrix, hamming_ntt_matrix
from fieldflower.verify import _random_rows, format_report, run_checks
from reference_paths import reference_random_words

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

# The detail strings of the two checks that walk every codeword, under
# injected matrices, as the per-word implementation reported them: which
# word is reported first, and which error a mismatched field or shape gives.
# A non-square Hamming matrix maps 0000000 to a word of another length.
INJECTED_DETAILS = {
    "corrupted-golay": (
        {"golay_matrix": _flipped(golay_ntt_matrix(), 0, 0)},
        (True, "all 259 codewords are fixed points"),
        (False, "paths disagree on 120110121010"),
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
        (True, "all 43 codewords are fixed points"),
        (False, "raised ValueError: expected a ternary word of length 12"),
    ),
}


@pytest.mark.parametrize("case", sorted(INJECTED_DETAILS))
def test_injected_matrix_details(case):
    kwargs, isomorphism, addition_only = INJECTED_DETAILS[case]
    by_name = {r.name: (r.passed, r.detail) for r in run_checks(**kwargs)}
    assert by_name["transform-code-isomorphism"] == isomorphism
    assert by_name["golay-addition-only"] == addition_only


def test_random_words_are_the_seeded_draw():
    rows = _random_rows()
    assert len(rows) == 12
    assert all(len(row) == 10000 for row in rows)
    words = list(zip(*rows))
    digest = hashlib.sha256(bytes(chain.from_iterable(words))).hexdigest()
    assert digest == \
        "ea27fbeeef6ce72996bada924ce25885c77f177c001d463d0f8f4f0bf5bece90"


def test_random_rows_are_the_per_symbol_draw_packed():
    assert _random_rows() == _Batch.of(3, reference_random_words()).rows


# A 12x12 matrix over GF(7) fixing e_0 and e_1: n(p-1)**2 = 432 lies past the
# 8-bit lane bound, so every product it takes part in is computed word by word.
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
    ("transform-code-isomorphism", True, "all 65 codewords are fixed points"),
    ("golay-addition-only", False,
     "raised ValueError: expected a ternary word of length 12"),
    ("flower-features", True, "128-word sweep + figure words hold"),
    ("render-determinism", True, "repeat and parallel renders byte-identical"),
]


def test_golay_matrix_over_gf7(monkeypatch):
    calls = []
    monkeypatch.setattr(modlinalg, "mat_vec",
                        lambda *a: calls.append(a) or mat_vec(*a))
    results = run_checks(golay_matrix=GF7_MATRIX)
    assert [(r.name, r.passed, r.detail) for r in results] == GF7_RESULTS
    # the isomorphism check takes the 49 fixed words of GF7_MATRIX word by
    # word; the 16 Hamming codewords stay packed
    assert len(calls) == 49
