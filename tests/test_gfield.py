"""Field arithmetic and word parsing."""

import dataclasses
import itertools
import math
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from fieldflower import gfield
from fieldflower.gfield import (
    FieldElement,
    Word,
    format_word,
    format_word_list,
    is_prime,
    parse_word,
    parse_word_list,
)
from fieldflower.modlinalg import MatrixOverGfp, parse_matrix
import oracle
from reference_paths import reference_parse_word
from test_render import golden_words

PRIMES = (2, 3, 5, 7)

# Moduli of the text round trips: digit form up to 7, comma form past 10.
ROUND_TRIP_PRIMES = (2, 3, 5, 7, 11, 13, 257, 2**61 - 1)


@st.composite
def words_over(draw, p):
    """A word of 1..40 symbols over GF(p)."""
    return Word(p, tuple(draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=40))))


def test_is_prime_small_values():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_agrees_with_trial_division():
    assert all(is_prime(n) == trial_division(n) for n in range(-3, 10**5))


def test_is_prime_rejects_pseudoprimes():
    # Carmichael 561, then the least strong pseudoprimes to bases 2;
    # 2 and 3; 2..7; and 2..23
    for n in (561, 2047, 1373653, 3215031751, 3825123056546413051):
        assert not is_prime(n)
    for n in (2**31 - 1, 2**61 - 1, 2**64 - 59):
        assert is_prime(n)


def test_large_prime_modulus_builds_at_once():
    w = Word(2**61 - 1, (0, 1))
    assert w.modulus == 2**61 - 1


def test_modulus_past_two_to_the_64_refused():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="below 2\\*\\*64"):
            is_prime(2**64)
        with pytest.raises(ValueError, match="below 2\\*\\*64"):
            Word(2**64 + 13, (0, 1))
        assert tracemalloc.get_traced_memory()[1] < 64 * 1024
    finally:
        tracemalloc.stop()


def test_modulus_is_checked_once_per_field(monkeypatch):
    calls = []

    def counting_is_prime(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(gfield, "is_prime", counting_is_prime)
    gfield._is_prime_modulus.cache_clear()
    try:
        for v in range(1000):
            Word(32749, (v, 0))
        FieldElement(5, 32749)
        MatrixOverGfp(32749, ((1, 2), (3, 4)))
        assert calls == [32749]
        Word(3, (0,))
        for _ in range(3):
            # refusals are not remembered: each call raises again
            for p in (32751, 3.0, True, "3"):
                with pytest.raises(ValueError, match="prime int"):
                    Word(p, (0,))
            with pytest.raises(ValueError, match="below 2\\*\\*64"):
                Word(2**64 + 13, (0,))
        assert calls == [32749, 3, 32751] + [2**64 + 13] * 3
    finally:
        gfield._is_prime_modulus.cache_clear()


@pytest.mark.parametrize("p", PRIMES)
def test_field_axioms_exhaustive(p):
    elems = [FieldElement(v, p) for v in range(p)]
    zero, one = elems[0], elems[1 % p]
    for a, b in itertools.product(elems, repeat=2):
        assert (a + b).value == (b + a).value
        assert (a * b).value == (b * a).value
    for a, b, c in itertools.product(elems, repeat=3):
        assert ((a + b) + c).value == (a + (b + c)).value
        assert ((a * b) * c).value == (a * (b * c)).value
        assert (a * (b + c)).value == (a * b + a * c).value
    for a in elems:
        assert (a + zero).value == a.value
        assert (a * one).value == a.value
        assert (a + (-a)).value == 0
        assert (a - a).value == 0
        if a.value != 0:
            assert (a * a.inverse()).value == 1


def test_inverse_of_two_mod_five():
    assert FieldElement(2, 5).inverse().value == 3


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        FieldElement(0, 7).inverse()


def test_mixed_modulus_arithmetic_rejected():
    with pytest.raises(ValueError):
        FieldElement(1, 2) + FieldElement(1, 3)


def test_element_out_of_range_rejected():
    with pytest.raises(ValueError):
        FieldElement(5, 5)
    with pytest.raises(ValueError):
        FieldElement(-1, 5)
    with pytest.raises(ValueError):
        FieldElement(1.0, 3)


def test_nonprime_modulus_rejected():
    with pytest.raises(ValueError):
        FieldElement(1, 6)
    with pytest.raises(ValueError):
        Word(4, (1, 0))
    with pytest.raises(ValueError):
        Word(3.0, (1, 2))


def test_word_basics():
    w = Word(3, (0, 2, 1, 0))
    assert len(w) == 4
    assert list(w) == [0, 2, 1, 0]
    assert w[1] == 2
    assert w.weight() == 2


def test_word_symbol_range_enforced():
    with pytest.raises(ValueError):
        Word(2, (0, 2))
    with pytest.raises(ValueError):
        Word(3, ())
    with pytest.raises(ValueError):
        Word(3, (1.5, 2))
    with pytest.raises(ValueError):
        Word(2, (True, False))


def test_word_is_slotted_and_frozen():
    w = Word(3, (0, 2, 1))
    assert not hasattr(w, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.symbols = (1, 1, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.modulus = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.extra = 1
    assert w == Word(3, (0, 2, 1))
    assert [f.name for f in dataclasses.fields(Word)] == ["modulus", "symbols"]


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_field_element_is_slotted_frozen_and_pickles(protocol):
    a = FieldElement(4, 7)
    assert not hasattr(a, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.value = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.extra = 1
    assert [f.name for f in dataclasses.fields(FieldElement)] == ["value", "modulus"]
    for x in (a, FieldElement(0, 2), FieldElement(2**61 - 2, 2**61 - 1)):
        back = pickle.loads(pickle.dumps(x, protocol=protocol))
        assert type(back) is FieldElement
        assert back == x and hash(back) == hash(x)
        assert (back.value, back.modulus) == (x.value, x.modulus)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_word_pickle_round_trip(protocol):
    for w in (Word(2, (1, 0, 1)), Word(13, (0, 11, 3)), Word(3, (2,) * 12)):
        back = pickle.loads(pickle.dumps(w, protocol=protocol))
        assert type(back) is Word
        assert back == w and hash(back) == hash(w)
        assert (back.modulus, back.symbols) == (w.modulus, w.symbols)


def test_word_equality_and_hash_follow_the_fields():
    a, b = Word(3, (0, 2, 1)), Word(3, [0, 2, 1])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Word(5, (0, 2, 1)) and a != Word(3, (0, 2, 2))
    assert a != (0, 2, 1)


def test_word_replace_validates_again():
    w = Word(3, (0, 2, 1))
    assert dataclasses.replace(w, symbols=(1, 1, 1)) == Word(3, (1, 1, 1))
    with pytest.raises(ValueError, match="value 3 at position 1"):
        dataclasses.replace(w, symbols=(0, 3, 1))
    with pytest.raises(ValueError, match="value 2 at position 1 .* GF\\(2\\)"):
        dataclasses.replace(w, modulus=2)
    with pytest.raises(ValueError, match="modulus must be a prime"):
        dataclasses.replace(w, modulus=4)


def test_all_binary_7_is_one_shared_tuple_in_counting_order():
    words = gfield._all_binary_7()
    assert type(words) is tuple and words is gfield._all_binary_7()
    # word i is i in binary, x_0 its top bit: product order
    assert words == tuple(Word(2, bits) for bits in itertools.product(range(2), repeat=7))


def test_format_word_matches_the_per_symbol_oracle():
    words = golden_words() + [Word(p, tuple(range(p))) for p in (2, 3, 5, 7, 11, 13)]
    words += [Word(p, (p - 1,) * 40) for p in PRIMES]
    for w in words:
        assert format_word(w) == oracle.text(w.symbols, w.modulus)
    assert format_word_list(words) == \
        "".join(oracle.text(w.symbols, w.modulus) + "\n" for w in words)


def test_parse_word_digit_form():
    assert parse_word("0011000", 2).symbols == (0, 0, 1, 1, 0, 0, 0)
    assert parse_word("102010022101", 3).symbols == \
        (1, 0, 2, 0, 1, 0, 0, 2, 2, 1, 0, 1)


def test_parse_word_comma_form():
    assert parse_word("0,11,3", 13).symbols == (0, 11, 3)
    # comma form is accepted under small p too
    assert parse_word("1,0,1", 2).symbols == (1, 0, 1)
    # past p = 10, text without a comma is a word of one symbol
    assert parse_word("12", 13).symbols == (12,)


def test_parse_word_errors():
    with pytest.raises(ValueError):
        parse_word("", 2)
    with pytest.raises(ValueError):
        parse_word("01a", 2)
    with pytest.raises(ValueError):
        parse_word("012", 2)
    with pytest.raises(ValueError):
        parse_word("101", 13)  # one symbol, 101, over GF(13)
    with pytest.raises(ValueError):
        parse_word("1,14,0", 13)
    # only ASCII digits, though str.isdigit and int() take the others
    for text, p in (("001\u0661000", 2), ("00\u00b21000", 2), ("1,\u0661,0", 3),
                    ("1,+1,0", 3), ("1,1_0,0", 13), ("1, ,0", 3)):
        with pytest.raises(ValueError, match="invalid symbol"):
            parse_word(text, p)
    with pytest.raises(ValueError, match=r"'\u00b2' at position 2 .* GF\(2\)"):
        parse_word("00\u00b21000", 2)


def parse_outcome(parse, text, p):
    """What parsing returns (type, fields, hash and the word back from a
    pickle at every protocol) or raises (type and text)."""
    try:
        w = parse(text, p)
    except Exception as exc:
        return "raised", type(exc), str(exc)
    return "returned", type(w), w.modulus, w.symbols, hash(w), [
        pickle.loads(pickle.dumps(w, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]


def test_parse_word_matches_the_per_symbol_oracle():
    cases = [(format_word(w), w.modulus) for w in golden_words()]
    cases += [(text, 3) for text in ("201100010110", "021220022122", "0" * 40, "0123")]
    cases += [(text, p) for p in (2, 3, 7) for text in (
        "", "+1", "-1", "1 0", " 10", "10 ", "1\u0663", "\u0663", "\u00b2",
        "1,0", "1,,0", ",", "1,0,", "1,+1", "1, ,0", "0123456789", "9", "10a")]
    cases += [("101", 11), ("101", 13), ("1,0", 13), ("012", 4), ("1,0", 4),
              ("012", 1), ("5", 10), ("11", 2.5), ("11", True), ("0120", 3.0),
              ("0120", -3), ("6543210", 7), ("6543210", 5)]
    for text, p in cases:
        assert parse_outcome(parse_word, text, p) == \
            parse_outcome(reference_parse_word, text, p), (text, p)
    # a digit string is refused with Word's errors, unchanged
    assert parse_outcome(parse_word, "0120", 2)[2] == \
        "value 2 at position 2 out of range for GF(2): expected an int in 0..1"
    assert parse_outcome(parse_word, "0123", 3)[2] == \
        "value 3 at position 3 out of range for GF(3): expected an int in 0..2"
    for p in (4, True, 3.0):
        assert parse_outcome(parse_word, "0120", p)[2] == \
            f"modulus must be a prime int, got {p!r}"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(ROUND_TRIP_PRIMES).flatmap(words_over))
def test_format_word_round_trip(word):
    text = format_word(word)
    assert ("," in text) == (word.modulus > 10 and len(word) > 1)
    assert parse_word(text, word.modulus) == word
    assert format_word(parse_word(text, word.modulus)) == text


def test_parse_word_list_skips_comments_and_blanks():
    text = "# header\n0011000\n\n1100001  \n# trailing\n"
    words = parse_word_list(text, 2)
    assert [format_word(w) for w in words] == ["0011000", "1100001"]


def test_parse_word_list_checks_the_modulus_before_any_line():
    # a bad modulus is no line's fault, and is refused even with no words
    for text in ("", "# only a comment\n\n", "0011000\n", "# c\n01x\n"):
        with pytest.raises(ValueError) as exc:
            parse_word_list(text, 4)
        assert str(exc.value) == "modulus must be a prime int, got 4"
    assert parse_word_list("# only a comment\n\n", 3) == []
    with pytest.raises(ValueError, match="^line 2: invalid symbol 'x' at position 2"):
        parse_word_list("# c\n01x\n", 3)


@st.composite
def word_lists(draw):
    """Words over one GF(p), and their list text with '#' comment lines and
    blank lines mixed in."""
    p = draw(st.sampled_from(ROUND_TRIP_PRIMES))
    words = draw(st.lists(words_over(p), max_size=8))
    comment = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12)
    other = st.one_of(comment.map(lambda c: "#" + c), st.sampled_from(["", "  ", "\t"]))
    lines = []
    for w in words:
        lines += draw(st.lists(other, max_size=2)) + [format_word(w)]
    lines += draw(st.lists(other, max_size=2))
    return p, words, "".join(line + "\n" for line in lines)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(word_lists())
def test_word_list_round_trip(case):
    p, words, text = case
    assert parse_word_list(text, p) == words
    assert parse_word_list(format_word_list(words), p) == words
    assert format_word_list(parse_word_list(text, p)) == format_word_list(words)


# Text that nearly parses: ASCII digits, the separators of the word, list and
# matrix formats, signs, '_' and '.', which int() takes in part, and digits of
# other scripts, which str.isdigit takes.
NEAR_TEXT = "0123456789,;=# \n+-_.p\u0661\u0663\u00b2\u096a\uff11"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.text(NEAR_TEXT, max_size=40),
       st.sampled_from((2, 3, 7, 11, 257, 2**61 - 1, 0, 1, 4, 9, 15, 2**64, 2**64 + 13)))
def test_parsers_raise_only_value_error_on_malformed_text(text, p):
    # primes, composites and moduli past 2**64, in the argument and the header
    for parse in (lambda: parse_word(text, p), lambda: parse_word_list(text, p),
                  lambda: parse_matrix(text), lambda: parse_matrix(f"p={p}\n{text}")):
        try:
            parse()
        except ValueError:
            pass
