"""Field arithmetic and word parsing."""

import itertools

import pytest

from fieldflower.gfield import (
    FieldElement,
    Word,
    format_word,
    format_word_list,
    is_prime,
    parse_word,
    parse_word_list,
)

PRIMES = (2, 3, 5, 7)


def test_is_prime_small_values():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


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


def test_parse_word_digit_form():
    assert parse_word("0011000", 2).symbols == (0, 0, 1, 1, 0, 0, 0)
    assert parse_word("102010022101", 3).symbols == \
        (1, 0, 2, 0, 1, 0, 0, 2, 2, 1, 0, 1)


def test_parse_word_comma_form():
    assert parse_word("0,11,3", 13).symbols == (0, 11, 3)
    # comma form is accepted under small p too
    assert parse_word("1,0,1", 2).symbols == (1, 0, 1)


def test_parse_word_errors():
    with pytest.raises(ValueError):
        parse_word("", 2)
    with pytest.raises(ValueError):
        parse_word("01a", 2)
    with pytest.raises(ValueError):
        parse_word("012", 2)
    with pytest.raises(ValueError):
        parse_word("101", 13)  # p > 10 requires commas
    with pytest.raises(ValueError):
        parse_word("1,14,0", 13)


def test_format_word_round_trip():
    for text, p in (("0011000", 2), ("201100010110", 3), ("0,11,3", 13)):
        assert format_word(parse_word(text, p)) == text


def test_parse_word_list_skips_comments_and_blanks():
    text = "# header\n0011000\n\n1100001  \n# trailing\n"
    words = parse_word_list(text, 2)
    assert [format_word(w) for w in words] == ["0011000", "1100001"]


def test_word_list_round_trip():
    words = [parse_word(t, 3) for t in ("000000111221", "102010022101")]
    assert parse_word_list(format_word_list(words), 3) == words
