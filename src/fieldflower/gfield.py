"""Exact arithmetic in the prime field GF(p) and words over it.

Everything in this module is an immutable value: elements and words can be
shared freely across threads, and every operation returns a new value.

`_residues` alone decides what a value of GF(p) is (a prime `int` modulus,
`int` residues in 0..p-1) for elements, words and matrices alike, and
`_same_field` alone checks that two operands share a modulus.

A value is checked where it enters the package: by a public constructor
(`FieldElement`, `Word`, `MatrixOverGfp`), a parser or the CLI.  A value
built from checked values is not checked again.  Three trusted builders
skip `_residues`, each given residues of a prime its caller has checked:

- `_reduced_words`, for the codebook walk (`codes.enumerate_codewords`),
  which reads a checked generator and lane-tests every packed block of
  codewords before any of its Words is made;
- `_reduced_word`, for `modlinalg.mat_vec` and `ntt.apply_addition_only`,
  which reduce every symbol of an image mod the modulus of a checked matrix
  or mod 3; for `modlinalg._null_basis`, whose vectors (of null spaces,
  eigenspaces and parity checks) elimination reduced; and for `parse_word`,
  which checks the modulus and the largest digit of a digit string, and
  leaves any other text to `Word`, which names the error;
- `modlinalg._reduced_matrix`, for the matrices of `modlinalg.rref`,
  `codes.LinearCode._parity_check` and `codes.code_from_fixed_space`,
  whose rows elimination reduced.

Their values equal, hash and pickle like checked builds, and
tests/test_codes.py pins their callers.  An eigenspace's eigenvalue, one
`FieldElement`, and the words `verify` multiplies stay checked.

Every frozen value class of the package derives from `_Frozen`, which gives
it what a frozen dataclass has without importing `dataclasses`.
"""

from __future__ import annotations

from collections import deque
from functools import cache, lru_cache
from itertools import repeat
from operator import attrgetter
from typing import Iterable, Iterator, Sequence


# Miller-Rabin with the first twelve primes as bases is exact for every n
# below 3.1e23 (Sorenson & Webster, 2015), which covers all n < 2**64.
# Each base also screens n by division, which decides every n below 41**2.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Exact primality for n < 2**64; larger n raise ValueError."""
    if n < 2:
        return False
    if n >= 1 << 64:
        raise ValueError(f"{n} is too large: moduli must be below 2**64")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s, d odd
    d = (n - 1) >> s
    for a in _MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=64)
def _is_prime_modulus(p: int) -> bool:
    """is_prime, decided once per modulus: every value of a field asks."""
    return is_prime(p)


def _require_prime(p: int) -> None:
    # The type test comes first: the cache would take 3.0 or True for the
    # int key equal to it.  A refusal is raised anew on every call.
    if type(p) is not int or not _is_prime_modulus(p):
        raise ValueError(f"modulus must be a prime int, got {p!r}")


def _residues(
    p: int, values: Iterable[int], width: int | None = None
) -> tuple[int, ...]:
    """Check that p is a prime and every value an int in 0..p-1.

    Returns the values as a tuple.  With `width`, the values are a matrix
    read row by row, and an error names the position as (row,column).
    """
    _require_prime(p)
    values = tuple(values)
    for v in values:
        if type(v) is not int or not 0 <= v < p:
            # Locate v only on failure, keeping enumerate out of the hot loop.
            # Every value before it passed, so none of them is v itself.
            k = next(k for k, u in enumerate(values) if u is v)
            at = k if width is None else f"({k // width},{k % width})"
            raise ValueError(
                f"value {v!r} at position {at} out of range for GF({p}): "
                f"expected an int in 0..{p - 1}"
            )
    return values


def _same_field(a, b) -> None:
    """Require two field values (anything with a .modulus) to share p."""
    if a.modulus != b.modulus:
        raise ValueError(f"modulus mismatch: GF({a.modulus}) vs GF({b.modulus})")


@cache
def _dataclass_fields(cls) -> dict:
    """The `dataclasses` fields of a value class, made by `make_dataclass`
    from the parameters, annotations and defaults of its `__init__`."""
    import dataclasses

    names, init = cls.__match_args__, cls.__init__
    defaults = dict(zip(names[::-1], (init.__defaults__ or ())[::-1]))
    return dataclasses.make_dataclass(cls.__name__, [
        (name, init.__annotations__[name],
         dataclasses.field(default=defaults.get(name, dataclasses.MISSING)))
        for name in names], frozen=True).__dataclass_fields__


class _DataclassFields:
    """`__dataclass_fields__` of a value class, read on the class or a value."""

    def __get__(self, value, cls) -> dict:
        return _dataclass_fields(cls)


class _Frozen:
    """Base of the package's immutable value classes.

    A value's fields are the parameters of its class's `__init__`, which
    checks them and sets each one once, by `object.__setattr__`; setting or
    deleting any attribute after that raises
    `dataclasses.FrozenInstanceError`.  Values are equal when they are of
    one class and their fields are, and hash as the tuple of their fields.
    A value pickles its fields only, so a cache that a class keeps in its
    `__dict__` is built again by the loaded value, and its repr is
    `Class(field=value, ...)` where its class writes none.
    `__match_args__` names the fields.  `__dataclass_fields__` is made for
    `dataclasses.fields`, `replace`, `asdict`, `astuple` and `is_dataclass`
    at its first read, so only their callers import `dataclasses`.
    """

    __slots__ = ()
    __dataclass_fields__ = _DataclassFields()

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls.__match_args__ = names = code.co_varnames[1:code.co_argcount]
        get = attrgetter(*names)
        # the fields as a tuple, also for a class of one field
        cls._values = get if len(names) > 1 else staticmethod(lambda value: (get(value),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self.__match_args__, self._values(self))
        return f"{self.__class__.__qualname__}({', '.join(fields)})"

    def __getstate__(self) -> dict:
        return dict(zip(self.__match_args__, self._values(self)))

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class FieldElement(_Frozen):
    """A residue in GF(p), with 0 <= value < modulus."""

    __slots__ = ("value", "modulus")  # as Word's, which says why

    def __init__(self, value: int, modulus: int) -> None:
        _residues(modulus, (value,))
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "modulus", modulus)

    def __reduce__(self):
        return FieldElement, (self.value, self.modulus)

    def __add__(self, other: "FieldElement") -> "FieldElement":
        _same_field(self, other)
        return FieldElement((self.value + other.value) % self.modulus, self.modulus)

    def __neg__(self) -> "FieldElement":
        return FieldElement((self.modulus - self.value) % self.modulus, self.modulus)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        _same_field(self, other)
        return FieldElement((self.value - other.value) % self.modulus, self.modulus)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        _same_field(self, other)
        return FieldElement((self.value * other.value) % self.modulus, self.modulus)

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse via Fermat: a^(p-2) mod p."""
        if self.value == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.modulus})")
        return FieldElement(
            pow(self.value, self.modulus - 2, self.modulus), self.modulus
        )

    def __repr__(self) -> str:
        return f"FieldElement({self.value} mod {self.modulus})"


class Word(_Frozen):
    """An immutable length-N sequence of residues over GF(p)."""

    # Slots keep a Word to an int and a tuple.  A pickle rebuilds the Word
    # through its constructor, since setting a frozen slot raises.
    __slots__ = ("modulus", "symbols")

    def __init__(self, modulus: int, symbols: tuple[int, ...]) -> None:
        symbols = _residues(modulus, symbols)
        if not symbols:
            raise ValueError("a word must have at least one symbol")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "symbols", symbols)

    def __reduce__(self):
        return Word, (self.modulus, self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __getitem__(self, k: int) -> int:
        return self.symbols[k]

    def weight(self) -> int:
        """Number of nonzero symbols (Hamming weight)."""
        return len(self.symbols) - self.symbols.count(0)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r} over GF({self.modulus}))"


# The two slot setters of Word, for the builders that skip `_residues`.
_set_modulus, _set_symbols = Word.modulus.__set__, Word.symbols.__set__


def _reduced_word(p: int, symbols: tuple[int, ...]) -> Word:
    """A Word built without `_residues`: the caller has checked that p is
    prime and that the symbols are ints in 0..p-1, at least one of them."""
    word = object.__new__(Word)
    _set_modulus(word, p)
    _set_symbols(word, symbols)
    return word


def _reduced_words(p: int, symbol_rows: Iterable[tuple[int, ...]]) -> list[Word]:
    """`_reduced_word` of every tuple, under the same contract.  The Words
    are made and their two slots set by C-level `map`s, drained by `deque`."""
    rows = list(symbol_rows)
    words = list(map(object.__new__, repeat(Word, len(rows))))
    deque(map(_set_modulus, words, repeat(p)), maxlen=0)
    deque(map(_set_symbols, words, rows), maxlen=0)
    return words


@cache
def _all_binary_7() -> tuple[Word, ...]:
    """The 128 binary 7-words: word i is i in binary, x_0 its top bit.
    Words are immutable, so every caller shares the one tuple."""
    return tuple(Word(2, tuple((i >> (6 - k)) & 1 for k in range(7))) for i in range(128))


def _is_decimal(text: str) -> bool:
    """True for an ASCII numeral [0-9]+: no sign, underscore, space or other
    script's digits, all of which `int` would take."""
    return text.isascii() and text.isdigit()


# Symbol value -> its ASCII digit, and back, for words over GF(p) with p <= 10.
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")
_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))


def parse_word(text: str, p: int) -> Word:
    """Parse a word from its text form.

    Canonical form for p <= 10 is a contiguous base-p digit string whose
    leftmost character is x_0.  A comma-separated decimal form ("0,11,3")
    is accepted for any p and required for p > 10, where text without a
    comma is a word of one symbol ("12"), as `format_word` writes it.
    Symbols are ASCII digits only.  The modulus and the symbol range are
    checked by `Word`.  A digit string maps to its symbols in one pass,
    through `_VALUES`, and is a Word at once when p is prime and its largest
    digit below p; any other text is read symbol by symbol, so an error can
    name its position.
    """
    if text == "":
        raise ValueError("empty word")
    if "," in text or p > 10:
        symbols = [part.strip() for part in text.split(",")]
    elif _is_decimal(text):
        _require_prime(p)
        digits = tuple(text.encode("ascii").translate(_VALUES))
        if max(digits) < p:
            return _reduced_word(p, digits)
        return Word(p, digits)  # names the first digit at or above p
    else:
        symbols = list(text)
    for k, symbol in enumerate(symbols):
        if not _is_decimal(symbol):
            raise ValueError(
                f"invalid symbol {symbol!r} at position {k} in word {text!r} "
                f"over GF({p}): expected ASCII digits 0-9"
            )
    return Word(p, tuple(map(int, symbols)))


def format_word(word: Word) -> str:
    """Canonical text form: base-p digits for p <= 10, else comma-separated."""
    if word.modulus <= 10:
        return bytes(word.symbols).translate(_DIGITS).decode("ascii")
    return ",".join(map(str, word.symbols))


def parse_word_list(text: str, p: int) -> list[Word]:
    """Parse a word-list: one word per line, '#' comments, blank lines
    skipped.  A bad word's error names its line, counting every line from 1."""
    _require_prime(p)
    words = []
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            try:
                words.append(parse_word(line, p))
            except ValueError as exc:
                raise ValueError(f"line {number}: {exc}") from None
    return words


def format_word_list(words: Sequence[Word]) -> str:
    return "".join(format_word(w) + "\n" for w in words)
