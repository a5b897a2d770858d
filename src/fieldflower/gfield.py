"""Exact arithmetic in the prime field GF(p) and words over it.

Everything in this module is an immutable value: elements and words can be
shared freely across threads, and every operation returns a new value.

`_residues` alone decides what a value of GF(p) is (a prime `int` modulus,
`int` residues in 0..p-1) for elements, words and matrices alike, and
`_same_field` alone checks that two operands share a modulus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


def is_prime(n: int) -> bool:
    """Trial-division primality test; every field used here has small p."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _require_prime(p: int) -> None:
    if type(p) is not int or not is_prime(p):
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


@dataclass(frozen=True)
class FieldElement:
    """A residue in GF(p), with 0 <= value < modulus."""

    value: int
    modulus: int

    def __post_init__(self) -> None:
        _residues(self.modulus, (self.value,))

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


@dataclass(frozen=True)
class Word:
    """An immutable length-N sequence of residues over GF(p)."""

    modulus: int
    symbols: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", _residues(self.modulus, self.symbols))
        if len(self.symbols) == 0:
            raise ValueError("a word must have at least one symbol")

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __getitem__(self, k: int) -> int:
        return self.symbols[k]

    def weight(self) -> int:
        """Number of nonzero symbols (Hamming weight)."""
        return sum(1 for s in self.symbols if s)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r} over GF({self.modulus}))"


def parse_word(text: str, p: int) -> Word:
    """Parse a word from its text form.

    Canonical form for p <= 10 is a contiguous base-p digit string whose
    leftmost character is x_0.  A comma-separated decimal form ("0,11,3")
    is accepted for any p and required for p > 10.  The modulus and the
    symbol range are checked by `Word`.
    """
    if text == "":
        raise ValueError("empty word")
    if "," in text:
        symbols = []
        for part in text.split(","):
            part = part.strip()
            if not part.isdigit():
                raise ValueError(f"invalid symbol {part!r} in word {text!r}")
            symbols.append(int(part))
    elif p <= 10:
        symbols = []
        for ch in text:
            if not ch.isdigit():
                raise ValueError(f"invalid digit {ch!r} in word {text!r}")
            symbols.append(int(ch))
    else:
        raise ValueError(f"words over GF({p}) must use the comma-separated form")
    return Word(p, tuple(symbols))


def format_word(word: Word) -> str:
    """Canonical text form: base-p digits for p <= 10, else comma-separated."""
    if word.modulus <= 10:
        return "".join(str(s) for s in word.symbols)
    return ",".join(str(s) for s in word.symbols)


def parse_word_list(text: str, p: int) -> list[Word]:
    """Parse a word-list: one word per line, '#' comments, blank lines skipped."""
    words = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        words.append(parse_word(line, p))
    return words


def format_word_list(words: Sequence[Word]) -> str:
    return "".join(format_word(w) + "\n" for w in words)
