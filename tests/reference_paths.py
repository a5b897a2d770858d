"""Per-word reference evaluators: the oracles for the package's fast paths.

They read the independent transcription in reference_constants and share no
code with src/, except reference_panel, which puts together cells that
to_svg draws one by one.
"""

import random
from functools import partial
from itertools import islice

from fieldflower.flowergeom import features
from fieldflower.gfield import Word
from fieldflower.render import RenderSpec, to_svg
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
