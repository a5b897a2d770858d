"""Per-word reference evaluators: the oracles for the package's batched paths.

They read the independent transcription in reference_constants and share no
code with src/.
"""

from fieldflower.gfield import Word
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
