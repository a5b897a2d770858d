"""Frozen reference values the tests compare the package against.

The matrices themselves are the package-free transcriptions in
benchmarks/oracle.py.  The worked pairs and invariant words below anchor
them and the package's copies alike: every pair and word must hold for
both, and no single-entry perturbation of the 12x12 matrix preserves all
six ternary equations.  The bases, checksums, weight distributions and
flower counts were computed by standalone oracle runs and only then frozen.
"""

# Worked examples: (input, transformed) pairs and invariant words.
HAMMING_PAIRS = (("0011000", "1111000"),)
HAMMING_INVARIANT_WORDS = ("1100001",)
GOLAY_PAIRS = (
    ("102010022101", "101021012210"),
    ("000000111221", "111221001210"),
    ("201100010110", "021220022122"),
)
GOLAY_INVARIANT_WORDS = ("100000011111", "010000101221", "001000110122")

# Canonical fixed-space bases (free columns ascending, free symbol pinned to 1),
# frozen from the oracle RREF run.
HAMMING_FIXED_BASIS = ("0111000", "1010100", "1110010", "1100001")
GOLAY_FIXED_BASIS = (
    "122101000000",
    "210220210000",
    "212100101000",
    "201210100100",
    "222010200010",
    "221120000001",
)

# sha256 over the canonical matrix text serialization.
HAMMING_MATRIX_SHA256 = \
    "d5088ccc0fa0a6500f6e162a78f6dd5d3fc8d8740ed081e438078389ffb9e578"
GOLAY_MATRIX_SHA256 = \
    "6cee364bdfb20b78190ecabeceed80349ba7e63d71ecd1733a3287006d677457"

# Weight enumerators of the two built-in codes, from the exhaustive oracle
# sweep.  Note the weight-5 words in the 12-point code: the code the built-in
# matrix actually generates has minimum distance 5, not the nominal 6.
HAMMING_WEIGHT_DISTRIBUTION = {0: 1, 3: 7, 4: 7, 7: 1}
GOLAY_WEIGHT_DISTRIBUTION = {
    0: 1, 5: 30, 6: 162, 7: 72, 8: 120, 9: 230, 10: 90, 11: 12, 12: 12,
}

# One weight-5 fixed point of the 12-point transform, verified by hand.
GOLAY_WEIGHT5_WORD = "000101200202"

# Flower feature counts (petals, thorns) for specific reference words.
FLOWER_COUNTS = {
    "0000101": (0, 2),
    "1010110": (1, 2),
    "1011101": (3, 0),
    "0111011": (3, 0),
    "1001111": (4, 0),
    "1111111": (7, 0),
}
