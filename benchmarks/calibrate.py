"""Host speed calibration: fixed pure-Python kernels timed beside the operations.

This benchmark runs on shared virtual machines whose speed drifts by up to
1.6x over seconds to hours (other tenants, host frequency), and the drift
hits a plain stdlib loop and the fieldflower walks alike.  Raw wall times
then spread between runs far more than any change to the program would move
them.  So every timing is expressed in *reference seconds*:

    reference_s = wall_s * kernel.nominal_ns / kernel_ns

where ``kernel_ns`` is the time of the operation's calibration kernel
measured right beside the timed work, and ``nominal_ns`` is a fixed constant
(about the kernel's median time on a 2-vCPU Xeon VM at 2.0 GHz, so
reference and wall seconds are close there).  A program change that halves
an operation's wall time halves its reference time; a host that runs
everything 1.4x slower moves neither.  The raw wall figures are printed
beside the result (context line) and in the traced run's per-layer metrics.

The kernels import nothing from the package and do the interpreter work
fieldflower does: small-integer modular arithmetic in nested loops, tuple
and list building, small object construction with validation, generator
reductions, dict updates and string formatting.  A host's drift slows
cache-resident work more than work that streams through megabytes, so
there are two, and each operation uses the one whose memory footprint is
like its own (``workloads.Op.kernel``).  Measured in fresh interpreters
over some minutes: a 59,049-codeword walk ranged +-18% raw, +-7% against
``LISTING`` and +-13% against ``WORDS``; a word_stream round ranged +-21%
raw, +-7% against ``WORDS`` and +-10% against ``LISTING``.
"""

from __future__ import annotations

import bisect
import itertools
import statistics
from time import perf_counter, perf_counter_ns
from typing import Callable, NamedTuple


class Kernel(NamedTuple):
    name: str
    run: Callable[[], int]
    checksum: int
    nominal_ns: int
    # A speed sample is the fastest of this many calls.
    calls: int
    # Untimed work between speed samples, at most.
    interval_s: float
    # How far from an operation a speed sample may lie and still scale it.
    window_s: float


class _Item:
    __slots__ = ("p", "symbols")

    def __init__(self, p: int, symbols: tuple[int, ...]) -> None:
        for s in symbols:
            if not 0 <= s < p:
                raise ValueError(s)
        self.p = p
        self.symbols = symbols

    def weight(self) -> int:
        return sum(1 for s in self.symbols if s)


# A fixed 13 x 16 binary generator: ``_listing`` lists its 8,192 codewords.
_BINARY = tuple(tuple((3 * i + 5 * j + i * j * j) % 7 % 2 for j in range(16))
                for i in range(13))
# A fixed 6 x 10 ternary generator: ``_words`` walks its 729 codewords.
_TERNARY = ((1, 0, 2, 1, 1, 0, 2, 2, 1, 0), (0, 1, 1, 2, 0, 2, 1, 0, 2, 1),
            (2, 2, 0, 1, 1, 1, 0, 2, 0, 1), (1, 1, 1, 0, 2, 0, 2, 1, 1, 2),
            (0, 2, 1, 1, 0, 1, 2, 2, 1, 0), (2, 0, 0, 2, 1, 1, 1, 0, 2, 2))


def _codewords(rows, p):
    n = len(rows[0])
    for u in itertools.product(range(p), repeat=len(rows)):
        acc = [0] * n
        for coeff, row in zip(u, rows):
            if coeff == 0:
                continue
            for j in range(n):
                acc[j] = (acc[j] + coeff * row[j]) % p
        yield _Item(p, tuple(acc))


def _listing() -> int:
    """About 0.1 s; keeps all 8,192 items (a few MB) alive until the end,
    as the package's codebook listings and panels do."""
    items = list(_codewords(_BINARY, 2))
    tally = {}
    for item in items:
        wt = item.weight()
        tally[wt] = tally.get(wt, 0) + 1
    text = "".join(str(s) for s in items[-1].symbols)
    return len(items) + sum(w * c for w, c in tally.items()) + len(f"{tally}:{text}")


def _words() -> int:
    """About 5 ms; one item at a time, all of it cache-resident, as the
    package's per-word transforms and queries are."""
    best, tally, text = len(_TERNARY[0]) + 1, {}, []
    for item in _codewords(_TERNARY, 3):
        wt = item.weight()
        if 0 < wt < best:
            best = wt
        tally[wt] = tally.get(wt, 0) + 1
        if wt == best:
            text.append("".join(str(s) for s in item.symbols))
    return best + len(tally) + len(f"{len(text)}:{text[-1]}")


LISTING = Kernel("listing", _listing, 65664, 110_000_000, calls=1, interval_s=1.5, window_s=2.0)
WORDS = Kernel("words", _words, 25, 6_000_000, calls=2, interval_s=0.5, window_s=1.0)


def sample_ns(kernel: Kernel) -> int:
    """One speed sample: the kernel's time, in ns, as fast as it ran."""
    best = None
    for _ in range(kernel.calls):
        start = perf_counter_ns()
        if kernel.run() != kernel.checksum:
            raise RuntimeError("calibration kernel gave another checksum")
        ns = perf_counter_ns() - start
        best = ns if best is None or ns < best else best
    return best


class Speed:
    """Speed samples taken between operations, at most ``interval_s`` apart.

    An operation is scaled by the median of the samples taken within
    ``window_s`` of it (usually three to five), so one odd sample moves no
    operation by itself.
    """

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.times: list[float] = []
        self.samples: list[int] = []

    def maybe_sample(self, force: bool = False) -> None:
        """Take a sample if the last is more than ``interval_s`` old."""
        if (force or not self.times
                or perf_counter() - self.times[-1] > self.kernel.interval_s):
            self.samples.append(sample_ns(self.kernel))
            self.times.append(perf_counter())

    def reference_ns(self, start: float, wall_ns: int) -> float:
        """An operation's wall time, begun at ``start``, in reference ns:
        scaled by the median of the samples within ``window_s`` of it."""
        window = self.kernel.window_s
        lo = bisect.bisect_left(self.times, start - window)
        hi = bisect.bisect_right(self.times, start + wall_ns / 1e9 + window)
        if lo == hi:  # none that close: the last one before, or the first
            lo, hi = (hi - 1, hi) if hi else (0, 1)
        return wall_ns * self.kernel.nominal_ns / statistics.median(self.samples[lo:hi])
