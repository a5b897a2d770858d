"""Plain stdlib reference answers the benchmark checks outputs against.

Nothing here imports fieldflower.  The two transform matrices and the
Hamming generator are transcribed separately from the package and anchored
by the worked examples in ``_ANCHORS``; everything else (RREF, null spaces,
codebook walks, petal/thorn/shade rules) is recomputed from the documented
definitions.  Each function favours the obvious algorithm over a fast one.
"""

from __future__ import annotations

import hashlib
from itertools import product

HAMMING_T = (
    (0, 1, 0, 1, 1, 0, 0),
    (1, 0, 1, 0, 0, 1, 0),
    (1, 0, 0, 1, 0, 0, 1),
    (0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 1),
)

HAMMING_GENERATOR = (
    (1, 1, 0, 0, 0, 0, 1),
    (1, 1, 1, 0, 0, 1, 0),
    (1, 0, 1, 0, 1, 0, 0),
    (0, 1, 1, 1, 0, 0, 0),
)

GOLAY_SIGNED = (
    (1, -1, -1, -1, -1, -1, 1, 0, 0, 0, 0, 0),
    (-1, 1, -1, 1, 1, -1, 0, 1, 0, 0, 0, 0),
    (-1, -1, 1, -1, 1, 1, 0, 0, 1, 0, 0, 0),
    (-1, 1, -1, 1, -1, 1, 0, 0, 0, 1, 0, 0),
    (-1, 1, 1, -1, 1, 1, 0, 0, 0, 0, 1, 0),
    (-1, -1, 1, 1, -1, 1, 0, 0, 0, 0, 0, 1),
    (-1, -1, 1, 0, 0, 1, -1, 1, 0, 0, 0, 0),
    (-1, 1, -1, 1, 0, 0, 1, 1, 1, 0, 0, 0),
    (-1, 0, 1, -1, 1, 0, 1, 0, 1, 1, 0, 0),
    (-1, 0, 0, 1, -1, 0, 1, 0, 0, 1, 1, 0),
    (-1, 1, 0, 0, 1, -1, 1, 0, 0, 0, 1, 1),
    (1, -1, -1, 0, -1, 0, 0, 1, 1, 0, 0, 1),
)
GOLAY_T = tuple(tuple(e % 3 for e in row) for row in GOLAY_SIGNED)

# Worked transform pairs (input, output) that pin the transcriptions above.
_ANCHORS = (
    (HAMMING_T, 2, "0011000", "1111000"),
    (GOLAY_T, 3, "102010022101", "101021012210"),
    (GOLAY_T, 3, "000000111221", "111221001210"),
    (GOLAY_T, 3, "201100010110", "021220022122"),
)


def text(symbols, p: int) -> str:
    """The package's canonical word text: digits for p <= 10, else commas."""
    sep = "" if p <= 10 else ","
    return sep.join(str(s) for s in symbols)


def digits(word_text: str) -> tuple[int, ...]:
    return tuple(int(c) for c in word_text)


def mat_vec(rows, x, p: int) -> tuple[int, ...]:
    return tuple(sum(a * b for a, b in zip(row, x)) % p for row in rows)


def rref(rows, p: int):
    """Reduced row-echelon form, rank and pivot columns (the RREF is unique)."""
    a = [list(r) for r in rows]
    m, n = len(a), len(a[0])
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        found = [i for i in range(r, m) if a[i][c] % p]
        if not found:
            continue
        a[r], a[found[0]] = a[found[0]], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [(v * inv) % p for v in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(v - f * w) % p for v, w in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in a), r, tuple(pivots)


def rank(rows, p: int) -> int:
    return rref(rows, p)[1]


def null_space(rows, p: int) -> list[tuple[int, ...]]:
    """Canonical basis: one vector per free column, ascending, free entry 1."""
    reduced, _, pivots = rref(rows, p)
    n = len(rows[0])
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[f] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-reduced[i][f]) % p
        basis.append(tuple(v))
    return basis


def eigen_spectrum(rows, p: int) -> list[tuple[int, list[tuple[int, ...]]]]:
    """(lambda, canonical basis of ker(M - lambda I)) for every lambda with a
    nonzero space, ascending."""
    out = []
    for lam in range(p):
        shifted = [[(v - (lam if i == j else 0)) % p for j, v in enumerate(row)]
                   for i, row in enumerate(rows)]
        basis = null_space(shifted, p)
        if basis:
            out.append((lam, basis))
    return out


def fixed_basis(rows, p: int) -> list[tuple[int, ...]]:
    return dict(eigen_spectrum(rows, p)).get(1 % p, [])


def codeword(message, generator, p: int) -> tuple[int, ...]:
    n = len(generator[0])
    return tuple(sum(u * row[j] for u, row in zip(message, generator)) % p
                 for j in range(n))


def walk(generator, p: int) -> tuple[int, str]:
    """Minimum nonzero weight and sha256 of the codebook in lexicographic
    message order (each word as bytes of its symbols).

    Odometer order: bumping message digit i by one adds generator row i, and
    a digit wrapping from p-1 to 0 also adds its row once (p * row = 0).
    """
    k, n = len(generator), len(generator[0])
    acc = [0] * n
    digest = hashlib.sha256(bytes(acc))
    best = n + 1
    u = [0] * k
    for _ in range(p ** k - 1):
        i = k - 1
        while True:
            acc = [(a + g) % p for a, g in zip(acc, generator[i])]
            u[i] = (u[i] + 1) % p
            if u[i] or i == 0:
                break
            i -= 1
        digest.update(bytes(acc))
        wt = n - acc.count(0)
        if 0 < wt < best:
            best = wt
    return best, digest.hexdigest()


def listing_sha256(generator, p: int) -> str:
    """sha256 of the `codewords` text listing, one word per line."""
    h = hashlib.sha256()
    for u in product(range(p), repeat=len(generator)):
        h.update((text(codeword(u, generator, p), p) + "\n").encode("ascii"))
    return h.hexdigest()


def petals(x) -> list[tuple[int, int]]:
    n = len(x)
    return [(k, (k + 1) % n) for k in range(n) if x[k] and x[(k + 1) % n]]


def thorns(x) -> list[int]:
    n = len(x)
    return [k for k in range(n) if x[k] and not x[k - 1] and not x[(k + 1) % n]]


def shades(x) -> list[str]:
    """Shade of each petal, in petal order.

    A run is a maximal cyclic stretch of consecutive petal starts.  Within a
    run shades alternate, and the run's numerically lowest start is light.
    When every position starts a petal, even starts are light.
    """
    n = len(x)
    starts = [k for k, _ in petals(x)]
    if len(starts) == n:
        return ["light" if k % 2 == 0 else "dark" for k in starts]
    s = set(starts)
    out = []
    for k in starts:
        # Step back to the run's head, collecting the run's members.
        head = k
        while (head - 1) % n in s:
            head = (head - 1) % n
        run = [head]
        while (run[-1] + 1) % n in s:
            run.append((run[-1] + 1) % n)
        offset = run.index(k) - run.index(min(run))
        out.append("light" if offset % 2 == 0 else "dark")
    return out


def _self_check() -> None:
    for rows, p, src, dst in _ANCHORS:
        if text(mat_vec(rows, digits(src), p), p) != dst:
            raise AssertionError(f"oracle transcription broken: {src} -> {dst}")
    if len(fixed_basis(GOLAY_T, 3)) != 6 or len(fixed_basis(HAMMING_T, 2)) != 4:
        raise AssertionError("oracle fixed-space dimensions are off")


_self_check()
GOLAY_BASIS = tuple(fixed_basis(GOLAY_T, 3))
