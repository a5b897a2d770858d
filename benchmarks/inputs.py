"""Seeded input generation for every workload.

Inputs are plain Python data (tuples, digit strings); the program under test
only ever sees these.  The same (workload, seed, tiny) triple always gives the
same inputs: each workload draws from its own ``random.Random`` stream seeded
with a string, whose seeding is stable across runs and platforms.
"""

from __future__ import annotations

import random

import oracle

# Random codes of codebook_walk as (n, k, p); sizes p**k span 4,096..65,536.
WALK_CODES = ((20, 10, 3), (32, 16, 2), (16, 8, 3), (24, 12, 2), (10, 6, 5))
TINY_WALK_CODES = ((8, 4, 2), (6, 3, 3), (5, 2, 5))

RENDER_PRIMES = (2, 3, 5, 7)
RENDER_LENGTHS = range(5, 17)
MATRIX_SIZES = (3, 4, 5, 6)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"fieldflower-bench:{workload}:{seed}")


def _word(rng: random.Random, n: int, p: int) -> tuple[int, ...]:
    return tuple(rng.randrange(p) for _ in range(n))


def random_generator(rng: random.Random, n: int, k: int, p: int):
    """A full-rank k x n generator; rank-deficient draws are redrawn."""
    while True:
        rows = tuple(_word(rng, n, p) for _ in range(k))
        if oracle.rank(rows, p) == k:
            return rows


def codebook_walk(seed: int, tiny: bool) -> dict:
    rng = _rng("codebook_walk", seed)
    codes = [{"name": "hamming", "n": 7, "k": 4, "p": 2,
              "rows": oracle.HAMMING_GENERATOR},
             {"name": "golay", "n": 12, "k": 6, "p": 3,
              "rows": oracle.GOLAY_BASIS}]
    for n, k, p in TINY_WALK_CODES if tiny else WALK_CODES:
        codes.append({"name": f"[{n},{k}]_{p}", "n": n, "k": k, "p": p,
                      "rows": random_generator(rng, n, k, p)})
    return {"codes": codes}


def word_stream(seed: int, tiny: bool) -> dict:
    """A shuffled stream of golay words, binary words, membership queries
    (alternately codeword / non-codeword) and small square matrices."""
    rng = _rng("word_stream", seed)
    scale = 1 if tiny else 30
    stream = [("golay", oracle.text(_word(rng, 12, 3), 3)) for _ in range(20 * scale)]
    stream += [("binary", _word(rng, 7, 2)) for _ in range(10 * scale)]
    for i in range(4 * scale):
        if i % 2 == 0:
            w = oracle.codeword(_word(rng, 6, 3), oracle.GOLAY_BASIS, 3)
        else:
            w = _word(rng, 12, 3)
            while oracle.rank(oracle.GOLAY_BASIS + (w,), 3) == 6:
                w = _word(rng, 12, 3)
        stream.append(("member", w, i % 2 == 0))
    for p in RENDER_PRIMES[:1] if tiny else RENDER_PRIMES:
        for n in MATRIX_SIZES[:1] if tiny else MATRIX_SIZES:
            stream.append(("matrix", p, tuple(_word(rng, n, p) for _ in range(n))))
    rng.shuffle(stream)
    return {"stream": stream}


def _all_words(n: int, p: int) -> list[tuple[int, ...]]:
    """Every length-n word, integers 0..p**n-1 with the most significant digit first."""
    return [tuple((i // p ** (n - 1 - j)) % p for j in range(n))
            for i in range(p ** n)]


def flower_render(seed: int, tiny: bool) -> dict:
    rng = _rng("flower_render", seed)
    panel_n = 4 if tiny else 7
    words = []
    for p in RENDER_PRIMES:
        for n in (RENDER_LENGTHS[:1] if tiny else RENDER_LENGTHS):
            words.append({"p": p, "symbols": _word(rng, n, p)})
    return {"panel": {"p": 3, "n": panel_n, "columns": 27,
                      "words": _all_words(panel_n, 3)},
            "words": words}


def cli_session(seed: int, tiny: bool) -> dict:
    rng = _rng("cli_session", seed)
    transforms = [("golay", oracle.text(_word(rng, 12, 3), 3)) for _ in range(2)]
    transforms += [("hamming", oracle.text(_word(rng, 7, 2), 2)) for _ in range(2)]
    renders = [(p, oracle.text(_word(rng, n, p), p)) for p, n in ((3, 9), (5, 13))]
    return {"transforms": transforms, "renders": renders,
            "panel_words": _all_words(7, 2)}


GENERATORS = {
    "codebook_walk": codebook_walk,
    "word_stream": word_stream,
    "flower_render": flower_render,
    "cli_session": cli_session,
}


def generate(workload: str, seed: int, tiny: bool = False) -> dict:
    return GENERATORS[workload](seed, tiny)


def sizes(workload: str, inp: dict) -> dict:
    """The input sizes recorded beside every result."""
    if workload == "codebook_walk":
        return {"codes": [f"{c['name']} n={c['n']} k={c['k']} p={c['p']} "
                          f"size={c['p'] ** c['k']}" for c in inp["codes"]]}
    if workload == "word_stream":
        kinds = [item[0] for item in inp["stream"]]
        return {"golay_words": kinds.count("golay"), "binary_words": kinds.count("binary"),
                "membership_queries": kinds.count("member"),
                "matrices": [f"{len(it[2])}x{len(it[2])} p={it[1]}"
                             for it in inp["stream"] if it[0] == "matrix"]}
    if workload == "flower_render":
        pn = inp["panel"]
        return {"panel_cells": len(pn["words"]), "panel_word": f"n={pn['n']} p={pn['p']}",
                "rendered_words": len(inp["words"]),
                "lengths": sorted({len(w["symbols"]) for w in inp["words"]})}
    return {"transforms": len(inp["transforms"]), "renders": len(inp["renders"]),
            "panel_cells": len(inp["panel_words"])}
