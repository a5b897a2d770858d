"""A mutation catalogue for the package's fast paths, and the tool that runs it.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py

Each mutant is one exact-text change to one module of src/fieldflower.  For
each, src/ is copied to a temporary directory and changed there; then the
mutant's test files run against the copy in one pytest subprocess with -x.
A mutant whose tests fail is killed, one whose tests pass survived.  The
working tree is never edited, and one subprocess runs at a time.

The exit status is 1 when a mutant survives or when its text no longer
occurs exactly once in its module, so a refactor that moves code must
update the catalogue.  Add an entry for each fast path added.

Mutants marked "work" change only how much is computed, not what comes
out; only a test that counts work can kill them.  Pytest does not collect
this file: its name does not match test_*.py.
"""

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    module: str
    what: str
    old: str
    new: str
    tests: tuple[str, ...]
    work: bool = False


MODLINALG, NTT = ("tests/test_modlinalg.py",), ("tests/test_ntt.py",)
CODES = ("tests/test_codes.py",)
FLOWER = ("tests/test_flowergeom.py", "tests/test_render.py")

CATALOGUE = (
    Mutant("modlinalg", "_eliminate: the clearing add not reduced",
           "a[i] = s - p * (((s + bias) & top) >> w - 1)", "a[i] = s", MODLINALG),
    Mutant("modlinalg", "_eliminate: the pivot search starts one row late",
           "for i in range(r, len(a)):\n            if a[i] >> shift & mask:",
           "for i in range(r + 1, len(a)):\n            if a[i] >> shift & mask:", MODLINALG),
    Mutant("modlinalg", "_Lanes.times: no reduction after doubling",
           "y += y\n            y -= p * (((y + bias) & top) >> w)\n", "y += y\n", MODLINALG),
    Mutant("modlinalg", "_null_basis: the pivot entries not negated",
           "v[pc] = (-rows[i][f]) % p", "v[pc] = rows[i][f] % p", MODLINALG),
    Mutant("modlinalg", "mat_vec: two-byte lanes through the one-byte translate",
           "if size == 1:", "if size <= 2:", MODLINALG),
    Mutant("ntt", "_char_poly: no column swap",
           "row[s], row[i] = row[i], row[s]", "row[s], row[i] = row[s], row[i]", NTT),
    Mutant("ntt", "_char_poly: the compensating column operation with the wrong sign",
           "row[s] = (row[s] + sum(", "row[s] = (row[s] - sum(", NTT),
    Mutant("ntt", "_roots: lambda = 0 skipped",
           "roots = []\n    for lam in range(p):", "roots = []\n    for lam in range(1, p):", NTT),
    Mutant("ntt", "_eigen_space_for: the basis reversed for every lambda > 1",
           "tuple(_null_basis(p, m.cols, *_eliminate(p, shifted))))",
           "tuple(_null_basis(p, m.cols, *_eliminate(p, shifted)))[::-1 if lam > 1 else 1])", NTT),
    Mutant("codes", "search: the bound raised by one",
           "max(0, s.level + 1 - k + s.r)", "max(0, s.level + 2 - k + s.r)", CODES),
    Mutant("codes", "search: r counted over all pivots",
           "self.r = len(pivots.intersection(range(len(unused))))", "self.r = len(pivots)", CODES),
    Mutant("codes", "search: the build gate <= made <",
           "if len(unused) <= k - w:", "if len(unused) < k - w:", CODES, work=True),
    Mutant("codes", "search: the stop test g.r == w == k made g.r == k",
           "or g.r == w == k:", "or g.r == k:", CODES),
    Mutant("codes", "search: the prefixes skip a row",
           "for j in range(i + 1, stop):", "for j in range(i + 2, stop):", CODES),
    Mutant("codes", "search: the G_j column order with the unused columns last",
           "itemgetter(*unused, *sorted(set(range(n)).difference(unused)))",
           "itemgetter(*sorted(set(range(n)).difference(unused)), *unused)", CODES),
    Mutant("codes", "_block_sums: the last block's count one short",
           "yield m - room // size, block()", "yield m - room // size - 1, block()", CODES),
    Mutant("codes", "weights: the bias off by one lane unit",
           "block.top - block.one", "block.top - 2 * block.one", CODES),
    Mutant("flowergeom", "_plan: the petal rule's right neighbour made the left",
           "starts = [k for k in range(n) if x[k] and x[k + 1 - n]]",
           "starts = [k for k in range(n) if x[k] and x[k - 1]]", FLOWER),
    Mutant("flowergeom", "_plan: the thorn rule without its left neighbour",
           "if x[k] and not x[k - 1] and not x[k + 1 - n])", "if x[k] and not x[k + 1 - n])",
           FLOWER),
    Mutant("flowergeom", "_shade_parities: the seam never counted",
           "seam = 0 < len(starts) < n and starts[0] == 0", "seam = False", FLOWER),
    Mutant("flowergeom", "features: plans kept past MAX_AXES",
           "if len(support) <= MAX_AXES else", "if True else", FLOWER, work=True),
    Mutant("render", "_Axis: points never kept",
           "if self.keep:\n", "if False:\n", ("tests/test_render.py",), work=True),
    Mutant("gfield", "parse_word: the digit p let through",
           "if max(digits) < p:", "if max(digits) <= p:", ("tests/test_gfield.py",)),
    Mutant("verify", "failure naming without the reversal",
           "for row in reversed(code.generator.entries):", "for row in code.generator.entries:",
           ("tests/test_verify.py",)),
    Mutant("verify", "the unit words v = 2 dropped",
           "for v in (1, 2))", "for v in (1,))", ("tests/test_verify.py",)),
)


def run(mutant: Mutant, scratch: Path) -> str:
    """'killed', 'survived' or 'stale' (the text is not there exactly once)."""
    src = scratch / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "fieldflower" / f"{mutant.module}.py"
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return "stale"
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    # pyproject.toml's test path, with the mutated copy in place of src
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "-o", f"pythonpath={src} benchmarks", *mutant.tests],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return {0: "survived", 1: "killed"}.get(proc.returncode, f"error {proc.returncode}")


def main() -> int:
    outcomes = []
    with tempfile.TemporaryDirectory() as scratch:
        for number, mutant in enumerate(CATALOGUE, 1):
            start = time.perf_counter()
            outcome = run(mutant, Path(scratch))
            outcomes.append(outcome)
            print(f"{number:2} {outcome:8} {time.perf_counter() - start:5.1f}s  "
                  f"{mutant.module}: {mutant.what}{' (work)' if mutant.work else ''}",
                  flush=True)
    killed = outcomes.count("killed")
    print(f"{killed} of {len(CATALOGUE)} mutants killed")
    return 0 if killed == len(CATALOGUE) else 1


if __name__ == "__main__":
    sys.exit(main())
