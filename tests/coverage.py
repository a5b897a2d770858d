"""Line coverage of src/fieldflower under the tests, by the stdlib trace module.

Run from anywhere, with pytest and hypothesis installed:

    python tests/coverage.py [pytest arguments]

With no arguments it runs all of tests/ (tier-1), in this process, under
trace.Trace; arguments go to pytest in their place.  It then prints, for
each module of src/fieldflower, the executable lines some test reached out
of all of them, and the numbers of the lines none reached.  A line is
executable when the module's compiled code maps an instruction to it, as
trace counts lines.  Code that tests run in a subprocess is not seen.
Every line of every module is traced, so the run takes about ten times as
long as pytest alone, about four minutes for tier-1.  The exit status is
pytest's.  Pytest does not collect this file: its name does not match
test_*.py.
"""

import dis
import sys
import trace
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fieldflower"


def executable_lines(path: Path) -> set[int]:
    """The lines of the module at path that its compiled code reaches."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def ranges(lines: list[int]) -> str:
    """Ascending line numbers as text, runs joined: [3, 5, 6, 7] is '3, 5-7'."""
    runs = []
    for line in lines:
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(args: list[str]) -> int:
    # pyproject.toml's test path puts src first, so the traced package is this one
    tracer = trace.Trace(count=1, trace=0)
    status = tracer.runfunc(pytest.main, ["-q", "-p", "no:cacheprovider",
                                          "-c", str(ROOT / "pyproject.toml"),
                                          *(args or ["--continue-on-collection-errors",
                                                     str(ROOT / "tests")])])
    reached = {}
    for filename, line in tracer.results().counts:
        reached.setdefault(Path(filename).resolve(), set()).add(line)
    total_hit = total_lines = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        hit = lines & reached.get(path, set())
        total_hit, total_lines = total_hit + len(hit), total_lines + len(lines)
        print(f"{path.stem:12} {len(hit):4} of {len(lines):4} lines  "
              f"{100 * len(hit) / len(lines):5.1f}%", flush=True)
        if hit != lines:
            print(f"{'':12} not reached: {ranges(sorted(lines - hit))}")
    print(f"{'all':12} {total_hit:4} of {total_lines:4} lines  "
          f"{100 * total_hit / total_lines:5.1f}%")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
