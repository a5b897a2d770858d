"""One set-up sample in a fresh interpreter; prints its reference seconds and
its wall seconds on stdout.

Usage: python3 benchmarks/setup_probe.py <workload> <seed> [tiny]

Times the import of fieldflower plus the workload's ``build`` (its codes,
transforms, words and RenderSpecs).  Input generation is the benchmark's own
work and happens before the clock starts.  The wall time is rescaled to
reference seconds by the calibration kernel ``WORDS``, timed just after it
(see ``calibrate``): importing and building make no big lists.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns

import calibrate
import inputs
import workloads


def main(argv: list[str]) -> None:
    name, seed, tiny = argv[0], int(argv[1]), argv[2:] == ["tiny"]
    inp = inputs.generate(name, seed, tiny)
    build = workloads.WORKLOADS[name][0]
    start = perf_counter_ns()
    build(workloads.import_fieldflower(), inp)
    wall = perf_counter_ns() - start
    kernel = calibrate.WORDS
    reference = wall * kernel.nominal_ns / calibrate.sample_ns(kernel)
    print(repr(reference / 1e9), repr(wall / 1e9))


if __name__ == "__main__":
    main(sys.argv[1:])
