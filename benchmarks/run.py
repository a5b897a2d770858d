"""fieldflower benchmark: one workload, fresh worker processes, one caller.

Usage (from the repository root):

    python3 benchmarks/run.py --workload codebook_walk --seed 1 --seconds 20 --trace 0

Each run measures set-up in fresh interpreters, then starts ``PROCESSES``
fresh worker interpreters one after another.  Each worker generates the
inputs from the seed, builds the workload's program objects and runs the
workload's fixed list of operations in rounds, one operation at a time (a
closed loop with a single caller), until its next round would overrun its
share of ``--seconds``.  Timings are in reference seconds (see
``calibrate``): each operation's wall time rescaled by a calibration kernel
timed beside it, so that the host's speed drifts cancel out; an operation's
latency is its median over the rounds of all workers, so that no single
interpreter's memory layout sets it.  Every output is checked against
``oracle`` outside the timed region; an exception or a mismatch counts as a
failed operation.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs in one
process, splits the time between an untraced and a traced pass, then runs a
tracemalloc pass over the codebook walks, and prints the per-layer metrics.
A layer metric the workload never reaches is taken from one traced round of
the tiny variant of the workloads that do reach it (listed under
``probed``).

The last line of stdout is the result object; the line before it carries
the run's context (Python, nproc, platform, seed, sample counts, input
sizes, tail percentile, raw wall times and any failures).  Exit code 2, with
no result, when the checkout holds no fieldflower source.
"""

from __future__ import annotations

import argparse
import array
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter, perf_counter_ns

import calibrate
import inputs
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 9
# Worker interpreters per end-to-end run.  Each runs at least one round: a
# codebook_walk round takes 6-8 s at the seed commit, so each walk's latency
# is a median of three.
PROCESSES = 3
TAIL_PERCENTILE = 95
MAX_FAILURE_NOTES = 5


class Pass:
    """Latencies, round times and failures of one pass over the rounds."""

    def __init__(self, kernels=()) -> None:
        # Arrays, not lists of numbers, to keep a long run's records small.
        # Start (perf_counter s), wall ns and, once the pass is over,
        # reference ns of each operation, in round order.
        self.starts = array.array("d")
        self.latencies = array.array("q")
        self.reference = array.array("d")
        self.speeds = {kernel: calibrate.Speed(kernel) for kernel in kernels}
        self.peak_rss_mb = 0.0
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, op, outcome: str | None) -> None:
        self.attempted += 1
        if outcome is not None:
            self.failed += 1
            if len(self.notes) < MAX_FAILURE_NOTES:
                self.notes.append(f"{op.kind}: {outcome}")

    def absorb(self, other: "Pass") -> None:
        """Count another pass's operations and failures as this one's."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes += other.notes[:MAX_FAILURE_NOTES - len(self.notes)]


def check(op, out) -> str | None:
    try:
        return op.check(out)
    except Exception as exc:  # a crashing check is a failed operation
        return f"check raised {type(exc).__name__}: {exc}"


def run_round(ops, tracer, result: Pass) -> None:
    for op in ops:
        tracer.op_id += 1
        for speed in result.speeds.values():
            speed.maybe_sample()
        result.starts.append(perf_counter())
        start = perf_counter_ns()
        try:
            out = op.run(tracer)
        except Exception as exc:
            out, outcome = None, f"raised {type(exc).__name__}: {exc}"
        else:
            outcome = None
        result.latencies.append(perf_counter_ns() - start)
        if outcome is None:
            outcome = check(op, out)
            if outcome is None:
                for name, value in op.counts(out).items():
                    tracer.count(name, value)
        result.record(op, outcome)
        del out
    result.rounds += 1


def peak_rss_mb() -> float:
    """This process's own peak resident set size, in MB.

    VmHWM rather than ``ru_maxrss``: a worker started by vfork and exec
    inherits the parent's peak as the floor of its ``ru_maxrss``.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_rounds(ops, tracer, seconds: float) -> Pass:
    """Whole rounds, at least one, while the next is predicted to fit (and
    the tracer has room for its spans)."""
    result = Pass({op.kernel for op in ops})
    start = perf_counter()
    while True:
        round_start = perf_counter()
        run_round(ops, tracer, result)
        if result.rounds == 1:
            # Read now: later rounds only grow the benchmark's own records,
            # by as much as a fast host fits more rounds in.
            result.peak_rss_mb = peak_rss_mb()
        now = perf_counter()
        if now - start + (now - round_start) > seconds or tracer.full():
            break
    for speed in result.speeds.values():
        speed.maybe_sample(force=True)
    for i, (begin, wall) in enumerate(zip(result.starts, result.latencies)):
        speed = result.speeds[ops[i % len(ops)].kernel]
        result.reference.append(speed.reference_ns(begin, wall))
    return result


def kernel_samples(p: Pass) -> dict[str, list[int]]:
    return {kernel.name: speed.samples for kernel, speed in p.speeds.items()}


def memory_pass(ops, result: Pass) -> list[float]:
    """tracemalloc peak, in MB, of each distinct codebook walk run on its own."""
    peaks = []
    tracemalloc.start()
    try:
        for op in dict.fromkeys(ops):
            if not op.walk:
                continue
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                out = op.run(spans.NullTracer)
            except Exception as exc:
                result.record(op, f"raised {type(exc).__name__}: {exc}")
                continue
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / 2**20)
            result.record(op, check(op, out))
            del out
    finally:
        tracemalloc.stop()
    return peaks


def setup_seconds(workload: str, seed: int, tiny: bool) -> list[tuple[float, float]]:
    """(reference, wall) set-up seconds, each pair measured in a fresh
    interpreter, one after another."""
    argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(argv + (["tiny"] if tiny else []), capture_output=True,
                              text=True, timeout=120, check=True)
        reference, wall = done.stdout.split()[-2:]
        samples.append((float(reference), float(wall)))
    return samples


def prepare(ff, workload: str, seed: int, tiny: bool, out_dir: Path):
    inp = inputs.generate(workload, seed, tiny)
    build, make_ops = workloads.WORKLOADS[workload]
    return inp, make_ops(ff, build(ff, inp), inp, out_dir)


def slots(ops) -> list[int]:
    """For each position in a round, the index of its distinct operation (an
    operation may fill several positions, as codebook_walk's small walks do)."""
    first: dict[int, int] = {}
    return [first.setdefault(id(op), len(first)) for op in ops]


def op_medians(samples, slot: list[int]) -> list[float]:
    """Each distinct operation's median over whole rounds of samples in
    position order, pooled over the positions it fills."""
    pooled: list[list] = [[] for _ in range(max(slot) + 1)]
    for i, x in enumerate(samples):
        pooled[slot[i % len(slot)]].append(x)
    return [statistics.median(v) for v in pooled]


def round_ns(samples, slot: list[int]) -> float:
    """A round's time: the median of the operation at each position, summed."""
    medians = op_medians(samples, slot)
    return sum(medians[s] for s in slot)


def tail(latencies) -> tuple[float, int]:
    """Latency at TAIL_PERCENTILE, and how many samples lie beyond it.

    The percentile is fixed rather than "the highest with ten samples
    beyond it", which would move to another operation kind with the sample
    count.
    """
    ordered = sorted(latencies)
    rank = math.ceil(len(ordered) * TAIL_PERCENTILE / 100) - 1
    return ordered[rank] / 1e6, len(ordered) - rank - 1


def worker(args) -> dict:
    """One worker interpreter's rounds, as plain data for the parent."""
    ff = workloads.import_fieldflower()
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        _, ops = prepare(ff, args.workload, args.seed, args.tiny, work_dir)
        # Keep the benchmark's own inputs and references out of the
        # collector's way; the program's garbage is still collected.
        gc.collect()
        gc.freeze()
        p = run_rounds(ops, spans.NullTracer, args.seconds)
    finally:
        shutil.rmtree(work_dir)
    return {"slots": slots(ops), "words": sum(op.words for op in ops),
            "rounds": p.rounds, "attempted": p.attempted, "failed": p.failed,
            "notes": p.notes, "peak_rss_mb": p.peak_rss_mb,
            "kernel_ns": kernel_samples(p), "wall_ns": p.latencies.tolist(),
            "reference_ns": p.reference.tolist()}


def run_workers(args) -> list[dict]:
    """``PROCESSES`` fresh workers, one after another, sharing ``--seconds``."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--worker",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds / PROCESSES)] + (["--tiny"] if args.tiny else [])
    runs = []
    for _ in range(PROCESSES):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=150)
        if done.returncode:
            raise RuntimeError(f"worker exited {done.returncode}: {done.stderr[-2000:]}")
        runs.append(json.loads(done.stdout.splitlines()[-1]))
    return runs


def end_to_end(runs: list[dict], setup: list[tuple[float, float]], counted: Pass):
    slot, words = runs[0]["slots"], runs[0]["words"]
    for r in runs:
        counted.attempted += r["attempted"]
        counted.failed += r["failed"]
        counted.notes += r["notes"][:MAX_FAILURE_NOTES - len(counted.notes)]
    reference = [x for r in runs for x in r["reference_ns"]]
    latency = op_medians(reference, slot)
    run_s = round_ns(reference, slot) / 1e9
    tail_ms, beyond = tail(latency)
    metrics = {
        "setup_s": (statistics.median(ref for ref, _ in setup), "s"),
        "run_s": (run_s, "s"),
        "words_per_s": (words / run_s, "1/s"),
        "op_p50_ms": (statistics.median(latency) / 1e6, "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        "ok_ratio": ((counted.attempted - counted.failed) / counted.attempted, "ratio"),
    }
    kernels = {name: [k for r in runs for k in r["kernel_ns"][name]]
               for name in runs[0]["kernel_ns"]}
    samples = {"setup_s": len(setup), "processes": len(runs),
               "rounds": [r["rounds"] for r in runs], "ops_per_round": len(slot), "distinct_ops": len(latency),
               "speed_samples": {name: len(k) for name, k in kernels.items()},
               "peak_rss_mb": len(runs),
               "ok_ratio": counted.attempted}
    extra = {"op_tail_percentile": TAIL_PERCENTILE, "op_tail_beyond": beyond,
             "words_per_round": words,
             "failed_ratio": counted.failed / counted.attempted,
             "wall_setup_s": statistics.median(wall for _, wall in setup),
             "wall_run_s": round_ns([x for r in runs for x in r["wall_ns"]], slot) / 1e9,
             "kernel_ms": {name: statistics.median(k) / 1e6
                           for name, k in kernels.items()}}
    return metrics, samples, extra


# Per-layer metrics: name -> (unit, reader).  A reader takes a LayerView and
# returns None when the pass has no samples for the metric.
class LayerView:
    def __init__(self, tracer, rounds: int, peaks: list[float]) -> None:
        self.durations = tracer.durations()
        self.counters = tracer.counters
        self.calls = tracer.layer_calls()
        self.self_ns = tracer.self_ns()
        self.rounds = rounds
        self.peaks = peaks


def _median_of(span, factor):
    def read(v):
        d = v.durations.get(span)
        return statistics.median(d) / factor if d else None
    return read


def _per_round_s(span):
    def read(v):
        d = v.durations.get(span)
        return sum(d) / 1e9 / v.rounds if d else None
    return read


def _counter_median(name):
    def read(v):
        c = v.counters.get(name)
        return statistics.median(c) if c else None
    return read


def _counter_per_round(name):
    def read(v):
        c = v.counters.get(name)
        return sum(c) / v.rounds if c else None
    return read


def _layer_calls(layer):
    return lambda v: v.calls[layer] / v.rounds if v.calls.get(layer) else None


def _layer_self(layer):
    return lambda v: v.self_ns[layer] / 1e9 / v.rounds if v.calls.get(layer) else None


def _spaces_per_lambda(v):
    lambdas = sum(v.counters.get("ntt.eigen.lambdas", []))
    return sum(v.counters["ntt.eigen.spaces"]) / lambdas if lambdas else None


def _pool_ratio(v):
    serial = v.durations.get("render.panel.serial")
    pooled = v.durations.get("render.panel.workers2")
    return sum(pooled) / sum(serial) if serial and pooled else None


CLI_COMMANDS = ("verify", "mindist", "codewords", "spectrum", "invariants",
                "transform", "panel", "render")
US_SPANS = ("gfield.parse_word", "gfield.Word", "gfield.format_word",
            "modlinalg.mat_vec", "ntt.apply", "ntt.apply_addition_only",
            "codes.is_codeword", "modlinalg.rref", "ntt.eigen_spectrum",
            "flowergeom.features", "flowergeom.petal_shades",
            "render.to_svg", "render.to_tikz")

PER_LAYER = {}
for _layer in spans.LAYERS:
    PER_LAYER[f"{_layer}.calls"] = ("count", _layer_calls(_layer))
    PER_LAYER[f"{_layer}.self_s"] = ("s", _layer_self(_layer))
PER_LAYER.update({
    "codes.minimum_distance.s": ("s", _per_round_s("codes.minimum_distance")),
    "codes.enumerate_codewords.s": ("s", _per_round_s("codes.enumerate_codewords")),
    "codes.codewords_visited": ("count", _counter_per_round("codes.codewords_visited")),
    "codes.walk_peak_alloc_mb": ("MB", lambda v: max(v.peaks) if v.peaks else None),
    "ntt.eigen.spaces_per_lambda": ("ratio", _spaces_per_lambda),
    "render.svg_bytes": ("bytes", _counter_median("render.svg_bytes")),
    "render.panel.serial_s": ("s", _per_round_s("render.panel.serial")),
    "render.panel.workers2_s": ("s", _per_round_s("render.panel.workers2")),
    "render.panel.pool_ratio": ("ratio", _pool_ratio),
    "verify.run_checks.s": ("s", _median_of("verify.run_checks", 1e9)),
    "verify.checks_passed": ("count", _counter_median("verify.checks_passed")),
})
for _span in US_SPANS:
    PER_LAYER[f"{_span}.us"] = ("us", _median_of(_span, 1e3))
for _cmd in CLI_COMMANDS:
    PER_LAYER[f"cli.{_cmd}.ms"] = ("ms", _median_of(f"cli.{_cmd}", 1e6))
PER_LAYER["trace.overhead_ratio"] = ("ratio", None)
PER_LAYER["wall.run_s"] = ("s", None)


def traced_pass(ff, ops, seconds: float):
    tracer = spans.Tracer()
    with spans.boundaries(ff, tracer):
        result = run_rounds(ops, tracer, seconds)
    return tracer, result


def per_layer(ff, workload, seed, ops, seconds, work_dir, spans_path, counted: Pass):
    plain = run_rounds(ops, spans.NullTracer, seconds / 2)
    tracer, traced = traced_pass(ff, ops, seconds / 2)
    peaks = memory_pass(ops, counted)
    counted.absorb(plain)
    counted.absorb(traced)
    tracer.write(spans_path)
    rounds = traced.rounds
    view = LayerView(tracer, rounds, peaks)
    values = {name: read(view) for name, (_, read) in PER_LAYER.items() if read}
    probed = sorted(name for name, v in values.items() if v is None)
    for other in workloads.WORKLOADS if probed else ():
        if other == workload:
            continue
        _, tiny_ops = prepare(ff, other, seed, True, work_dir)
        probe, p = traced_pass(ff, tiny_ops, 0)
        probe_view = LayerView(probe, 1, memory_pass(tiny_ops, p))
        for name in probed:
            if values[name] is None:
                values[name] = PER_LAYER[name][1](probe_view)
        counted.absorb(p)
    slot = slots(ops)
    values["trace.overhead_ratio"] = (round_ns(traced.reference, slot)
                                      / round_ns(plain.reference, slot))
    values["wall.run_s"] = round_ns(plain.latencies, slot) / 1e9
    metrics = {name: (values[name], unit) for name, (unit, _) in PER_LAYER.items()}
    samples = {"untraced_rounds": plain.rounds, "traced_rounds": rounds,
               "spans": len(tracer.spans), "walk_peaks": len(peaks)}
    return metrics, samples, {"probed": probed, "kernel_ms": {
        name: statistics.median(k) / 1e6 for name, k in kernel_samples(plain).items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the smoke test")
    parser.add_argument("--worker", action="store_true",
                        help="internal: one worker interpreter of an end-to-end run")
    args = parser.parse_args(argv)
    if not workloads.has_source():
        print(f"error: no fieldflower source under {workloads.SRC}", file=sys.stderr)
        return 2
    if args.worker:
        print(json.dumps(worker(args)))
        return 0

    inp = inputs.generate(args.workload, args.seed, args.tiny)
    counted = Pass()
    if args.trace:
        ff = workloads.import_fieldflower()
        work_dir = OUT_DIR / f"work-{os.getpid()}"
        work_dir.mkdir(parents=True, exist_ok=True)
        try:
            _, ops = prepare(ff, args.workload, args.seed, args.tiny, work_dir)
            gc.collect()
            gc.freeze()
            spans_path = OUT_DIR / (f"spans-{args.workload}-{args.seed}"
                                    f"{'-tiny' if args.tiny else ''}.jsonl")
            metrics, samples, extra = per_layer(ff, args.workload, args.seed, ops,
                                                args.seconds, work_dir, spans_path,
                                                counted)
            extra["spans_file"] = str(spans_path.relative_to(BENCH_DIR.parent))
        finally:
            shutil.rmtree(work_dir)
    else:
        setup = setup_seconds(args.workload, args.seed, args.tiny)
        metrics, samples, extra = end_to_end(run_workers(args), setup, counted)

    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "platform": platform.platform(), "samples": samples,
        "sizes": inputs.sizes(args.workload, inp), "failures": counted.notes, **extra,
    }
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": counted.failed == 0,
        "attempted": counted.attempted,
        "failed": counted.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
