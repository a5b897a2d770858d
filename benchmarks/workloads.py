"""The four workloads: how each builds its program objects and its operations.

A workload is ``build(ff, inputs)``, the set-up that ``setup_s`` times, and
``ops(ff, built, inputs, out_dir)``, which returns the fixed list of
operations one round runs.  Reference answers come from ``oracle`` and are
computed while the operations are made, before anything is timed.

An ``Op`` has ``run(tracer)``, the timed call(s) into the package; ``check``,
which takes the output and returns None or a description of the mismatch;
``words``, the GF(p) words the operation processes; ``counts``, the layer
counters the output carries (read in traced passes only); ``walk``, set
on whole-codebook walks, which the memory pass measures; and ``kernel``, the
calibration kernel its time is scaled by: ``LISTING`` for the operations
that build megabytes of words or markup (walks, panels, verify, codeword
listings), ``WORDS`` for those that handle a word or a matrix at a time.

This module must not import fieldflower: ``setup_probe`` imports it first and
times the package import after.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import re
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import calibrate
import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# RenderSpec defaults; the checks derive expected colours from these.
LIGHT, DARK = "9ECAE1", "2171B5"


class Op(NamedTuple):
    kind: str
    words: int
    run: Callable
    check: Callable
    counts: Callable = lambda out: {}
    walk: bool = False
    kernel: calibrate.Kernel = calibrate.WORDS


def has_source() -> bool:
    return (SRC / "fieldflower" / "__init__.py").is_file()


def import_fieldflower():
    """Import the package from this checkout's source tree, never elsewhere."""
    sys.path.insert(0, str(SRC))
    ff = importlib.import_module("fieldflower")
    if Path(ff.__file__).resolve().parent != SRC / "fieldflower":
        raise ImportError(f"fieldflower imported from {ff.__file__}, not {SRC}")
    return ff


def _expect(got, want, what: str):
    return None if got == want else f"{what}: got {got!r}, expected {want!r}"


# ----------------------------------------------------------------- codebook_walk

def build_codebook_walk(ff, inp):
    codes = []
    for c in inp["codes"]:
        if c["name"] == "hamming":
            codes.append(ff.hamming_code())
        elif c["name"] == "golay":
            codes.append(ff.builtin_code("golay"))
        else:
            codes.append(ff.LinearCode(ff.MatrixOverGfp(c["p"], c["rows"])))
    return codes


def _listing_digest(words) -> str:
    h = hashlib.sha256()
    for w in words:
        h.update(bytes(w.symbols))
    return h.hexdigest()


# Walks of codes up to SMALL_WALK words run SMALL_WALK_REPEATS times a round.
# A round takes 7-10 s, so a run fits only three, and the small walks, where
# op_p50 lies, need more samples than that for a steady median.
SMALL_WALK = 16_384
SMALL_WALK_REPEATS = 4


def ops_codebook_walk(ff, codes, inp, out_dir):
    ops = []
    for code, c in zip(codes, inp["codes"]):
        size = c["p"] ** c["k"]
        d, digest = oracle.walk(c["rows"], c["p"])
        walks = [Op(
            f"minimum_distance {c['name']}", size,
            lambda tr, code=code: tr.call("codes.minimum_distance",
                                          ff.minimum_distance, code),
            lambda out, d=d, name=c["name"]: _expect(out, d, f"d of {name}"),
            lambda out, size=size: {"codes.codewords_visited": size},
            walk=True, kernel=calibrate.LISTING), Op(
            f"enumerate_codewords {c['name']}", size,
            lambda tr, code=code: tr.call("codes.enumerate_codewords",
                                          ff.enumerate_codewords, code),
            lambda out, size=size, digest=digest, name=c["name"]: (
                _expect(len(out), size, f"codeword count of {name}")
                or _expect(_listing_digest(out), digest, f"codeword order of {name}")),
            lambda out, size=size: {"codes.codewords_visited": size},
            walk=True, kernel=calibrate.LISTING)]
        ops += walks * (SMALL_WALK_REPEATS if size <= SMALL_WALK else 1)
    return ops


# ------------------------------------------------------------------- word_stream

def build_word_stream(ff, inp):
    built = {"golay_code": ff.builtin_code("golay")}
    for i, item in enumerate(inp["stream"]):
        if item[0] == "member":
            built[i] = ff.Word(3, item[1])
        elif item[0] == "matrix":
            built[i] = ff.MatrixOverGfp(item[1], item[2])
    return built


def _golay_op(ff, text):
    want = oracle.mat_vec(oracle.GOLAY_T, oracle.digits(text), 3)

    def run(tr):
        w = tr.call("gfield.parse_word", ff.parse_word, text, 3)
        a = tr.call("ntt.apply", ff.apply, ff.GOLAY, w)
        b = tr.call("ntt.apply_addition_only", ff.apply_addition_only, w)
        return w, a, b, tr.call("gfield.format_word", ff.format_word, b)

    def check(out):
        w, a, b, s = out
        return (_expect(w.symbols, oracle.digits(text), f"parse {text}")
                or _expect(a.symbols, want, f"apply(GOLAY, {text})")
                or _expect(b.symbols, want, f"apply_addition_only({text})")
                or _expect(s, oracle.text(want, 3), f"format of T({text})"))
    return Op("golay word", 2, run, check)


def _binary_op(ff, bits):
    want = oracle.mat_vec(oracle.HAMMING_T, bits, 2)

    def run(tr):
        w = tr.call("gfield.Word", ff.Word, 2, bits)
        a = tr.call("ntt.apply", ff.apply, ff.HAMMING, w)
        return a, tr.call("gfield.format_word", ff.format_word, a)

    def check(out):
        a, s = out
        return (_expect(a.symbols, want, f"apply(HAMMING, {bits})")
                or _expect(s, oracle.text(want, 2), f"format of T({bits})"))
    return Op("binary word", 1, run, check)


def _matrix_ops(ff, m, p, rows):
    ref_rref = oracle.rref(rows, p)
    ref_null = oracle.null_space(rows, p)
    ref_spec = oracle.eigen_spectrum(rows, p)
    label = f"{len(rows)}x{len(rows)} over GF({p})"
    return [
        Op("rref", 1,
           lambda tr: tr.call("modlinalg.rref", ff.rref, m),
           lambda out: _expect((out.rref.entries, out.rank, out.pivot_columns),
                               ref_rref, f"rref of {label}")),
        Op("null_space", 1,
           lambda tr: tr.call("modlinalg.null_space", ff.null_space, m),
           lambda out: _expect([w.symbols for w in out], ref_null,
                               f"null space of {label}")),
        Op("eigen_spectrum", 1,
           lambda tr: tr.call("ntt.eigen_spectrum", ff.eigen_spectrum, m),
           lambda out: _expect(
               [(s.eigenvalue.value, [w.symbols for w in s.basis]) for s in out],
               ref_spec, f"eigen spectrum of {label}"),
           lambda out: {"ntt.eigen.spaces": len(out), "ntt.eigen.lambdas": p}),
    ]


def ops_word_stream(ff, built, inp, out_dir):
    code = built["golay_code"]
    ops = []
    for i, item in enumerate(inp["stream"]):
        if item[0] == "golay":
            ops.append(_golay_op(ff, item[1]))
        elif item[0] == "binary":
            ops.append(_binary_op(ff, item[1]))
        elif item[0] == "member":
            ops.append(Op(
                "is_codeword", 1,
                lambda tr, w=built[i]: tr.call("codes.is_codeword",
                                               ff.is_codeword, code, w),
                lambda out, want=item[2], w=item[1]: _expect(
                    out, want, f"is_codeword({oracle.text(w, 3)})")))
        else:
            ops.extend(_matrix_ops(ff, built[i], item[1], item[2]))
    return ops


# ----------------------------------------------------------------- flower_render

def build_flower_render(ff, inp):
    pn = inp["panel"]
    return {
        "specs": [(ff.RenderSpec(grid=g, label=lab), g, lab)
                  for g in (True, False) for lab in (False, True)],
        "panel_spec": ff.RenderSpec(),
        "panel_words": [ff.Word(pn["p"], w) for w in pn["words"]],
        "words": [ff.Word(w["p"], w["symbols"]) for w in inp["words"]],
    }


def _element_classes(svg: str) -> list[str]:
    return re.findall(r'<\w+ class="(\w+)"', svg)


def _expected_elements(x, p: int, grid: bool, label: bool) -> list[str]:
    weight = sum(1 for s in x if s)
    out = ["axis"] * len(x) + ["ring"] * (p - 1) + ["arrow"] if grid else []
    out += ["petal"] * len(oracle.petals(x))
    out += ["outline"] if weight else []
    out += ["thorn"] * len(oracle.thorns(x)) + ["marker"] * weight
    return out + (["label"] if label else [])


def check_svg(svg_bytes: bytes, x, p: int, grid: bool, label: bool):
    """Element order, petal shading and label text of one flower document."""
    svg = svg_bytes.decode("ascii")
    if not (svg.startswith("<svg ") and svg.endswith("</svg>\n")):
        return "not a complete svg document"
    got = _element_classes(svg)
    bad = _expect(got, _expected_elements(x, p, grid, label), "svg elements")
    if bad:
        return bad
    fills = re.findall(r'class="petal" [^>]*fill="#(\w+)"', svg)
    colours = [LIGHT if s == "light" else DARK for s in oracle.shades(x)]
    bad = _expect(fills, colours, "petal shades")
    if bad or not label:
        return bad
    return _expect(re.findall(r">([^<]*)</text>", svg), [oracle.text(x, p)], "label")


def _expected_comments(x, p: int, grid: bool, label: bool) -> list[str]:
    out = ([f"axis {k}" for k in range(len(x))]
           + [f"ring {i}" for i in range(1, p)] + ["arrow"]) if grid else []
    out += [f"petal {i}" for i in range(len(oracle.petals(x)))]
    out += ["outline"] if any(x) else []
    out += [f"thorn {i}" for i in range(len(oracle.thorns(x)))]
    out += [f"marker {k}" for k, s in enumerate(x) if s]
    return out + (["label"] if label else [])


def check_tikz(tikz: str, x, p: int, grid: bool, label: bool):
    lines = tikz.splitlines()
    if lines[0] != "\\begin{tikzpicture}[x=1pt,y=1pt]" or lines[-1] != "\\end{tikzpicture}":
        return "not a complete tikzpicture"
    comments = [line.rsplit("; % ", 1)[-1] for line in lines[1:-1]]
    return _expect(comments, _expected_comments(x, p, grid, label), "tikz primitives")


def check_panel(data: bytes, words) -> str | None:
    """Cell, petal, thorn, marker and outline counts of a panel document."""
    if not (data.startswith(b"<svg ") and data.endswith(b"</svg>\n")):
        return "not a complete svg document"
    want = {
        b'<g class="cell"': len(words),
        b'class="petal"': sum(len(oracle.petals(x)) for x in words),
        b'class="thorn"': sum(len(oracle.thorns(x)) for x in words),
        b'class="marker"': sum(sum(1 for s in x if s) for x in words),
        b'class="outline"': sum(1 for x in words if any(x)),
    }
    for tag, n in want.items():
        bad = _expect(data.count(tag), n, f"panel {tag.decode()} count")
        if bad:
            return bad
    return None


def _render_op(ff, word, x, p, spec, grid, label, fmt):
    emitter = f"to_{fmt}"
    want_petals, want_thorns, want_shades = oracle.petals(x), oracle.thorns(x), oracle.shades(x)

    def run(tr):
        shape = tr.call("flowergeom.features", ff.features, word)
        shades = tr.call("flowergeom.petal_shades", ff.petal_shades, shape)
        return shape, shades, tr.call(f"render.{emitter}", getattr(ff, emitter), shape, spec)

    def check(out):
        shape, shades, doc = out
        return (_expect(list(shape.petals), want_petals, "petals")
                or _expect(list(shape.thorns), want_thorns, "thorns")
                or _expect(shades, want_shades, "petal shades")
                or (check_svg(doc, x, p, grid, label) if fmt == "svg"
                    else check_tikz(doc, x, p, grid, label)))

    counts = (lambda out: {"render.svg_bytes": len(out[2])}) if fmt == "svg" else (lambda out: {})
    return Op(f"{fmt} p={p} n={len(x)}", 1, run, check, counts)


def ops_flower_render(ff, built, inp, out_dir):
    pn = inp["panel"]
    words, spec = built["panel_words"], built["panel_spec"]
    # Panel bytes must not depend on worker count nor change between rounds.
    first = {}

    def panel_op(workers, span):
        def check(out):
            digest = hashlib.sha256(out).hexdigest()
            if first.setdefault("sha", digest) != digest:
                return f"panel bytes with workers={workers} differ from the first panel"
            return check_panel(out, pn["words"])
        return Op(f"panel workers={workers}", len(words),
                  lambda tr: tr.call(span, ff.panel, words, pn["columns"], spec, workers),
                  check, kernel=calibrate.LISTING)

    ops = [panel_op(1, "render.panel.serial"), panel_op(2, "render.panel.workers2")]
    for word, w in zip(built["words"], inp["words"]):
        for spec, grid, label in built["specs"]:
            for fmt in ("svg", "tikz"):
                ops.append(_render_op(ff, word, w["symbols"], w["p"],
                                      spec, grid, label, fmt))
    return ops


# ------------------------------------------------------------------- cli_session

def build_cli_session(ff, inp):
    return importlib.import_module("fieldflower.cli")


def _cli_call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _verify_report(d: int) -> Callable:
    """The known red check: exactly golay-code-parameters fails, at 12/13."""
    def check(out):
        code, text, err = out
        lines = text.splitlines()
        fails = [line for line in lines if line.startswith("FAIL ")]
        return (_expect(code, 1, "verify exit code")
                or _expect(len(lines), 14, "verify report lines")
                or _expect(fails, [f"FAIL golay-code-parameters: n=12 k=6 d={d}, "
                                   "expected n=12 k=6 d=6"], "verify failures")
                or _expect(lines[-1], "12/13 checks passed", "verify summary"))
    return check


def _stdout_is(want: str) -> Callable:
    return lambda out: (_expect(out[0], 0, "exit code")
                        or _expect(out[1], want + "\n", "stdout"))


def _file_check(path: Path, want_stdout: str, check_file) -> Callable:
    def check(out):
        return _stdout_is(want_stdout)(out) or check_file(path.read_bytes())
    return check


# The commands that build megabytes: verify walks codes and renders a panel.
BULK_COMMANDS = ("verify", "codewords", "panel")


def ops_cli_session(ff, cli, inp, out_dir):
    golay_d = oracle.walk(oracle.GOLAY_BASIS, 3)[0]
    hamming_d = oracle.walk(oracle.HAMMING_GENERATOR, 2)[0]
    listing = oracle.listing_sha256(oracle.GOLAY_BASIS, 3)
    spectrum = []
    for lam, basis in oracle.eigen_spectrum(oracle.GOLAY_T, 3):
        spectrum.append(f"lambda={lam} dim={len(basis)}")
        spectrum += [oracle.text(w, 3) for w in basis]
    invariants = oracle.fixed_basis(oracle.HAMMING_T, 2)
    codewords_path = out_dir / "codewords.txt"
    panel_path = out_dir / "panel.svg"

    def verify_counts(out):
        return {"verify.checks_passed": sum(
            1 for line in out[1].splitlines() if line.startswith("PASS "))}

    # (argv, words processed, check, counters)
    session = [
        (["verify"], 1, _verify_report(golay_d), verify_counts),
        (["mindist", "hamming"], 16, _stdout_is(f"n=7 k=4 d={hamming_d}"), None),
        (["mindist", "--code", "golay"], 729, _stdout_is(f"n=12 k=6 d={golay_d}"), None),
        (["codewords", "golay", "--out", str(codewords_path)], 729,
         _file_check(codewords_path, "words=729", lambda data: _expect(
             hashlib.sha256(data).hexdigest(), listing, "codewords listing")), None),
        (["spectrum", "golay"], 1, _stdout_is("\n".join(spectrum)), None),
        (["invariants", "hamming"], 1, _stdout_is("\n".join(
            [f"dim={len(invariants)}"] + [oracle.text(w, 2) for w in invariants])), None),
    ]
    for name, word in inp["transforms"]:
        t, p = (oracle.GOLAY_T, 3) if name == "golay" else (oracle.HAMMING_T, 2)
        session.append((["transform", name, word], 1, _stdout_is(
            oracle.text(oracle.mat_vec(t, oracle.digits(word), p), p)), None))
    session.append((["panel", "all-binary-7", "--out", str(panel_path)], 128,
                    _file_check(panel_path, "cells=128",
                                lambda data: check_panel(data, inp["panel_words"])), None))
    for i, (p, word) in enumerate(inp["renders"]):
        path = out_dir / f"render{i}.tikz"
        x = oracle.digits(word)
        session.append((
            ["render", word, "--p", str(p), "--format", "tikz", "--out", str(path)], 1,
            _file_check(path, f"petals={len(oracle.petals(x))} thorns={len(oracle.thorns(x))}",
                        lambda data, x=x, p=p: check_tikz(data.decode("ascii"), x, p,
                                                          True, False)), None))
    return [Op(f"cli {' '.join(argv[:2])}", words,
               lambda tr, argv=argv: tr.call(f"cli.{argv[0]}", _cli_call, cli, argv),
               check, counts or (lambda out: {}),
               kernel=calibrate.LISTING if argv[0] in BULK_COMMANDS else calibrate.WORDS)
            for argv, words, check, counts in session]


WORKLOADS = {
    "codebook_walk": (build_codebook_walk, ops_codebook_walk),
    "word_stream": (build_word_stream, ops_word_stream),
    "flower_render": (build_flower_render, ops_flower_render),
    "cli_session": (build_cli_session, ops_cli_session),
}
