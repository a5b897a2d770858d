"""Command-line surface: transforms, codes, rendering, and verification.

Exit code contract: 0 on success, 1 when a verification check fails, 2 on
usage errors (bad arguments, unparseable words, I/O trouble, a stdout
closed before the output was written).  All words on stdin/stdout use the
canonical digit-string form with x_0 leftmost.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from .codes import BUILTIN_CODES, builtin_code, enumerate_codewords, \
    minimum_distance
from .flowergeom import features
from .gfield import _all_binary_7, _is_decimal, format_word, \
    format_word_list, parse_word, parse_word_list
from .modlinalg import MatrixOverGfp, mat_vec, parse_matrix
from .ntt import BUILTIN_TRANSFORMS, eigen_spectrum, fixed_space
from .render import RenderSpec, _require_drawable, panel, to_svg, to_tikz
from .verify import format_report, run_checks


def _decimal(text: str) -> int:
    """argparse type for integer options: an ASCII numeral [0-9]+ only."""
    if not _is_decimal(text):
        raise argparse.ArgumentTypeError(f"expected ASCII digits 0-9, got {text!r}")
    return int(text)


def _render_spec_from(args: argparse.Namespace) -> RenderSpec:
    return RenderSpec(**{name: getattr(args, name) for name in RenderSpec.__match_args__})


def _add_render_options(sub: argparse.ArgumentParser) -> None:
    """One option per RenderSpec field, its dest the field name."""
    d = RenderSpec()
    sub.add_argument("--canvas", type=float, default=d.canvas,
                     help="cell side length in abstract units")
    sub.add_argument("--radius-scale", type=float, default=d.radius_scale,
                     help="units per field value")
    sub.add_argument("--stroke-width", type=float, default=d.stroke_width)
    sub.add_argument("--light-color", default=d.light_color,
                     help="6-hex-digit RGB for light petals")
    sub.add_argument("--dark-color", default=d.dark_color,
                     help="6-hex-digit RGB for dark petals, thorns, markers")
    sub.add_argument("--marker-radius", type=float, default=d.marker_radius)
    sub.add_argument("--no-grid", dest="grid", action="store_false",
                     help="omit the polar grid behind each flower")
    sub.add_argument("--label", action="store_true",
                     help="print the word under each flower")


def _add_transform_choice(sub: argparse.ArgumentParser) -> None:
    """argparse takes exactly one transform: a built-in name or --matrix-file."""
    one = sub.add_mutually_exclusive_group(required=True)
    one.add_argument("name", nargs="?", choices=BUILTIN_TRANSFORMS)
    one.add_argument("--matrix-file", help="matrix text file instead of a name")


def _add_code_choice(sub: argparse.ArgumentParser) -> None:
    """argparse takes exactly one code: a built-in name or --code."""
    one = sub.add_mutually_exclusive_group(required=True)
    one.add_argument("code_name", nargs="?", metavar="code", choices=BUILTIN_CODES,
                     help="built-in code: %(choices)s")
    one.add_argument("--code", choices=BUILTIN_CODES,
                     help="alternative to the positional name")


def _matrix(args: argparse.Namespace) -> MatrixOverGfp:
    if args.matrix_file is not None:
        return parse_matrix(Path(args.matrix_file).read_text(encoding="utf-8"))
    return BUILTIN_TRANSFORMS[args.name].matrix


def cmd_transform(args: argparse.Namespace) -> tuple[int, str]:
    m = _matrix(args)
    return 0, format_word(mat_vec(m, parse_word(args.word, m.modulus)))


def cmd_invariants(args: argparse.Namespace) -> tuple[int, str]:
    space = fixed_space(_matrix(args))
    lines = [f"dim={space.dimension}"]
    lines.extend(format_word(w) for w in space.basis)
    return 0, "\n".join(lines)


def cmd_spectrum(args: argparse.Namespace) -> tuple[int, str]:
    lines = []
    for space in eigen_spectrum(_matrix(args)):
        lines.append(f"lambda={space.eigenvalue.value} dim={space.dimension}")
        lines.extend(format_word(w) for w in space.basis)
    if not lines:
        lines.append("no eigenvalues in the base field")
    return 0, "\n".join(lines)


def cmd_render(args: argparse.Namespace) -> tuple[int, str]:
    spec = _render_spec_from(args)
    word = parse_word(args.word, args.p)
    _require_drawable(len(word), word.modulus)
    shape = features(word)
    out = args.out or f"{args.word}.{args.format}"
    if args.format == "svg":
        Path(out).write_bytes(to_svg(shape, spec))
    else:
        Path(out).write_text(to_tikz(shape, spec), encoding="utf-8")
    return 0, f"petals={len(shape.petals)} thorns={len(shape.thorns)}"


def cmd_panel(args: argparse.Namespace) -> tuple[int, str]:
    spec = _render_spec_from(args)
    words = (_all_binary_7() if args.source == "all-binary-7" else
             parse_word_list(Path(args.source).read_text(encoding="utf-8"), args.p))
    data = panel(words, columns=args.columns, spec=spec, workers=args.workers)
    Path(args.out).write_bytes(data)
    return 0, f"cells={len(words)}"


def cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
    results = run_checks()
    code = 0 if all(r.passed for r in results) else 1
    return code, format_report(results)


def cmd_mindist(args: argparse.Namespace) -> tuple[int, str]:
    code = builtin_code(args.code_name or args.code)
    return 0, f"n={code.length} k={code.dimension} d={minimum_distance(code)}"


def cmd_codewords(args: argparse.Namespace) -> tuple[int, str]:
    code = builtin_code(args.code_name or args.code)
    listing = format_word_list(enumerate_codewords(code))
    if args.out:
        Path(args.out).write_text(listing, encoding="utf-8")
        return 0, f"words={code.size}"
    return 0, listing.rstrip("\n")


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fieldflower",
        description="Finite-field transforms, linear block codes, and "
                    "flower renderings of GF(p) words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("transform", help="apply a transform to a word")
    _add_transform_choice(tr)
    tr.add_argument("word", help="input word, digit string with x_0 leftmost")
    tr.set_defaults(handler=cmd_transform)

    inv = sub.add_parser("invariants",
                         help="canonical basis of the fixed space of a transform")
    _add_transform_choice(inv)
    inv.set_defaults(handler=cmd_invariants)

    sp = sub.add_parser("spectrum",
                        help="all eigenspaces of a transform over its base field")
    _add_transform_choice(sp)
    sp.set_defaults(handler=cmd_spectrum)

    rd = sub.add_parser("render", help="draw one word as a flower")
    rd.add_argument("word", help="word to draw")
    rd.add_argument("--p", type=_decimal, default=2, help="field modulus (default 2)")
    rd.add_argument("--format", choices=("svg", "tikz"), default="svg")
    rd.add_argument("--out", help="output path (default <word>.<format>)")
    _add_render_options(rd)
    rd.set_defaults(handler=cmd_render)

    pn = sub.add_parser("panel", help="draw many words in a grid layout")
    pn.add_argument("source",
                    help="word-list file, or all-binary-7 for every 7-bit word")
    pn.add_argument("--columns", type=_decimal, default=16)
    pn.add_argument("--p", type=_decimal, default=2,
                    help="field modulus for word-list files (default 2)")
    pn.add_argument("--out", default="panel.svg")
    pn.add_argument("--workers", type=_decimal, default=1,
                    help="accepted for compatibility and ignored; "
                         "rendering is serial")
    _add_render_options(pn)
    pn.set_defaults(handler=cmd_panel)

    vf = sub.add_parser("verify", help="run every built-in reference check")
    vf.set_defaults(handler=cmd_verify)

    md = sub.add_parser("mindist", help="code parameters n, k, d of a built-in code")
    _add_code_choice(md)
    md.set_defaults(handler=cmd_mindist)

    cw = sub.add_parser("codewords", help="enumerate all codewords of a built-in code")
    _add_code_choice(cw)
    cw.add_argument("--out", help="write the word-list here instead of stdout")
    cw.set_defaults(handler=cmd_codewords)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code.  The parser is built
    on the first call in a process and reused by every later one."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, report = args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if report:
            print(report.rstrip("\n"))
        sys.stdout.flush()
    except BrokenPipeError:
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return 2
    return code


def entrypoint() -> None:
    sys.exit(main())
