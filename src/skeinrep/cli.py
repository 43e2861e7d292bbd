"""Command-line frontend for bracket evaluation, projector tables, hom
dimensions, Gram matrices, and batch equivalence verification.

Exit codes: 0 success (and all verdicts iso), 1 usage, parse or arithmetic
error (including poles at roots of unity, invalid colors, inputs or root
orders past the size limits, a batch file with no pairs and a malformed or
unmatched Gram override), 2 verification failure (some pair is not an
isomorphism, or a Gram override broke one).
"""

import argparse
import json
import sys

from . import linalg
from .diagrams import GeneratorWord, WordError, bracket, parse_layers
from .scalars import (Mode, format_scalar, parse_laurent, parse_mode,
                      parse_scalar, specialize)
from .tl_category import jones_wenzl
from .turaev import gram_matrix, good_type_diagrams, object_seq
from .functor import FunctorReport, verify_equivalence


# Larger inputs run for many seconds to minutes, so they are refused with
# one error line.  Cold jw 9 takes 1.5 to 2.2 s generically (0.54 to
# 0.63 s at r = 19, median 0.57 s), and jones_wenzl(10) 5.2 to 5.9 s
# in-process.
# At |s| + |t| = 12 every pair has a 132-map intertwiner basis: generic
# and in-process, each in a fresh interpreter, homdim 6 6 takes 5.0 s,
# homdim 1,1,1,1,1,1 1,1,1,1,1,1 5.6 to 5.8 s (its 132 x 132 Gram rank,
# proven from the image mod p, 0.09 s of it) and homdim 7,5 0 2.7 to
# 2.9 s; the intertwiner solve alone takes 1.9 s at r = 19 (4.7 s before
# cyclotomic residues were packed ints).
# At a root every scalar grows with deg Phi_4r, and r = 19 is the
# largest degree admitted: there the slowest admitted root queries are
# homdim 2,2,2,2,2 0, the widest coefficients (26 bits), 0.63 to 0.88 s
# cold, and the all-ones 5-strand pair, 0.52 to 0.96 s (medians 0.67
# and 0.58 s, against 0.78 and 0.74 s in the same runs when each root
# Gram matrix was eliminated exactly); homdim 7,3 0, 3,7 0, 7,2,1 0 and
# 6,4 0 take 0.34 to 0.63 s there (medians 0.37, 0.43, 0.41 and 0.39 s,
# within noise of the exact route; a loaded 2-CPU x86-64 machine, 10 cold
# runs each with no bytecode cache, BENCH_one_rank_route.json).  Cold homdim
# 7,3 0 and 7,1,1,1 0 take 0.25 to 0.28 s generically (medians 0.26 and
# 0.25 s, 7 cold runs each, BENCH_modp_gram.json).
# A bracket word costs its layers times the terms of its widest layer, up
# to Catalan(width / 2) diagrams: a 22-strand word of 132 crossings took
# 134 s cold, 20 strands and 60 crossings 3.3 s.  At the limits below,
# the slowest word measured, 16 strands (8 cups, 64 crossings, 8 caps),
# takes 1.0 to 1.9 s cold, generic or at r = 19 or 20; every word of the
# test corpus and the benchmark is at most 6 strands wide and 10
# crossings long.  A word past either limit is refused at its first
# layer there, unread beyond it: a 5 MB word of 1000002 layers takes
# 0.08 s cold to be refused (1.0 to 1.2 s when the whole file was
# parsed before the limits were checked).
MAX_JW = 9          # largest projector of the jw command
MAX_COLOR = 7       # largest color of a homdim, gram or verify pair
MAX_STRANDS = 10    # largest |s| + |t| of such a pair
MAX_ROOT = 20       # largest r of a root:<r> mode; RootMode has no limit
MAX_WORD_WIDTH = 16     # most strands of any layer of a bracket word
MAX_WORD_LAYERS = 80    # most layers of a bracket word
# A Gram override entry is reduced over Q(a) before anything else, at a
# cost set by its degrees and digits, not by the pair: a 15 KB dense entry
# took 86 s, and a^20000 + 3*a^7 + 1 / a^19999 + 2*a^5 + 1 6.8 s.  Over
# every admitted pair, the longest true Gram entry has 160 characters
# (2,2,2,2,2 -> 0 at root:19) and the widest spans 36 powers of a in its
# numerator (3,3,3,1 -> 0, generic).  At the limits below an entry takes
# at most 8 ms (root:19), so a 42 x 42 override loads in seconds.
MAX_ENTRY_CHARS = 400   # longest Gram override entry, in characters
MAX_ENTRY_SPAN = 72     # largest max - min power of a in its num or den


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract here says 1
    def error(self, message):
        raise UsageError(message)


def _parse_seq(text: str) -> tuple:
    """Comma-separated colors; the single color 0 denotes the empty object."""
    text = text.strip()
    if not text:
        raise UsageError("empty object sequence")
    try:
        colors = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"bad object sequence {text!r}") from None
    return colors


def _parse_mode(text: str) -> Mode:
    """parse_mode, refused past the root order limit."""
    mode = parse_mode(text)
    if mode.is_root and mode.r > MAX_ROOT:
        raise ValueError(f"root order {mode.r} is above the limit of "
                         f"{MAX_ROOT}")
    return mode


def _format_seq(s: tuple) -> str:
    return ",".join(str(n) for n in s) if s else "0"


def _parse_pair(s_text: str, t_text: str) -> tuple:
    """Both object sequences of a pair, refused past the size limits."""
    s, t = _parse_seq(s_text), _parse_seq(t_text)
    if max(s + t) > MAX_COLOR:
        raise UsageError(f"color {max(s + t)} is above the limit of "
                         f"{MAX_COLOR}")
    if sum(s) + sum(t) > MAX_STRANDS:
        raise UsageError(f"{_format_seq(s)} ; {_format_seq(t)} has "
                         f"{sum(s) + sum(t)} strands, above the limit of "
                         f"{MAX_STRANDS}")
    return s, t


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_bracket(args, mode: Mode) -> int:
    # read lazily: a word past a limit is refused at its first layer there
    with open(args.word_file) as fh:
        layers = parse_layers(fh, MAX_WORD_WIDTH, MAX_WORD_LAYERS)
    value = bracket(GeneratorWord(layers), mode) if layers else mode.one()
    body = format_scalar(value)
    if args.format == "json":
        payload = {"bracket": body, "mode": str(mode)}
        _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    else:
        _emit(body + "\n", args.out)
    return 0


def _cmd_jw(args, mode: Mode) -> int:
    if args.k > MAX_JW:
        raise UsageError(f"jw {args.k} is above the limit of {MAX_JW} strands")
    proj = jones_wenzl(args.k, mode)
    rows = proj.morphism.to_pairs()
    if args.format == "json":
        payload = {
            "k": args.k,
            "mode": str(mode),
            "rows": [{"matching": arr, "coefficient": format_scalar(c)}
                     for arr, c in rows],
        }
        _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    else:
        lines = [f"{' '.join(str(x) for x in arr)} : {format_scalar(c)}"
                 for arr, c in rows]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _report_line(rep: FunctorReport) -> str:
    return (f"{_format_seq(rep.source)} ; {_format_seq(rep.target)} ; "
            f"{rep.mode} ; {rep.dim_diagram_side} ; {rep.dim_rep_side} ; "
            f"{rep.matrix_rank} ; {rep.verdict}")


def _cmd_homdim(args, mode: Mode) -> int:
    rep = verify_equivalence(*_parse_pair(args.source, args.target), mode)
    if args.format == "json":
        _emit(json.dumps(rep.to_json_dict(), sort_keys=True) + "\n", args.out)
    else:
        _emit(f"{rep.dim_diagram_side}, {rep.dim_rep_side}, {rep.verdict}\n",
              args.out)
    return 0 if rep.verdict == "iso" else 2


def _override_mode(value) -> Mode:
    if not isinstance(value, str):
        raise ValueError("expected a string such as 'generic' or 'root:5'")
    return _parse_mode(value)


def _override_colors(value, mode: Mode) -> tuple:
    if not (isinstance(value, list)
            and all(type(n) is int for n in value)):
        raise ValueError("expected a list of integer colors")
    return object_seq(value, mode)


def _override_entry(value, mode: Mode):
    """The scalar an override entry names, refused past the entry limits
    before any polynomial arithmetic."""
    if not isinstance(value, str):
        raise ValueError("expected a scalar string")
    if len(value) > MAX_ENTRY_CHARS:
        raise ValueError(f"entry has {len(value)} characters, above the "
                         f"limit of {MAX_ENTRY_CHARS}")
    for part in value.split(" / ", 1):
        powers = parse_laurent(part)[0]
        if powers and max(powers) - min(powers) > MAX_ENTRY_SPAN:
            raise ValueError(f"powers of a span {max(powers) - min(powers)}, "
                             f"above the limit of {MAX_ENTRY_SPAN}")
    x = parse_scalar(value)
    return specialize(x, mode.r) if mode.is_root else x


def _load_gram_override(path: str):
    """The normalized (source, target, mode) an override file names, and
    the rank of its matrix, checked against the shape of the true one."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise UsageError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise UsageError(f"{path}: expected a JSON object with keys "
                         "'source', 'target', 'mode' and 'matrix'")
    for name in ("source", "target", "mode", "matrix"):
        if name not in data:
            raise UsageError(f"{path}: missing key {name!r}")

    def field(name, parse, *args):
        try:
            return parse(data[name], *args)
        except ValueError as exc:
            raise UsageError(f"{path}: key {name!r}: {exc}") from None

    mode = field("mode", _override_mode)
    s = field("source", _override_colors, mode)
    t = field("target", _override_colors, mode)
    shape = (len(good_type_diagrams(s, t)), len(good_type_diagrams(t, s)))
    matrix = data["matrix"]
    if not isinstance(matrix, list) or len(matrix) != shape[0]:
        raise UsageError(f"{path}: key 'matrix': expected {shape[0]} rows "
                         f"of {shape[1]} entries for {_format_seq(s)} -> "
                         f"{_format_seq(t)}")
    rows = []
    for i, row in enumerate(matrix, start=1):
        if not isinstance(row, list) or len(row) != shape[1]:
            raise UsageError(f"{path}: matrix row {i}: expected "
                             f"{shape[1]} entries")
        parsed = {}
        for j, entry in enumerate(row, start=1):
            try:
                x = _override_entry(entry, mode)
            except (ValueError, ArithmeticError) as exc:
                raise UsageError(
                    f"{path}: matrix row {i}, column {j}: {exc}") from None
            if not x.is_zero():
                parsed[j] = x
        rows.append(parsed)
    return (s, t, mode), linalg.rank(rows)


def _cmd_verify(args, default_mode: Mode) -> int:
    override, matched = None, False
    if args.gram_override:
        override = _load_gram_override(args.gram_override)
    with open(args.batch_file) as fh:
        lines = fh.read().splitlines()
    reports = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(";")]
        if len(parts) == 2:
            s_text, t_text = parts
            mode = default_mode
        elif len(parts) == 3:
            s_text, t_text, mode_text = parts
            try:
                mode = _parse_mode(mode_text)
            except ValueError as exc:
                raise UsageError(f"{args.batch_file}:{lineno}: {exc}") from None
        else:
            raise UsageError(
                f"{args.batch_file}:{lineno}: expected 's ; t ; mode'")
        try:
            rep = verify_equivalence(*_parse_pair(s_text, t_text), mode)
        except (UsageError, ValueError, ArithmeticError) as exc:
            raise UsageError(f"{args.batch_file}:{lineno}: {exc}") from None
        if override is not None:
            key, rank = override
            if (rep.source, rep.target, rep.mode) == key:
                matched = True
                rep = FunctorReport(rep.source, rep.target, rank,
                                    rep.dim_rep_side, rep.matrix_rank,
                                    rep.mode)
        reports.append(rep)
    if not reports:
        raise UsageError(f"{args.batch_file}: no pairs to verify")
    if override is not None and not matched:
        s, t, mode = override[0]
        raise UsageError(
            f"{args.gram_override}: {_format_seq(s)} ; {_format_seq(t)} ; "
            f"{mode} matches no pair of {args.batch_file}")
    all_iso = all(r.verdict == "iso" for r in reports)
    if args.format == "json":
        payload = {"all_iso": all_iso,
                   "reports": [r.to_json_dict() for r in reports]}
        _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    else:
        _emit("".join(_report_line(r) + "\n" for r in reports), args.out)
    return 0 if all_iso else 2


def _cmd_gram(args, mode: Mode) -> int:
    s, t = (object_seq(x, mode) for x in _parse_pair(args.source, args.target))
    g = gram_matrix(s, t, mode)
    rows = [[format_scalar(x) for x in row] for row in g]
    if args.format == "json":
        payload = {"source": list(s), "target": list(t), "mode": str(mode),
                   "matrix": rows}
        _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    else:
        header = f"{_format_seq(s)} ; {_format_seq(t)} ; {mode}"
        lines = [header] + [" ; ".join(row) for row in rows]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="skeinrep",
                     description="diagram calculus against quantum sl2")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--mode", default="generic",
                       help=f"generic or root:<r> (3 <= r <= {MAX_ROOT})")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("bracket", help="evaluate a closed diagram word")
    p.add_argument("word_file")
    common(p)

    p = sub.add_parser("jw", help="projector coefficient table")
    p.add_argument("k", type=int)
    common(p)

    p = sub.add_parser("homdim", help="hom dimensions and verdict for a pair")
    p.add_argument("source")
    p.add_argument("target")
    common(p)

    p = sub.add_parser("verify", help="batch equivalence verification")
    p.add_argument("batch_file")
    p.add_argument("--gram-override", default=None,
                   help="JSON Gram matrix replacing the diagram-side rank "
                            "for the matching pair (fault injection)")
    common(p)

    p = sub.add_parser("gram", help="diagram-side Gram matrix of a pair")
    p.add_argument("source")
    p.add_argument("target")
    common(p)
    return parser


_HANDLERS = {
    "bracket": _cmd_bracket,
    "jw": _cmd_jw,
    "homdim": _cmd_homdim,
    "verify": _cmd_verify,
    "gram": _cmd_gram,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        mode = _parse_mode(args.mode)
        return _HANDLERS[args.subcommand](args, mode)
    except (UsageError, WordError, ArithmeticError, ValueError,
            OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
