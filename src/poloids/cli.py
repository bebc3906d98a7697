"""Command-line front end.

Exit codes: 0 success or a true verdict, 1 a false verdict (the witness
is printed), 2 parse or I/O failure, a map-magma file that is not closed
or composes nowhere included, 3 precondition failure, 4 a broken
internal invariant (a ``RuntimeError``; its message is printed, a
defect in this package rather than in the input).  Each file is checked
by its parser and the constructors it calls, and by nothing here.

The parser is built once, on the first call of ``main``, as it costs more
than most requests of a program that calls ``main`` many times.  A call is
parsed once, by its command's own parser (the full parser reports what that
leaves over, and parses a call that starts with no command).  No parser holds
a handler: ``main`` looks each up in ``_COMMANDS`` per call, so rebinding
a ``cmd_*`` function there, as a tracer does and undoes, takes effect at once.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

from . import enumeration, maps, morphisms, represent, tables
from .classify import VERDICT_NAMES, classify
from .errors import BoundExceeded, ParseError, PreconditionError

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


def _read(path: str) -> str:
    try:
        return Path(path).read_bytes().decode("utf-8-sig")  # a leading BOM is dropped
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _load_magma(path: str) -> tables.PartialMagma:
    """A Cayley table from either file kind, told apart by a ``set:`` head;
    a map-magma file is rendered through its composition table."""
    text = _read(path)
    lines = tables._content_lines(text)
    if not lines or tables._heading(lines[0], "set") is None:
        return tables.parse_magma(text)
    try:
        return maps.as_partial_magma(maps.parse_map_magma(text))
    except PreconditionError as exc:
        raise ParseError(str(exc)) from None


def cmd_classify(args) -> int:
    report = classify(_load_magma(args.path))
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.to_text(), end="")
    return EXIT_OK


def cmd_embed(args) -> int:
    magma = _load_magma(args.path)
    if args.pre:
        embedding = represent.embed_right_poloid(magma)
    else:
        embedding = represent.cayley_embedding(magma)
    text = represent.serialize_embedding(embedding)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    n = args.n
    label = args.filter or "partial_magmas"
    if args.filter or args.up_to_iso or args.emit:
        found = enumeration.filtered(n, args.filter, up_to_iso=args.up_to_iso)
    else:
        counts = enumeration.count_by_class(n)
        print(f"partial_magmas: {counts['partial_magmas']}")
        for name in VERDICT_NAMES:
            print(f"{name}: {counts[name]}")
        return EXIT_OK
    if args.emit:  # the files are written before the count that claims them
        print(f"{label}: {_emit(found, args.emit)}")
    else:  # count the stream without holding it
        print(f"{label}: {sum(1 for _ in found)}")
    return EXIT_OK


def _emit(found, directory: str) -> int:
    out = Path(directory)
    # refused before the walk, so that the files written are the count; made
    # after it, as the walk checks its bound only when first pulled
    nearest = next(p for p in (out, *out.parents) if p.exists())
    if not nearest.is_dir() or (nearest == out and any(out.iterdir())):
        raise OSError(f"{directory}: not a new or empty directory")
    found = list(found)
    out.mkdir(parents=True, exist_ok=True)
    width = max(6, len(str(len(found))))
    for i, m in enumerate(found):
        (out / f"magma_{i:0{width}d}.magma").write_text(
            tables.serialize_magma(m), encoding="utf-8"
        )
    return len(found)


def cmd_compose(args) -> int:
    magma = maps.parse_map_magma(_read(args.path))
    names = magma.member_names()
    try:
        f = magma.members[names.index(args.f)]
        g = magma.members[names.index(args.g)]
    except ValueError:
        missing = args.f if args.f not in names else args.g
        raise ParseError(f"unknown map name {missing!r}") from None
    composite = maps.compose(magma, f, g)
    if composite is None:
        print("undefined")
    else:
        print(maps.default_map_name(composite))
    return EXIT_OK


def cmd_check_hom(args) -> int:
    src = _load_magma(args.src)
    dst = _load_magma(args.dst)
    morphism = morphisms.parse_morphism(src, dst, _read(args.map))
    hom = morphisms.is_homomorphism(morphism)
    refl = morphisms.reflects_definedness(morphism)
    for label, verdict in (("homomorphism", hom), ("reflects_definedness", refl)):
        print("%s: %s" % (label, "yes" if verdict else "no"))
        if not verdict:
            print("witness: " + verdict.format(src.elements))
    return EXIT_OK if hom else EXIT_FALSE


def cmd_iso(args) -> int:
    a = _load_magma(args.a)
    b = _load_magma(args.b)
    found = morphisms.find_isomorphism(a, b)
    if found is None:
        print("isomorphism: no")
        return EXIT_FALSE
    print("isomorphism: yes")
    for i, v in enumerate(found.mapping):
        print(f"{a.elements[i]} -> {b.elements[v]}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    return _build()[0]


def _build() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser, and each command's own parser, which it dispatches to."""
    parser = argparse.ArgumentParser(
        prog="poloids",
        description="classify, embed, enumerate and compose finite partial algebraic structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a magma or map-magma file")
    p.add_argument("path")
    p.add_argument("--json", action="store_true", help="structured output")

    p = sub.add_parser("embed", help="embed a poloid (or, with --pre, a normal right poloid)")
    p.add_argument("path")
    p.add_argument("--pre", action="store_true",
                   help="embed into a domain pretransformation magma")
    p.add_argument("-o", "--output", help="write the embedding here instead of stdout")

    p = sub.add_parser("enumerate", help="count partial magmas by class")
    p.add_argument("-n", type=int, required=True, help="carrier size")
    p.add_argument("--filter", choices=sorted(VERDICT_NAMES), help="count one class only")
    p.add_argument("--up-to-iso", action="store_true",
                   help="one structure per isomorphism class, the least table of each, "
                        f"generated directly (up to {enumeration.ISO_BOUND} elements with "
                        f"--filter, {enumeration.RAW_BOUND} without a one-sided triple law "
                        "to prune on: no filter or --filter total)")
    p.add_argument("--emit", metavar="DIR", help="write the matches into DIR, new or empty")

    p = sub.add_parser("compose", help="compose two maps from a map-magma file")
    p.add_argument("path")
    p.add_argument("f")
    p.add_argument("g")

    p = sub.add_parser("check-hom", help="check a morphism file between two magmas")
    p.add_argument("src")
    p.add_argument("dst")
    p.add_argument("map")

    p = sub.add_parser("iso", help="search for an isomorphism between two magmas")
    p.add_argument("a")
    p.add_argument("b")
    return parser, sub.choices  # each command's parser, by name


_parsers = cache(_build)
_COMMANDS = {"classify": cmd_classify, "embed": cmd_embed, "enumerate": cmd_enumerate,
             "compose": cmd_compose, "check-hom": cmd_check_hom, "iso": cmd_iso}


def _parse(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed once: by its command's own parser, if it starts with one."""
    parser, commands = _parsers()
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    args, extras = commands[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error("unrecognized arguments: " + " ".join(extras))
    return args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (PreconditionError, BoundExceeded) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
