"""Command line front end.

Usage:  masseytc COMMAND MODEL [options]

Commands
    validate    list the degrees where d^2 != 0, the one DGA axiom a model can break
    cohomology  Betti numbers, connectivity, cup length, named classes
    massey      one Massey triple product of three named classes
    zcl         cup length of the zero-divisors ideal
    bounds      full certified ledger for category and TC

MODEL is a built-in model name or a path to a model file.  Output is a
human summary by default and canonical JSON with ``--json``.

Exit status: 0 on success, 1 when a requested computation cannot be
completed (an undefined Massey product), 2 on parse or validation errors,
on model files that cannot be read as UTF-8 text and on a declared
``space-dim`` too small for the bounds the ring certifies.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import report
from .bounds import InconsistentBounds, build_ledger, zero_divisors_cup_length
from .cohomology import CohomologyRing, KunnethMap
from .dga import PresentationError, compile_cdga
from .dsl import ParseError, parse_model
from .massey import massey_triple
from .models import MODEL_SOURCES


class CliError(Exception):
    """Carries the exit status alongside the message."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def load_presentation(arg: str):
    if arg in MODEL_SOURCES:
        text, origin = MODEL_SOURCES[arg], f"built-in model {arg}"
    else:
        path = Path(arg)
        if not path.is_file():
            known = ", ".join(sorted(MODEL_SOURCES))
            raise CliError(
                2, f"{arg!r} is neither a built-in model ({known}) nor a file")
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as e:
            raise CliError(2, f"{path}: cannot read the model file: {e}")
        origin = str(path)
    try:
        return parse_model(text)
    except (ParseError, PresentationError) as e:
        raise CliError(2, f"{origin}: {e}")


def build_ring(arg: str) -> CohomologyRing:
    p = load_presentation(arg)
    try:
        return CohomologyRing(compile_cdga(p))
    except (PresentationError, ValueError) as e:
        raise CliError(2, f"model {p.name}: {e}")


def output(args, payload: dict, render_text) -> str:
    """What a command prints, rendered only in the form that is printed:
    nothing under ``--quiet``, else JSON under ``--json``, else text.
    Every command returns (exit status, payload, this output)."""
    if args.quiet:
        return ""
    return report.render_json(payload) if args.json else render_text(payload)


def validation_text(payload: dict) -> str:
    violations = payload["violations"]
    lines = [f"model {payload['model']}: " +
             ("all axioms hold" if not violations
              else f"{len(violations)} violation(s)")]
    for v in violations:
        where = ", ".join(str(x) for x in v["location"])
        lines.append(f"  {v['axiom']} at ({where}): {v['message']}")
    return "\n".join(lines) + "\n"


def cmd_validate(args):
    p = load_presentation(args.model)
    dga = compile_cdga(p, check=False)
    violations = dga.validate()
    payload = {
        "model": p.name,
        "valid": not violations,
        "violations": [
            {"axiom": v.axiom, "location": list(v.location), "message": v.message}
            for v in violations
        ],
    }
    return (0 if not violations else 2), payload, output(args, payload, validation_text)


def cmd_cohomology(args):
    ring = build_ring(args.model)
    payload = report.build_payload(ring)
    return 0, payload, output(args, payload, report.render_text)


def cmd_massey(args):
    ring = build_ring(args.model)
    classes = []
    for name in args.classes:
        try:
            classes.append(ring.named_class(name))
        except ValueError as e:
            raise CliError(2, str(e))
    try:
        coset = massey_triple(ring, *classes)
    except ValueError as e:
        raise CliError(2, str(e))
    label = "<{}, {}, {}>".format(*args.classes)
    payload = report.build_payload(ring, massey=[report.massey_entry(coset, label)])
    return (0 if coset.defined else 1), payload, output(args, payload, report.render_text)


def cmd_zcl(args):
    ring = build_ring(args.model)
    k, chain, prod = zero_divisors_cup_length(KunnethMap(ring, ring))
    payload = report.build_payload(ring, zcl=report.zcl_section(k, chain, prod))
    return 0, payload, output(args, payload, report.render_text)


def cmd_bounds(args):
    ring = build_ring(args.model)
    kmap = KunnethMap(ring, ring)
    try:
        ledger = build_ledger(ring, kmap, massey_cap=args.max_massey_degree)
    except InconsistentBounds as e:
        raise CliError(2, f"model {ring.dga.name}: {e}, space-dim {ring.dga.space_dim} too small")
    payload = report.build_payload(
        ring,
        massey=report.massey_section(ring, ledger.massey_cosets),
        zcl=report.zcl_section(ledger.zcl, ledger.zcl_witness, ledger.zcl_product),
        weights=report.weights_section(ledger),
        ledger=report.ledger_section(ledger),
    )
    return 0, payload, output(args, payload, report.render_text)


def degree(text: str) -> int:
    """A degree cap given on the command line: a non-negative integer."""
    cap = int(text)
    if cap < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative degree, not {cap}")
    return cap


COMMANDS = {
    "validate": (cmd_validate, "check the DGA axioms"),
    "cohomology": (cmd_cohomology, "cohomology ring summary"),
    "massey": (cmd_massey, "Massey triple product of three named classes"),
    "zcl": (cmd_zcl, "zero-divisors cup length"),
    "bounds": (cmd_bounds, "certified lower/upper bounds for cat and TC"),
}


def add_arguments(p: argparse.ArgumentParser, name: str) -> None:
    """The options and arguments of one command."""
    p.add_argument("--json", action="store_true",
                   help="emit canonical JSON instead of text")
    p.add_argument("--quiet", action="store_true",
                   help="suppress output; communicate via exit status")
    p.add_argument("model")
    if name == "massey":
        p.add_argument("classes", nargs=3, metavar="CLASS")
    if name == "bounds":
        p.add_argument("--max-massey-degree", type=degree, default=None,
                       metavar="N", help="cap the total degree of scanned triples")


def build_parser() -> argparse.ArgumentParser:
    """The command line parser, with a subparser per command."""
    parser = argparse.ArgumentParser(
        prog="masseytc",
        description="Exact cohomology, Massey products, and certified "
                    "category/TC bounds for finite rational DGA models.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_line), name)
    return parser


def parse(argv: list) -> argparse.Namespace:
    """The parsed command line.  When ``argv`` starts with a command, only
    that command's parser is built, as the subparser it would be, and it
    parses the rest.  The full parser parses everything else -- no command,
    an unknown one, a top-level ``-h`` -- and any call that leaves
    arguments over, so the ``unrecognized arguments`` error prints the
    top-level usage.  Help, usage and error texts are the same either way."""
    if argv and argv[0] in COMMANDS:
        parser = argparse.ArgumentParser(prog=f"masseytc {argv[0]}")
        add_arguments(parser, argv[0])
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse(argv)
    try:
        code, payload, out = COMMANDS[args.command][0](args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
