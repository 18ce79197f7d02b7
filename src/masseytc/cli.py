"""Command line front end.

Usage:  masseytc COMMAND MODEL [options]

Commands
    validate    check every DGA axiom and list violations
    cohomology  Betti numbers, connectivity, cup length, named classes
    massey      one Massey triple product of three named classes
    zcl         cup length of the zero-divisors ideal
    bounds      full certified ledger for category and TC

MODEL is a built-in model name or a path to a model file.  Output is a
human summary by default and canonical JSON with ``--json``.

Exit status: 0 on success, 1 when a requested computation cannot be
completed (an undefined Massey product), 2 on parse or validation errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import report
from .bounds import build_ledger, zero_divisors_cup_length
from .cohomology import CohomologyRing, KunnethMap
from .dga import PresentationError, compile_cdga, tensor
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
        text, origin = path.read_text(), str(path)
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


def self_square(ring: CohomologyRing) -> KunnethMap:
    t = tensor(ring.dga, ring.dga)
    return KunnethMap(ring, ring, CohomologyRing(t))


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
    lines = [f"model {p.name}: " +
             ("all axioms hold" if not violations
              else f"{len(violations)} violation(s)")]
    for v in violations:
        where = ", ".join(str(x) for x in v.location)
        lines.append(f"  {v.axiom} at ({where}): {v.message}")
    return (0 if not violations else 2), payload, "\n".join(lines) + "\n"


def cmd_cohomology(args):
    ring = build_ring(args.model)
    payload = report.build_payload(ring)
    return 0, payload, report.render_text(payload)


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
    return (0 if coset.defined else 1), payload, report.render_text(payload)


def cmd_zcl(args):
    ring = build_ring(args.model)
    k, chain, prod = zero_divisors_cup_length(self_square(ring))
    witness = [(c.degree, c.coords) for c in chain]
    payload = report.build_payload(ring, zcl=report.zcl_section(k, witness, prod))
    return 0, payload, report.render_text(payload)


def cmd_bounds(args):
    ring = build_ring(args.model)
    kmap = self_square(ring)
    ledger = build_ledger(ring, kmap, massey_cap=args.max_massey_degree)
    payload = report.build_payload(
        ring,
        massey=report.massey_section(ring, ledger.massey_cosets),
        zcl=report.zcl_section(ledger.zcl, ledger.zcl_witness, ledger.zcl_product),
        weights=report.weights_section(ledger),
        ledger=report.ledger_section(ledger),
    )
    return 0, payload, report.render_text(payload)


COMMANDS = {
    "validate": cmd_validate,
    "cohomology": cmd_cohomology,
    "massey": cmd_massey,
    "zcl": cmd_zcl,
    "bounds": cmd_bounds,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit canonical JSON instead of text")
    common.add_argument("--quiet", action="store_true",
                        help="suppress output; communicate via exit status")
    parser = argparse.ArgumentParser(
        prog="masseytc",
        description="Exact cohomology, Massey products, and certified "
                    "category/TC bounds for finite rational DGA models.")
    sub = parser.add_subparsers(dest="command", required=True)
    v = sub.add_parser("validate", parents=[common],
                       help="check the DGA axioms")
    v.add_argument("model")
    c = sub.add_parser("cohomology", parents=[common],
                       help="cohomology ring summary")
    c.add_argument("model")
    m = sub.add_parser("massey", parents=[common],
                       help="Massey triple product of three named classes")
    m.add_argument("model")
    m.add_argument("classes", nargs=3, metavar="CLASS")
    z = sub.add_parser("zcl", parents=[common],
                       help="zero-divisors cup length")
    z.add_argument("model")
    b = sub.add_parser("bounds", parents=[common],
                       help="certified lower/upper bounds for cat and TC")
    b.add_argument("model")
    b.add_argument("--max-massey-degree", type=int, default=None,
                   metavar="N", help="cap the total degree of scanned triples")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, payload, text = COMMANDS[args.command](args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    if not args.quiet:
        sys.stdout.write(report.render_json(payload) if args.json else text)
    return code


if __name__ == "__main__":
    sys.exit(main())
