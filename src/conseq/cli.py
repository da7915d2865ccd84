"""Command-line frontend.

Subcommands: close, check, verify-thm23, influence, chain, canon.  Results
go to stdout, diagnostics to stderr.  Exit codes: 0 on success / all checks
passing, 1 on usage, parse, or validation errors, 2 when a checked property
failed (the counterexample is printed).

`--output records` switches from human lines to a machine-readable stream:
one result per line as space-separated key=value pairs (set values are
comma-separated, pairs of sets are ';'-separated).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .closure import chain_system, close, step
from .errors import ConseqError, PreconditionViolated
from .fileformat import parse_set, parse_system, render_set, render_system, SystemDocument
from .influence import weight_binary, weight_ternary
from .laws import UNIVERSE_CAP, LawReport, check_axioms, tabulate, verify_closed_form_characterization
from .model import Sort, Symbol

# Longest chain `conseq chain` generates, in rules: the 10^5-rule chain is the
# largest workload in ROADMAP.md.  A longer request fails with a ConseqError
# before any symbol is built.
CHAIN_CAP = 100_000


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for failed
    property checks, so usage errors exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _load(path: str) -> SystemDocument:
    return parse_system(Path(path).read_bytes())


def _emit(args: argparse.Namespace, human: str, **fields) -> None:
    if args.output == "records":
        print(" ".join(f"{k}={v}" for k, v in fields.items()))
    else:
        print(human)


def _emit_report(args: argparse.Namespace, report: LawReport) -> int:
    for result in report:
        fields = {
            "law": result.law,
            "status": "pass" if result.passed else "fail",
            "checked": result.checked,
        }
        if not result.passed:
            fields["witness"] = ";".join(render_set(w) for w in result.witness)
        _emit(args, str(result), **fields)
    return 0 if report.ok else 2


def _cmd_close(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    x = parse_set(args.input, doc.language)
    if args.fastpath:
        # the binary shape is read only when the ternary one refuses
        system = doc.system
        if not (system.ternary_shape or system.binary_shape):
            raise PreconditionViolated(
                f"--fastpath refused: not mixed ternary ({system.ternary_shape.reason}); "
                f"not mixed binary ({system.binary_shape.reason})"
            )
        result = step(system, x)
    else:
        result = close(doc.system, x)
    _emit(args, render_set(result), result=render_set(result), size=len(result))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    return _emit_report(args, check_axioms(tabulate(doc.system, doc.language.symbols)))


def _cmd_verify(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    return _emit_report(args, verify_closed_form_characterization(doc.system))


def _cmd_influence(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    conclusion = doc.language.resolve(args.conclusion)
    fields, human = {"conclusion": conclusion.name}, f"conclusion {conclusion.name}"
    if args.premise is not None:
        premise = doc.language.resolve(args.premise)
        weight = weight_ternary(doc.system, premise, conclusion)
        fields["premise"] = premise.name
        human += f" (premise {premise.name})"
    else:
        weight = weight_binary(doc.system, conclusion)
    _emit(args, f"{human}: multiplicity {weight.multiplicity}", **fields, multiplicity=weight.multiplicity)
    return 0


def _cmd_chain(args: argparse.Namespace) -> int:
    if args.length > CHAIN_CAP:
        raise ConseqError(f"--length {args.length} exceeds the cap of {CHAIN_CAP} rules")
    symbols = [Symbol(f"s{i}", Sort.STANDARD) for i in range(args.length + 1)]
    sys.stdout.write(render_system(chain_system(symbols)))
    return 0


def _cmd_canon(args: argparse.Namespace) -> int:
    sys.stdout.write(render_system(_load(args.file)))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="conseq", description="Rule-system consequence operator toolkit")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name: str, func, help: str, file: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        if file:
            p.add_argument("file", help=".lgs document")
        p.add_argument(
            "--output",
            choices=("lines", "records"),
            default="lines",
            help="human lines (default) or key=value records",
        )
        p.set_defaults(func=func)
        return p

    p = add("close", _cmd_close, "deductive closure of an input set")
    p.add_argument("--input", default="", help='comma-separated symbols, e.g. "a1,l1" ("" = empty set)')
    p.add_argument(
        "--fastpath",
        action="store_true",
        help="use the one-pass closed form; errors unless the system is mixed ternary or mixed binary",
    )

    add("check", _cmd_check,
        f"tabulate the operator and check the closure-operator laws (at most {UNIVERSE_CAP} symbols)")

    add("verify-thm23", _cmd_verify, "check the one-pass closed form characterization, both directions")

    p = add("influence", _cmd_influence, "multiplicity of the rules backing a conclusion")
    p.add_argument("--conclusion", required=True, metavar="NAME")
    p.add_argument("--premise", metavar="NAME", help="anchor premise (ternary systems)")

    p = add("chain", _cmd_chain, "print a linear chain system as a .lgs document", file=False)
    p.add_argument("--length", type=_positive_int, required=True, metavar="N",
                   help=f"number of rules (N+1 symbols), at most {CHAIN_CAP}")

    add("canon", _cmd_canon, "re-render a document in canonical form")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    try:
        return args.func(args)
    except (ConseqError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
