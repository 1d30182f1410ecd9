"""Batch command line: read a problem spec, run one analysis, print JSON.

Exit codes: 0 success, 2 hypothesis failure (or any other analysis error),
3 usage error, unreadable/invalid spec or invalid TGKZ_PAIR_BUDGET, 4 Groebner
pair budget exceeded.
"""

import argparse
import json
import sys

from .errors import BudgetExceededError, SpecError, TgkzError
from .problem import parse_spec
from .report import COMMANDS, render, run_command

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_PARSE = 3
EXIT_BUDGET = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is bad input, like a bad spec
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="tgkz",
        description="Twisted toric ideals and hypergeometric systems over "
                    "an abelian group with torsion, in exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=f"run the '{name}' analysis")
        cmd.add_argument("--spec", required=True,
                         help="path to the JSON problem spec")
        cmd.add_argument("--bound", type=int, default=None,
                         help="ceiling on the one-sided degree of a binomial "
                              "relation (default from the Markov basis)")
        cmd.add_argument("--workers", type=int, default=None,
                         help="accepted for compatibility; has no effect")
        cmd.add_argument("--out", default=None,
                         help="write the report here instead of stdout")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.bound is not None and args.bound < 0:
        parser.error(f"argument --bound: must be non-negative, got {args.bound}")
    try:
        with open(args.spec, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read spec: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        spec = parse_spec(text)
        payload = run_command(spec, args.command, bound=args.bound,
                              workers=args.workers)
    except TgkzError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        if isinstance(exc, SpecError):
            return EXIT_PARSE
        if isinstance(exc, BudgetExceededError):
            return EXIT_BUDGET
        if exc.context:
            print(json.dumps(exc.context, sort_keys=True, default=str), file=sys.stderr)
        return EXIT_HYPOTHESIS
    text = render(payload)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return EXIT_PARSE
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
