"""Command-line front end.

Subcommands:
    compute   print a complete weight enumerator (JSON or text)
    compare   run closed form and brute force, report the first difference
    weights   print the weight distribution
    explain   print the errata ledger (deviations from the published forms)

Exit codes:
    0  success (compare: the two methods agree)
    1  compare found a mismatch
    2  usage or parameter error
    3  budget exceeded (codewords to enumerate, or closed-form output)
    141  the reader closed the output pipe (e.g. `rscwe ... | head`); the
         shell's status for SIGPIPE, with nothing written to stderr

The budget defaults to 2^24 and can be overridden by --budget or the
RSCWE_BUDGET environment variable.  It bounds the codewords one command may
enumerate, and for --method formula and --method brute the bounded output of
the closed form covering the code: the terms it emits times their width
max(q, code length), as each is a vector of q exponents.  Brute force writes
the same terms as that closed form, so it meets the same bound; on a code no
closed form covers (k >= 4, say) it counts codewords only.  All of it is
checked before any work starts.  compare and --method both count codewords
only, and build the closed form after brute force with no budget of its own,
since it emits at most one term per codeword.  compare --random-sets N counts
all N + 1 codes it compares against it, before building any of them.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from itertools import chain
from typing import Iterator

from .codes import DEFAULT_ENUM_BUDGET, CodeSpec, make_eval_set, refuse_over_budget
from .cwe import (
    CwePolynomial,
    _code_header,
    closed_form,
    cwe_bruteforce,
    cwe_equal,
    cwe_formula,
    refuse_output_over_budget,
    render_terms,
    serialize,
    weight_distribution,
)
from .errata import errata_text
from .errors import ParameterOutOfRangeError, RscweError, SizeLimitError
from .gf import FieldContext, build_field

BUDGET_ENV_VAR = "RSCWE_BUDGET"
EXIT_BROKEN_PIPE = 141


def parse_eval_kind(text: str) -> tuple[str, int | None, tuple[int, ...] | None]:
    """Split an --eval value into (kind, beta, points)."""
    if text in ("full", "primitive", "standard"):
        return text, None, None
    if text.startswith("punctured:"):
        payload = text[len("punctured:"):]
        try:
            return "punctured", int(payload), None
        except ValueError:
            raise RscweError(f"bad punctured point {payload!r}; expected an integer")
    if text.startswith("custom:"):
        payload = text[len("custom:"):]
        try:
            points = tuple(int(x) for x in payload.split(","))
        except ValueError:
            raise RscweError(
                f"bad custom point list {payload!r}; expected comma-separated integers"
            )
        return "custom", None, points
    raise RscweError(
        f"unknown evaluation set {text!r}; expected full, primitive, standard, "
        "punctured:<code>, or custom:<code,code,...>"
    )


def _resolve_budget(flag_value: int | None) -> int:
    if flag_value is not None:
        budget, source = flag_value, "--budget"
    else:
        env = os.environ.get(BUDGET_ENV_VAR)
        if env is None:
            return DEFAULT_ENUM_BUDGET
        try:
            budget, source = int(env), BUDGET_ENV_VAR
        except ValueError:
            raise RscweError(f"{BUDGET_ENV_VAR}={env!r} is not an integer")
    if budget < 0:
        raise RscweError(f"{source} must not be negative (got {budget})")
    return budget


def _spec_from_args(args: argparse.Namespace, ctx: FieldContext) -> CodeSpec:
    kind, beta, points = parse_eval_kind(args.eval_kind)
    alpha = make_eval_set(ctx, kind, beta=beta, points=points)
    return CodeSpec(ctx, args.k, alpha, args.extended)


def _run_method(spec: CodeSpec, method: str, budget: int) -> CwePolynomial | None:
    """The enumerator of spec by method: brute, formula, or both.

    both enumerates, then builds the closed form and requires it to agree
    term by term; on a mismatch it reports the first differing term on stderr
    and returns None; it refuses a spec no closed form covers before
    enumerating.  Before any work starts, the budget bounds the codewords
    brute and both enumerate and, for formula and for brute on a spec a
    closed form covers, that closed form's output bound (terms x max(q, code
    length)).  both gives the closed form no budget of its own: it emits at
    most one term per codeword, so the codeword budget just met bounds it.
    """
    if method == "formula":
        return cwe_formula(spec, budget=budget)
    if method == "brute":
        try:
            bound = closed_form(spec)[1]
        except ParameterOutOfRangeError:
            pass  # no closed form: the codeword budget alone
        else:
            refuse_output_over_budget(bound, budget)
        return cwe_bruteforce(spec, budget=budget)
    build = closed_form(spec)[0]
    brute = cwe_bruteforce(spec, budget=budget)
    formula = build()
    equal, diff = cwe_equal(brute, formula)
    if equal:
        return formula
    exps, brute_c, formula_c = diff
    print(
        f"MISMATCH at e={list(exps)}: brute={brute_c} formula={formula_c}",
        file=sys.stderr,
    )
    return None


def _print_cwe(spec: CodeSpec, cwe: CwePolynomial, output: str) -> None:
    if output == "json":
        print(serialize(spec, cwe))
    else:
        for line in render_terms(cwe):
            print(line)


def _print_weights(spec: CodeSpec, cwe: CwePolynomial, output: str) -> None:
    dist = weight_distribution(cwe)
    if output == "json":
        doc = {**_code_header(spec, cwe.n), "weights": dist}
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    else:
        for i, a in enumerate(dist):
            print(f"A[{i}] = {a}")


def _random_eval_specs(
    ctx: FieldContext, k: int, extended: bool, count: int, seed: int
) -> Iterator[CodeSpec]:
    """count seeded random evaluation sets, each built when it is reached."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(max(k, 2), ctx.q)
        alpha = tuple(rng.sample(range(ctx.q), n))
        yield CodeSpec(ctx, k, alpha, extended)


def cmd_print(args: argparse.Namespace, budget: int) -> int:
    """compute and weights: one enumerator, shown by the command's printer."""
    spec = _spec_from_args(args, build_field(args.p, args.m))
    cwe = _run_method(spec, args.method, budget)
    if cwe is None:
        return 1
    args.printer(spec, cwe, args.output)
    return 0


def cmd_compare(args: argparse.Namespace, budget: int) -> int:
    if args.random_sets < 0:
        raise RscweError(f"--random-sets must not be negative (got {args.random_sets})")
    ctx = build_field(args.p, args.m)
    if args.random_sets:
        if args.k != 2:
            raise RscweError("--random-sets needs --k 2 (closed form for any set)")
        # the budget bounds the whole sweep, q^2 codewords per code
        codes, size = args.random_sets + 1, ctx.q**2
        refuse_over_budget(
            codes * size,
            budget,
            f"enumeration of {codes} codes of q^k = {size} codewords ({codes * size} in all)",
        )
    jobs = [_spec_from_args(args, ctx)]
    if args.random_sets:
        print(f"# random sweep: {args.random_sets} sets, seed {args.seed}")
        jobs = chain(jobs, _random_eval_specs(
            ctx, args.k, args.extended, args.random_sets, args.seed
        ))
    for job in jobs:
        label = f"k={job.k} n={job.n} extended={job.extended} alpha={list(job.alpha)}"
        formula = _run_method(job, "both", budget)
        if formula is None:
            print(f"FAIL {label}")
            return 1
        print(f"OK {label}: {len(formula)} terms, mass {formula.mass()}")
    return 0


# a command's options by option string, and the defaults it sets
Command = tuple[dict[str, argparse.Action], dict]


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, Command]]:
    """The argument parser and, for each command by name, the Action of each
    of its option strings and the defaults it sets, built once per process:
    building them takes about a millisecond, as long as a small closed form,
    and parsing never changes them."""
    parser = argparse.ArgumentParser(
        prog="rscwe",
        description=(
            "Complete weight enumerators of Reed-Solomon and extended "
            "Reed-Solomon codes over GF(p^m)."
        ),
        epilog=f"Environment: {BUDGET_ENV_VAR} overrides the budget.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, Command] = {}

    def add_command(name: str, help: str, **defaults):
        """The command's parser, set to defaults, and an add_argument for it
        that records each option it adds."""
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(**defaults)
        options: dict[str, argparse.Action] = {}
        commands[name] = options, defaults

        def add(*names, **kwargs):
            action = sp.add_argument(*names, **kwargs)
            options.update(dict.fromkeys(action.option_strings, action))

        return add

    def add_common(add, with_method: bool):
        add("--p", type=int, required=True, help="field characteristic (prime)")
        add("--m", type=int, default=1, help="extension degree (default 1)")
        add("--k", type=int, required=True, help="code dimension")
        add(
            "--eval",
            dest="eval_kind",
            default="full",
            help=(
                "evaluation set: full | primitive | standard | punctured:<code> "
                "| custom:<code,code,...> (default full)"
            ),
        )
        add("--extended", action="store_true", help="append the leading coefficient")
        add(
            "--budget",
            type=int,
            default=None,
            help=(
                "max codewords to enumerate, and max estimated closed-form "
                "output (terms x max(q, code length)) for --method formula "
                "and, where a closed form covers the code, --method brute "
                f"(default {DEFAULT_ENUM_BUDGET})"
            ),
        )
        if with_method:
            add(
                "--method",
                choices=("brute", "formula", "both"),
                default="formula",
                help="computation method (default formula)",
            )
            add(
                "--output",
                choices=("json", "text"),
                default="text",
                help="output format (default text)",
            )

    add = add_command(
        "compute", "print the complete weight enumerator", run=cmd_print, printer=_print_cwe
    )
    add_common(add, with_method=True)

    add = add_command("compare", "closed form vs brute force", run=cmd_compare)
    add_common(add, with_method=False)
    add(
        "--random-sets",
        type=int,
        default=0,
        metavar="N",
        help="also compare N random evaluation sets (k=2; the budget counts all)",
    )
    add("--seed", type=int, default=0, help="seed for --random-sets")

    add = add_command(
        "weights", "print the weight distribution", run=cmd_print, printer=_print_weights
    )
    add_common(add, with_method=True)

    add_command("explain", "print the errata ledger")
    return parser, commands


def _read_options(argv: list[str]) -> argparse.Namespace | None:
    """The namespace the parser gives argv, read from the command's Action
    objects when argv is a command and its options as their exact option
    strings, none twice, each that takes a value followed by one that does
    not start with '-', converts by its type and is one of its choices, and
    every required option is there; None for any other argv."""
    commands = build_parser()[1]
    if not argv or argv[0] not in commands:
        return None
    options, defaults = commands[argv[0]]
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        action = options.get(token)
        if action is None or action in values:
            return None
        if action.nargs == 0:  # a flag
            values[action] = action.const
            continue
        text = next(tokens, "-")  # none left reads as an option: the parser decides
        if text.startswith("-"):
            return None
        try:
            value = action.type(text) if action.type else text
        except (TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action] = value
    if not all(action in values for action in options.values() if action.required):
        return None
    read = {action.dest: values.get(action, action.default) for action in options.values()}
    return argparse.Namespace(**{**defaults, **read, "command": argv[0]})


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The parser's parse_args(argv), or its exit.  An argv of exact options
    is read directly (_read_options), in a fraction of the parser's time; any
    other argv, usage errors and --help go to the parser's own parse_args,
    which writes their text."""
    return _read_options(argv) or build_parser()[0].parse_args(argv)


def run_cli(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    if args.command == "explain":
        print(errata_text())
        return 0
    try:
        return args.run(args, _resolve_budget(args.budget))
    except RscweError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, SizeLimitError) else 2


def main() -> None:
    try:
        code = run_cli()
        sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at devnull, so the interpreter's final flush of what
        # is still buffered does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
