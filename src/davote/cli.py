"""Command-line front end.

Exit codes are uniform across subcommands: 0 for accepted/true, 1 for
rejected/false, 2 for undecided (a row search over its node budget, an
input over a size guard, or a closed-vs-direct discrepancy), 3 for
usage and I/O errors, 4 for an internal error (a bug: one ``error:
internal error: ...`` line on stderr instead of a traceback).

Each command handler imports the modules it runs, so a command loads
only those.  For the same reason ``--max-evals``, ``--count-cap`` and
``--max-cells`` parse to None when absent, and the handler puts in the
default its module defines.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main"]

EXIT_OK = 0
EXIT_NO = 1
EXIT_UNDECIDED = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4

_TIE = {"min": "min-index", "max": "max-index"}
_KIND = {"corr": "correspondence", "form": "form"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through the
    # shared handler instead so usage problems become exit code 3.
    def error(self, message):
        raise _UsageError(message)


def _emit(text: str, path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_result(res, names: list[str], path: str | None) -> int:
    from .results import ACCEPTED, REJECTED, UNDECIDED
    from .tableau_io import dumps_result

    _emit(dumps_result(res, names), path)
    return {ACCEPTED: EXIT_OK, REJECTED: EXIT_NO, UNDECIDED: EXIT_UNDECIDED}[res.verdict]


def _cmd_generate(args) -> int:
    from .core import generate_correspondence, generate_form
    from .tableau_io import dumps_tableau

    if args.kind == "corr":
        t = generate_correspondence(args.p, args.alpha, args.beta)
    else:
        t = generate_form(args.p, args.alpha, args.beta, tie_rule=_TIE[args.tie])
    _emit(dumps_tableau(t, fmt=args.format), args.output)
    return EXIT_OK


def _parse_weights(text: str) -> tuple[int, ...]:
    try:
        weights = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise _UsageError(f"--weights expects comma-separated integers, got {text!r}")
    if not weights:
        raise _UsageError("--weights must name at least one voter")
    return weights


def _cmd_generate_n(args) -> int:
    from .special import generate_n_tableau
    from .tableau_io import dumps_tableau

    t = generate_n_tableau(
        _parse_weights(args.weights), kind=_KIND[args.kind], tie_rule=_TIE[args.tie]
    )
    _emit(dumps_tableau(t, fmt="json"), args.output)
    return EXIT_OK


def _cmd_recognize(args) -> int:
    from .recognizer import recognize_tableau
    from .tableau_io import load_tableau

    t, names = load_tableau(args.file)
    return _emit_result(recognize_tableau(t), names, args.output)


def _cmd_check_distinct(args) -> int:
    from .core import SizeGuardError, _format_json
    from .distinctness import (
        DEFAULT_MAX_EVALS,
        all_forms_rows_distinct,
        correspondence_rows_distinct,
        empty_differentiating_pairs,
        identical_correspondence_rows,
    )

    max_evals = DEFAULT_MAX_EVALS if args.max_evals is None else args.max_evals
    p, alpha, beta = args.p, args.alpha, args.beta
    report: dict = {
        "what": args.what,
        "p": p,
        "alpha": alpha,
        "beta": beta,
        "mode": args.mode,
        "closed": None,
        "direct": None,
    }
    if args.mode in ("closed", "both"):
        if args.what == "corr":
            report["closed"] = correspondence_rows_distinct(p, alpha, beta)
        else:
            report["closed"] = all_forms_rows_distinct(p, alpha, beta)
    if args.mode in ("direct", "both"):
        try:
            if args.what == "corr":
                pairs = identical_correspondence_rows(p, alpha, beta, max_evals=max_evals)
            else:
                pairs = empty_differentiating_pairs(p, alpha, beta, max_evals=max_evals)
            report["direct"] = not pairs
            report["witness_pairs"] = [[list(x), list(xp)] for x, xp in pairs]
        except SizeGuardError as e:
            report["note"] = str(e)
            if args.mode == "direct":
                _emit(_format_json(report), args.output)
                return EXIT_UNDECIDED
    _emit(_format_json(report), args.output)
    closed, direct = report["closed"], report["direct"]
    if args.mode == "both" and closed is not None and direct is not None:
        if closed != direct:
            return EXIT_UNDECIDED
    verdict = closed if closed is not None else direct
    return EXIT_OK if verdict else EXIT_NO


def _cmd_plurality_check(args) -> int:
    from .core import Form
    from .plurality import recognize_plurality_form
    from .tableau_io import load_tableau

    t, names = load_tableau(args.file)
    if not isinstance(t, Form):
        raise _UsageError("plurality-check expects a form file")
    return _emit_result(recognize_plurality_form(t), names, args.output)


def _cmd_oracle(args) -> int:
    from .core import SizeGuardError, _format_json
    from .oracle import DEFAULT_LABELING_CAP, DEFAULT_MAX_CELLS, oracle_recognize
    from .special import NTableau, n_tableau_as_grid
    from .tableau_io import load_tableau

    cap = DEFAULT_LABELING_CAP if args.count_cap is None else args.count_cap
    max_cells = DEFAULT_MAX_CELLS if args.max_cells is None else args.max_cells
    t, names = load_tableau(args.file)
    if isinstance(t, NTableau):
        if len(t.weights) != 2:
            raise _UsageError("the oracle handles 2-voter tableaux only")
        t = n_tableau_as_grid(t)
    try:
        report = oracle_recognize(t, cap=cap, max_cells=max_cells)
    except SizeGuardError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_UNDECIDED
    out = {
        "is_dav": report.is_dav,
        "labelings_found": report.labelings_found,
        "labeling_cap": cap,
        "nodes_explored": report.nodes_explored,
        "candidates": names,
    }
    if report.one_labeling is not None:
        out["row_labels"] = [list(x) for x in report.one_labeling.row_labels]
        out["col_labels"] = [list(y) for y in report.one_labeling.col_labels]
    _emit(_format_json(out), args.output)
    return EXIT_OK if report.is_dav else EXIT_NO


def _cmd_shuffle(args) -> int:
    import random

    from .core import permute_tableau
    from .special import NTableau, permute_axes
    from .tableau_io import dumps_tableau, load_tableau

    t, names = load_tableau(args.file)
    rng = random.Random(args.seed)
    if isinstance(t, NTableau):
        perms = [rng.sample(range(d), d) for d in t.dims]
        out = permute_axes(t, perms)
        fmt = "json"
    else:
        row_perm = list(range(t.rows))
        col_perm = list(range(t.cols))
        rng.shuffle(row_perm)
        rng.shuffle(col_perm)
        out = permute_tableau(t, row_perm, col_perm)
        fmt = args.format
    _emit(dumps_tableau(out, names=names, fmt=fmt), args.output)
    return EXIT_OK


def _add_output(sub) -> None:
    sub.add_argument("-o", "--output", help="write to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="davote",
        description="Generate, recognize and analyze distributed approval "
        "voting tableaux.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("generate", help="emit a fresh tableau for (p, alpha, beta)")
    s.add_argument("--p", type=int, required=True, help="number of candidates")
    s.add_argument("--alpha", type=int, required=True, help="row voter's cards")
    s.add_argument("--beta", type=int, required=True, help="column voter's cards")
    s.add_argument("--kind", choices=("corr", "form"), default="corr")
    s.add_argument("--tie", choices=("min", "max"), default="min",
                   help="winner choice inside tied cells (forms only)")
    s.add_argument("--format", choices=("json", "text"), default="json")
    _add_output(s)
    s.set_defaults(func=_cmd_generate)

    s = sub.add_parser("generate-n", help="emit an n-voter two-candidate tableau")
    s.add_argument("--weights", required=True, help="comma-separated voter weights")
    s.add_argument("--kind", choices=("corr", "form"), default="corr")
    s.add_argument("--tie", choices=("min", "max"), default="min")
    _add_output(s)
    s.set_defaults(func=_cmd_generate_n)

    s = sub.add_parser("recognize", help="decide whether a tableau file is "
                       "distributed approval and recover its labeling")
    s.add_argument("file")
    _add_output(s)
    s.set_defaults(func=_cmd_recognize)

    s = sub.add_parser("check-distinct", help="distinct-rows question for the "
                       "given parameters")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--alpha", type=int, required=True)
    s.add_argument("--beta", type=int, required=True)
    s.add_argument("--what", choices=("corr", "forms"), default="forms",
                   help="the correspondence's rows, or the rows of every form")
    s.add_argument("--mode", choices=("closed", "direct", "both"), default="both")
    s.add_argument("--max-evals", type=int,
                   help="evaluation budget for direct mode")
    _add_output(s)
    s.set_defaults(func=_cmd_check_distinct)

    s = sub.add_parser("plurality-check", help="single-card recognition with "
                       "forbidden-pattern witnesses")
    s.add_argument("file")
    _add_output(s)
    s.set_defaults(func=_cmd_plurality_check)

    s = sub.add_parser("oracle", help="exhaustive ground-truth recognition")
    s.add_argument("file")
    s.add_argument("--count-cap", type=int,
                   help="stop counting labelings at this many")
    s.add_argument("--max-cells", type=int,
                   help="refuse inputs larger than this many cells")
    _add_output(s)
    s.set_defaults(func=_cmd_oracle)

    s = sub.add_parser("shuffle", help="randomly permute a tableau file "
                       "(rows/columns, or every axis)")
    s.add_argument("file")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--format", choices=("json", "text"), default="json")
    _add_output(s)
    s.set_defaults(func=_cmd_shuffle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:
        print(f"error: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
