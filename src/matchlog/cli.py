"""Command line front end.

Subcommands: prove, solve, tree, check, classify. Exit codes for `prove`
follow the three-valued verdict (0 proved, 1 failed, 2 unknown); `check`
exits 0 exactly when no violations were found; usage errors, including
out-of-range numeric bounds, exit 64; unreadable or malformed input, input
nested too deeply to process, a lax or inj sweep with no square to check,
and a bridge or ground-oracle check of a program with no atom, exit 65.
Every subcommand formats its whole output before `main` writes any of it,
so an exit 65 leaves stdout empty.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Sequence

from . import coalgebra, cotree, engine_sld, engine_tm, syntax
from .cotree import Status
from .substitution import Substitution
from .syntax import ArityMismatchError, ParseError, Program, print_atom, print_term

EX_USAGE = 64
EX_DATAERR = 65

_STATUS_EXIT = {Status.PROVED: 0, Status.FAILED: 1, Status.UNKNOWN: 2}


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{self.prog}: {message}")


def _int_at_least(low: int) -> Callable[[str], int]:
    """argparse type for a numeric bound; a value below `low` is a usage error."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse reports unparsable text as an "invalid int value"
    return parse


_NATURAL, _POSITIVE = _int_at_least(0), _int_at_least(1)


def _add_subcommand(sub: argparse._SubParsersAction, name: str, help: str,
                    goal: bool) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=help)
    p.add_argument("program", help="path to a .lp program file")
    if goal:
        p.add_argument("goal", help="goal atom, e.g. 'connected(X,Y)'")
    return p


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="matchlog",
                             description="Horn-clause proving, solving and tree tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p_prove = _add_subcommand(sub, "prove", "term-matching proof of a goal as stated", goal=True)
    p_prove.add_argument("--depth", type=_POSITIVE, default=16)
    p_prove.add_argument("--format", choices=["ascii", "dot", "json"], default="ascii")

    p_solve = _add_subcommand(sub, "solve", "SLD resolution: computed answers", goal=True)
    p_solve.add_argument("--max-steps", type=_POSITIVE, default=10_000,
                         help="resolution steps allowed on each derivation (its "
                              "length); not a bound on the total work")
    p_solve.add_argument("--max-answers", type=_POSITIVE, default=1)
    p_solve.add_argument("--strategy", choices=["dfs", "iddfs"], default="iddfs")

    p_tree = _add_subcommand(sub, "tree", "render the truncated and-or tree", goal=True)
    p_tree.add_argument("--depth", type=_NATURAL, default=16)
    p_tree.add_argument("--format", choices=["ascii", "dot", "json"], default="ascii")

    _add_check_parser(sub)
    _add_subcommand(sub, "classify", "existential-clause classification", goal=False)
    return parser


def _add_check_parser(sub: argparse._SubParsersAction) -> None:
    p = _add_subcommand(sub, "check", "run a checker suite over the program", goal=False)
    p.add_argument("--what", choices=["lax", "inj", "bridge", "ground-oracle"], required=True)
    p.add_argument("--levels", type=_NATURAL, default=4,
                   help="unfolding levels for ground-oracle")
    p.add_argument("--arity", type=_NATURAL, default=3,
                   help="largest variable context for lax/inj sweeps")
    p.add_argument("--term-depth", type=_POSITIVE, default=2,
                   help="term depth bound for generated arrows")
    p.add_argument("--depth", type=_POSITIVE, default=16,
                   help="term-matching depth for bridge checks")
    p.add_argument("--max-steps", type=_POSITIVE, default=10_000,
                   help="resolution steps allowed on each SLD derivation "
                        "for bridge checks; not a bound on the total work")
    p.add_argument("--max-answers", type=_POSITIVE, default=5)
    p.add_argument("--max-report", type=_NATURAL, default=20,
                   help="cap on printed witness lines")
    p.add_argument("--format", choices=["ascii", "json"], default="ascii")


def _load_program(path: str) -> Program:
    with open(path, "r", encoding="utf-8") as fh:
        return syntax.parse_program(fh.read())


def _text(lines: Sequence[str]) -> str:
    return "".join(line + "\n" for line in lines)


def _format_answer(bindings: Substitution, names: Sequence[str]) -> str:
    def name(index: int) -> str:
        """The goal's own spelling, or _G<k> for the k-th residual variable,
        prefixed with '_' until it clashes with no goal variable."""
        if index <= len(names):
            return names[index - 1]
        candidate = f"_G{index - len(names)}"
        while candidate in names:
            candidate = "_" + candidate
        return candidate

    parts = [f"{names[i - 1]} -> {print_term(t, name)}" for i, t in bindings.items()]
    return "{" + ", ".join(parts) + "}"


def _cmd_prove(program: Program, args: argparse.Namespace) -> tuple[int, list[str]]:
    goal = syntax.parse_goal(args.goal, program.signature)
    result = engine_tm.tm_prove(program, goal.atom, args.depth)
    proof = [] if result.proof is None else cotree.render_chunks(result.proof, args.format)
    return _STATUS_EXIT[result.status], [f"{result.status}\n", *proof]


def _cmd_solve(program: Program, args: argparse.Namespace) -> tuple[int, list[str]]:
    goal = syntax.parse_goal(args.goal, program.signature)
    limits = engine_sld.SldLimits(max_steps=args.max_steps,
                                  max_answers=args.max_answers,
                                  strategy=args.strategy)
    result = engine_sld.sld_solve(program, goal.atoms, limits)
    lines = [_format_answer(answer.bindings, goal.var_names) for answer in result.answers]
    if result.exhausted:
        lines.append("%% bound reached")
    return 0, [_text(lines)]


def _cmd_tree(program: Program, args: argparse.Namespace) -> tuple[int, list[str]]:
    goal = syntax.parse_goal(args.goal, program.signature)
    t = cotree.build_tree(program, goal.atom, goal.var_count, args.depth)
    return 0, cotree.render_chunks(t, args.format)


def _check_lax(program: Program, args: argparse.Namespace) -> tuple[bool, dict, list[str]]:
    report = coalgebra.lax_sweep(program, max_arity=args.arity, term_depth=args.term_depth)
    if report.squares_checked == 0:
        raise ValueError(f"nothing to check: no atom or arrow is available "
                         f"at arity {args.arity}")
    strict_expected = args.what == "inj"
    others = () if strict_expected else report.equality_failures
    # simplest witnesses first
    witnesses = sorted(report.lax_failures + report.injection_failures + others,
                       key=lambda sq: (len(str(sq.arrow)), str(sq.arrow), print_atom(sq.atom)))
    ok = report.all_lax_ok and (not strict_expected or report.injections_strict)
    shown, hidden = witnesses[:args.max_report], len(witnesses) - args.max_report
    doc = {"check": args.what,
           "squares_checked": report.squares_checked,
           "classes_checked": report.classes_checked,
           "lax_failures": len(report.lax_failures),
           "injection_failures": len(report.injection_failures),
           "equality_failures": len(report.equality_failures),
           "witnesses": [sq.to_record() for sq in shown],
           "ok": ok}
    more = [f"... and {hidden} more"] if hidden > 0 else []
    verdict = ("STRICT " if strict_expected else "LAX ") + ("OK" if ok else "FAIL")
    return ok, doc, [report.summary(), *(sq.line(strict_expected=True) for sq in shown),
                     *more, verdict]


def _check_bridge(program: Program, args: argparse.Namespace) -> tuple[bool, dict, list[str]]:
    limits = engine_sld.SldLimits(max_steps=args.max_steps, max_answers=args.max_answers)
    reports = [engine_sld.check_bridge(program, goal, limits, tm_depth=args.depth)
               for goal in program.signature.generic_atoms]
    if not reports:
        raise ValueError("nothing to check: the program has no atom")
    ok = not any(rep.violations for rep in reports)
    goals = [{"goal": print_atom(rep.goal),
              "exhausted": rep.exhausted,
              "answers": [{"answer": str(e.answer.bindings),
                           "instance": print_atom(e.instance),
                           "tm": str(e.status)} for e in rep.entries]}
             for rep in reports]
    doc = {"check": "bridge", "goals": goals, "ok": ok}
    return ok, doc, [rep.to_text().removesuffix("\n") for rep in reports]


def _check_ground(program: Program, args: argparse.Namespace) -> tuple[bool, dict, list[str]]:
    try:
        g = coalgebra.ground_coalgebra(program)
    except ValueError as exc:
        raise ValueError(f"ground-oracle requires a variable-free program: {exc}") from exc
    if not g.atoms:
        raise ValueError("nothing to check: the program has no atom")
    entailed = coalgebra.ground_lfp(program)
    depth = len(g.atoms) + 1
    atoms, lines = [], []
    for atom in g.atoms:
        levels_ok = coalgebra.approximant_matches_tree(g, atom, args.levels)
        proved = engine_tm.tm_status(program, atom, depth) is Status.PROVED
        lfp_ok = proved == (atom in entailed)
        atoms.append({"atom": print_atom(atom), "levels_match": levels_ok,
                      "lfp_agrees": lfp_ok})
        tag = "GROUND OK" if levels_ok and lfp_ok else "GROUND FAIL"
        lines.append(f"{tag}  A={print_atom(atom)}  levels=0..{args.levels} "
                     f"match={levels_ok}  lfp_agrees={lfp_ok}")
    ok = all(a["levels_match"] and a["lfp_agrees"] for a in atoms)
    doc = {"check": "ground-oracle", "levels": args.levels, "atoms": atoms, "ok": ok}
    return ok, doc, lines


_CHECKS = {"lax": _check_lax, "inj": _check_lax, "bridge": _check_bridge,
           "ground-oracle": _check_ground}


def _cmd_check(program: Program, args: argparse.Namespace) -> tuple[int, list[str]]:
    ok, doc, lines = _CHECKS[args.what](program, args)
    text = json.dumps(doc, indent=2) + "\n" if args.format == "json" else _text(lines)
    return 0 if ok else 1, [text]


def _cmd_classify(program: Program, args: argparse.Namespace) -> tuple[int, list[str]]:
    classification = syntax.classify_program(program)
    if not classification.is_existential:
        return 0, ["non-existential\n"]
    lines, total = [], len(program.clauses)
    for idx in classification.existential_clauses:
        clause = program.clauses[idx]
        names = clause.var_names or tuple(
            syntax.var_name(i) for i in range(1, clause.var_count + 1))
        offenders = ", ".join(names[i - 1]
                              for i in range(clause.head_var_count + 1, clause.var_count + 1))
        label = "variable" if clause.var_count - clause.head_var_count == 1 else "variables"
        lines.append(f"existential: clause {idx + 1} of {total} ({label} {offenders})")
    return 0, [_text(lines)]


_COMMANDS = {"prove": _cmd_prove, "solve": _cmd_solve, "tree": _cmd_tree,
             "check": _cmd_check, "classify": _cmd_classify}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code, chunks = _COMMANDS[args.command](_load_program(args.program), args)
        # sys.stdout is looked up on each call, so a redirect around main holds.
        sys.stdout.writelines(chunks)
        return code
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EX_USAGE
    except (ParseError, ArityMismatchError, OSError, ValueError) as exc:
        message = str(exc)
    except RecursionError:
        message = "input nested too deeply to process"
    print(f"matchlog: {message}", file=sys.stderr)
    return EX_DATAERR


if __name__ == "__main__":
    sys.exit(main())
