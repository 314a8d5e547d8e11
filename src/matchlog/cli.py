"""Command line front end.

Subcommands: prove, solve, tree, check, classify. Exit codes for `prove`
follow the three-valued verdict (0 proved, 1 failed, 2 unknown); `check`
exits 0 exactly when no violations were found; usage errors, including
out-of-range numeric bounds, exit 64; unreadable or malformed input, input
nested too deeply to process, a lax or inj sweep with no square to check,
and a bridge or ground-oracle check of a program with no atom, exit 65.
Every subcommand formats its whole output before `main` writes any of it,
so an exit 65 leaves stdout empty.

A check's report is its JSON document, which `--format json` prints. The
ascii output is that document rendered by the check's text renderer, so
each witness, answer and atom is printed once, into the document.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable, Sequence

from . import coalgebra, cotree, engine_sld, engine_tm, syntax
from .cotree import Status
from .syntax import ArityMismatchError, ParseError, Program, print_term

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


def _format_answer(answer: engine_sld.Answer, names: Sequence[str]) -> str:
    def name(index: int) -> str:
        """The goal's own spelling, or _G<k> for the k-th residual variable,
        prefixed with '_' until it clashes with no goal variable."""
        if index <= len(names):
            return names[index - 1]
        candidate = f"_G{index - len(names)}"
        while candidate in names:
            candidate = "_" + candidate
        return candidate

    return engine_sld.answer_text(answer.store.get, len(names), name)


def _cmd_prove(program: Program, args: argparse.Namespace) -> tuple[int, list[str]]:
    goal = syntax.parse_goal(args.goal, program.signature)
    result = engine_tm.tm_prove(program, goal.atom, args.depth)
    proof = [] if result.proof is None else cotree.render(result.proof, args.format, pieces=True)
    return _STATUS_EXIT[result.status], [f"{result.status}\n", *proof]


def _cmd_solve(program: Program, args: argparse.Namespace) -> tuple[int, list[str]]:
    goal = syntax.parse_goal(args.goal, program.signature)
    limits = engine_sld.SldLimits(max_steps=args.max_steps,
                                  max_answers=args.max_answers,
                                  strategy=args.strategy)
    result = engine_sld.sld_solve(program, goal.atoms, limits)
    lines = [_format_answer(answer, goal.var_names) for answer in result.answers]
    if result.exhausted:
        lines.append("%% bound reached")
    return 0, [_text(lines)]


def _cmd_tree(program: Program, args: argparse.Namespace) -> tuple[int, list[str]]:
    goal = syntax.parse_goal(args.goal, program.signature)
    t = cotree.build_tree(program, goal.atom, goal.var_count, args.depth)
    return 0, cotree.render(t, args.format, pieces=True)


def _check_lax(program: Program, args: argparse.Namespace) -> dict:
    report = coalgebra.lax_sweep(program, max_arity=args.arity, term_depth=args.term_depth)
    if report.squares_checked == 0:
        raise ValueError(f"nothing to check: no atom or arrow is available "
                         f"at arity {args.arity}")
    strict_expected = args.what == "inj"
    others = () if strict_expected else report.equality_failures
    # Simplest witnesses first. Witnesses share their arrows' components and
    # their atoms, so the sort key prints each distinct term once.
    text = functools.cache(print_term)
    witnesses = sorted(report.lax_failures + report.injection_failures + others,
                       key=lambda sq: (len(f := sq.arrow.text(text)), f, text(sq.atom)))
    return {"check": args.what,
            "squares_checked": report.squares_checked,
            "classes_checked": report.classes_checked,
            "lax_failures": len(report.lax_failures),
            "injection_failures": len(report.injection_failures),
            "equality_failures": len(report.equality_failures),
            "witnesses": [sq.to_record() for sq in witnesses[:args.max_report]],
            "ok": not report.lax_failures and not (strict_expected and report.injection_failures)}


def _lax_text(doc: dict) -> list[str]:
    shown, strict_expected = doc["witnesses"], doc["check"] == "inj"
    hidden = (doc["lax_failures"] + doc["injection_failures"] - len(shown)
              + (0 if strict_expected else doc["equality_failures"]))
    # A witness fails equality, so it is tagged by whether it is lax.
    return [f"checked {doc['squares_checked']} squares ({doc['classes_checked']} distinct): "
            f"{doc['lax_failures']} lax failures, {doc['injection_failures']} injection "
            f"equality failures, {doc['equality_failures']} equality failures elsewhere",
            *(f"{'STRICT' if w['lax_ok'] else 'LAX'} FAIL  f={w['arrow']}  A={w['atom']}  "
              f"lhs={w['lhs']} rhs={w['rhs']}" for w in shown),
            *([f"... and {hidden} more"] if hidden > 0 else []),
            ("STRICT " if strict_expected else "LAX ") + ("OK" if doc["ok"] else "FAIL")]


def _check_bridge(program: Program, args: argparse.Namespace) -> dict:
    limits = engine_sld.SldLimits(max_steps=args.max_steps, max_answers=args.max_answers)
    reports = [engine_sld.check_bridge(program, goal, limits, tm_depth=args.depth)
               for goal in program.signature.generic_atoms]
    if not reports:
        raise ValueError("nothing to check: the program has no atom")
    goals = [{"goal": print_term(rep.goal),
              "exhausted": rep.exhausted,
              "answers": [{"answer": e.answer.text,
                           "instance": print_term(e.instance),
                           "tm": str(e.status)} for e in rep.entries]}
             for rep in reports]
    return {"check": "bridge", "goals": goals,
            "ok": not any(rep.violations for rep in reports)}


def _bridge_text(doc: dict) -> list[str]:
    lines = []
    for g in doc["goals"]:
        lines += [f"BRIDGE {'FAIL' if a['tm'] == str(Status.FAILED) else 'OK'}  goal={g['goal']}  "
                  f"answer={a['answer']}  instance={a['instance']}  tm={a['tm']}"
                  for a in g["answers"]] or [f"BRIDGE OK  goal={g['goal']}  (no answers)"]
    return lines


def _check_ground(program: Program, args: argparse.Namespace) -> dict:
    try:
        g = coalgebra.ground_coalgebra(program)
    except ValueError as exc:
        raise ValueError(f"ground-oracle requires a variable-free program: {exc}") from exc
    if not g.atoms:
        raise ValueError("nothing to check: the program has no atom")
    entailed = coalgebra.ground_lfp(program)
    depth = len(g.atoms) + 1
    atoms = []
    for atom in g.atoms:
        levels_ok = coalgebra.approximant_matches_tree(program, g, atom, args.levels)
        proved = engine_tm.tm_status(program, atom, depth) is Status.PROVED
        atoms.append({"atom": print_term(atom), "levels_match": levels_ok,
                      "lfp_agrees": proved == (atom in entailed)})
    return {"check": "ground-oracle", "levels": args.levels, "atoms": atoms,
            "ok": all(a["levels_match"] and a["lfp_agrees"] for a in atoms)}


def _ground_text(doc: dict) -> list[str]:
    return [f"GROUND {'OK' if a['levels_match'] and a['lfp_agrees'] else 'FAIL'}  "
            f"A={a['atom']}  levels=0..{doc['levels']} match={a['levels_match']}  "
            f"lfp_agrees={a['lfp_agrees']}" for a in doc["atoms"]]


_CHECKS = {"lax": (_check_lax, _lax_text), "inj": (_check_lax, _lax_text),
           "bridge": (_check_bridge, _bridge_text),
           "ground-oracle": (_check_ground, _ground_text)}


def _cmd_check(program: Program, args: argparse.Namespace) -> tuple[int, list[str]]:
    check, render_text = _CHECKS[args.what]
    doc = check(program, args)
    text = json.dumps(doc, indent=2) + "\n" if args.format == "json" else _text(render_text(doc))
    return 0 if doc["ok"] else 1, [text]


def _cmd_classify(program: Program, args: argparse.Namespace) -> tuple[int, list[str]]:
    existential = syntax.classify_program(program)
    if not existential:
        return 0, ["non-existential\n"]
    lines, total = [], len(program.clauses)
    for idx in existential:
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
