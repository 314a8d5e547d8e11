"""Command line front end.

Subcommands: prove, solve, tree, check, classify. Exit codes for `prove`
follow the three-valued verdict (0 proved, 1 failed, 2 unknown); `check`
exits 0 exactly when no violations were found; usage errors, including
out-of-range numeric bounds, exit 64; unreadable or malformed input, terms
nested too deeply to process, and a lax or inj sweep with no square to
check, exit 65.
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


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="matchlog",
                             description="Horn-clause proving, solving and tree tools")
    sub = parser.add_subparsers(dest="command", required=True)
    natural, positive = _int_at_least(0), _int_at_least(1)

    def add_common(p: argparse.ArgumentParser, goal: bool) -> None:
        p.add_argument("program", help="path to a .lp program file")
        if goal:
            p.add_argument("goal", help="goal atom, e.g. 'connected(X,Y)'")

    p_prove = sub.add_parser("prove", help="term-matching proof of a goal as stated")
    add_common(p_prove, goal=True)
    p_prove.add_argument("--depth", type=positive, default=16)
    p_prove.add_argument("--format", choices=["ascii", "dot", "json"], default="ascii")

    p_solve = sub.add_parser("solve", help="SLD resolution: computed answers")
    add_common(p_solve, goal=True)
    p_solve.add_argument("--max-steps", type=positive, default=10_000,
                         help="resolution steps allowed on each derivation (its "
                              "length); not a bound on the total work")
    p_solve.add_argument("--max-answers", type=positive, default=1)
    p_solve.add_argument("--strategy", choices=["dfs", "iddfs"], default="iddfs")

    p_tree = sub.add_parser("tree", help="render the truncated and-or tree")
    add_common(p_tree, goal=True)
    p_tree.add_argument("--depth", type=natural, default=16)
    p_tree.add_argument("--format", choices=["ascii", "dot", "json"], default="ascii")

    p_check = sub.add_parser("check", help="run a checker suite over the program")
    add_common(p_check, goal=False)
    p_check.add_argument("--what", choices=["lax", "inj", "bridge", "ground-oracle"],
                         required=True)
    p_check.add_argument("--levels", type=natural, default=4,
                         help="unfolding levels for ground-oracle")
    p_check.add_argument("--arity", type=natural, default=3,
                         help="largest variable context for lax/inj sweeps")
    p_check.add_argument("--term-depth", type=positive, default=2,
                         help="term depth bound for generated arrows")
    p_check.add_argument("--depth", type=positive, default=16,
                         help="term-matching depth for bridge checks")
    p_check.add_argument("--max-steps", type=positive, default=10_000,
                         help="resolution steps allowed on each SLD derivation "
                              "for bridge checks; not a bound on the total work")
    p_check.add_argument("--max-answers", type=positive, default=5)
    p_check.add_argument("--max-report", type=natural, default=20,
                         help="cap on printed witness lines")
    p_check.add_argument("--format", choices=["ascii", "json"], default="ascii")

    p_classify = sub.add_parser("classify", help="existential-clause classification")
    add_common(p_classify, goal=False)
    return parser


def _load_program(path: str) -> Program:
    with open(path, "r", encoding="utf-8") as fh:
        return syntax.parse_program(fh.read())


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


def _cmd_prove(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    goal = syntax.parse_goal(args.goal, program.signature)
    result = engine_tm.tm_prove(program, goal.atom, args.depth)
    # Render before printing, so a proof too deep to render prints nothing.
    proof = "" if result.proof is None else cotree.render(result.proof, args.format)
    sys.stdout.write(str(result.status) + "\n" + proof)
    return _STATUS_EXIT[result.status]


def _cmd_solve(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    goal = syntax.parse_goal(args.goal, program.signature)
    limits = engine_sld.SldLimits(max_steps=args.max_steps,
                                  max_answers=args.max_answers,
                                  strategy=args.strategy)
    result = engine_sld.sld_solve(program, goal.atoms, limits)
    lines = [_format_answer(answer.bindings, goal.var_names) for answer in result.answers]
    if result.exhausted:
        lines.append("%% bound reached")
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    goal = syntax.parse_goal(args.goal, program.signature)
    t = cotree.build_tree(program, goal.atom, goal.var_count, args.depth)
    sys.stdout.write(cotree.render(t, args.format))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    cap = args.max_report
    as_json = args.format == "json"

    if args.what in ("lax", "inj"):
        report = coalgebra.lax_sweep(program, max_arity=args.arity,
                                     term_depth=args.term_depth)
        if report.squares_checked == 0:
            print(f"matchlog: nothing to check: no atom or arrow is available "
                  f"at arity {args.arity}", file=sys.stderr)
            return EX_DATAERR
        strict_expected = args.what == "inj"
        witnesses = list(report.lax_failures + report.injection_failures)
        if not strict_expected:
            witnesses += report.equality_failures
        # simplest witnesses first
        witnesses.sort(key=lambda sq: (len(str(sq.arrow)), str(sq.arrow),
                                       print_atom(sq.atom)))
        if args.what == "lax":
            ok = report.all_lax_ok
            verdict = "LAX OK" if ok else "LAX FAIL"
        else:
            ok = report.all_lax_ok and report.injections_strict
            verdict = "STRICT OK" if ok else "STRICT FAIL"
        if as_json:
            print(json.dumps({
                "check": args.what,
                "squares_checked": report.squares_checked,
                "classes_checked": report.classes_checked,
                "lax_failures": len(report.lax_failures),
                "injection_failures": len(report.injection_failures),
                "equality_failures": len(report.equality_failures),
                "witnesses": [sq.to_record() for sq in witnesses[:cap]],
                "ok": ok,
            }, indent=2))
        else:
            print(report.summary())
            for sq in witnesses[:cap]:
                print(sq.line(strict_expected=True))
            if len(witnesses) > cap:
                print(f"... and {len(witnesses) - cap} more")
            print(verdict)
        return 0 if ok else 1

    if args.what == "bridge":
        limits = engine_sld.SldLimits(max_steps=args.max_steps,
                                      max_answers=args.max_answers)
        bad = 0
        records, texts = [], []
        for goal in program.signature.generic_atoms:
            rep = engine_sld.check_bridge(program, goal, limits, tm_depth=args.depth)
            bad += len(rep.violations)
            if as_json:
                records.append({
                    "goal": print_atom(goal),
                    "exhausted": rep.exhausted,
                    "answers": [
                        {"answer": str(e.answer.bindings),
                         "instance": print_atom(e.instance),
                         "tm": str(e.status)}
                        for e in rep.entries
                    ],
                })
            else:
                texts.append(rep.to_text())
        if as_json:
            texts.append(json.dumps({"check": "bridge", "goals": records, "ok": bad == 0},
                                    indent=2) + "\n")
        sys.stdout.write("".join(texts))
        return 0 if bad == 0 else 1

    # ground-oracle
    try:
        g = coalgebra.ground_coalgebra(program)
    except ValueError as exc:
        print(f"ground-oracle requires a variable-free program: {exc}", file=sys.stderr)
        return EX_DATAERR
    entailed = coalgebra.ground_lfp(program)
    depth = max(1, len(g.atoms) + 1)
    bad = 0
    records, lines = [], []
    for atom in g.atoms:
        levels_ok = all(
            coalgebra.approximant_matches_tree(g, atom, n)
            for n in range(args.levels + 1)
        )
        proved = engine_tm.tm_status(program, atom, depth) is Status.PROVED
        lfp_ok = proved == (atom in entailed)
        if not (levels_ok and lfp_ok):
            bad += 1
        if as_json:
            records.append({"atom": print_atom(atom), "levels_match": levels_ok,
                            "lfp_agrees": lfp_ok})
        else:
            tag = "GROUND OK" if levels_ok and lfp_ok else "GROUND FAIL"
            lines.append(f"{tag}  A={print_atom(atom)}  levels=0..{args.levels} "
                         f"match={levels_ok}  lfp_agrees={lfp_ok}")
    if as_json:
        lines.append(json.dumps({"check": "ground-oracle", "levels": args.levels,
                                 "atoms": records, "ok": bad == 0}, indent=2))
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 0 if bad == 0 else 1


def _cmd_classify(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    classification = syntax.classify_program(program)
    if not classification.is_existential:
        print("non-existential")
        return 0
    total = len(program.clauses)
    for idx in classification.existential_clauses:
        clause = program.clauses[idx]
        names = clause.var_names or tuple(
            syntax.var_name(i) for i in range(1, clause.var_count + 1))
        offenders = ", ".join(names[i - 1]
                              for i in range(clause.head_var_count + 1, clause.var_count + 1))
        label = "variable" if clause.var_count - clause.head_var_count == 1 else "variables"
        print(f"existential: clause {idx + 1} of {total} ({label} {offenders})")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EX_USAGE
    try:
        if args.command == "prove":
            return _cmd_prove(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "tree":
            return _cmd_tree(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_classify(args)
    except (ParseError, ArityMismatchError, OSError) as exc:
        print(f"matchlog: {exc}", file=sys.stderr)
        return EX_DATAERR
    except ValueError as exc:
        print(f"matchlog: {exc}", file=sys.stderr)
        return EX_DATAERR
    except RecursionError:
        print("matchlog: term nested too deeply to process", file=sys.stderr)
        return EX_DATAERR


if __name__ == "__main__":
    sys.exit(main())
