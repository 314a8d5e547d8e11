"""Term-matching prover: depth-bounded search for proofs that never bind
goal variables.

A goal is proved as stated, for all values of its variables: at each step a
clause head must match the current atom exactly (one-way matching), and the
matched body instances become subgoals. Body-only clause variables are
instantiated with fresh variables; a dead end that mentions such a fresh
variable is inconclusive rather than a definite failure, because the fresh
variable stands for an arbitrary instantiation.

The search is an independent implementation of the verdict that
`cotree.success_subtree(cotree.build_tree(...))` computes; the two are
cross-checked in the test suite. Its verdicts do not depend on how fresh
variables are numbered, so the proof is extracted with `build_tree`'s own
step, `cotree.or_children`: it is the success subtree of that tree.
"""

from __future__ import annotations

from typing import Callable, Generator

from .cotree import ProofTree, Status, TreeOutcome, and_node, fold, or_children
from .substitution import instances
from .syntax import Atom, Program, rename, renumbering


def tm_prove(program: Program, goal: Atom, depth: int) -> TreeOutcome:
    """Decide entailment of `goal` up to `depth` clause applications, with
    the proof when it is Proved.

    The proof takes, at each node, the first clause instance whose whole
    body the search proved, re-reading subgoal statuses from its memo.
    """
    status = _searcher(program, goal, depth)
    outcome = status(goal, depth)
    if outcome is not Status.PROVED:
        return TreeOutcome(outcome)
    base = goal.max_var

    def chosen(x: tuple[Atom, int, int]) -> list:
        """The first or-child of the tree node `x` whose whole body is proved."""
        for label, kids in or_children(program, *x):
            if all(status(atom, remaining) is Status.PROVED for atom, remaining, _ in kids):
                return [(label, kids)]
        raise AssertionError("proof extraction on an unproved goal")

    proof = fold((goal, depth, base), lambda x: x, chosen,
                 lambda x, ors: and_node(x[0], ors, False))
    return TreeOutcome(outcome, ProofTree(proof, base))


def tm_status(program: Program, goal: Atom, depth: int) -> Status:
    """`tm_prove(program, goal, depth).status`, without extracting a proof."""
    return _searcher(program, goal, depth)(goal, depth)


def _searcher(program: Program, goal: Atom, depth: int) -> Callable[[Atom, int], Status]:
    """The memoised status of (subgoal, remaining depth) under `goal`'s search.

    Clauses are tried in program order, subgoals left to right. Statuses of
    subgoals are memoised per (atom up to fresh renaming, remaining depth),
    which keeps looping programs within the depth bound.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    program.check_atom(goal)
    base = goal.max_var
    memo: dict[tuple[Atom, int], Status] = {}

    def search(atom: Atom, remaining: int) -> Status | Generator:
        """The status of `atom` if it is settled, else a generator that yields
        each (subgoal, remaining), is sent its status and returns `atom`'s."""
        if remaining == 0:
            return Status.UNKNOWN
        top = atom.max_var
        # renumbering(base) is the identity on an atom over x1..x`base`.
        key = (atom if top <= base else rename(atom, renumbering(base, {})), remaining)
        hit = memo.get(key)
        return expand(atom, remaining, top, key) if hit is None else hit

    def expand(atom: Atom, remaining: int, top: int, key: tuple[Atom, int]) -> Generator:
        best = None
        for _, _, body in instances(program, atom, max(base, top)):
            branch = Status.PROVED
            for sub in body:
                branch = min(branch, (yield sub, remaining - 1))
                if branch is Status.FAILED:
                    break
            best = branch if best is None else max(best, branch)
            if best is Status.PROVED:
                break
        if best is None:
            best = Status.UNKNOWN if top > base else Status.FAILED
        memo[key] = best
        return best

    def status(atom: Atom, remaining: int) -> Status:
        # One suspended `expand` per open subgoal on an explicit stack, so
        # proof depth costs no Python frames.
        stack, value = [], search(atom, remaining)
        while stack or type(value) is not Status:
            if type(value) is not Status:
                stack.append(value)
                value = None
            try:
                value = search(*stack[-1].send(value))
            except StopIteration as done:
                stack.pop()
                value = done.value
        return value

    return status
