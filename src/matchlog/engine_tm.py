"""Term-matching prover: depth-bounded search for proofs that never bind
goal variables.

A goal is proved as stated, for all values of its variables: at each step a
clause head must match the current atom exactly (one-way matching), and the
matched body instances become subgoals. Body-only clause variables are
instantiated with fresh variables; a dead end that mentions such a fresh
variable is inconclusive rather than a definite failure, because the fresh
variable stands for an arbitrary instantiation.

Every search on a `Program` reads and extends one verdict table, the
program's `tm_table`, so a `tm_status` or `tm_prove` call answers the
subgoals that earlier calls settled without searching them again (tabled
resolution; Chen & Warren, "Tabled evaluation with delaying for general
logic programs", JACM 1996). A verdict is stored with the remaining depth
it needs, and read at other depths by monotonicity: Proved or Failed at
remaining depth r stays so at every r' >= r, and Unknown at r holds at
every r' <= r.

The search is an independent implementation of the verdict that
`cotree.success_subtree(cotree.build_tree(...))` computes; the two are
cross-checked in the test suite. Its verdicts do not depend on how fresh
variables are numbered, so the proof is extracted with `build_tree`'s own
step, `cotree.or_children`: it is the success subtree of that tree.
"""

from __future__ import annotations

import sys
from typing import Callable, Generator

from .cotree import ProofTree, Status, TreeOutcome, and_node, fold, or_children
from .substitution import instances
from .syntax import Atom, Program, rename, renumbering

# A table entry's depth for a Proved or Failed verdict not yet reached.
_NEVER = sys.maxsize


def tm_prove(program: Program, goal: Atom, depth: int) -> TreeOutcome:
    """Decide entailment of `goal` up to `depth` clause applications, with
    the proof when it is Proved.

    The proof takes, at each node, the first clause instance whose whole
    body the search proved, re-reading subgoal verdicts from the table.
    """
    status = _searcher(program, goal, depth)
    outcome = _verdict(status(goal, depth))
    if outcome is not Status.PROVED:
        return TreeOutcome(outcome)
    base = goal.max_var

    def chosen(x: tuple[Atom, int, int]) -> list:
        """The first or-child of the tree node `x` whose whole body is proved."""
        for label, kids in or_children(program, *x):
            if all(status(atom, remaining) > 0 for atom, remaining, _ in kids):
                return [(label, kids)]
        raise AssertionError("proof extraction on an unproved goal")

    proof = fold((goal, depth, base), lambda x: x, chosen,
                 lambda x, ors: and_node(x[0], ors, False))
    return TreeOutcome(outcome, ProofTree(proof, base))


def tm_status(program: Program, goal: Atom, depth: int) -> Status:
    """`tm_prove(program, goal, depth).status`, without extracting a proof."""
    return _verdict(_searcher(program, goal, depth)(goal, depth))


def _verdict(height: int) -> Status:
    return Status.PROVED if height > 0 else Status.FAILED if height else Status.UNKNOWN


def _searcher(program: Program, goal: Atom, depth: int) -> Callable[[Atom, int], int]:
    """The verdict of (subgoal, remaining depth) under `goal`'s search, as a
    signed height: h > 0 for Proved and -h for Failed at every remaining
    depth >= h, and 0 for Unknown.

    Clauses are tried in program order, subgoals left to right. The height
    of a proof is one more than the greatest height in the proving
    instance's body; that of a failure is the greatest, over the matching
    instances, of one more than the failing subgoal's height, and 1 when no
    instance matches.

    Verdicts live in `program.tm_table`, keyed by the atom with its
    variables above b renumbered b+1, b+2, ... by first occurrence, and b
    itself, where b = min(`goal.max_var`, atom.max_var): the variables up to
    b are the goal's own and the rest are fresh, which decides whether a
    dead end is Failed or Unknown. Each entry holds the least remaining
    depth known to prove the atom, the least known to fail it, and the
    greatest known to leave it Unknown. A looping program stays within the
    depth bound, since every subgoal has less depth left than its parent.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    program.check_atom(goal)
    base = goal.max_var
    table = program.tm_table

    def search(atom: Atom, remaining: int) -> int | Generator:
        """The verdict of `atom` if the table settles it, else a generator
        that yields each (subgoal, remaining), is sent its verdict and
        returns `atom`'s."""
        if remaining == 0:
            return 0
        top = atom.max_var
        # renumbering(base) is the identity on an atom over x1..x`base`.
        key = (atom, top) if top <= base else (rename(atom, renumbering(base, {})), base)
        entry = table.get(key)
        if entry is None:
            entry = table[key] = [_NEVER, _NEVER, 0]
        else:
            proved, failed, unknown = entry
            if proved <= remaining:
                return proved
            if failed <= remaining:
                return -failed
            if remaining <= unknown:
                return 0
        return expand(atom, remaining, top, entry)

    def expand(atom: Atom, remaining: int, top: int, entry: list[int]) -> Generator:
        failed, unknown = 0, False
        for _, _, body in instances(program, atom, max(base, top)):
            height, open_branch = 1, False
            for sub in body:
                h = yield sub, remaining - 1
                if h < 0:
                    failed = max(failed, 1 - h)
                    break
                if h == 0:
                    open_branch = True
                elif h >= height:
                    height = h + 1
            else:
                if not open_branch:
                    entry[0] = min(entry[0], height)
                    return height
                unknown = True
        if unknown or (not failed and top > base):
            entry[2] = max(entry[2], remaining)
            return 0
        failed = failed or 1
        entry[1] = min(entry[1], failed)
        return -failed

    def status(atom: Atom, remaining: int) -> int:
        # One suspended `expand` per open subgoal on an explicit stack, so
        # proof depth costs no Python frames.
        stack, value = [], search(atom, remaining)
        while stack or type(value) is not int:
            if type(value) is not int:
                stack.append(value)
                value = None
            try:
                value = search(*stack[-1].send(value))
            except StopIteration as done:
                stack.pop()
                value = done.value
        return value

    return status
