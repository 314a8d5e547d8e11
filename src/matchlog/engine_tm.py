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
cross-checked in the test suite.
"""

from __future__ import annotations

from .cotree import AndNode, OrNode, ProofTree, Status, TreeOutcome
from .substitution import instances
from .syntax import Atom, Program, renumbering, rename_atom


def tm_prove(program: Program, goal: Atom, depth: int) -> TreeOutcome:
    """Decide entailment of `goal` up to `depth` clause applications.

    Clauses are tried in program order, subgoals left to right. Statuses of
    subgoals are memoised per (atom up to fresh renaming, remaining depth),
    which keeps looping programs within the depth bound.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    program.check_atom(goal)
    base = goal.max_var
    memo: dict[tuple[Atom, int], Status] = {}

    def status(atom: Atom, remaining: int) -> Status:
        if remaining == 0:
            return Status.UNKNOWN
        top = atom.max_var
        # renumbering(base) is the identity on an atom over x1..x`base`.
        key = (atom if top <= base else rename_atom(atom, renumbering(base, {})), remaining)
        hit = memo.get(key)
        if hit is not None:
            return hit
        best = None
        for _, _, body in instances(program, atom, max(base, top)):
            branch = Status.PROVED
            for sub in body:
                branch = min(branch, status(sub, remaining - 1))
                if branch is Status.FAILED:
                    break
            best = branch if best is None else max(best, branch)
            if best is Status.PROVED:
                break
        if best is None:
            best = Status.UNKNOWN if top > base else Status.FAILED
        memo[key] = best
        return best

    def frame(atom: Atom, remaining: int) -> tuple:
        """The first instance whose whole body is proved, with an empty list
        for the subtrees of its body."""
        for idx, theta, body in instances(program, atom, max(base, atom.max_var)):
            if all(status(sub, remaining - 1) is Status.PROVED for sub in body):
                return atom, remaining, idx, theta, body, []
        raise AssertionError("proof extraction on an unproved goal")

    def extract(atom: Atom, remaining: int) -> AndNode:
        # Post-order over an explicit stack, so proof depth costs no frames.
        stack = [frame(atom, remaining)]
        while True:
            atom, remaining, idx, theta, body, kids = stack[-1]
            if len(kids) < len(body):
                stack.append(frame(body[len(kids)], remaining - 1))
                continue
            stack.pop()
            node = AndNode(atom, (OrNode(idx, theta, tuple(kids)),), False)
            if not stack:
                return node
            stack[-1][-1].append(node)

    outcome = status(goal, depth)
    if outcome is Status.PROVED:
        return TreeOutcome(outcome, ProofTree(extract(goal, depth), base))
    return TreeOutcome(outcome)
