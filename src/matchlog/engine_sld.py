"""SLD resolution with unification: enumerates computed answer substitutions.

Selection is always the leftmost atom; its candidate clauses
(`Program.candidates`) are tried in program order, each with its variables
placed above everything used so far. Answers are restricted to the query's
own variables, canonically renamed, and deduplicated. Search is iterative
deepening: depth-first sweeps under a step budget that doubles up to
`max_steps`, so that looping programs still surface the answers a bounded
search can reach. Strategy "dfs" starts the budget at `max_steps`.

No clause is renamed and no resolvent is instantiated or copied, in the
manner of Warren's abstract machine and of Boyer & Moore's structure
sharing. A step uses a clause as it is, at a variable offset (the
`ceiling`): its variable x_j stands for key j + ceiling of one binding
store per sweep, whose values are (term, offset) molecules and whose
bindings may mention bound keys. `unify(atom, offset, head, ceiling, store,
trail)` binds into the store and records each key on a trail. The resolvent
is a linked frame (atoms, position, offset, rest): a step pushes the
clause's body at its offset in front of the rest, which it shares. Read
under the store, that resolvent is the one an eager step would have built by
renaming the clause apart and applying the unifier. The trace is a chain of
(clause index, offset, parent) links, shared by every derivation that
extends it. A choice point records the trail's length, and trying its next
clause first undoes every binding made since. An answer is read only on
success, as text: one `print_term` walk per query variable reads its
binding through the store and renumbers the variables left free, and no
term is built. That text is the answer's key in the dedup set. A new answer
keeps that text, a copy of the store and its trace link; its substitution
and its trace are read from them when first asked for. `sld_solve` is the
only maker of an `Answer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

from .cotree import Status
from .engine_tm import tm_status
from .substitution import Substitution, apply, unify, walk
from .syntax import Atom, Program, Term, Var, print_term, rename, renumbering, var_name


@dataclass(frozen=True)
class SldLimits:
    """Search bounds. `max_steps` caps the number of resolution steps on each
    derivation, that is its length, not the total work of the search: every
    step still tries each candidate clause, and the number of derivations
    within the bound can grow exponentially with it. `strategy` "iddfs"
    deepens the budget from 1; "dfs" starts it at `max_steps`."""

    max_steps: int = 10_000
    max_answers: int = 1
    strategy: str = "iddfs"  # "dfs" or "iddfs"

    def __post_init__(self) -> None:
        if self.max_steps < 1 or self.max_answers < 1:
            raise ValueError("bounds must be >= 1")
        if self.strategy not in ("dfs", "iddfs"):
            raise ValueError(f"unknown strategy {self.strategy!r}")


class Answer:
    """A computed substitution restricted to the query variables x_1..x_n0,
    made by `sld_solve` alone, as `Answer(steps, text, store, n0, link)`.

    `steps` is the derivation's length, `text` the answer's dedup key (its
    `answer_text` with the default namer), `store` a copy of the binding
    store at the derivation's success, and `link` the end of its trace chain.
    `bindings` and `trace` are read from the store and the chain when first
    asked for, and kept. `trace` records (clause index, variable offset) per
    resolution step, so the derivation can be replayed and checked: the
    step's clause variable x_j is x_(j + offset) of the derivation.
    """

    def __init__(self, steps: int, text: str, store: dict[int, tuple[Term, int]],
                 n0: int, link: tuple | None) -> None:
        self.steps = steps
        self.text = text
        self.store = store
        self._n0 = n0
        self._link = link

    @cached_property
    def bindings(self) -> Substitution:
        """Each query variable's binding read through the store, with
        residual free variables renumbered by first occurrence above the
        query's."""
        var_fn, get = renumbering(self._n0, {}), self.store.get
        return Substitution({i: rename(Var(i), var_fn, get) for i in range(1, self._n0 + 1)})

    @cached_property
    def trace(self) -> tuple[tuple[int, int], ...]:
        """The (clause index, offset) steps of the trace chain, first step first."""
        steps = []
        link = self._link
        while link is not None:
            idx, offset, link = link
            steps.append((idx, offset))
        steps.reverse()
        return tuple(steps)


@dataclass(frozen=True)
class SldResult:
    answers: tuple[Answer, ...]
    exhausted: bool  # True when the step bound cut off unexplored derivations


def answer_text(bound: Callable[[int], tuple[Term, int] | None], n0: int,
                name: Callable[[int], str] = var_name) -> str:
    """The answer read from a binding store as text, "{name(i) -> term, ...}"
    for each query variable x_i (i <= n0) that `bound` binds, in order of i.
    One `print_term` walk per variable reads its binding through the store;
    a variable left free prints as `name(k)`, where k is its own index up to
    n0 and n0 + j for the j-th residual variable met. With the default
    `name` it is `str` of the answer's `bindings`.

    An unbound x_i is left out: it is free, and the answer fixes it. A bound
    one never reads back to itself, since unification binds the larger of
    two variables to the smaller and the store is acyclic."""
    residual: dict[int, int] = {}

    def var_text(k: int) -> str:
        if k > n0:
            k = residual.setdefault(k, n0 + len(residual) + 1)
        return name(k)

    parts = [f"{name(i)} -> {print_term(Var(i), var_text, bound=bound)}"
             for i in range(1, n0 + 1) if bound(i) is not None]
    return "{" + ", ".join(parts) + "}"


def sld_solve(program: Program, goals: Sequence[Atom],
              limits: SldLimits | None = None) -> SldResult:
    """Enumerate answers for the conjunction `goals` under the given limits."""
    limits = limits or SldLimits()
    goals = tuple(goals)
    for g in goals:
        program.check_atom(g)
    n0 = max((g.max_var for g in goals), default=0)
    clauses = program.clauses

    answers: list[Answer] = []
    seen: set[str] = set()

    def sweep(budget: int, floor: int) -> bool:
        """One depth-first pass with a per-derivation step budget, reading
        only the derivations longer than `floor` steps.

        Returns True when some derivation was cut off by the budget.
        """
        cutoff = False
        store: dict[int, tuple[Term, int]] = {}
        trail: list[int] = []
        # A resolvent is a frame (atoms, position, offset, rest), standing
        # for atoms[position:] at `offset` followed by the resolvent `rest`,
        # or None when empty; a trace is a link (clause index, offset,
        # parent), or None before the first step. A choice point is
        # [selected atom, its offset, the resolvent after it, ceiling, steps,
        # trace, candidates, next position, trail mark]; it leaves the stack
        # when its last candidate is tried.
        choices: list[list] = []
        node: tuple | None = ((goals, 0, 0, None) if goals else None, n0, 0, None)
        while True:
            if node is not None:
                resolvent, ceiling, steps, trace = node
                if resolvent is None:
                    # An earlier sweep read every derivation within its
                    # budget, the floor, so those are not read again.
                    if steps > floor:
                        key = answer_text(store.get, n0)
                        if key not in seen:
                            seen.add(key)
                            answers.append(Answer(steps, key, dict(store), n0, trace))
                            if len(answers) >= limits.max_answers:
                                return cutoff
                elif steps >= budget:
                    cutoff = True
                else:
                    atoms, position, offset, rest = resolvent
                    selected = atoms[position]
                    if position + 1 < len(atoms):
                        rest = (atoms, position + 1, offset, rest)
                    first = (walk(selected.args[0], offset, store.get)[0]
                             if selected.args else None)
                    candidates = program.candidates(selected.name, first)
                    if candidates:
                        choices.append([selected, offset, rest, ceiling, steps, trace,
                                        candidates, 0, len(trail)])
            node = None
            while node is None:
                if not choices:
                    return cutoff
                frame = choices[-1]
                selected, offset, rest, ceiling, steps, trace, candidates, position, mark = frame
                while len(trail) > mark:
                    del store[trail.pop()]
                if position + 1 == len(candidates):
                    choices.pop()
                else:
                    frame[7] = position + 1
                idx = candidates[position]
                clause = clauses[idx]
                # A failed unify leaves bindings; the undo before the next try clears them.
                if not unify(selected, offset, clause.head, ceiling, store, trail):
                    continue
                if clause.body:
                    rest = (clause.body, 0, ceiling, rest)
                node = (rest, ceiling + clause.var_count, steps + 1, (idx, ceiling, trace))

    budget, floor = (1 if limits.strategy == "iddfs" else limits.max_steps), -1
    while sweep(budget, floor) and len(answers) < limits.max_answers:
        if budget >= limits.max_steps:
            return SldResult(tuple(answers), True)
        budget, floor = min(budget * 2, limits.max_steps), budget
    return SldResult(tuple(answers), False)


# ---------------------------------------------------------------------------
# Bridging answers back to the term-matching prover
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BridgeEntry:
    answer: Answer
    instance: Atom
    status: Status


@dataclass(frozen=True)
class BridgeReport:
    goal: Atom
    entries: tuple[BridgeEntry, ...]
    exhausted: bool

    @property
    def violations(self) -> tuple[BridgeEntry, ...]:
        return tuple(e for e in self.entries if e.status is Status.FAILED)


def check_bridge(program: Program, goal: Atom, limits: SldLimits | None = None,
                 tm_depth: int | None = None) -> BridgeReport:
    """For each answer s, prove the s-instance of the goal by term matching.

    A Failed instance is a soundness violation and must never occur; Unknown
    entries are merely inconclusive. With `tm_depth` None the prover gets
    three times the answer's step count.
    """
    result = sld_solve(program, [goal], limits)
    entries = []
    for ans in result.answers:
        instance = apply(ans.bindings, goal)
        depth = tm_depth if tm_depth is not None else max(1, 3 * ans.steps)
        entries.append(BridgeEntry(ans, instance, tm_status(program, instance, depth)))
    return BridgeReport(goal, tuple(entries), result.exhausted)
