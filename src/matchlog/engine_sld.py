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
success, in one `rename` walk that reads the query's variables through the
store and renumbers the variables left free, and its trace is read out of
the chain then.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .cotree import Status
from .engine_tm import tm_status
from .substitution import Substitution, apply, compose, mgu, rename_apart, unify, walk
from .syntax import Atom, Program, Term, Var, max_var, print_atom, rename, renumbering


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


@dataclass(frozen=True)
class Answer:
    """A computed substitution restricted to the query variables.

    `trace` records (clause index, variable offset) per resolution step, so
    the derivation can be replayed and checked: the step's clause variable
    x_j is x_(j + offset) of the derivation.
    """

    bindings: Substitution
    steps: int
    trace: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class SldResult:
    answers: tuple[Answer, ...]
    exhausted: bool  # True when the step bound cut off unexplored derivations


def _canonical_answer(n0: int,
                      bound: Callable[[int], tuple[Term, int] | None]) -> Substitution:
    """The answer sending each query variable x_1..x_n0 to its binding read
    through `bound`, with residual free variables renumbered by first
    occurrence above the query's, in the same walk."""
    var_fn = renumbering(n0, {})
    return Substitution({i: rename(Var(i), var_fn, bound) for i in range(1, n0 + 1)})


def _read_trace(trace: tuple | None) -> tuple[tuple[int, int], ...]:
    """The (clause index, offset) steps of a trace chain, first step first."""
    steps = []
    while trace is not None:
        idx, offset, trace = trace
        steps.append((idx, offset))
    steps.reverse()
    return tuple(steps)


def sld_solve(program: Program, goals: Sequence[Atom],
              limits: SldLimits | None = None) -> SldResult:
    """Enumerate answers for the conjunction `goals` under the given limits."""
    limits = limits or SldLimits()
    goals = tuple(goals)
    for g in goals:
        program.check_atom(g)
    n0 = max_var(goals)
    clauses = program.clauses

    answers: list[Answer] = []
    seen: set[Substitution] = set()

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
                        restricted = _canonical_answer(n0, store.get)
                        if restricted not in seen:
                            seen.add(restricted)
                            answers.append(Answer(restricted, steps, _read_trace(trace)))
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
                    candidates = program.candidates(selected.pred, first)
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


def replay_trace(program: Program, goals: Sequence[Atom], answer: Answer) -> Substitution:
    """Re-run a recorded derivation; returns the restricted answer it computes.

    Raises ValueError if any step fails to unify or the final goal is not
    empty, so tests can use it as an independent soundness check.
    """
    resolvent = tuple(goals)
    sigma = Substitution.identity()
    for idx, offset in answer.trace:
        if not resolvent:
            raise ValueError("trace continues past an empty goal")
        renamed = rename_apart(program.clauses[idx], offset)
        unifier = mgu(resolvent[0], renamed.head)
        if unifier is None:
            raise ValueError(f"trace step does not unify: clause {idx}")
        resolvent = apply(unifier, renamed.body + resolvent[1:])
        sigma = compose(unifier, sigma)
    if resolvent:
        raise ValueError("trace ends on a non-empty goal")
    # Composed from idempotent unifiers over renamed-apart clauses, `sigma` is
    # idempotent, so reading through it applies it once.
    return _canonical_answer(max_var(tuple(goals)),
                             {i: (t, 0) for i, t in sigma.items()}.get)


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

    def to_text(self) -> str:
        lines = []
        for e in self.entries:
            tag = "BRIDGE FAIL" if e.status is Status.FAILED else "BRIDGE OK"
            lines.append(f"{tag}  goal={print_atom(self.goal)}  "
                         f"answer={e.answer.bindings}  instance={print_atom(e.instance)}  "
                         f"tm={e.status}")
        if not self.entries:
            lines.append(f"BRIDGE OK  goal={print_atom(self.goal)}  (no answers)")
        return "\n".join(lines) + "\n"


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
