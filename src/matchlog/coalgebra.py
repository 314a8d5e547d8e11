"""Semantic structures behind the engines.

Ground side: a variable-free program is the same thing as a map sending each
atom to the set of its clause bodies (a set of sets of atoms). Unfolding that
map to a finite level produces nested approximants that carry exactly the
information of the program's depth-truncated and-or tree;
`approximant_matches_tree` checks the map's unfolding against the tree of
the program it was read from at the deepest level, since
projection carries agreement down to every lower one. Each construction is
one `cotree.fold`, so levels cost no Python frames, and its approximants are
hash-consed: equal ones are one object, so the check is settled at the roots.

First-order side: for an atom over a base of n variables, `pff_step` collects
the matched clause bodies, with body-only clause variables mapped to fresh
indices n+1, n+2, ... It reads them off `substitution.instances`, the step
that also builds each layer of the and-or tree. The result is kept as a
canonical representative (minimal fresh count, fresh numbering fixed by
taking the least renaming), so that literal equality decides equality of the
underlying quotient. `rebase` moves an element to another base, shifting
its fresh block. Arrows act on these elements by substitution on the
base and uniform renumbering of the fresh block, and `lax_square` compares
acting-then-stepping against stepping-then-acting: the first is always below
the second in the subset order, with equality whenever the arrow is an
injective renaming.

Saturation: an arrow f changes which clauses match an atom A only through
the clauses whose head unifies with A without matching it. For each such
clause c, `saturate` gives θ_c = mgu(A, head(c) renamed apart) restricted
to A's variables, and c matches f(A) exactly when f restricted to A's
variables is an instance of θ_c. A restriction that is an instance of no
θ_c is untriggered, and its square is strict: f(A) matches exactly A's
clauses, so both sides hold the same bodies. `lax_sweep` steps only the
triggered restrictions and the variable injections, and counts every other
class strict, so its cost grows with the triggered pairs, not the classes.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .cotree import AndNode, build_tree, fold
from .substitution import (
    ArrowSubstitution,
    arrow_apply,
    instances,
    is_var_injection,
    mgm,
    unify,
)
from .syntax import (
    ArityMismatchError,
    Atom,
    Clause,
    Fn,
    Program,
    Signature,
    Term,
    Var,
    lookup,
    print_term,
    rename,
    term_vars,
)


# ---------------------------------------------------------------------------
# Ground programs as set-of-bodies maps
# ---------------------------------------------------------------------------

BodySets = frozenset[frozenset[Atom]]


@dataclass(frozen=True)
class GroundCoalgebra:
    """Structure map of a variable-free program: atom -> set of clause bodies."""

    entries: tuple[tuple[Atom, BodySets], ...]  # sorted by printed atom

    @cached_property
    def mapping(self) -> dict[Atom, BodySets]:
        return dict(self.entries)

    @cached_property
    def program(self) -> Program:
        """The normalised program presenting the map: clauses sorted, bodies sorted."""
        clauses = []
        for atom, sets in self.entries:
            for body in sorted(sets, key=lambda s: sorted(print_term(a) for a in s)):
                clauses.append(Clause(atom, tuple(sorted(body, key=print_term))))
        return Program.of(clauses)

    @property
    def atoms(self) -> tuple[Atom, ...]:
        return tuple(a for a, _ in self.entries)

    def body_sets(self, atom: Atom) -> BodySets:
        try:
            return self.mapping[atom]
        except KeyError:
            raise ValueError(f"unknown atom {print_term(atom)}") from None


def _require_ground(program: Program) -> None:
    for i, c in enumerate(program.clauses):
        if c.var_count:
            raise ValueError(f"clause {i} contains variables; the program is not ground")


def ground_coalgebra(program: Program) -> GroundCoalgebra:
    """Read off the structure map; rejects programs with variables."""
    _require_ground(program)
    universe: set[Atom] = set()
    bodies: dict[Atom, set[frozenset[Atom]]] = {}
    for c in program.clauses:
        universe.add(c.head)
        universe.update(c.body)
    for a in universe:
        bodies[a] = set()
    for c in program.clauses:
        bodies[c.head].add(frozenset(c.body))
    entries = tuple(
        (a, frozenset(bodies[a]))
        for a in sorted(universe, key=print_term)
    )
    return GroundCoalgebra(entries)


def ground_lfp(program: Program) -> frozenset[Atom]:
    """Least fixed point of the one-step consequence operator (ground only)."""
    _require_ground(program)
    derived: set[Atom] = set()
    changed = True
    while changed:
        changed = False
        for c in program.clauses:
            if c.head not in derived and all(b in derived for b in c.body):
                derived.add(c.head)
                changed = True
    return frozenset(derived)


# ---------------------------------------------------------------------------
# Finite unfoldings of the ground structure map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Approximant:
    """Level-n unfolding: an atom at level 0, otherwise an atom paired with a
    set of sets of level-(n-1) approximants."""

    level: int
    atom: Atom
    branches: frozenset[frozenset["Approximant"]] | None = None

    def __post_init__(self) -> None:
        if (self.branches is None) != (self.level == 0):
            raise ValueError("branches must be present exactly when level > 0")
        if any(x.level != self.level - 1 for s in self.branches or () for x in s):
            raise ValueError("branch levels must be one below the node level")


# The approximants the folds below make, interned (Filliâtre & Conchon,
# "Type-safe modular hash-consing", 2006); entries die with their values.
_APPROXIMANTS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _approximant(level: int, atom: Atom, groups: list) -> Approximant:
    """The interned approximant whose branches hold `groups`' values."""
    key = (level, atom, frozenset(frozenset(xs) for _, xs in groups) if level else None)
    x = _APPROXIMANTS.get(key)
    return x if x is not None else _APPROXIMANTS.setdefault(key, Approximant(*key))


def unfold(g: GroundCoalgebra, atom: Atom, level: int) -> Approximant:
    """n-fold unfolding of the structure map at `atom` (level 0 is the atom)."""
    if level < 0:
        raise ValueError("level must be >= 0")
    g.body_sets(atom)  # raises on unknown atoms
    return fold((atom, level), lambda x: x,
                lambda x: [(None, [(b, x[1] - 1) for b in body])
                           for body in g.body_sets(x[0])] if x[1] else [],
                lambda x, groups: _approximant(x[1], x[0], groups))


def project_approximant(x: Approximant) -> Approximant:
    """Drop the deepest layer, turning a level-(n+1) approximant into level n."""
    if x.level == 0:
        raise ValueError("cannot project a level-0 approximant")
    return fold(x, id, lambda y: [(None, list(s)) for s in y.branches] if y.level > 1 else [],
                lambda y, groups: _approximant(y.level - 1, y.atom, groups))


def encode_tree(node: AndNode, level: int) -> Approximant:
    """Encode a depth-`level` ground and-or tree as an approximant.

    And-node atoms become the atom component, the or-children become the
    outer set, each or-node's child list the inner set. Duplicate bodies
    collapse, matching the set-valued structure map.
    """
    return fold((node, level), lambda x: x,
                lambda x: [(None, [(c, x[1] - 1) for c in o.children])
                           for o in x[0].children] if x[1] else [],
                lambda x, groups: _approximant(x[1], x[0].atom, groups))


def approximant_matches_tree(program: Program, g: GroundCoalgebra, atom: Atom,
                             level: int) -> bool:
    """Does the level-n unfolding of `g`, the structure map read off the
    ground `program`, carry exactly the information of `program`'s own
    depth-n tree, at every n from 0 to `level`? The tree is built from the
    program as written, clause order, repeated clauses and body order
    included, so a map that misreads the program fails the check. One
    comparison at `level` settles every n: by induction on the folds,
    `project_approximant` takes the level-(k+1) unfolding and encoding to
    the level-k ones, so equal approximants at `level` project to equal
    ones at each n below it."""
    root = build_tree(program, atom, 0, level).root
    return unfold(g, atom, level) == encode_tree(root, level)


# ---------------------------------------------------------------------------
# Clause bodies over a base arity plus a fresh block
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PffElement:
    """A set of sets of atoms over x1..x(base+fresh), in canonical form.

    Canonical means: every index base+1..base+fresh actually occurs, and the
    numbering of the fresh block is the least one under the set ordering, so
    two elements equal up to renaming fresh variables are literally equal.
    """

    base: int
    fresh: int
    body: BodySets

    @classmethod
    def canonical(cls, base: int, sets: Iterable[Iterable[Atom]]) -> "PffElement":
        raw = [tuple(s) for s in sets]
        if all(a.max_var <= base for s in raw for a in s):
            return cls(base, 0, frozenset(frozenset(s) for s in raw))
        fresh_vars = sorted({
            i for s in raw for a in s for i in term_vars(a) if i > base
        })
        k = len(fresh_vars)
        best_key = None
        best_body = None
        for perm in itertools.permutations(range(base + 1, base + k + 1)):
            var_fn = lookup({old: Var(new) for old, new in zip(fresh_vars, perm)})
            body = frozenset(frozenset(rename(a, var_fn) for a in s) for s in raw)
            key = tuple(sorted(
                tuple(sorted(print_term(a) for a in s)) for s in body
            ))
            if best_key is None or key < best_key:
                best_key = key
                best_body = body
        assert best_body is not None
        return cls(base, k, best_body)

    def __str__(self) -> str:
        inner = sorted(
            "{" + ", ".join(sorted(print_term(a) for a in s)) + "}" for s in self.body
        )
        return "{" + ", ".join(inner) + "}"


def pff_step(program: Program, atom: Atom, base: int) -> PffElement:
    """Matched clause bodies for `atom` over `base` variables.

    Each clause whose head matches the atom exactly contributes the matched
    body, with its body-only variables sent to fresh indices base+1, ...
    """
    program.check_atom(atom)
    if atom.max_var > base:
        raise ArityMismatchError(print_term(atom), base, atom.max_var, "goal")
    return PffElement.canonical(
        base, [frozenset(body) for _, _, body in instances(program, atom, base)])


def pff_map(f: ArrowSubstitution, e: PffElement) -> PffElement:
    """Act on an element by an arrow: substitute on the base, shift the fresh
    block from above f.target to above f.source, re-canonicalise."""
    if f.target != e.base:
        raise ArityMismatchError("element base", f.target, e.base, "arrow target")
    return PffElement.canonical(
        f.source, [frozenset(rename(a, f.rename_var) for a in s) for s in e.body])


def rebase(e: PffElement, base: int) -> PffElement:
    """The same element over `base` variables, its fresh block moved to
    base+1, base+2, ...; `base` must be at least every base variable the
    body mentions.

    A moved fresh block is re-canonicalised, because the canonical numbering
    compares printed names and x10 sorts before x9.
    """
    if base == e.base:
        return e
    if not e.fresh:
        return PffElement(base, 0, e.body)
    shift, top = base - e.base, e.base

    def var_fn(v: Var) -> Term:
        return Var(v.index + shift) if v.index > top else v

    return PffElement.canonical(base, [[rename(a, var_fn) for a in s] for s in e.body])


def pp_leq(a: Iterable[Iterable[Atom]], b: Iterable[Iterable[Atom]]) -> bool:
    """Set-of-sets order over a discrete base: every member of `a` is
    contained in some member of `b`."""
    bs = [set(t) for t in b]
    return all(any(set(s) <= t for t in bs) for s in a)


def pff_leq(e1: PffElement, e2: PffElement) -> bool:
    """pp_leq after embedding both elements into a common fresh block.

    Fresh variables may be renamed injectively; base variables are fixed.
    """
    if e1.base != e2.base:
        raise ValueError("cannot compare elements over different bases")
    if e1.fresh == 0:
        return pp_leq(e1.body, e2.body)
    if e1.fresh > e2.fresh:
        return False
    base = e1.base
    src = range(base + 1, base + e1.fresh + 1)
    for image in itertools.permutations(range(base + 1, base + e2.fresh + 1), e1.fresh):
        var_fn = lookup({old: Var(new) for old, new in zip(src, image)})
        if pp_leq([{rename(a, var_fn) for a in s} for s in e1.body], e2.body):
            return True
    return False


# ---------------------------------------------------------------------------
# Lax square checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaxSquare:
    """One checked square: act-then-step on the left, step-then-act on the right."""

    arrow: ArrowSubstitution
    atom: Atom
    lhs: PffElement
    rhs: PffElement
    lax_ok: bool
    strict_ok: bool

    def to_record(self) -> dict:
        return {
            "arrow": str(self.arrow),
            "atom": print_term(self.atom),
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "lax_ok": self.lax_ok,
            "strict_ok": self.strict_ok,
        }


def lax_square(step: Callable[[Atom, int], PffElement], f: ArrowSubstitution,
               atom: Atom) -> LaxSquare:
    """Check lhs <= rhs for one arrow and atom, recording equality too.

    `step(atom, base)` is `pff_step` for the program under test, for example
    `functools.partial(pff_step, program)`, or a cached version of it.
    """
    lhs = pff_map(f, step(atom, f.target))
    rhs = step(arrow_apply(f, atom), f.source)
    strict = lhs == rhs  # equal elements are below each other: no search
    return LaxSquare(f, atom, lhs, rhs, strict or pff_leq(lhs, rhs), strict)


# ---------------------------------------------------------------------------
# Exhaustive sweeps over generated arrows
# ---------------------------------------------------------------------------

def enumerate_terms(signature: Signature, nvars: int, depth: int) -> tuple[Term, ...]:
    """All terms over x1..xnvars up to `depth` levels of structure.

    Variables and constants count as depth 1, so depth 2 allows one layer of
    functors over atomic arguments.
    """
    pool: dict[Term, None] = {}
    for i in range(1, nvars + 1):
        pool[Var(i)] = None
    for name in signature.constants:
        pool[Fn(name)] = None
    for _ in range(depth - 1):
        prev = list(pool)
        for name, arity in signature.functors:
            if arity == 0:
                continue
            for args in itertools.product(prev, repeat=arity):
                pool.setdefault(Fn(name, args))
    return tuple(pool)


def default_check_atoms(program: Program, max_arity: int = 3) -> tuple[tuple[Atom, int], ...]:
    """Atoms worth checking, paired with the base arity to view them at:
    one generic atom per predicate, each clause head, and the generic atoms
    again viewed at the maximal arity."""
    out: list[tuple[Atom, int]] = []
    seen: set[tuple[Atom, int]] = set()

    def add(atom: Atom, base: int) -> None:
        if base <= max_arity and (atom, base) not in seen:
            seen.add((atom, base))
            out.append((atom, base))

    generics = [g for g in program.signature.generic_atoms if len(g.args) <= max_arity]
    for g in generics:
        add(g, len(g.args))
    for clause in program.clauses:
        add(clause.head, clause.head_var_count)
    for g in generics:
        add(g, max_arity)
    return tuple(out)


@dataclass(frozen=True)
class LaxSweepReport:
    squares_checked: int
    classes_checked: int  # distinct behaviours after restricting arrows to the atom's variables
    strict_ok_squares: int
    lax_failures: tuple[LaxSquare, ...]
    equality_failures: tuple[LaxSquare, ...]  # one witness per behaviour class
    injection_failures: tuple[LaxSquare, ...]


def saturate(program: Program, atom: Atom) -> tuple[tuple[Term, ...], ...]:
    """The saturated step at `atom` (Bonchi & Zanasi, "Saturated semantics
    for coalgebraic logic programming", CALCO 2013), given by its triggers.

    For each clause whose head unifies with the atom but does not match it,
    θ_c = mgu(atom, head renamed apart), restricted to the atom's variables:
    one component per variable, in increasing order. The clause matches
    f(atom) exactly when f, restricted to those variables, is an instance of
    θ_c, and a clause that matches the atom matches every f(atom). So the θ_c
    present the matched clauses under every arrow at once.
    """
    used = sorted(set(term_vars(atom)))
    top = atom.max_var
    thetas: dict[tuple[Term, ...], None] = {}
    for idx in program.candidates(atom.name, atom.args[0] if atom.args else None):
        head = program.clauses[idx].head
        store: dict[int, tuple[Term, int]] = {}
        if mgm(head, atom) is None and unify(atom, 0, head, top, store, []):
            thetas.setdefault(tuple([rename(Var(i), bound=store.get) for i in used]))
    return tuple(thetas)


def _instances(thetas: Iterable[tuple[Term, ...]],
               pool: Sequence[Term]) -> set[tuple[int, ...]]:
    """Index tuples into `pool` of the tuples of pool terms that are an
    instance of some tuple in `thetas`.

    A hash join over the components. A component whose variables earlier
    ones have bound, a ground one among them, is looked up by its image.
    Any other has its matches found once, by `mgm` against the pool terms of
    its principal functor, and filed under what they bind the variables of
    earlier components. So the join meets only the instances and their
    prefixes, never the product of the candidate lists.
    """
    index: dict[Term, int] = {}
    by_functor: dict[tuple[str, int], list[int]] = {}
    for i, t in enumerate(pool):
        index[t] = i
        if type(t) is Fn:
            by_functor.setdefault((t.name, len(t.args)), []).append(i)
    out: set[tuple[int, ...]] = set()
    for theta in thetas:
        rows: list[tuple[tuple[int, ...], dict[int, Term]]] = [((), {})]
        bound: set[int] = set()
        for p in theta:
            pvars = sorted(set(term_vars(p)))
            if bound.issuperset(pvars):
                joined = []
                for picks, env in rows:
                    i = index.get(rename(p, lookup(env)))
                    if i is not None:
                        joined.append((picks + (i,), env))
                rows = joined
                continue
            shared = [v for v in pvars if v in bound]
            bound.update(pvars)
            if type(p) is Var:
                matches = [(i, {p.index: t}) for i, t in enumerate(pool)]
            else:
                matches = []
                for i in by_functor.get((p.name, len(p.args)), ()):
                    s = mgm(p, pool[i])
                    if s is not None:
                        matches.append((i, {v: s.get(v) for v in pvars}))
            table: dict[tuple[Term, ...], list[tuple[int, dict[int, Term]]]] = {}
            for i, binding in matches:
                table.setdefault(tuple([binding[v] for v in shared]), []).append((i, binding))
            rows = [(picks + (i,), {**env, **binding})
                    for picks, env in rows
                    for i, binding in table.get(tuple([env[v] for v in shared]), ())]
        out.update(picks for picks, _ in rows)
    return out


def lax_sweep(program: Program,
              atom_bases: Sequence[tuple[Atom, int]] | None = None,
              max_arity: int = 3, term_depth: int = 2) -> LaxSweepReport:
    """Check every arrow n->m (n, m <= max_arity, components of bounded depth)
    against every supplied atom viewed at base m.

    A square's verdict only depends on the arrow components at variables the
    atom actually uses (its restriction, or class), and it is counted
    `len(pool) ** (m - |used|)` times. Its witness arrow sends every unused
    position to `pool[0]`, the first arrow of the class in product order.

    Most classes are strict without a step. A class changes the matched
    clauses only when its restriction is an instance of some trigger θ_c of
    `saturate`; otherwise f(atom) matches exactly the atom's clauses, with
    the matchers composed with f, both sides are the same bodies up to fresh
    renaming, and their canonical forms are equal. So for each atom and n the
    sweep steps only the triggered restrictions, found by joining the pool
    terms that match each θ_c component, and the variable injections, which
    it always compares, and counts every other class strict. The stepped
    restrictions are visited in product order, so the witnesses and their
    order are those of a walk over every arrow; the cost grows with the
    triggered pairs, not with the classes or the arrows.

    Neither side of a square mentions the target m, and the source n only
    shifts their fresh blocks. So each stepped (atom, restriction) pair is
    decided once, by `lax_square` on the arrow n->atom.max_var, with one
    `pff_step` per atom at its own arity, moved to base n by `rebase`. A
    strict pair keeps only its verdict. A pair that is not strict keeps its
    square, and each later (m, n) re-emits it with its own witness and
    rebased sides. The injective arrows of such a class are enumerated
    directly, as permutations of the variables the restriction leaves unused.
    """
    if atom_bases is None:
        atom_bases = default_check_atoms(program, max_arity)
    terms_by_n = [enumerate_terms(program.signature, n, term_depth)
                  for n in range(max_arity + 1)]
    stepped: dict[Atom, PffElement] = {}

    def step(atom: Atom, base: int) -> PffElement:
        e = stepped.get(atom)
        if e is None:
            e = stepped[atom] = pff_step(program, atom, atom.max_var)
        return rebase(e, base)

    # Decided (atom, restriction) pairs: None for a strict one, the square
    # of each one that is not.
    decided: dict[tuple[Atom, tuple[Term, ...]], LaxSquare | None] = {}
    # The stepped restrictions of each (atom, n), as sorted pool indices;
    # the default atoms list each generic atom at two bases.
    picked: dict[tuple[Atom, int], list[tuple[int, ...]]] = {}
    squares = 0
    classes = 0
    strict_ok = 0
    lax_failures: list[LaxSquare] = []
    equality_failures: list[LaxSquare] = []
    injection_failures: list[LaxSquare] = []

    for atom, m in atom_bases:
        top = atom.max_var
        program.check_atom(atom)
        if top > m:
            raise ArityMismatchError(print_term(atom), m, top, "goal")
        used = tuple(sorted(set(term_vars(atom))))
        free = [i for i in range(1, m + 1) if i not in used]
        thetas = saturate(program, atom)
        for n in range(max_arity + 1):
            pool = terms_by_n[n]
            if m and not pool:
                continue  # no arrow n->m exists
            weight = len(pool) ** len(free)
            total = len(pool) ** len(used)
            classes += total
            squares += len(pool) ** m
            # Variables lead the pool in index order, so the injections are
            # the index tuples without repeats below n; sorted index tuples
            # are in product order.
            picks = picked.get((atom, n))
            if picks is None:
                picks = picked[atom, n] = sorted(_instances(thetas, pool).union(
                    itertools.permutations(range(n), len(used))))
            strict_ok += weight * (total - len(picks))
            injective: list[LaxSquare] = []
            for pick in picks:
                fkey = tuple([pool[i] for i in pick])
                key = (atom, fkey)
                tup = list(pool[:1] * m)
                for i, t in zip(used, fkey):
                    tup[i - 1] = t
                if key not in decided:
                    sq = lax_square(step, ArrowSubstitution(n, top, tuple(tup[:top])), atom)
                    decided[key] = None if sq.strict_ok else sq
                sq = decided[key]
                if sq is None:
                    strict_ok += weight
                    continue
                sq = LaxSquare(ArrowSubstitution(n, m, tuple(tup)), atom,
                               rebase(sq.lhs, n), rebase(sq.rhs, n), sq.lax_ok, False)
                if not sq.lax_ok:
                    lax_failures.append(sq)
                else:
                    equality_failures.append(sq)
                if is_var_injection(fkey):
                    rest = [Var(i) for i in range(1, n + 1) if Var(i) not in fkey]
                    for perm in itertools.permutations(rest, len(free)):
                        for i, v in zip(free, perm):
                            tup[i - 1] = v
                        injective.append(
                            replace(sq, arrow=ArrowSubstitution(n, m, tuple(tup))))
            # Sorting by indices restores product order across the
            # interleaved injective classes.
            injection_failures.extend(sorted(
                injective, key=lambda sq: [v.index for v in sq.arrow.terms]))
    return LaxSweepReport(squares, classes, strict_ok,
                          tuple(lax_failures), tuple(equality_failures),
                          tuple(injection_failures))
