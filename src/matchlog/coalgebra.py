"""Semantic structures behind the engines.

Ground side: a variable-free program is the same thing as a map sending each
atom to the set of its clause bodies (a set of sets of atoms). Unfolding that
map to a finite level produces nested approximants that carry exactly the
information of the depth-truncated and-or tree; `approximant_matches_tree`
checks the two constructions against each other at the deepest level, since
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
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

from .cotree import AndNode, build_tree, fold
from .substitution import ArrowSubstitution, arrow_apply, instances, is_var_injection
from .syntax import (
    ArityMismatchError,
    Atom,
    Clause,
    Fn,
    Program,
    Signature,
    Term,
    Var,
    atom_vars,
    lookup,
    max_var,
    print_atom,
    rename_atom,
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
            for body in sorted(sets, key=lambda s: sorted(print_atom(a) for a in s)):
                clauses.append(Clause(atom, tuple(sorted(body, key=print_atom))))
        return Program.of(clauses)

    @property
    def atoms(self) -> tuple[Atom, ...]:
        return tuple(a for a, _ in self.entries)

    def body_sets(self, atom: Atom) -> BodySets:
        try:
            return self.mapping[atom]
        except KeyError:
            raise ValueError(f"unknown atom {print_atom(atom)}") from None


def _require_ground(program: Program) -> None:
    for i, c in enumerate(program.clauses):
        if c.var_count:
            raise ValueError(f"clause {i} contains variables; the program is not ground")


def ground_coalgebra(program: Program, extra_atoms: Iterable[Atom] = ()) -> GroundCoalgebra:
    """Read off the structure map; rejects programs with variables."""
    _require_ground(program)
    universe: set[Atom] = set(extra_atoms)
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
        for a in sorted(universe, key=print_atom)
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


def approximant_matches_tree(g: GroundCoalgebra, atom: Atom, level: int) -> bool:
    """Does the level-n unfolding carry exactly the depth-n tree's information,
    at every n from 0 to `level`? One comparison at `level` settles every n:
    by induction on the folds, `project_approximant` takes the level-(k+1)
    unfolding and encoding to the level-k ones, so equal approximants at
    `level` project to equal ones at each n below it."""
    root = build_tree(g.program, atom, 0, level).root
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
            i for s in raw for a in s for i in atom_vars(a) if i > base
        })
        k = len(fresh_vars)
        best_key = None
        best_body = None
        for perm in itertools.permutations(range(base + 1, base + k + 1)):
            var_fn = lookup({old: Var(new) for old, new in zip(fresh_vars, perm)})
            body = frozenset(frozenset(rename_atom(a, var_fn) for a in s) for s in raw)
            key = tuple(sorted(
                tuple(sorted(print_atom(a) for a in s)) for s in body
            ))
            if best_key is None or key < best_key:
                best_key = key
                best_body = body
        assert best_body is not None
        return cls(base, k, best_body)

    def __str__(self) -> str:
        inner = sorted(
            "{" + ", ".join(sorted(print_atom(a) for a in s)) + "}" for s in self.body
        )
        return "{" + ", ".join(inner) + "}"


def pff_step(program: Program, atom: Atom, base: int) -> PffElement:
    """Matched clause bodies for `atom` over `base` variables.

    Each clause whose head matches the atom exactly contributes the matched
    body, with its body-only variables sent to fresh indices base+1, ...
    """
    program.check_atom(atom)
    if max_var(atom) > base:
        raise ArityMismatchError(print_atom(atom), base, max_var(atom), "goal")
    return PffElement.canonical(
        base, [frozenset(body) for _, _, body in instances(program, atom, base)])


def pff_map(f: ArrowSubstitution, e: PffElement) -> PffElement:
    """Act on an element by an arrow: substitute on the base, shift the fresh
    block from above f.target to above f.source, re-canonicalise."""
    if f.target != e.base:
        raise ArityMismatchError("element base", f.target, e.base, "arrow target")
    return PffElement.canonical(
        f.source, [frozenset(rename_atom(a, f.rename_var) for a in s) for s in e.body])


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

    return PffElement.canonical(base, [[rename_atom(a, var_fn) for a in s] for s in e.body])


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
        if pp_leq([{rename_atom(a, var_fn) for a in s} for s in e1.body], e2.body):
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

    def line(self, strict_expected: bool = False) -> str:
        if not self.lax_ok:
            tag = "LAX FAIL"
        elif self.strict_ok:
            tag = "STRICT OK"
        elif strict_expected:
            tag = "STRICT FAIL"
        else:
            tag = "LAX OK"
        return (f"{tag}  f={self.arrow}  A={print_atom(self.atom)}  "
                f"lhs={self.lhs} rhs={self.rhs}")

    def to_record(self) -> dict:
        return {
            "arrow": str(self.arrow),
            "atom": print_atom(self.atom),
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


def enumerate_arrows(signature: Signature, max_arity: int = 3,
                     term_depth: int = 2) -> Iterator[ArrowSubstitution]:
    """All arrows n->m with n, m <= max_arity and components of bounded depth."""
    for n in range(max_arity + 1):
        pool = enumerate_terms(signature, n, term_depth)
        for m in range(max_arity + 1):
            for tup in itertools.product(pool, repeat=m):
                yield ArrowSubstitution(n, m, tup)


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

    @property
    def all_lax_ok(self) -> bool:
        return not self.lax_failures

    @property
    def injections_strict(self) -> bool:
        return not self.injection_failures

    def summary(self) -> str:
        return (f"checked {self.squares_checked} squares "
                f"({self.classes_checked} distinct): "
                f"{len(self.lax_failures)} lax failures, "
                f"{len(self.injection_failures)} injection equality failures, "
                f"{len(self.equality_failures)} equality failures elsewhere")


def lax_sweep(program: Program,
              atom_bases: Sequence[tuple[Atom, int]] | None = None,
              max_arity: int = 3, term_depth: int = 2) -> LaxSweepReport:
    """Check every arrow n->m (n, m <= max_arity, components of bounded depth)
    against every supplied atom viewed at base m.

    A square's verdict only depends on the arrow components at variables the
    atom actually uses (its restriction, or class), and it is counted
    `len(pool) ** (m - |used|)` times. Its witness arrow sends every unused
    position to `pool[0]`, the first arrow of the class in product order.

    Neither side of a square mentions the target m, and the source n only
    shifts their fresh blocks. So each (atom, restriction) pair is decided
    once, by `lax_square` on the arrow n->max_var(atom), with one `pff_step`
    per atom at its own arity, moved to base n by `rebase`. A strict pair
    keeps only its verdict. A pair that is not strict keeps its square, and
    each later (m, n) re-emits it with its own witness and rebased sides.
    The injective arrows of such a class are enumerated directly, as
    permutations of the variables the restriction leaves unused, so the
    cost grows with distinct pairs and with those extensions, never with
    the number of arrows.
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

    # Decided (atom, restriction) pairs: the strict ones, and the square of
    # each one that is not.
    strict: set[tuple[Atom, tuple[Term, ...]]] = set()
    kept: dict[tuple[Atom, tuple[Term, ...]], LaxSquare] = {}
    squares = 0
    classes = 0
    strict_ok = 0
    lax_failures: list[LaxSquare] = []
    equality_failures: list[LaxSquare] = []
    injection_failures: list[LaxSquare] = []

    for atom, m in atom_bases:
        top = atom.max_var
        if top > m:
            pff_step(program, atom, m)  # raises ArityMismatchError
        used = tuple(sorted(set(atom_vars(atom))))
        free = [i for i in range(1, m + 1) if i not in used]
        for n in range(max_arity + 1):
            pool = terms_by_n[n]
            if m and not pool:
                continue  # no arrow n->m exists
            weight = len(pool) ** len(free)
            classes += len(pool) ** len(used)
            squares += len(pool) ** m
            injective: list[LaxSquare] = []
            # Restrictions in product order meet the classes in the order a
            # walk over pool^m first meets them.
            for fkey in itertools.product(pool, repeat=len(used)):
                key = (atom, fkey)
                if key in strict:
                    strict_ok += weight
                    continue
                tup = list(pool[:1] * m)
                for i, t in zip(used, fkey):
                    tup[i - 1] = t
                sq = kept.get(key)
                if sq is None:
                    sq = lax_square(step, ArrowSubstitution(n, top, tuple(tup[:top])), atom)
                    if sq.strict_ok:
                        strict.add(key)
                        strict_ok += weight
                        continue
                    kept[key] = sq
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
            # Variables lead the pool in index order, so sorting by indices
            # restores product order across the interleaved classes.
            injection_failures.extend(sorted(
                injective, key=lambda sq: [v.index for v in sq.arrow.terms]))
    return LaxSweepReport(squares, classes, strict_ok,
                          tuple(lax_failures), tuple(equality_failures),
                          tuple(injection_failures))
