"""Substitutions, unification (unify, mgu), one-way matching (mgm), and tuple arrows.

A substitution is a finite map from variable indices to terms; variables
outside the map are fixed. Application is simultaneous. Unifiers returned by
`mgu` are idempotent and normalised so that when two variables are merged the
smaller index is kept as the representative, which makes results directly
comparable in tests.

`unify` is the only code that records a unification binding: it unifies
two atoms each at a variable offset, binding into a caller's store of
(term, offset) molecules, whose bindings may mention bound variables, and
trail, so SLD undoes it by popping the trail and never renames a clause.
`mgu` is `unify` at offset 0 on an empty store, read out with
`syntax.rename`, the one variable-mapping walker, which also serves
application, renaming apart and arrows. `mgm(pattern, target)` is strictly
one-way: only pattern variables may be bound, target variables are inert. A
tuple arrow n->m carries m terms over variables x1..xn and acts on atoms by
substitution, sending an atom over at most m variables to one over at most n.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Sequence, Union, overload

from .syntax import (
    ArityMismatchError,
    Atom,
    Clause,
    Fn,
    Program,
    Term,
    Var,
    lookup,
    print_term,
    rename,
    var_name,
)


class Substitution:
    """Finite variable-to-term map; identity bindings are never stored."""

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Mapping[int, Term] = MappingProxyType({})) -> None:
        self._bindings = {
            i: t for i, t in bindings.items() if not (isinstance(t, Var) and t.index == i)
        }

    def get(self, index: int) -> Term:
        return self._bindings.get(index, Var(index))

    def items(self) -> tuple[tuple[int, Term], ...]:
        return tuple(sorted(self._bindings.items()))

    def __bool__(self) -> bool:
        return bool(self._bindings)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Substitution):
            return NotImplemented
        return self._bindings == other._bindings

    def __hash__(self) -> int:
        return hash(frozenset(self._bindings.items()))

    def __str__(self) -> str:
        inner = ", ".join(f"{var_name(i)} -> {print_term(t)}" for i, t in self.items())
        return "{" + inner + "}"

    def __repr__(self) -> str:
        return f"Substitution({self!s})"


_Applicable = Union[Term, Atom, Sequence[Atom]]


@overload
def apply(s: Substitution, x: Var) -> Term: ...
@overload
def apply(s: Substitution, x: Atom) -> Atom: ...
@overload
def apply(s: Substitution, x: Fn) -> Fn: ...
@overload
def apply(s: Substitution, x: Sequence[Atom]) -> tuple[Atom, ...]: ...


def apply(s: Substitution, x: _Applicable) -> _Applicable:
    """Homomorphic, simultaneous replacement of variables in x."""
    var_fn = lookup(s._bindings)
    if isinstance(x, (Var, Fn)):
        return rename(x, var_fn)
    return tuple([rename(a, var_fn) for a in x])


# ---------------------------------------------------------------------------
# Unification and matching
# ---------------------------------------------------------------------------

def unify(a: Atom, a_off: int, b: Atom, b_off: int,
          store: dict[int, tuple[Term, int]], trail: list[int]) -> bool:
    """Unify atom `a` at variable offset `a_off` with `b` at `b_off` in
    `store` (Martelli & Montanari, TOPLAS 1982, with the occurs check);
    True when they unify.

    A term at offset o is a molecule (Boyer & Moore, 1972): its variable x_j
    stands for store key j + o, so a clause is shared by every step that uses
    it and never renamed. The store maps a bound key to the molecule it
    stands for. Each new binding goes into `store` and its key onto `trail`;
    on failure the bindings made so far stay, and popping the trail undoes
    them. Of two unified variables the larger key is bound to the smaller.
    """
    if a.name != b.name or len(a.args) != len(b.args):
        return False
    binding = store.get
    stack = [(x, a_off, y, b_off) for x, y in zip(a.args, b.args)]
    while stack:
        x, xo, y, yo = stack.pop()
        x, xo = walk(x, xo, binding)
        y, yo = walk(y, yo, binding)
        if type(x) is not Var:
            if type(y) is not Var:
                if x.name != y.name or len(x.args) != len(y.args):
                    return False
                stack.extend([(u, xo, v, yo) for u, v in zip(x.args, y.args)])
                continue
            x, xo, y, yo = y, yo, x, xo
        # x is a free variable: bind it, or the larger of two variables.
        key = x.index + xo
        if type(y) is Var:
            other = y.index + yo
            if key == other:
                continue
            if key < other:
                key, y, yo = other, x, xo
        elif y.max_var and _occurs(key, y, yo, binding):
            return False
        store[key] = (y, yo)
        trail.append(key)
    return True


def walk(t: Term, off: int,
         binding: Callable[[int], tuple[Term, int] | None]) -> tuple[Term, int]:
    """What the molecule (`t`, `off`) stands for under `binding`: a free
    variable or a non-variable term, with its offset; the term's own
    variables are not read."""
    while type(t) is Var:
        m = binding(t.index + off)
        if m is None:
            break
        t, off = m
    return t, off


def _occurs(key: int, t: Term, off: int,
            binding: Callable[[int], tuple[Term, int] | None]) -> bool:
    """Does store key `key` occur in the molecule (`t`, `off`) read through
    `binding`?"""
    stack = [(t, off)]
    while stack:
        t, off = stack.pop()
        t, off = walk(t, off, binding)
        if type(t) is Var:
            if t.index + off == key:
                return True
        elif t.max_var:
            stack.extend([(u, off) for u in t.args])
    return False


def mgu(a: Atom, b: Atom) -> Substitution | None:
    """Most general unifier of two atoms, or None: `unify` at offset 0 on an
    empty store, read out. It is idempotent, and of two unified variables the
    smaller index is the representative."""
    store: dict[int, tuple[Term, int]] = {}
    if not unify(a, 0, b, 0, store, []):
        return None
    return Substitution({i: rename(Var(i), bound=store.get) for i in store})


def mgm(pattern: Fn, target: Fn) -> Substitution | None:
    """Most general matcher sending `pattern` exactly onto `target`, two
    atoms or two non-variable terms, or None.

    Only pattern variables are bound; target variables are treated as inert
    constants, so the target is never specialised. When a matcher exists it
    is the unique one on vars(pattern).
    """
    if pattern.name != target.name or len(pattern.args) != len(target.args):
        return None
    bind: dict[int, Term] = {}
    stack = list(zip(pattern.args, target.args))
    while stack:
        p, t = stack.pop()
        if isinstance(p, Var):
            prev = bind.get(p.index)
            if prev is None:
                bind[p.index] = t
            elif prev != t:
                return None
        else:
            if not isinstance(t, Fn) or p.name != t.name or len(p.args) != len(t.args):
                return None
            stack.extend(zip(p.args, t.args))
    return Substitution(bind)


def rename_apart(c: Clause, avoid: int) -> Clause:
    """Shift every variable in the clause above `avoid`; a ground clause is
    returned as it is. SLD never renames: this is the eager step that the
    tests replay a derivation with."""
    if avoid == 0 or not c.var_count:
        return c

    def var_fn(v: Var) -> Term:
        return Var(v.index + avoid)

    return Clause(rename(c.head, var_fn), tuple([rename(a, var_fn) for a in c.body]))


def instances(program: Program, atom: Atom,
              ceiling: int) -> Iterator[tuple[int, Substitution, tuple[Atom, ...]]]:
    """The clauses whose head matches `atom` exactly, in program order.

    Yields the clause index, the matcher extended to send the clause's
    body-only variables to the fresh indices ceiling+1, ceiling+2, ..., and
    the body under that matcher.
    """
    for idx in program.candidates(atom.name, atom.args[0] if atom.args else None,
                                  matching=True):
        clause = program.clauses[idx]
        theta = mgm(clause.head, atom)
        if theta is None:
            continue
        h = clause.head_var_count
        if clause.var_count > h:
            extended = dict(theta.items())
            for j in range(1, clause.var_count - h + 1):
                extended[h + j] = Var(ceiling + j)
            theta = Substitution(extended)
        yield idx, theta, tuple(apply(theta, b) for b in clause.body)


# ---------------------------------------------------------------------------
# Tuple arrows n -> m
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArrowSubstitution:
    """An m-tuple of terms over x1..xn, acting on atoms by substitution."""

    source: int
    target: int
    terms: tuple[Term, ...]

    def __post_init__(self) -> None:
        if len(self.terms) != self.target:
            raise ValueError(f"arrow {self.source}->{self.target} needs "
                             f"{self.target} terms, got {len(self.terms)}")
        for t in self.terms:
            if t.max_var > self.source:
                raise ArityMismatchError(print_term(t), self.source, t.max_var, "arrow term")

    @classmethod
    def identity(cls, n: int) -> "ArrowSubstitution":
        return cls(n, n, tuple(Var(i) for i in range(1, n + 1)))

    def rename_var(self, v: Var) -> Term:
        """`rename` var_fn: x_i goes to the i-th component, and the j-th
        variable above the target to x_(source+j), so that a fresh block
        stays aligned with the source arity."""
        if v.index <= self.target:
            return self.terms[v.index - 1]
        return Var(self.source + v.index - self.target)

    def __str__(self) -> str:
        return self.text(print_term)

    def text(self, term_text: Callable[[Term], str]) -> str:
        """`str(self)`, with each component printed by `term_text`."""
        return f"({', '.join(map(term_text, self.terms))}):{self.source}->{self.target}"


def is_var_injection(terms: Sequence[Term]) -> bool:
    """True when the tuple consists of pairwise distinct variables."""
    if not all(isinstance(t, Var) for t in terms):
        return False
    return len({t.index for t in terms}) == len(terms)  # type: ignore[union-attr]


def arrow_apply(f: ArrowSubstitution, a: Atom) -> Atom:
    """Substitute the i-th arrow component for x_i throughout the atom."""
    if a.max_var > f.target:
        raise ArityMismatchError(a.name, f.target, a.max_var, "goal for arrow")
    return rename(a, f.rename_var)


def compose_arrows(f: ArrowSubstitution, g: ArrowSubstitution) -> ArrowSubstitution:
    """Composite of f: n->m and g: m->k, yielding n->k (substitution of f into g)."""
    if f.target != g.source:
        raise ArityMismatchError("arrow composition", f.target, g.source, "arrow")
    return ArrowSubstitution(f.source, g.target,
                             tuple(rename(t, f.rename_var) for t in g.terms))
