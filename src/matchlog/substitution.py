"""Substitutions, unification (unify, mgu), one-way matching (mgm), and tuple arrows.

A substitution is a finite map from variable indices to terms; variables
outside the map are fixed. Application is simultaneous. Unifiers returned by
`mgu` are idempotent and normalised so that when two variables are merged the
smaller index is kept as the representative, which makes results directly
comparable in tests.

`unify` is the only code that records a unification binding: it binds into
a caller's store, whose bindings may mention bound variables, and trail, so
SLD undoes it by popping the trail. `mgu` is `unify` on an empty store, read
out with `syntax.rename`, the one variable-mapping walker, which also serves
application, renaming apart and arrows. `mgm(pattern, target)` is strictly
one-way: only pattern variables may be bound, target variables are inert. A
tuple arrow n->m carries m terms over variables x1..xn and acts on atoms by
substitution, sending an atom over at most m variables to one over at most n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union, overload

from .syntax import (
    ArityMismatchError,
    Atom,
    Clause,
    Fn,
    Program,
    Term,
    Var,
    lookup,
    max_var,
    print_term,
    rename,
    rename_atom,
    var_name,
)


class Substitution:
    """Finite variable-to-term map; identity bindings are never stored."""

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Mapping[int, Term] | Iterable[tuple[int, Term]] = ()) -> None:
        # Every caller in the package passes a dict; test for it before the
        # slower Mapping ABC check.
        items = (bindings.items() if type(bindings) is dict or isinstance(bindings, Mapping)
                 else bindings)
        self._bindings = {
            i: t for i, t in items if not (isinstance(t, Var) and t.index == i)
        }

    @classmethod
    def identity(cls) -> "Substitution":
        return cls()

    @property
    def is_identity(self) -> bool:
        return not self._bindings

    def get(self, index: int) -> Term:
        return self._bindings.get(index, Var(index))

    def domain(self) -> frozenset[int]:
        return frozenset(self._bindings)

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
def apply(s: Substitution, x: Fn) -> Fn: ...
@overload
def apply(s: Substitution, x: Atom) -> Atom: ...
@overload
def apply(s: Substitution, x: Sequence[Atom]) -> tuple[Atom, ...]: ...


def apply(s: Substitution, x: _Applicable) -> _Applicable:
    """Homomorphic, simultaneous replacement of variables in x."""
    var_fn = lookup(s._bindings)
    if isinstance(x, Atom):
        return rename_atom(x, var_fn)
    if isinstance(x, (Var, Fn)):
        return rename(x, var_fn)
    return tuple([rename_atom(a, var_fn) for a in x])


def compose(s1: Substitution, s2: Substitution) -> Substitution:
    """The substitution with apply(compose(s1, s2), t) = apply(s1, apply(s2, t))."""
    out: dict[int, Term] = {i: apply(s1, t) for i, t in s2.items()}
    for i, t in s1.items():
        out.setdefault(i, t)
    return Substitution(out)


# ---------------------------------------------------------------------------
# Unification and matching
# ---------------------------------------------------------------------------

def unify(a: Atom, b: Atom, store: dict[int, Term], trail: list[int]) -> bool:
    """Unify two atoms in `store`, binding by binding (Martelli & Montanari,
    TOPLAS 1982, with the occurs check); True when they unify.

    Each new binding goes into `store` and its index onto `trail`; on failure
    the bindings made so far stay, and popping the trail undoes them. Of two
    unified variables the larger index is bound to the smaller.
    """
    if a.pred != b.pred or len(a.args) != len(b.args):
        return False
    binding = store.get
    stack = list(zip(a.args, b.args))
    while stack:
        x, y = stack.pop()
        x, y = walk(x, binding), walk(y, binding)
        if type(x) is not Var:
            if type(y) is not Var:
                if x.name != y.name or len(x.args) != len(y.args):
                    return False
                stack.extend(zip(x.args, y.args))
                continue
            x, y = y, x
        # x is a free variable: bind it, or the larger of two variables.
        if type(y) is Var:
            if x.index == y.index:
                continue
            if x.index < y.index:
                x, y = y, x
        elif _occurs(x.index, y, binding):
            return False
        store[x.index] = y
        trail.append(x.index)
    return True


def walk(t: Term, binding: Callable[[int], Term | None]) -> Term:
    """What `t` stands for under `binding`: a free variable or a non-variable
    term, whose own variables are not read."""
    while type(t) is Var:
        u = binding(t.index)
        if u is None:
            break
        t = u
    return t


def _occurs(i: int, t: Term, binding: Callable[[int], Term | None]) -> bool:
    """Does x_i occur in `t` read through `binding`?"""
    stack = [t]
    while stack:
        t = walk(stack.pop(), binding)
        if type(t) is Var:
            if t.index == i:
                return True
        elif t.max_var:
            stack.extend(t.args)
    return False


def mgu(a: Atom, b: Atom) -> Substitution | None:
    """Most general unifier of two atoms, or None: `unify` on an empty store,
    read out. It is idempotent, and of two unified variables the smaller
    index is the representative."""
    store: dict[int, Term] = {}
    if not unify(a, b, store, []):
        return None
    return Substitution({i: rename(t, bound=store.get) for i, t in store.items()})


def mgm(pattern: Atom, target: Atom) -> Substitution | None:
    """Most general matcher sending `pattern` exactly onto `target`, or None.

    Only pattern variables are bound; target variables are treated as inert
    constants, so the target is never specialised. When a matcher exists it
    is the unique one on vars(pattern).
    """
    if pattern.pred != target.pred or len(pattern.args) != len(target.args):
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
    returned as it is."""
    if avoid == 0 or not c.var_count:
        return c

    def var_fn(v: Var) -> Term:
        return Var(v.index + avoid)

    return Clause(rename_atom(c.head, var_fn), tuple([rename_atom(a, var_fn) for a in c.body]))


def instances(program: Program, atom: Atom,
              ceiling: int) -> Iterator[tuple[int, Substitution, tuple[Atom, ...]]]:
    """The clauses whose head matches `atom` exactly, in program order.

    Yields the clause index, the matcher extended to send the clause's
    body-only variables to the fresh indices ceiling+1, ceiling+2, ..., and
    the body under that matcher.
    """
    for idx in program.candidates(atom.pred, atom.args[0] if atom.args else None,
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
            if max_var(t) > self.source:
                raise ArityMismatchError(print_term(t), self.source, max_var(t), "arrow term")

    @classmethod
    def identity(cls, n: int) -> "ArrowSubstitution":
        return cls(n, n, tuple(Var(i) for i in range(1, n + 1)))

    @property
    def is_injection(self) -> bool:
        return is_var_injection(self.terms)

    def rename_var(self, v: Var) -> Term:
        """`rename` var_fn: x_i goes to the i-th component, and the j-th
        variable above the target to x_(source+j), so that a fresh block
        stays aligned with the source arity."""
        if v.index <= self.target:
            return self.terms[v.index - 1]
        return Var(self.source + v.index - self.target)

    def __str__(self) -> str:
        inner = ", ".join(print_term(t) for t in self.terms)
        return f"({inner}):{self.source}->{self.target}"


def is_var_injection(terms: Sequence[Term]) -> bool:
    """True when the tuple consists of pairwise distinct variables."""
    if not all(isinstance(t, Var) for t in terms):
        return False
    return len({t.index for t in terms}) == len(terms)  # type: ignore[union-attr]


def arrow_apply(f: ArrowSubstitution, a: Atom) -> Atom:
    """Substitute the i-th arrow component for x_i throughout the atom."""
    if max_var(a) > f.target:
        raise ArityMismatchError(a.pred, f.target, max_var(a), "goal for arrow")
    return rename_atom(a, f.rename_var)


def compose_arrows(f: ArrowSubstitution, g: ArrowSubstitution) -> ArrowSubstitution:
    """Composite of f: n->m and g: m->k, yielding n->k (substitution of f into g)."""
    if f.target != g.source:
        raise ArityMismatchError("arrow composition", f.target, g.source, "arrow")
    return ArrowSubstitution(f.source, g.target,
                             tuple(rename(t, f.rename_var) for t in g.terms))
