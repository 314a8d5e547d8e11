"""First-order syntax: terms, atoms, Horn clauses, programs, and the text format.

Variables are canonical integer indices internally (printed X1, X2, ...).
Surface names from source text survive only as display metadata; they never
take part in equality. Constants are nullary functors, not a separate case.
An atom is an `Fn` node of its own type, `Atom`, whose `name` is its
predicate, so one printer and one set of walkers serve terms and atoms.

The external format is Prolog-like, one clause per line or wrapped:

    nat(0).
    list(cons(X, Y)) :- nat(X), list(Y).   % comment to end of line

Predicates and functors match [a-z][A-Za-z0-9_]* (bare integers are allowed
as constant names), variables match [A-Z_][A-Za-z0-9_]*.
"""

from __future__ import annotations

import re
import string
from collections import ChainMap
from dataclasses import dataclass, field
from functools import cached_property
from operator import is_
from typing import Callable, Iterable, Iterator, Mapping, Union


class ParseError(Exception):
    """Malformed source text; carries a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class ArityMismatchError(Exception):
    """A functor or predicate is used with two conflicting arities."""

    def __init__(self, symbol: str, first: int, second: int, role: str = "symbol") -> None:
        super().__init__(f"{role} '{symbol}' used with arity {first} and arity {second}")
        self.symbol = symbol
        self.arities = (first, second)


# ---------------------------------------------------------------------------
# Terms and atoms
# ---------------------------------------------------------------------------

# Terms and atoms are immutable. Each node caches its hash and `max_var` (the
# largest variable index in it, 0 when ground), computed once at construction
# from its children's cached values, so hashing, equality on unequal terms,
# `max_var` and the ground test never walk the term again (cf. Filliatre and
# Conchon, "Type-safe modular hash-consing", 2006, without the intern table).
# A node's hash is the hash of its field tuple, e.g. hash((name, args)).

_init_slot = object.__setattr__


class _Node:
    __slots__ = ("max_var", "_hash")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Var(_Node):
    """Variable with a 1-based index."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        if index < 1:
            raise ValueError(f"variable index must be >= 1, got {index}")
        _init_slot(self, "index", index)
        _init_slot(self, "max_var", index)
        _init_slot(self, "_hash", hash((index,)))

    def __eq__(self, other: object) -> bool:
        if type(other) is not Var:
            return NotImplemented
        return self.index == other.index

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Var(index={self.index!r})"


class Fn(_Node):
    """Functor applied to argument terms; a constant has no arguments."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple["Term", ...] = ()) -> None:
        top = 0
        for a in args:
            if a.max_var > top:
                top = a.max_var
        _init_slot(self, "name", name)
        _init_slot(self, "args", args)
        _init_slot(self, "max_var", top)
        _init_slot(self, "_hash", hash((name, args)))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return (self._hash == other._hash and self.name == other.name
                and (self.args is other.args or _same_args(self.args, other.args)))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, args={self.args!r})"


Term = Union[Var, Fn]


class Atom(Fn):
    """Predicate applied to terms; goals and clause heads are atoms. The
    predicate is the node's `name`; an atom is never equal to a term."""

    __slots__ = ()


def _same_args(xs: tuple[Term, ...], ys: tuple[Term, ...]) -> bool:
    """Structural equality of two argument tuples. The walk keeps its own
    stack, so it does not recurse on term depth; a shared subterm or a hash
    mismatch settles a pair without descending into it."""
    todo = [(xs, ys)]
    while todo:
        xs, ys = todo.pop()
        if len(xs) != len(ys):
            return False
        for x, y in zip(xs, ys):
            if x is y:
                continue
            if x._hash != y._hash or type(x) is not type(y):
                return False
            if type(x) is Var:
                if x.index != y.index:
                    return False
            elif x.name != y.name:
                return False
            elif x.args:
                todo.append((x.args, y.args))
    return True


def rename(t: Term | Atom, var_fn: Callable[[Var], Term] | None = None,
           bound: Callable[[int], tuple[Term, int] | None] | None = None) -> Term | Atom:
    """Rebuild the term or atom `t` through a map on its variables.

    `bound` reads a binding store of molecules (Boyer & Moore, 1972): a
    term at offset o has its variable x_j standing for store key j + o, and
    `t` itself is at offset 0. A variable whose key k has `bound(k)` equal
    to a molecule (u, o') is replaced by u read at offset o', which is
    walked in turn: an acyclic store whose bindings mention bound keys is
    read through to its fixpoint. Every other variable becomes x_k for its
    key k, and then var_fn(x_k), or stays x_k without `var_fn`; that image
    is not walked again. Variables are met left to right.

    A ground subterm, and a node whose rebuilt arguments are all the ones it
    had, are returned as they are. The walk keeps its own stack, and the
    offset of each node on it, so it does not recurse on term depth."""
    off = 0
    while type(t) is Var:
        m = None if bound is None else bound(t.index + off)
        if m is None:
            if off:
                t = Var(t.index + off)
            return t if var_fn is None else var_fn(t)
        t, off = m
    if not t.max_var:
        return t
    # The walk is at `node`, read at offset `noff`: `it` runs over its
    # arguments and `out` holds those rebuilt so far. A non-ground argument
    # saves the four on `stack` and becomes the node; a finished node goes
    # to its parent's `out`.
    node, noff, it, out = t, off, iter(t.args), []
    stack = []
    while True:
        for x in it:
            off = noff
            while type(x) is Var:
                m = None if bound is None else bound(x.index + off)
                if m is None:
                    break
                x, off = m
            if type(x) is Var:
                if off:
                    x = Var(x.index + off)
                out.append(x if var_fn is None else var_fn(x))
            elif not x.max_var:
                out.append(x)
            else:
                stack.append((node, noff, it, out))
                node, noff, it, out = x, off, iter(x.args), []
                break
        else:
            args = tuple(out)
            if all(map(is_, args, node.args)):
                new = node
            else:
                new = type(node)(node.name, args)
            if not stack:
                return new
            node, noff, it, out = stack.pop()
            out.append(new)


def lookup(table: Mapping[int, Term]) -> Callable[[Var], Term]:
    """A `rename` var_fn sending v to table[v.index], or to itself if absent."""
    get = table.get
    return lambda v: get(v.index, v)


def renumbering(base: int, seen: dict[int, Var]) -> Callable[[Var], Term]:
    """A `rename` var_fn keeping x1..x`base` and numbering every other variable
    base+1, base+2, ... by first occurrence; `seen` records old index -> new."""
    def var_fn(v: Var) -> Term:
        if v.index <= base:
            return v
        new = seen.get(v.index)
        if new is None:
            new = seen[v.index] = Var(base + len(seen) + 1)
        return new
    return var_fn


def term_vars(t: Term | Atom) -> Iterator[int]:
    """Variable indices of the term or atom `t`, left to right, with repeats.
    The walk keeps its own stack, so it does not recurse on term depth."""
    todo = [t]
    while todo:
        x = todo.pop()
        if type(x) is Var:
            yield x.index
        elif x.max_var:
            todo.extend(reversed(x.args))


# ---------------------------------------------------------------------------
# Clauses and programs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Clause:
    """Horn clause ``head :- body``.

    Canonical numbering: head variables get 1..n by first occurrence in the
    head, body-only (existential) variables get n+1..n+k by first occurrence
    in the body. `var_names` keeps the surface spellings for display only.
    """

    head: Atom
    body: tuple[Atom, ...] = ()
    var_names: tuple[str, ...] | None = field(default=None, compare=False, repr=False)

    @cached_property
    def head_var_count(self) -> int:
        return len(set(term_vars(self.head)))

    @cached_property
    def var_count(self) -> int:
        seen = set(term_vars(self.head))
        for a in self.body:
            seen.update(term_vars(a))
        return len(seen)

    @property
    def is_existential(self) -> bool:
        return self.var_count > self.head_var_count


def canonical_clause(head: Atom, body: Iterable[Atom],
                     names: Mapping[int, str] | None = None) -> Clause:
    """Renumber variables into canonical order (head first, then body)."""
    order: dict[int, Var] = {}
    var_fn = renumbering(0, order)
    head = rename(head, var_fn)
    body = tuple(rename(a, var_fn) for a in body)
    var_names = None if names is None else tuple(names[old] for old in order)
    return Clause(head, body, var_names)


@dataclass(frozen=True)
class Signature:
    """Functor and predicate arities, as sorted (name, arity) pairs."""

    functors: tuple[tuple[str, int], ...] = ()
    predicates: tuple[tuple[str, int], ...] = ()

    @cached_property
    def functor_arities(self) -> dict[str, int]:
        return dict(self.functors)

    @cached_property
    def predicate_arities(self) -> dict[str, int]:
        return dict(self.predicates)

    @property
    def constants(self) -> tuple[str, ...]:
        return tuple(name for name, arity in self.functors if arity == 0)

    @property
    def generic_atoms(self) -> tuple[Atom, ...]:
        """One atom p(X1, ..., Xn) per predicate p/n."""
        return tuple(Atom(pred, tuple(Var(i) for i in range(1, arity + 1)))
                     for pred, arity in self.predicates)


def _note(table: dict[str, int], name: str, arity: int, role: str) -> None:
    old = table.setdefault(name, arity)
    if old != arity:
        raise ArityMismatchError(name, old, arity, role)


def _note_atom(a: Atom, functors: dict[str, int], predicates: dict[str, int]) -> None:
    """Record the arities `a` uses, its functors in pre-order; raise
    ArityMismatchError on a clash. The walk keeps its own stack."""
    _note(predicates, a.name, len(a.args), "predicate")
    todo = list(reversed(a.args))
    while todo:
        t = todo.pop()
        if type(t) is Fn:
            _note(functors, t.name, len(t.args), "functor")
            todo.extend(reversed(t.args))


# Per predicate: all its clauses; per first-argument functor (name, arity), the
# clauses whose head's first argument is that functor or a variable; and the
# variable-first clauses alone. Every tuple is in program order.
_PredIndex = tuple[tuple[int, ...], dict[tuple[str, int], tuple[int, ...]], tuple[int, ...]]


def _signature(functors: dict[str, int], predicates: dict[str, int]) -> Signature:
    return Signature(tuple(sorted(functors.items())), tuple(sorted(predicates.items())))


@dataclass(frozen=True)
class Program:
    """A sequence of clauses (order significant) plus the shared signature."""

    clauses: tuple[Clause, ...] = ()
    signature: Signature = Signature()

    @classmethod
    def of(cls, clauses: Iterable[Clause]) -> "Program":
        canon = tuple(
            canonical_clause(c.head, c.body,
                             None if c.var_names is None else dict(enumerate(c.var_names, 1)))
            for c in clauses
        )
        functors: dict[str, int] = {}
        predicates: dict[str, int] = {}
        for c in canon:
            for a in (c.head,) + c.body:
                _note_atom(a, functors, predicates)
        return cls(canon, _signature(functors, predicates))

    def check_atom(self, a: Atom) -> None:
        """Raise ArityMismatchError if `a` conflicts with this program's signature."""
        sig, functors, predicates = self.signature, {}, {}
        _note_atom(a, functors, predicates)  # a clash inside `a` raises here
        if not (functors.items() <= sig.functor_arities.items()
                and predicates.items() <= sig.predicate_arities.items()):
            # A name the signature lacks, or a clash with it: note `a` over the signature.
            _note_atom(a, ChainMap({}, sig.functor_arities), ChainMap({}, sig.predicate_arities))

    @cached_property
    def _first_arg_index(self) -> dict[str, _PredIndex]:
        """First-argument clause index, built in one pass over the clauses."""
        building: dict[str, tuple[list[int], dict[tuple[str, int], list[int]], list[int]]] = {}
        for i, c in enumerate(self.clauses):
            every, by_functor, var_first = building.setdefault(c.head.name, ([], {}, []))
            every.append(i)
            first = c.head.args[0] if c.head.args else None
            if isinstance(first, Fn):
                key = (first.name, len(first.args))
                bucket = by_functor.get(key)
                if bucket is None:
                    bucket = by_functor[key] = var_first.copy()
                bucket.append(i)
            else:
                var_first.append(i)
                for bucket in by_functor.values():
                    bucket.append(i)
        return {pred: (tuple(every), {k: tuple(b) for k, b in by_functor.items()},
                       tuple(var_first))
                for pred, (every, by_functor, var_first) in building.items()}

    @cached_property
    def tm_table(self) -> dict:
        """The term-matching prover's verdict table, shared by every
        `engine_tm` search on this program (see `engine_tm._searcher`)."""
        return {}

    def candidates(self, pred: str, first: Term | None,
                   matching: bool = False) -> tuple[int, ...]:
        """Indices, increasing, of the clauses whose head can match or unify
        with an atom of predicate `pred` whose first argument is `first`
        (None for a nullary atom): the clauses of `pred`, narrowed by the
        principal functor of `first` when it has one. Every clause left out
        has a head whose `mgm` or `mgu` against the atom is None.

        With `matching`, only heads that can match the atom one way are kept:
        for a variable first argument that leaves the variable-first clauses,
        since no functor matches onto a variable."""
        entry = self._first_arg_index.get(pred)
        if entry is None:
            return ()
        every, by_functor, var_first = entry
        if type(first) is Fn:
            return by_functor.get((first.name, len(first.args)), var_first)
        return var_first if matching else every


def classify_program(p: Program) -> tuple[int, ...]:
    """The 0-based indices of the clauses that contain existential variables."""
    return tuple(i for i, c in enumerate(p.clauses) if c.is_existential)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# A token is its text and its offset in the source; the end of input is the
# token ("", len(source)). Whitespace and comments match `skip`, and any
# character no token starts with matches `bad`.
_TOKEN_RE = re.compile(
    r"(?P<skip>\s+|%[^\n]*)"
    r"|:-|[a-z][A-Za-z0-9_]*|[0-9]+|[A-Z_][A-Za-z0-9_]*|[(),.]"
    r"|(?P<bad>.)"
)
_NAME_START = frozenset(string.ascii_lowercase + string.digits)
_VAR_START = frozenset(string.ascii_uppercase + "_")


def _error(source: str, offset: int, message: str) -> ParseError:
    """A ParseError at the line and column of `offset` in `source`."""
    line = source.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - source.rfind("\n", 0, offset))


class _Parser:
    def __init__(self, source: str, signature: Signature | None = None) -> None:
        self.source = source
        self.tokens: list[tuple[str, int]] = []
        # Tokenizing is eager, so a bad character raises before any parse error.
        for m in _TOKEN_RE.finditer(source):
            if m.lastgroup is None:
                self.tokens.append((m.group(), m.start()))
            elif m.lastgroup == "bad":
                raise _error(source, m.start(), f"unexpected character {m.group()!r}")
        self.tokens.append(("", len(source)))
        self.pos = 0
        self.functors: dict[str, int] = dict(signature.functors) if signature else {}
        self.predicates: dict[str, int] = dict(signature.predicates) if signature else {}

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def error(self, what: str) -> ParseError:
        text, offset = self.tokens[self.pos]
        got = repr(text) if text else "end of input"
        return _error(self.source, offset, f"expected {what}, found {got}")

    def expect(self, text: str, what: str) -> None:
        if self.peek() != text:
            raise self.error(what)
        self.pos += 1

    def term(self, varmap: dict[str, int], atom: bool = False) -> Term | Atom:
        """A term, or with `atom` an atom: a name with an optional argument
        list of terms. Functors whose argument list is open wait on an
        explicit stack, so nesting costs no frames; each symbol's arity is
        noted as its list closes, innermost first."""
        tokens = self.tokens
        open_: list[tuple[str, list[Term]]] = []
        while True:
            text = tokens[self.pos][0]
            if text[:1] in _NAME_START:
                self.pos += 1
                if tokens[self.pos][0] == "(":
                    self.pos += 1
                    open_.append((text, []))
                    continue
                value = self.build(text, (), atom and not open_)
            elif atom and not open_:
                raise self.error("a predicate name")
            elif text[:1] in _VAR_START:
                self.pos += 1
                value = Var(varmap.setdefault(text, len(varmap) + 1))
            else:
                raise self.error("a term")
            while open_:
                open_[-1][1].append(value)
                if self.peek() == ",":
                    self.pos += 1
                    break
                self.expect(")", "')'")
                name, args = open_.pop()
                value = self.build(name, tuple(args), atom and not open_)
            else:
                return value

    def build(self, name: str, args: tuple[Term, ...], is_atom: bool) -> Term | Atom:
        if is_atom:
            _note(self.predicates, name, len(args), "predicate")
            return Atom(name, args)
        _note(self.functors, name, len(args), "functor")
        return Fn(name, args)

    def atoms(self, varmap: dict[str, int]) -> list[Atom]:
        """A comma-separated list of atoms."""
        atoms = [self.term(varmap, atom=True)]
        while self.peek() == ",":
            self.pos += 1
            atoms.append(self.term(varmap, atom=True))
        return atoms

    def clause(self) -> Clause:
        varmap: dict[str, int] = {}
        head = self.term(varmap, atom=True)
        body: list[Atom] = []
        if self.peek() == ":-":
            self.pos += 1
            body = self.atoms(varmap)
        self.expect(".", "'.'")
        # Variables were numbered by first occurrence, head before body, so the
        # clause is already canonical, and `varmap` lists their names in order.
        return Clause(head, tuple(body), tuple(varmap))


def parse_program(source: str) -> Program:
    """Parse a whole program. Clause order is preserved."""
    parser = _Parser(source)
    clauses = []
    while parser.peek():
        clauses.append(parser.clause())
    return Program(tuple(clauses), _signature(parser.functors, parser.predicates))


@dataclass(frozen=True)
class Goal:
    """A parsed query: one or more atoms sharing a variable context."""

    atoms: tuple[Atom, ...]
    var_count: int
    var_names: tuple[str, ...]

    @property
    def atom(self) -> Atom:
        if len(self.atoms) != 1:
            raise ValueError("expected a single-atom goal")
        return self.atoms[0]


def parse_goal(source: str, signature: Signature | None = None) -> Goal:
    """Parse a comma-separated atom list; a trailing '.' is optional."""
    parser = _Parser(source, signature)
    varmap: dict[str, int] = {}
    atoms = parser.atoms(varmap)
    if parser.peek() == ".":
        parser.pos += 1
    parser.expect("", "end of input")
    return Goal(tuple(atoms), len(varmap), tuple(varmap))


def parse_atom(source: str, signature: Signature | None = None) -> tuple[Atom, int]:
    """Parse one atom; variables are renumbered x1..xn by first occurrence."""
    goal = parse_goal(source, signature)
    return goal.atom, goal.var_count


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def var_name(index: int) -> str:
    return f"X{index}"


def print_term(t: Term, name: Callable[[int], str] = var_name,
               texts: dict[Term, str | None] | None = None,
               bound: Callable[[int], tuple[Term, int] | None] | None = None) -> str:
    """Surface text of `t`, with `name(i)` for the variable of index i. The
    walk keeps its own stack, so it does not recurse on term depth.

    `bound` reads a binding store of molecules, as in `rename`: `t` is at
    offset 0, a variable whose key k has `bound(k)` equal to (u, o') prints
    as u read at offset o', and every other variable prints as `name(k)`.
    Variables are met left to right, so `name` may number them as it meets
    them. A term is printed from the store as it stands; none is built.

    `texts`, if given, is a memo shared by calls with the same `name` and
    no `bound`: it maps a compound term to its text, or to None while its
    text is wanted. A node of `t` that keys a text is printed as that text
    without a walk, and one that keys None has its text stored once it is
    printed. Callers choose the wanted terms, so the memo holds only texts
    they print anyway; a term whose subterms are already there costs a walk
    of the rest.
    """
    out: list[str] = []
    # The stack holds terms read at offset `off`, literal text, the end of
    # a wanted term's text as (term, start), and the offset to go back to
    # once a binding read at another offset is printed, as (offset,).
    stack: list[Term | str | tuple] = [t]
    off = 0
    while stack:
        x = stack.pop()
        if type(x) is str:
            out.append(x)
            continue
        if type(x) is Var:
            if bound is None or (m := bound(x.index + off)) is None:
                out.append(name(x.index + off))
                continue
            x, xoff = m
            if xoff != off and x.max_var:
                stack.append((off,))
                off = xoff
            if type(x) is Var:
                stack.append(x)
                continue
        elif type(x) is tuple:
            if len(x) == 1:  # (offset,): go back to it
                off = x[0]
            else:  # (wanted term, start): its text ends here
                key, start = x
                text = texts[key] = "".join(out[start:])
                out[start:] = [text]
            continue
        args = x.args
        if not args:
            out.append(x.name)
            continue
        if texts is not None:
            known = texts.get(x, "")
            if known:
                out.append(known)
                continue
            if known is None:
                stack.append((x, len(out)))
        out.append(x.name + "(")
        stack.append(")")
        if len(args) > 1:
            for a in reversed(args[1:]):
                stack += (a, ", ")
        stack.append(args[0])
    return "".join(out)
