"""Finite truncations of and-or derivation trees built with one-way matching.

An and-node holds a goal atom; its children are or-nodes, one per program
clause whose head matches the atom exactly (goal variables frozen). An
or-node for clause ``B :- B1, ..., Bn`` has the n matched body instances as
children, in order. Clauses with body-only variables introduce fresh
variables, numbered just above everything already used on the path from the
root, so the full tree may be infinite; `build_tree` cuts it at a given
number of or-layers and flags the cut and-nodes as truncated. Its step,
`or_children`, is also the one the term-matching prover extracts proofs with.

`success_subtree` searches a truncation for a proof: a choice of one
or-child per and-node with every branch closing at a childless or-node.
The verdict is three-valued. A childless, non-truncated and-node kills a
branch outright only when its atom is built purely from root variables;
if it mentions fresh variables the branch stays inconclusive, since fresh
variables stand for arbitrary instantiations that a deeper or specialised
derivation might still satisfy.

Every walk that builds a value from a tree is one `fold`, post-order on an
explicit stack, so depth costs no Python frames. `fold` makes each distinct
item once: `build_tree` shares equal (atom, remaining depth, fresh ceiling)
subtrees, and walks over a tree keep its sharing. Nodes compare by
identity; `tree_leq` and `tree_equal_upto_renaming` compare structure,
visiting each pair of nodes once.

`render` prints each distinct atom once, children first, through one
`print_term` memo that holds the text of every atom argument in the tree.
Matching builds a body instance from subterms of its parent's atom, so a
printed argument is reused wherever it recurs, and rendering costs time
linear in the tree's distinct term nodes plus the bytes of its output. It
returns ascii and dot as one piece per line and JSON as its writer's pieces,
joined unless the caller writes them in turn (`render_chunks`).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterator

from .syntax import (
    ArityMismatchError,
    Atom,
    Program,
    Signature,
    Term,
    parse_canonical_atom,
    parse_canonical_term,
    print_term,
    rename,
    renumbering,
    var_name,
)
from .substitution import Substitution, ArrowSubstitution, instances


class Status(enum.IntEnum):
    FAILED = 0
    UNKNOWN = 1
    PROVED = 2

    def __str__(self) -> str:
        return self.name.capitalize()


@dataclass(frozen=True, eq=False)
class OrNode:
    """A clause application: matcher sends the clause head to the parent atom."""

    clause_index: int
    matcher: Substitution
    children: tuple["AndNode", ...]


@dataclass(frozen=True, eq=False)
class AndNode:
    atom: Atom
    children: tuple[OrNode, ...] = ()
    truncated: bool = False


@dataclass(frozen=True)
class CoTree:
    root: AndNode
    base: int  # arity of the variable context at the root; fresh vars live above it


def fold(root: Any, key: Callable[[Any], Hashable], groups: Callable[[Any], list],
         make: Callable[[Any, list], Any]) -> Any:
    """The value of `root`, built post-order over an explicit stack.

    `groups(x)` lists x's or-children as (label, items) pairs, and
    `make(x, [(label, values), ...])` builds x's value from the values of
    its items. Items with equal `key` are made once and share one value.
    """
    def frame(x: Any, k: Hashable) -> tuple:
        gs = groups(x)
        pending = gs[0][1] if len(gs) == 1 else [item for _, group in gs for item in group]
        return x, k, gs, iter(pending), []

    made: dict[Hashable, Any] = {}
    stack = [frame(root, key(root))]
    while True:
        x, k, gs, pending, values = stack[-1]
        for item in pending:
            ik = key(item)
            if ik not in made:
                stack.append(frame(item, ik))
                break
            values.append(made[ik])
        else:
            stack.pop()
            flat = iter(values)
            value = made[k] = make(x, [(gs[0][0], values)] if len(gs) == 1 else [
                (label, [next(flat) for _ in items]) for label, items in gs])
            if not stack:
                return value
            stack[-1][4].append(value)


def _ors(node: AndNode) -> list:
    return [((o.clause_index, o.matcher), o.children) for o in node.children]


def and_node(atom: Atom, ors: list, truncated: bool) -> AndNode:
    """An and-node whose or-children `ors` labels (clause index, matcher)."""
    return AndNode(atom, tuple(OrNode(i, m, tuple(kids)) for (i, m), kids in ors), truncated)


def _check_proof_node(node: AndNode) -> list:
    if node.truncated:
        raise ValueError("proof trees may not contain truncated nodes")
    if len(node.children) != 1:
        raise ValueError("each and-node in a proof has exactly one or-child")
    return [(None, node.children[0].children)]


@dataclass(frozen=True)
class ProofTree:
    """A success subtree: one clause choice per atom, all branches closed."""

    root: AndNode
    base: int

    def __post_init__(self) -> None:  # checked as nodes are reached: pre-order
        fold(self.root, id, _check_proof_node, lambda node, ors: None)


@dataclass(frozen=True)
class TreeOutcome:
    """A three-valued verdict, with a proof when it is Proved."""

    status: Status
    proof: ProofTree | None = None

    @property
    def is_proved(self) -> bool:
        return self.status is Status.PROVED


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def or_children(program: Program, atom: Atom, remaining: int,
                ceiling: int) -> Iterator[tuple[tuple[int, Substitution], list]]:
    """The or-children of the tree node (atom, remaining depth, fresh
    ceiling), lazily: each clause instance's (clause index, matcher) label
    and its body's nodes. A subtree depends only on these three values."""
    if remaining:
        for idx, theta, body in instances(program, atom, ceiling):
            c = program.clauses[idx]
            below = ceiling + c.var_count - c.head_var_count
            yield (idx, theta), [(b, remaining - 1, below) for b in body]


def build_tree(program: Program, goal: Atom, base: int, depth: int) -> CoTree:
    """The depth-`depth` truncation of the and-or tree for `goal` over `base` vars.

    `depth` counts or-node layers along any root-to-leaf path; and-nodes at
    that depth are marked truncated and get no children.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    program.check_atom(goal)
    if goal.max_var > base:
        raise ArityMismatchError(print_term(goal), base, goal.max_var, "goal")
    return CoTree(fold((goal, depth, base), lambda x: x,
                       lambda x: list(or_children(program, *x)),
                       lambda x, ors: and_node(x[0], ors, x[1] == 0)), base)


def truncate_tree(t: CoTree, depth: int) -> CoTree:
    """Cut the tree after `depth` or-layers, flagging the cut nodes."""
    if depth < 0:
        raise ValueError("depth must be >= 0")

    def groups(x: tuple[AndNode, int]) -> list:
        node, remaining = x
        return [(label, [(c, remaining - 1) for c in kids])
                for label, kids in _ors(node)] if remaining else []

    return CoTree(fold((t.root, depth), lambda x: (id(x[0]), x[1]), groups,
                       lambda x, ors: and_node(x[0].atom, ors, x[0].truncated or x[1] == 0)),
                  t.base)


# ---------------------------------------------------------------------------
# Proof search on a built tree
# ---------------------------------------------------------------------------

def success_subtree(t: CoTree) -> TreeOutcome:
    """Three-valued proof search over a truncated tree.

    Proved: some choice of or-children closes every branch inside the
    non-truncated region. Failed: every candidate choice dies at a
    childless, non-truncated and-node over root variables only. Unknown
    otherwise (the search ran into truncation or into dead ends that
    mention fresh variables).
    """
    # A node's value: its verdict, and the proof through its first proved or-child.
    def make(node: AndNode, ors: list) -> tuple[Status, AndNode | None]:
        if node.truncated or not ors:
            dead = not node.truncated and node.atom.max_var <= t.base
            return (Status.FAILED if dead else Status.UNKNOWN), None
        status = max(min((s for s, _ in kids), default=Status.PROVED) for _, kids in ors)
        for label, kids in ors:
            if all(s is Status.PROVED for s, _ in kids):
                return status, and_node(node.atom, [(label, [p for _, p in kids])], False)
        return status, None

    status, proof = fold(t.root, id, _ors, make)
    return TreeOutcome(status, None if proof is None else ProofTree(proof, t.base))


# ---------------------------------------------------------------------------
# Substitution into trees, embedding order, renaming-insensitive equality
# ---------------------------------------------------------------------------

def map_tree(f: ArrowSubstitution, t: CoTree) -> CoTree:
    """Apply an arrow to every node, keeping shape, clause indices and flags.

    Base variables x1..xm go through f's components; the j-th fresh variable
    above the base is renumbered from m+j to n+j so that fresh allocation
    stays aligned with the new base arity n.
    """
    if f.target != t.base:
        raise ArityMismatchError("tree base", f.target, t.base, "arrow target")
    var_fn = f.rename_var

    def make(node: AndNode, ors: list) -> AndNode:
        return and_node(rename(node.atom, var_fn), [
            ((i, Substitution({j: rename(v, var_fn) for j, v in m.items()})), kids)
            for (i, m), kids in ors], node.truncated)

    return CoTree(fold(t.root, id, _ors, make), f.source)


def tree_leq(small: CoTree, big: CoTree) -> bool:
    """Root-preserving embedding: atoms equal, or-nodes matched by clause
    index, `big` may carry extra or-children. Both trees should be
    truncations at the same or-depth over the same base."""
    if small.base != big.base:
        return False
    seen: set[tuple[int, int]] = set()
    stack = [(small.root, big.root)]
    while stack:
        a, b = stack.pop()
        if (id(a), id(b)) in seen:
            continue
        seen.add((id(a), id(b)))
        if a.atom != b.atom or a.truncated != b.truncated:
            return False
        by_clause = {o.clause_index: o for o in b.children}
        for o in a.children:
            o2 = by_clause.get(o.clause_index)
            if o2 is None or len(o.children) != len(o2.children):
                return False
            stack.extend(zip(o.children, o2.children))
    return True


def tree_equal_upto_renaming(a: CoTree, b: CoTree) -> bool:
    """Structural equality modulo a bijective renaming of fresh variables.

    Base variables must agree literally; matchers are bookkeeping and are
    not compared. Both trees are visited in lockstep with their fresh
    variables renumbered by first occurrence, so the renamed atoms are equal
    exactly when such a bijection exists. A pair met again is skipped: the
    walk is LIFO, so its subtree, and each fresh variable there, is done.
    """
    if a.base != b.base:
        return False
    fresh_a, fresh_b = renumbering(a.base, {}), renumbering(b.base, {})
    seen: set[tuple[int, int]] = set()
    stack = [(a.root, b.root)]
    while stack:
        x, y = stack.pop()
        if (id(x), id(y)) in seen:
            continue
        seen.add((id(x), id(y)))
        if (x.truncated != y.truncated or len(x.children) != len(y.children)
                or rename(x.atom, fresh_a) != rename(y.atom, fresh_b)):
            return False
        for ox, oy in zip(x.children, y.children):
            if ox.clause_index != oy.clause_index or len(ox.children) != len(oy.children):
                return False
            stack.extend(zip(ox.children, oy.children))
    return True


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _printer(root: AndNode) -> Callable[[AndNode | Term], str]:
    """The text of an and-node's atom under `root`, or of any term, from one
    `print_term` memo that wants every atom argument in the tree, so each
    argument is walked once, whichever atom reaches it first. The atoms are
    printed up front, children first, once per distinct and-node."""
    nodes: list[AndNode] = []
    fold(root, id, _ors, lambda node, ors: nodes.append(node))
    texts = dict.fromkeys(a for node in nodes for a in node.atom.args)
    atoms = {id(node): print_term(node.atom, texts=texts) for node in nodes}
    return lambda x: atoms[id(x)] if type(x) is AndNode else print_term(x, texts=texts)


def _ascii_lines(t: CoTree | ProofTree, text: Callable[[AndNode | Term], str]) -> list[str]:
    # Pre-order over an explicit stack of (and-node, prefix, connector)
    # entries and, as (None, line, None), ready or-node lines.
    lines, stack = [], [(t.root, "", "")]
    while stack:
        node, prefix, connector = stack.pop()
        if node is None:
            lines.append(prefix)
            continue
        mark = " …" if node.truncated else ""
        lines.append(f"{prefix}{connector}{text(node)}{mark}\n")
        if connector:
            prefix += "   " if connector == "└─ " else "│  "
        branch = "└─ "  # the children are pushed last first
        for o in reversed(node.children):
            cont, kid = prefix + ("   " if branch == "└─ " else "│  "), "└─ "
            for c in reversed(o.children):
                stack.append((c, cont, kid))
                kid = "├─ "
            stack.append((None, f"{prefix}{branch}•[{o.clause_index}]\n", None))
            branch = "├─ "
    return lines


def _dot_lines(t: CoTree | ProofTree, text: Callable[[AndNode | Term], str]) -> list[str]:
    # Pre-order over an explicit stack of (node, parent id) entries; the edge
    # into an and-node is pushed as (None, line), to follow its subtree.
    lines, stack, count = ["digraph cotree {\n", "  rankdir=TB;\n"], [(t.root, None)], 0
    while stack:
        x, parent = stack.pop()
        if x is None:
            lines.append(parent)
            continue
        nid, count = f"n{count}", count + 1
        if type(x) is OrNode:
            lines += [f"  {nid} [shape=point];\n", f"  {parent} -> {nid};\n"]
        else:
            style = ", style=dashed" if x.truncated else ""
            lines.append(f'  {nid} [shape=box, label="{text(x)}"{style}];\n')
            if parent is not None:
                stack.append((None, f"  {parent} -> {nid};\n"))
        for c in reversed(x.children):
            stack.append((c, nid))
    lines.append("}\n")
    return lines


def _json_pieces(t: CoTree | ProofTree, text: Callable[[AndNode | Term], str]) -> list[str]:
    # The pieces of `json.dumps(..., indent=2)` of the tree's objects, written
    # pre-order from an explicit stack of (value, indent) entries and, as
    # (text, None), ready text. An and-node becomes its object when reached.
    out, stack = [], [(t.root, "")]
    while stack:
        x, pad = stack.pop()
        if type(x) is AndNode:
            x = {"kind": "and", "atom": text(x), "truncated": x.truncated,
                 **({"base": t.base} if x is t.root else {}),
                 "children": [{"kind": "or", "clause": o.clause_index, "matcher": {
                     var_name(j): text(v) for j, v in o.matcher.items()},
                     "children": o.children} for o in x.children]}
        if pad is None or type(x) not in (dict, tuple, list) or not x:
            out.append(x if pad is None else json.dumps(x))
            continue
        keys = [f"{json.dumps(k)}: " for k in x] if type(x) is dict else [""] * len(x)
        values = list(x.values()) if type(x) is dict else x
        inner = pad + "  "
        out.append("{" if type(x) is dict else "[")
        stack.append(("\n" + pad + ("}" if type(x) is dict else "]"), None))
        for i in reversed(range(len(x))):
            stack += [(values[i], inner), (("," if i else "") + "\n" + inner + keys[i], None)]
    out.append("\n")
    return out


_WRITERS: dict[str, Callable[..., list[str]]] = {
    "ascii": _ascii_lines,
    "dot": _dot_lines,
    "json": _json_pieces,
}


def render(t: CoTree | ProofTree, fmt: str = "ascii", *, pieces: bool = False) -> str | list[str]:
    """Deterministic rendering; `fmt` is one of ascii, dot, json. With
    `pieces`, the eager list of pieces whose join the text is: one per line
    in ascii and dot, the JSON writer's own pieces in json, so a caller that
    writes them in turn never builds the whole text or its encoding. The
    cost is linear in the tree's distinct term nodes plus the bytes written
    (see the module docstring)."""
    if fmt not in _WRITERS:
        raise ValueError(f"unknown format {fmt!r}")
    out = _WRITERS[fmt](t, _printer(t.root))
    return out if pieces else "".join(out)


def render_chunks(t: CoTree | ProofTree, fmt: str) -> list[str]:
    """`render(t, fmt)` as the list of pieces whose join it is. It goes
    through `render`, so every rendering, whole or in pieces, is one call
    of it (as `bench/run.py`'s traced `cotree.render` row counts them)."""
    return render(t, fmt, pieces=True)


def load_tree_json(text: str, signature: Signature | None = None) -> CoTree:
    """Rebuild a tree from its JSON rendering. Library only: no command
    reads JSON, so this keeps `json.loads`, which recurses on nesting."""
    data = json.loads(text)

    def make(obj: dict, ors: list) -> AndNode:
        return and_node(parse_canonical_atom(obj["atom"], signature), [
            ((int(o["clause"]), Substitution({int(k[1:]): parse_canonical_term(v)
                                              for k, v in o.get("matcher", {}).items()})), kids)
            for o, kids in ors], bool(obj["truncated"]))

    return CoTree(fold(data, id, lambda obj: [(o, o["children"]) for o in obj["children"]], make),
                  int(data["base"]))
