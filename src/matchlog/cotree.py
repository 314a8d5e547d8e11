"""Finite truncations of and-or derivation trees built with one-way matching.

An and-node holds a goal atom; its children are or-nodes, one per program
clause whose head matches the atom exactly (goal variables frozen). An
or-node for clause ``B :- B1, ..., Bn`` has the n matched body instances as
children, in order. Clauses with body-only variables introduce fresh
variables, numbered just above everything already used on the path from the
root, so the full tree may be infinite; `build_tree` cuts it at a given
number of or-layers and flags the cut and-nodes as truncated.

`success_subtree` searches a truncation for a proof: a choice of one
or-child per and-node with every branch closing at a childless or-node.
The verdict is three-valued. A childless, non-truncated and-node kills a
branch outright only when its atom is built purely from root variables;
if it mentions fresh variables the branch stays inconclusive, since fresh
variables stand for arbitrary instantiations that a deeper or specialised
derivation might still satisfy.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

from .syntax import (
    ArityMismatchError,
    Atom,
    Program,
    Signature,
    max_var,
    parse_canonical_atom,
    parse_canonical_term,
    print_atom,
    print_term,
    rename,
    rename_atom,
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


@dataclass(frozen=True)
class OrNode:
    """A clause application: matcher sends the clause head to the parent atom."""

    clause_index: int
    matcher: Substitution
    children: tuple["AndNode", ...]


@dataclass(frozen=True)
class AndNode:
    atom: Atom
    children: tuple[OrNode, ...] = ()
    truncated: bool = False


@dataclass(frozen=True)
class CoTree:
    root: AndNode
    base: int  # arity of the variable context at the root; fresh vars live above it


def _check_proof_node(node: AndNode) -> None:
    if node.truncated:
        raise ValueError("proof trees may not contain truncated nodes")
    if len(node.children) != 1:
        raise ValueError("each and-node in a proof has exactly one or-child")
    for child in node.children[0].children:
        _check_proof_node(child)


@dataclass(frozen=True)
class ProofTree:
    """A success subtree: one clause choice per atom, all branches closed."""

    root: AndNode
    base: int

    def __post_init__(self) -> None:
        _check_proof_node(self.root)


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

def build_tree(program: Program, goal: Atom, base: int, depth: int) -> CoTree:
    """The depth-`depth` truncation of the and-or tree for `goal` over `base` vars.

    `depth` counts or-node layers along any root-to-leaf path; and-nodes at
    that depth are marked truncated and get no children.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    program.check_atom(goal)
    if max_var(goal) > base:
        raise ArityMismatchError(print_atom(goal), base, max_var(goal), "goal")

    # A subtree depends only on its atom, its remaining depth and its fresh
    # variable ceiling, so equal subtrees are built once and shared.
    memo: dict[tuple[Atom, int, int], AndNode] = {}

    def expand(atom: Atom, remaining: int, ceiling: int) -> AndNode:
        key = (atom, remaining, ceiling)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if remaining == 0:
            node = AndNode(atom, (), True)
        else:
            ors = []
            for idx, theta, body in instances(program, atom, ceiling):
                clause = program.clauses[idx]
                child_ceiling = ceiling + clause.var_count - clause.head_var_count
                ors.append(OrNode(idx, theta,
                                  tuple(expand(b, remaining - 1, child_ceiling) for b in body)))
            node = AndNode(atom, tuple(ors), False)
        memo[key] = node
        return node

    return CoTree(expand(goal, depth, base), base)


def truncate_tree(t: CoTree, depth: int) -> CoTree:
    """Cut the tree after `depth` or-layers, flagging the cut nodes."""
    if depth < 0:
        raise ValueError("depth must be >= 0")

    def cut(node: AndNode, remaining: int) -> AndNode:
        if remaining == 0:
            return AndNode(node.atom, (), True)
        return AndNode(
            node.atom,
            tuple(
                OrNode(o.clause_index, o.matcher,
                       tuple(cut(c, remaining - 1) for c in o.children))
                for o in node.children
            ),
            node.truncated,
        )

    return CoTree(cut(t.root, depth), t.base)


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
    cache: dict[int, Status] = {}

    def ev(node: AndNode) -> Status:
        hit = cache.get(id(node))
        if hit is not None:
            return hit
        if node.truncated:
            res = Status.UNKNOWN
        elif not node.children:
            res = Status.UNKNOWN if max_var(node.atom) > t.base else Status.FAILED
        else:
            res = Status.FAILED
            for o in node.children:
                branch = Status.PROVED
                for c in o.children:
                    branch = min(branch, ev(c))
                    if branch is Status.FAILED:
                        break
                res = max(res, branch)
                if res is Status.PROVED:
                    break
        cache[id(node)] = res
        return res

    def extract(node: AndNode) -> AndNode:
        for o in node.children:
            if all(ev(c) is Status.PROVED for c in o.children):
                chosen = OrNode(o.clause_index, o.matcher,
                                tuple(extract(c) for c in o.children))
                return AndNode(node.atom, (chosen,), False)
        raise AssertionError("no provable or-child in a proved node")

    status = ev(t.root)
    if status is Status.PROVED:
        return TreeOutcome(status, ProofTree(extract(t.root), t.base))
    return TreeOutcome(status)


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

    def walk(node: AndNode) -> AndNode:
        ors = tuple(
            OrNode(
                o.clause_index,
                Substitution({i: rename(v, var_fn) for i, v in o.matcher.items()}),
                tuple(walk(c) for c in o.children),
            )
            for o in node.children
        )
        return AndNode(rename_atom(node.atom, var_fn), ors, node.truncated)

    return CoTree(walk(t.root), f.source)


def tree_leq(small: CoTree, big: CoTree) -> bool:
    """Root-preserving embedding: atoms equal, or-nodes matched by clause
    index, `big` may carry extra or-children. Both trees should be
    truncations at the same or-depth over the same base."""
    if small.base != big.base:
        return False

    def emb(a: AndNode, b: AndNode) -> bool:
        if a.atom != b.atom or a.truncated != b.truncated:
            return False
        by_clause = {o.clause_index: o for o in b.children}
        for o in a.children:
            o2 = by_clause.get(o.clause_index)
            if o2 is None or len(o.children) != len(o2.children):
                return False
            if not all(emb(x, y) for x, y in zip(o.children, o2.children)):
                return False
        return True

    return emb(small.root, big.root)


def tree_equal_upto_renaming(a: CoTree, b: CoTree) -> bool:
    """Structural equality modulo a bijective renaming of fresh variables.

    Base variables must agree literally; matchers are bookkeeping and are
    not compared. Both trees are visited in lockstep with their fresh
    variables renumbered by first occurrence, so the renamed atoms are equal
    exactly when such a bijection exists.
    """
    if a.base != b.base:
        return False
    fresh_a, fresh_b = renumbering(a.base, {}), renumbering(b.base, {})
    stack = [(a.root, b.root)]
    while stack:
        x, y = stack.pop()
        if (x.truncated != y.truncated or len(x.children) != len(y.children)
                or rename_atom(x.atom, fresh_a) != rename_atom(y.atom, fresh_b)):
            return False
        for ox, oy in zip(x.children, y.children):
            if ox.clause_index != oy.clause_index or len(ox.children) != len(oy.children):
                return False
            stack.extend(zip(ox.children, oy.children))
    return True


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _ascii_lines(node: AndNode, out: list[str], prefix: str, connector: str) -> None:
    mark = " …" if node.truncated else ""
    out.append(f"{prefix}{connector}{print_atom(node.atom)}{mark}")
    child_prefix = prefix
    if connector:
        child_prefix = prefix + ("   " if connector == "└─ " else "│  ")
    n = len(node.children)
    for i, o in enumerate(node.children):
        last = i == n - 1
        branch = "└─ " if last else "├─ "
        cont = "   " if last else "│  "
        out.append(f"{child_prefix}{branch}•[{o.clause_index}]")
        kn = len(o.children)
        for j, c in enumerate(o.children):
            klast = j == kn - 1
            _ascii_lines(c, out, child_prefix + cont,
                         "└─ " if klast else "├─ ")


def _dot_text(root: AndNode) -> str:
    lines = ["digraph cotree {", "  rankdir=TB;"]
    counter = 0

    def fresh_id() -> str:
        nonlocal counter
        nid = f"n{counter}"
        counter += 1
        return nid

    def walk_and(node: AndNode) -> str:
        nid = fresh_id()
        style = ", style=dashed" if node.truncated else ""
        lines.append(f'  {nid} [shape=box, label="{print_atom(node.atom)}"{style}];')
        for o in node.children:
            oid = fresh_id()
            lines.append(f"  {oid} [shape=point];")
            lines.append(f"  {nid} -> {oid};")
            for c in o.children:
                cid = walk_and(c)
                lines.append(f"  {oid} -> {cid};")
        return nid

    walk_and(root)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _json_obj(node: AndNode, base: int | None = None) -> dict:
    obj: dict = {"kind": "and", "atom": print_atom(node.atom), "truncated": node.truncated}
    if base is not None:
        obj["base"] = base
    obj["children"] = [
        {
            "kind": "or",
            "clause": o.clause_index,
            "matcher": {var_name(i): print_term(v) for i, v in o.matcher.items()},
            "children": [_json_obj(c) for c in o.children],
        }
        for o in node.children
    ]
    return obj


def render(t: CoTree | ProofTree, fmt: str = "ascii") -> str:
    """Deterministic rendering; `fmt` is one of ascii, dot, json."""
    if fmt == "ascii":
        out: list[str] = []
        _ascii_lines(t.root, out, "", "")
        return "\n".join(out) + "\n"
    if fmt == "dot":
        return _dot_text(t.root)
    if fmt == "json":
        return json.dumps(_json_obj(t.root, t.base), indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def load_tree_json(text: str, signature: Signature | None = None) -> CoTree:
    """Rebuild a tree from its JSON rendering."""
    data = json.loads(text)

    def load_and(obj: dict) -> AndNode:
        atom = parse_canonical_atom(obj["atom"], signature)
        ors = tuple(
            OrNode(
                int(o["clause"]),
                Substitution({
                    int(k[1:]): parse_canonical_term(v)
                    for k, v in o.get("matcher", {}).items()
                }),
                tuple(load_and(c) for c in o["children"]),
            )
            for o in obj["children"]
        )
        return AndNode(atom, ors, bool(obj["truncated"]))

    return CoTree(load_and(data), int(data["base"]))
