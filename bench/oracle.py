"""Expected answers for benchmark ops, computed without importing matchlog.

Everything here works on plain strings and tuples: the ascii tree layout the
CLI documents, proofs and trees of the list/nat programs built by
construction, a small reader for the `.lp` subset, closed-form term-pool
sizes for lax sweeps, the answer order of depth-first and
iterative-deepening enumeration of `nat(X)` and `list(X)`, reachability in a
forest, and a ground fixpoint.
"""

from __future__ import annotations

import re
from collections import deque
from typing import Iterator

# ---------------------------------------------------------------------------
# Printing and the ascii tree layout
# ---------------------------------------------------------------------------


def peano(k: int) -> str:
    """s^k(0) as the CLI prints it."""
    return "s(" * k + "0" + ")" * k


def nat_list(elems: list[int] | tuple[int, ...]) -> str:
    """cons(s^e1(0), cons(..., nil)) as the CLI prints it."""
    return "".join(f"cons({peano(e)}, " for e in elems) + "nil" + ")" * len(elems)


class _Line(str):
    """An or-node line waiting on the render stack."""


def render_ascii(root: tuple) -> str:
    """Render an and-node `(atom_text, truncated, [(clause, [and-nodes])])`
    in the layout of `matchlog tree`: or-nodes print as •[i] under their
    atom, children hang off ├─ / └─ guides, truncated atoms end in ' …'."""
    out: list[str] = []
    stack: list = [(root, "", "")]
    while stack:
        item = stack.pop()
        if isinstance(item, _Line):
            out.append(item)
            continue
        (atom, truncated, ors), prefix, connector = item
        out.append(f"{prefix}{connector}{atom}{' …' if truncated else ''}")
        child_prefix = prefix + ("" if not connector else
                                 "   " if connector == "└─ " else "│  ")
        todo: list = []
        for i, (idx, kids) in enumerate(ors):
            last = i == len(ors) - 1
            todo.append(_Line(f"{child_prefix}{'└─ ' if last else '├─ '}•[{idx}]"))
            cont = child_prefix + ("   " if last else "│  ")
            for j, kid in enumerate(kids):
                todo.append((kid, cont, "└─ " if j == len(kids) - 1 else "├─ "))
        stack.extend(reversed(todo))
    return "\n".join(out) + "\n"


# Clause indices of listnat.lp / listnat_plus.lp:
# 0 nat(0).  1 nat(s(X)) :- nat(X).  2 list(nil).
# 3 list(cons(X, Y)) :- nat(X), list(Y).  4 (plus only) list(cons(0, X)) :- list(X).


def nat_proof(k: int) -> tuple:
    node = ("nat(0)", False, [(0, [])])
    for i in range(1, k + 1):
        node = (f"nat({peano(i)})", False, [(1, [node])])
    return node


def list_proof(elems: list[int]) -> tuple:
    """The proof the prover extracts: clause 3 at every cons (it is tried first)."""
    node = ("list(nil)", False, [(2, [])])
    for i in range(len(elems) - 1, -1, -1):
        node = (f"list({nat_list(elems[i:])})", False,
                [(3, [nat_proof(elems[i]), node])])
    return node


def list_height(elems: list[int]) -> int:
    """Clause layers of the proof of list(elems): the depth bound it needs."""
    return max([len(elems) + 1] + [i + e + 2 for i, e in enumerate(elems)])


def list_tree(elems: list[int], depth: int) -> tuple:
    """Depth-truncated and-or tree of list(elems) on listnat_plus."""
    memo: dict = {}

    def nat(k: int, r: int) -> tuple:
        key = ("n", k, r)
        if key not in memo:
            atom = f"nat({peano(k)})"
            if r == 0:
                memo[key] = (atom, True, [])
            elif k == 0:
                memo[key] = (atom, False, [(0, [])])
            else:
                memo[key] = (atom, False, [(1, [nat(k - 1, r - 1)])])
        return memo[key]

    # Build bottom-up so no Python recursion follows the list length.
    for r in range(depth + 1):
        for i in range(len(elems), -1, -1):
            atom = f"list({nat_list(elems[i:])})"
            if r == 0:
                node = (atom, True, [])
            elif i == len(elems):
                node = (atom, False, [(2, [])])
            else:
                tail = memo[("l", i + 1, r - 1)]
                ors = [(3, [nat(elems[i], r - 1), tail])]
                if elems[i] == 0:
                    ors.append((4, [tail]))
                node = (atom, False, ors)
            memo[("l", i, r)] = node
    return memo[("l", 0, depth)]


def gc_tree(reflexive: bool, depth: int) -> tuple:
    """Depth-truncated tree of connected(X,Y) (or connected(X,X)) on gc.lp.

    Clause 0 is connected(X, X); clause 1 connected(X, Y) :- edge(X, Z),
    connected(Z, Y) draws Z fresh above the ceiling. edge heads no clause.
    """
    base = 1 if reflexive else 2
    goal_b = 1 if reflexive else 2
    # Walk down the single spine, then assemble bottom-up.
    spine = []
    a, ceiling = 1, base
    for r in range(depth, 0, -1):
        z = ceiling + 1
        spine.append((a, r, z))
        a, ceiling = z, z
    node = (f"connected(X{a}, X{goal_b})", True, [])
    for a, r, z in reversed(spine):
        edge = (f"edge(X{a}, X{z})", r - 1 == 0, [])
        ors = [(0, [])] if a == goal_b else []
        ors.append((1, [edge, node]))
        node = (f"connected(X{a}, X{goal_b})", False, ors)
    return node


# ---------------------------------------------------------------------------
# Reading programs: signature and clause heads
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(%[^\n]*)|(:-)|([A-Za-z0-9_]+)|([(),.]))")


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"cannot read program text at {pos}")
            break
        pos = m.end()
        if not m.group(1):
            out.append(m.group(2) or m.group(3) or m.group(4))
    return out


def read_program(text: str) -> list[tuple[tuple, list[tuple]]]:
    """Clauses as (head, body); an atom or compound term is (name, args),
    a variable is ('?', name)."""
    toks = _tokens(text)
    pos = 0

    def term():
        nonlocal pos
        name = toks[pos]
        pos += 1
        if name[0].isupper() or name[0] == "_":
            return ("?", name)
        args = []
        if pos < len(toks) and toks[pos] == "(":
            pos += 1
            args.append(term())
            while toks[pos] == ",":
                pos += 1
                args.append(term())
            pos += 1  # ')'
        return (name, tuple(args))

    clauses = []
    while pos < len(toks):
        head = term()
        body = []
        if toks[pos] == ":-":
            pos += 1
            body.append(term())
            while toks[pos] == ",":
                pos += 1
                body.append(term())
        pos += 1  # '.'
        clauses.append((head, body))
    return clauses


def signature(clauses) -> tuple[dict[str, int], dict[str, int]]:
    """(predicates, functors) with their arities; constants are 0-ary functors."""
    preds: dict[str, int] = {}
    functors: dict[str, int] = {}
    stack = []
    for head, body in clauses:
        for atom in [head] + body:
            preds[atom[0]] = len(atom[1])
            stack.extend(atom[1])
    while stack:
        t = stack.pop()
        if t[0] != "?":
            functors[t[0]] = len(t[1])
            stack.extend(t[1])
    return preds, functors


def _head_key(head) -> tuple[str, int]:
    """The head with variables numbered by first occurrence, and its var count."""
    names: dict[str, int] = {}

    def show(t) -> str:
        if t[0] == "?":
            return f"X{names.setdefault(t[1], len(names) + 1)}"
        return t[0] if not t[1] else f"{t[0]}({', '.join(show(a) for a in t[1])})"

    return show(head), len(names)


def lax_squares(text: str, max_arity: int, term_depth: int) -> int:
    """Squares a lax/inj sweep visits: one per (check atom, arrow n -> m).

    Check atoms are a generic atom per predicate at its arity, each clause
    head at its own variable count, and the generic atoms again at
    `max_arity`, without repeats. Arrows n -> m take m components from the
    pool of terms over n variables, |pool| = n + constants + sum over
    functors f of |previous pool|^arity(f), iterated term_depth - 1 times.
    """
    clauses = read_program(text)
    preds, functors = signature(clauses)
    n_const = sum(1 for a in functors.values() if a == 0)

    def pool(n: int) -> int:
        size = n + n_const
        for _ in range(term_depth - 1):
            size = n + n_const + sum(size ** a for a in functors.values() if a)
        return size

    keys = set()
    for p, a in preds.items():
        generic = p if a == 0 else f"{p}({', '.join(f'X{i}' for i in range(1, a + 1))})"
        for m in (a, max_arity):
            if a <= max_arity:
                keys.add((generic, m))
    for head, _ in clauses:
        keys.add(_head_key(head))
    pools = [pool(n) for n in range(max_arity + 1)]
    return sum(p ** m for _, m in keys if m <= max_arity for p in pools)


# ---------------------------------------------------------------------------
# Answer order of SLD enumeration on the list/nat programs
# ---------------------------------------------------------------------------


def _nat_answers(budget: int) -> Iterator[str]:
    for j in range(budget):  # s^j(0) takes j + 1 steps
        yield peano(j)


def _list_answers(budget: int, plus: bool) -> Iterator[tuple[int, ...]]:
    """Lists derivable within `budget` steps, in depth-first clause order."""
    if budget >= 1:
        yield ()
    for e in range(budget - 2):  # clause 3, nat takes e + 1, the tail >= 1
        for tail in _list_answers(budget - 2 - e, plus):
            yield (e,) + tail
    if plus and budget >= 2:  # clause 4 takes one step, the tail >= 1
        for tail in _list_answers(budget - 1, plus):
            yield (0,) + tail


def enumerate_answers(pred: str, plus: bool, max_answers: int, max_steps: int,
                      strategy: str) -> tuple[list[str], bool]:
    """Answer terms of `pred(X)` in the order SLD reports them, and whether
    the step bound was hit first (the `%% bound reached` marker)."""

    def sweep(budget: int) -> Iterator[str]:
        if pred == "nat":
            return _nat_answers(budget)
        return (nat_list(list(x)) for x in _list_answers(budget, plus))

    answers: list[str] = []
    seen: set[str] = set()

    def collect(budget: int) -> bool:
        for a in sweep(budget):
            if a not in seen:
                seen.add(a)
                answers.append(a)
                if len(answers) >= max_answers:
                    return True
        return False

    if strategy == "dfs":
        full = collect(max_steps)
        return answers, not full
    budget = 1
    while not collect(budget):
        if budget >= max_steps:
            return answers, True
        budget = min(budget * 2, max_steps)
    return answers, False


# ---------------------------------------------------------------------------
# Graphs and ground programs
# ---------------------------------------------------------------------------


def reach(children: dict[str, list[str]], source: str) -> set[str]:
    """Nodes reachable from `source` (itself included), breadth first."""
    seen, queue = {source}, deque([source])
    while queue:
        for c in children.get(queue.popleft(), ()):
            if c not in seen:
                seen.add(c)
                queue.append(c)
    return seen


def ground_fixpoint(clauses: list[tuple[str, list[str]]]) -> set[str]:
    """Least model of a propositional program."""
    model: set[str] = set()
    changed = True
    while changed:
        changed = False
        for head, body in clauses:
            if head not in model and all(b in model for b in body):
                model.add(head)
                changed = True
    return model
