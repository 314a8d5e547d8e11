"""Seeded random generators and independent oracles shared by the tests.

The oracles deliberately avoid the code paths they check: matching and
unification are cross-checked against brute-force enumeration over small
term spaces, entailment of ground programs against a hand-rolled fixpoint
loop, and tree shapes against a per-node re-scan of the clause list. The
SLD oracles, `eager_sld` and `replay_trace`, call no function of
`matchlog.substitution`: they unify with `robinson_mgu`, a textbook
unifier with the occurs check, and apply and rename with `substitute`, a
recursive walk; `Substitution` only holds their answers for comparison.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import random
import sys
from dataclasses import replace
from typing import Callable

from matchlog import coalgebra
from matchlog import (
    ArrowSubstitution,
    Atom,
    Clause,
    Fn,
    Program,
    Signature,
    Substitution,
    Term,
    Var,
    apply,
    mgm,
    mgu,
    arrow_apply,
    compose_arrows,
    parse_program,
)
from matchlog.substitution import is_var_injection
from matchlog.syntax import (
    canonical_clause,
    print_term,
    term_vars,
)


# ---------------------------------------------------------------------------
# Random syntax
# ---------------------------------------------------------------------------

CONSTANTS = ("a", "b")
UNARY = "f"
BINARY = "g"


def random_term(rng: random.Random, nvars: int, depth: int) -> Term:
    choices = ["const"]
    if nvars:
        choices += ["var", "var"]
    if depth > 1:
        choices += ["unary", "binary"]
    kind = rng.choice(choices)
    if kind == "var":
        return Var(rng.randint(1, nvars))
    if kind == "const":
        return Fn(rng.choice(CONSTANTS))
    if kind == "unary":
        return Fn(UNARY, (random_term(rng, nvars, depth - 1),))
    return Fn(BINARY, (random_term(rng, nvars, depth - 1),
                       random_term(rng, nvars, depth - 1)))


def random_atom(rng: random.Random, nvars: int, depth: int = 2,
                preds: tuple[tuple[str, int], ...] = (("p", 1), ("q", 2), ("r", 3))) -> Atom:
    pred, arity = rng.choice(preds)
    return Atom(pred, tuple(random_term(rng, nvars, depth) for _ in range(arity)))


def random_substitution(rng: random.Random, domain: tuple[int, ...], nvars: int,
                        depth: int = 2) -> Substitution:
    return Substitution({i: random_term(rng, nvars, depth)
                         for i in domain if rng.random() < 0.8})


def random_ground_program(rng: random.Random, max_atoms: int = 6,
                          max_clauses: int = 8) -> Program:
    pool = [Atom(name) for name in "abcdef"[: rng.randint(1, max_atoms)]]
    clauses = []
    for _ in range(rng.randint(0, max_clauses)):
        head = rng.choice(pool)
        body = tuple(rng.choice(pool) for _ in range(rng.randint(0, 3)))
        clauses.append(Clause(head, body))
    return Program.of(clauses)


def random_fo_program(rng: random.Random, existential: bool) -> Program:
    """Small first-order program over constants a/b, f/1 and predicates p/1, q/2."""
    preds = (("p", 1), ("q", 2))
    clauses = []
    n_clauses = rng.randint(2, 5)
    existential_at = rng.randrange(n_clauses) if existential else -1
    for ci in range(n_clauses):
        pred, arity = rng.choice(preds)
        head_vars = rng.randint(0, 2)

        def head_term() -> Term:
            roll = rng.random()
            if head_vars and roll < 0.6:
                return Var(rng.randint(1, head_vars))
            if roll < 0.85:
                return Fn(rng.choice(CONSTANTS))
            inner = (Var(rng.randint(1, head_vars)) if head_vars and rng.random() < 0.7
                     else Fn(rng.choice(CONSTANTS)))
            return Fn(UNARY, (inner,))

        head = Atom(pred, tuple(head_term() for _ in range(arity)))
        head_var_pool = sorted(set(term_vars(head)))

        def body_term() -> Term:
            if head_var_pool and rng.random() < 0.7:
                return Var(rng.choice(head_var_pool))
            return Fn(rng.choice(CONSTANTS))

        body = []
        for _ in range(rng.randint(0, 2)):
            bp, ba = rng.choice(preds)
            body.append(Atom(bp, tuple(body_term() for _ in range(ba))))
        if ci == existential_at:
            bp, ba = rng.choice(preds)
            args = [Var(head.max_var + 1)] + [body_term() for _ in range(ba - 1)]
            body.append(Atom(bp, tuple(args)))
        clauses.append(canonical_clause(head, body))
    program = Program.of(clauses)
    assert any(c.is_existential for c in program.clauses) == existential
    return program


def chain_edges(n: int) -> list[tuple[str, str]]:
    """The path n0 -> n1 -> ... -> n`n`."""
    return [(f"n{i}", f"n{i + 1}") for i in range(n)]


def forest_edges(rng: random.Random, nodes: int) -> list[tuple[str, str]]:
    """A random forest on n0..n`nodes-1`, edges pointing away from the roots,
    in shuffled order."""
    edges = [(f"n{rng.randrange(i)}", f"n{i}") for i in range(1, nodes) if rng.random() < 0.9]
    rng.shuffle(edges)
    return edges


def edge_program(edges: list[tuple[str, str]]) -> Program:
    """gc.lp's connectivity clauses followed by one `edge` fact per pair."""
    source = (pathlib.Path(__file__).parent / "programs" / "gc.lp").read_text(encoding="utf-8")
    return parse_program(source + "".join(f"edge({a}, {b}).\n" for a, b in edges))


def program_text(p: Program) -> str:
    """The program's clauses in surface syntax, one per line, with variables
    printed as X1, X2, ..."""
    return "".join(print_term(c.head) + (" :- " if c.body else "")
                   + ", ".join(print_term(a) for a in c.body) + ".\n" for c in p.clauses)


def all_arrows(signature: Signature, max_arity: int = 3,
               term_depth: int = 2) -> list[ArrowSubstitution]:
    """All arrows n->m with n, m <= max_arity and components of bounded
    depth, in the order of `lax_sweep`'s pools."""
    arrows = []
    for n in range(max_arity + 1):
        pool = coalgebra.enumerate_terms(signature, n, term_depth)
        for m in range(max_arity + 1):
            arrows += [ArrowSubstitution(n, m, tup) for tup in itertools.product(pool, repeat=m)]
    return arrows


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------

def subterms(t: Term) -> set[Term]:
    out = {t}
    if isinstance(t, Fn):
        for a in t.args:
            out |= subterms(a)
    return out


def atom_subterms(a: Atom) -> set[Term]:
    out: set[Term] = set()
    for t in a.args:
        out |= subterms(t)
    return out


def highest_var_oracle(x: Term | Atom) -> int:
    """Largest variable index in a term or atom, by a full recursive walk."""
    if isinstance(x, Var):
        return x.index
    return max((highest_var_oracle(a) for a in x.args), default=0)


def rebuilt(x: Term | Atom) -> Term | Atom:
    """A structurally equal copy of a term or atom that shares no node with it."""
    if isinstance(x, Var):
        return Var(x.index)
    args = tuple(rebuilt(a) for a in x.args)
    return type(x)(x.name, args)


def rename_oracle(x: Term | Atom, var_fn=None, store=None) -> Term | Atom:
    """`x` rebuilt by a recursive walk: a variable bound in `store` becomes
    its binding, walked in turn, and any other variable v becomes var_fn(v),
    or stays as it is without `var_fn`."""
    if isinstance(x, Var):
        if store is not None and x.index in store:
            return rename_oracle(store[x.index], var_fn, store)
        return x if var_fn is None else var_fn(x)
    args = tuple(rename_oracle(a, var_fn, store) for a in x.args)
    return type(x)(x.name, args)


def random_store(rng: random.Random, nvars: int,
                 depth: int = 3) -> dict[int, tuple[Term, int]]:
    """A random acyclic binding store of (term, offset) molecules: each key
    i below `nvars` is left free or bound to a term over x1..x(nvars - i)
    at an offset o >= i, whose variables x_j stand for the keys j + o > i."""
    store = {}
    for i in range(1, nvars):
        if rng.random() < 0.5:
            store[i] = (random_term(rng, nvars - i, depth), rng.randint(i, nvars))
    return store


def flat_store(store: dict[int, tuple[Term, int]]) -> dict[int, Term]:
    """The plain store a molecule store stands for: each binding with its
    variables shifted by its offset."""
    return {k: rename_oracle(t, lambda v, o=o: Var(v.index + o)) for k, (t, o) in store.items()}


def print_term_oracle(t: Term, name=lambda i: f"X{i}") -> str:
    """Surface text of a term, by a recursive walk."""
    if isinstance(t, Var):
        return name(t.index)
    if not t.args:
        return t.name
    return t.name + "(" + ", ".join(print_term_oracle(a, name) for a in t.args) + ")"


def enumerate_matchers(pattern: Atom, target: Atom) -> list[Substitution]:
    """All substitutions on vars(pattern) into subterms of the target that
    send the pattern exactly onto the target."""
    pvars = sorted(set(term_vars(pattern)))
    pool = sorted(atom_subterms(target), key=print_term) or [Fn("a")]
    found = []
    for combo in itertools.product(pool, repeat=len(pvars)):
        s = Substitution(dict(zip(pvars, combo)))
        if apply(s, pattern) == target and s not in found:
            found.append(s)
    return found


def brute_triggered(program: Program, atom: Atom, pool) -> set[tuple[Term, ...]]:
    """The restrictions under which some clause head matches f(atom) but not
    the atom: tuples of pool terms, one for each of the atom's variables in
    increasing order, each applied to the atom and every head tried on the
    image with `enumerate_matchers`."""
    used = sorted(set(term_vars(atom)))
    heads = [c.head for c in program.clauses
             if (c.head.name, len(c.head.args)) == (atom.name, len(atom.args))
             and not enumerate_matchers(c.head, atom)]
    found = set()
    for fkey in itertools.product(pool, repeat=len(used)):
        image = apply(Substitution(dict(zip(used, fkey))), atom)
        if any(enumerate_matchers(h, image) for h in heads):
            found.add(fkey)
    return found


def ground_term_pool(depth: int) -> list[Term]:
    pool: dict[Term, None] = {Fn(c): None for c in CONSTANTS}
    for _ in range(depth - 1):
        prev = list(pool)
        for t in prev:
            pool.setdefault(Fn(UNARY, (t,)))
    return list(pool)


def enumerate_unifiers(a: Atom, b: Atom, pool: list[Term]) -> list[Substitution]:
    avars = sorted(set(term_vars(a)) | set(term_vars(b)))
    found = []
    for combo in itertools.product(pool, repeat=len(avars)):
        s = Substitution(dict(zip(avars, combo)))
        if apply(s, a) == apply(s, b) and s not in found:
            found.append(s)
    return found


def brute_lax_sweep(program: Program, atom_bases=None, max_arity: int = 3,
                    term_depth: int = 2) -> coalgebra.LaxSweepReport:
    """`lax_sweep` by walking every arrow in pool^m: each tuple counts one
    square, verdicts are cached per restriction to the atom's variables, and
    every tuple of a class that is not strict is tested for injectivity."""
    if atom_bases is None:
        atom_bases = coalgebra.default_check_atoms(program, max_arity)
    cache: dict = {}

    def step(atom, base):
        if (atom, base) not in cache:
            cache[atom, base] = coalgebra.pff_step(program, atom, base)
        return cache[atom, base]

    squares = classes = strict_ok = 0
    lax_failures, equality_failures, injection_failures = [], [], []
    for atom, m in atom_bases:
        used = sorted(set(term_vars(atom)))
        for n in range(max_arity + 1):
            pool = coalgebra.enumerate_terms(program.signature, n, term_depth)
            verdicts = {}
            for tup in itertools.product(pool, repeat=m):
                squares += 1
                arrow = ArrowSubstitution(n, m, tup)
                fkey = tuple(tup[i - 1] for i in used)
                if fkey not in verdicts:
                    sq = verdicts[fkey] = coalgebra.lax_square(step, arrow, atom)
                    classes += 1
                    if not sq.lax_ok:
                        lax_failures.append(sq)
                    elif not sq.strict_ok:
                        equality_failures.append(sq)
                sq = verdicts[fkey]
                if sq.strict_ok:
                    strict_ok += 1
                elif is_var_injection(arrow.terms):
                    injection_failures.append(replace(sq, arrow=arrow))
    return coalgebra.LaxSweepReport(squares, classes, strict_ok, tuple(lax_failures),
                                    tuple(equality_failures), tuple(injection_failures))


def compose(s1: Substitution, s2: Substitution) -> Substitution:
    """The substitution with apply(compose(s1, s2), t) = apply(s1, apply(s2, t))."""
    out: dict[int, Term] = {i: apply(s1, t) for i, t in s2.items()}
    for i, t in s1.items():
        out.setdefault(i, t)
    return Substitution(out)


def substitute(s: dict[int, Term], x):
    """`x`, a term, an atom or a tuple of them, with each variable x_i that
    `s` binds replaced by s[i] at once, by a recursive walk that keeps
    ground subterms as they are."""
    if isinstance(x, tuple):
        return tuple(substitute(s, t) for t in x)
    if isinstance(x, Var):
        return s.get(x.index, x)
    if not s or not x.max_var:
        return x
    return type(x)(x.name, tuple(substitute(s, t) for t in x.args))


def _disagreement(s: Term, t: Term) -> tuple[Term, Term] | None:
    """The leftmost pair of subterms at which `s` and `t` differ, or None."""
    if s == t:
        return None
    if isinstance(s, Var) or isinstance(t, Var) or (s.name, len(s.args)) != (t.name, len(t.args)):
        return s, t
    return next(pair for pair in map(_disagreement, s.args, t.args) if pair is not None)


def robinson_mgu(a: Atom, b: Atom) -> dict[int, Term] | None:
    """Most general unifier of two atoms, or None, by Robinson's algorithm
    ("A machine-oriented logic based on the resolution principle", JACM
    1965): while the two instances differ, take their leftmost disagreement
    pair; unless one side is a variable that does not occur in the other,
    fail; otherwise bind it and compose the binding into the unifier, which
    so stays idempotent. Of two variables the larger index is bound, the
    convention that makes answers comparable with `sld_solve`'s."""
    sigma: dict[int, Term] = {}
    while (pair := _disagreement(substitute(sigma, a), substitute(sigma, b))) is not None:
        v, t = pair if isinstance(pair[0], Var) else pair[::-1]
        if isinstance(t, Var) and t.index > v.index:
            v, t = t, v
        if not isinstance(v, Var) or v in subterms(t):
            return None
        sigma = {i: substitute({v.index: t}, u) for i, u in sigma.items()}
        sigma[v.index] = t
    return sigma


def restricted_answer(n0: int, images) -> Substitution:
    """The answer sending x_i to the i-th of `images`, the images of the
    query's variables x_1..x_n0, with the variables above x_n0 renumbered
    by first occurrence."""
    residual: dict[int, Term] = {}
    for t in images:
        for i in term_vars(t):
            if i > n0 and i not in residual:
                residual[i] = Var(n0 + len(residual) + 1)
    return Substitution(dict(enumerate(substitute(residual, tuple(images)), 1)))


def eager_step(clause: Clause, offset: int, resolvent: tuple[Atom, ...],
               images: tuple[Term, ...]) -> tuple[tuple[Atom, ...], tuple[Term, ...]] | None:
    """The textbook SLD step: `clause` renamed apart, its x_j becoming
    x_(j + offset), its head unified with the leftmost atom of `resolvent`
    by `robinson_mgu`, and the unifier applied to the new resolvent and to
    `images`, the query variables' images so far; None when the head does
    not unify."""
    if (clause.head.name, len(clause.head.args)) != (resolvent[0].name, len(resolvent[0].args)):
        return None
    shift = {j: Var(j + offset) for j in range(1, clause.var_count + 1)}
    sigma = robinson_mgu(resolvent[0], substitute(shift, clause.head))
    if sigma is None:
        return None
    return (substitute(sigma, substitute(shift, clause.body) + resolvent[1:]),
            substitute(sigma, images))


def replay_trace(program: Program, goals, trace) -> Substitution:
    """Re-run a recorded SLD derivation, a sequence of (clause index,
    offset) steps, by `eager_step`. Returns the restricted answer it
    computes.

    Raises ValueError if any step fails to unify or the final goal is not
    empty.
    """
    resolvent = tuple(goals)
    n0 = max((g.max_var for g in goals), default=0)
    images = tuple(Var(i) for i in range(1, n0 + 1))
    for idx, offset in trace:
        if not resolvent:
            raise ValueError("trace continues past an empty goal")
        step = eager_step(program.clauses[idx], offset, resolvent, images)
        if step is None:
            raise ValueError(f"trace step does not unify: clause {idx}")
        resolvent, images = step
    if resolvent:
        raise ValueError("trace ends on a non-empty goal")
    return restricted_answer(n0, images)


def eager_sld(program: Program, goals: tuple[Atom, ...], max_steps: int,
              max_answers: int, strategy: str) -> tuple[list[tuple], bool]:
    """SLD by the textbook eager step, as (answers, exhausted); each answer is
    (bindings, steps, trace). Every clause of the program is tried in order
    by `eager_step`, renamed above the node's ceiling, the answer being the
    query's images with residual variables renumbered by first occurrence.
    Depth-first, or iterative deepening with the step budget doubling up to
    `max_steps`."""
    n0 = max((g.max_var for g in goals), default=0)
    answers: list[tuple] = []
    seen: set[Substitution] = set()

    def sweep(budget: int) -> bool:
        cutoff = False
        stack = [(tuple(goals), tuple(Var(i) for i in range(1, n0 + 1)), n0, 0, ())]
        while stack:
            resolvent, images, ceiling, steps, trace = stack.pop()
            if not resolvent:
                answer = restricted_answer(n0, images)
                if answer not in seen:
                    seen.add(answer)
                    answers.append((answer, steps, trace))
                    if len(answers) >= max_answers:
                        return cutoff
                continue
            if steps >= budget:
                cutoff = True
                continue
            children = []
            for idx, clause in enumerate(program.clauses):
                step = eager_step(clause, ceiling, resolvent, images)
                if step is not None:
                    children.append((*step, ceiling + clause.var_count, steps + 1,
                                     trace + ((idx, ceiling),)))
            stack.extend(reversed(children))
        return cutoff

    if strategy == "dfs":
        return answers, sweep(max_steps) and len(answers) < max_answers
    budget = 1
    while True:
        cutoff = sweep(budget)
        if len(answers) >= max_answers or not cutoff:
            return answers, False
        if budget >= max_steps:
            return answers, True
        budget = min(budget * 2, max_steps)


def same_tree(a, b) -> bool:
    """Structural equality of two trees or proofs: base, and at every node
    pair the atom, truncation flag, clause indices, matchers and child
    order, compared on an explicit stack."""
    if a.base != b.base:
        return False
    stack = [(a.root, b.root)]
    while stack:
        x, y = stack.pop()
        if (x.atom, x.truncated, len(x.children)) != (y.atom, y.truncated, len(y.children)):
            return False
        for ox, oy in zip(x.children, y.children):
            if (ox.clause_index, ox.matcher, len(ox.children)) \
                    != (oy.clause_index, oy.matcher, len(oy.children)):
                return False
            stack.extend(zip(ox.children, oy.children))
    return True


def ascii_oracle(t) -> str:
    """The ascii rendering of a tree or proof, by a recursive walk that
    prints each atom with `print_term_oracle`."""
    lines = []

    def and_node(node, prefix: str, connector: str) -> None:
        mark = " …" if node.truncated else ""
        lines.append(f"{prefix}{connector}{print_term_oracle(node.atom)}{mark}")
        below = prefix + {"": "", "└─ ": "   ", "├─ ": "│  "}[connector]
        for i, o in enumerate(node.children):
            last = i == len(node.children) - 1
            lines.append(f"{below}{'└─ ' if last else '├─ '}•[{o.clause_index}]")
            for j, c in enumerate(o.children):
                and_node(c, below + ("   " if last else "│  "),
                         "└─ " if j == len(o.children) - 1 else "├─ ")

    and_node(t.root, "", "")
    return "".join(line + "\n" for line in lines)


def dot_oracle(t) -> str:
    """The dot rendering of a tree or proof, by a recursive walk that
    prints each atom with `print_term_oracle`. Nodes are numbered in
    pre-order; the edge into an and-node follows its subtree."""
    lines = ["digraph cotree {", "  rankdir=TB;"]
    ids = itertools.count()

    def and_node(node) -> str:
        nid = f"n{next(ids)}"
        style = ", style=dashed" if node.truncated else ""
        lines.append(f'  {nid} [shape=box, label="{print_term_oracle(node.atom)}"{style}];')
        for o in node.children:
            oid = f"n{next(ids)}"
            lines.extend([f"  {oid} [shape=point];", f"  {nid} -> {oid};"])
            for c in o.children:
                cid = and_node(c)
                lines.append(f"  {oid} -> {cid};")
        return nid

    and_node(t.root)
    lines.append("}")
    return "".join(line + "\n" for line in lines)


def json_oracle(t) -> str:
    """The JSON rendering of a tree or proof, by a recursive walk,
    `print_term_oracle` and `json.dumps`."""
    def obj(node) -> dict:
        out: dict = {"kind": "and", "atom": print_term_oracle(node.atom),
                     "truncated": node.truncated}
        if node is t.root:
            out["base"] = t.base
        out["children"] = [{"kind": "or", "clause": o.clause_index,
                            "matcher": {f"X{j}": print_term_oracle(v) for j, v in o.matcher.items()},
                            "children": [obj(c) for c in o.children]} for o in node.children]
        return out

    return json.dumps(obj(t.root), indent=2) + "\n"


def lfp_entailed(program: Program) -> frozenset[Atom]:
    """Independent immediate-consequence fixpoint for ground programs."""
    facts: set[Atom] = set()
    while True:
        new = {c.head for c in program.clauses
               if c.head not in facts and all(b in facts for b in c.body)}
        if not new:
            return frozenset(facts)
        facts |= new


def expected_or_children(program: Program, atom: Atom, ceiling: int):
    """Naive re-scan: which clauses match `atom` and what child atoms result."""
    out = []
    for idx, clause in enumerate(program.clauses):
        theta = mgm(clause.head, atom)
        if theta is None:
            continue
        k = clause.var_count - clause.head_var_count
        ext = dict(theta.items())
        for j in range(1, k + 1):
            ext[clause.head_var_count + j] = Var(ceiling + j)
        full = Substitution(ext)
        out.append((idx, tuple(apply(full, b) for b in clause.body), k))
    return out


# ---------------------------------------------------------------------------
# Property-check batteries (one random case per call; assert inside)
# ---------------------------------------------------------------------------

def check_apply_compose_case(rng: random.Random) -> None:
    nvars = rng.randint(1, 4)
    t = random_atom(rng, nvars)
    s2 = random_substitution(rng, tuple(range(1, nvars + 1)), nvars)
    s1 = random_substitution(rng, tuple(range(1, nvars + 1)), nvars)
    assert apply(compose(s1, s2), t) == apply(s1, apply(s2, t))
    s3 = random_substitution(rng, tuple(range(1, nvars + 1)), nvars)
    lhs = compose(compose(s1, s2), s3)
    rhs = compose(s1, compose(s2, s3))
    assert lhs == rhs
    assert compose(Substitution(), s1) == s1
    assert compose(s1, Substitution()) == s1


def check_mgm_case(rng: random.Random) -> None:
    nvars = rng.randint(0, 2)
    pattern = random_atom(rng, nvars, depth=2)
    if rng.random() < 0.6:
        sigma = random_substitution(rng, tuple(range(1, nvars + 1)), nvars=2, depth=2)
        target = apply(sigma, pattern)
    else:
        target = random_atom(rng, 2, depth=2,
                             preds=((pattern.name, len(pattern.args)),))
    result = mgm(pattern, target)
    oracle = enumerate_matchers(pattern, target)
    assert len(oracle) <= 1, "matching must be decisive"
    if result is None:
        assert not oracle
    else:
        assert apply(result, pattern) == target
        assert {i for i, _ in result.items()} <= set(term_vars(pattern))
        assert oracle == [result]


def check_mgu_case(rng: random.Random, enumerate_pool: list[Term] | None = None) -> None:
    nvars = rng.randint(1, 3)
    a = random_atom(rng, nvars, depth=2)
    b = random_atom(rng, nvars, depth=2, preds=((a.name, len(a.args)),))
    sigma = mgu(a, b)
    if sigma is not None:
        assert apply(sigma, a) == apply(sigma, b)
        assert compose(sigma, sigma) == sigma, "mgu must be idempotent"
    if enumerate_pool is not None:
        pool = enumerate_pool + [Var(i) for i in range(1, nvars + 1)]
        unifiers = enumerate_unifiers(a, b, pool)
        if unifiers:
            assert sigma is not None
        for tau in unifiers:
            # tau factors through the mgu: tau = tau . sigma
            assert compose(tau, sigma) == tau


def check_arrow_case(rng: random.Random) -> None:
    n = rng.randint(0, 3)
    m = rng.randint(0, 3)
    k = rng.randint(0, 3)
    f = ArrowSubstitution(n, m, tuple(random_term(rng, n, 2) for _ in range(m)))
    g = ArrowSubstitution(m, k, tuple(random_term(rng, m, 2) for _ in range(k)))
    atom = random_atom(rng, k) if k else Atom("p", (Fn("a"),))
    assert arrow_apply(compose_arrows(f, g), atom) == arrow_apply(f, arrow_apply(g, atom))
    ident = ArrowSubstitution.identity(k)
    assert arrow_apply(ident, atom) == atom


def c_calls(thunk: Callable[[], object]) -> int:
    """The calls into C made while `thunk` runs, counted under
    `sys.setprofile`: work measured as a count, which does not vary from run
    to run as a timing does. It sees work done in calls, not the bytes one
    C call copies."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "c_call"

    sys.setprofile(profile)
    try:
        thunk()
    finally:
        sys.setprofile(None)
    return count


def assert_linear_work(work: Callable[[int], int], sizes: tuple[int, ...] = (200, 400, 800),
                       label: object = None) -> None:
    """`work(n)` counts the work at size n; each doubling of n must multiply
    it by 1.8 to 2.2, where quadratic work would multiply it by about 4."""
    counts = [work(n) for n in sizes]
    for small, big in zip(counts, counts[1:]):
        assert 1.8 < big / small < 2.2, (label, counts)
