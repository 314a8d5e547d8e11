"""Term-matching prover tests, including the cross-check against tree search."""

from __future__ import annotations

import itertools
import random

import pytest

from matchlog import (
    ArrowSubstitution,
    Atom,
    Fn,
    Program,
    Status,
    Var,
    arrow_apply,
    build_tree,
    parse_atom,
    parse_program,
    success_subtree,
    tm_prove,
    tm_status,
)
from matchlog.coalgebra import enumerate_terms, ground_lfp

from helpers import lfp_entailed, random_fo_program, random_ground_program, same_tree


def test_listnat_ground_proof(listnat):
    g, _ = parse_atom("list(cons(0, nil))")
    result = tm_prove(listnat, g, 5)
    assert result.status is Status.PROVED
    root = result.proof.root
    (orn,) = root.children
    assert orn.clause_index == 3
    nat_proof, list_proof = orn.children
    assert nat_proof.children[0].clause_index == 0
    assert list_proof.children[0].clause_index == 2


def test_listnat_generic_goal_fails(listnat):
    g, _ = parse_atom("list(cons(X, Y))")
    assert tm_prove(listnat, g, 50).status is Status.FAILED


def test_gc_reflexive_goal(gc):
    g, _ = parse_atom("connected(X, X)")
    result = tm_prove(gc, g, 2)
    assert result.status is Status.PROVED
    (orn,) = result.proof.root.children
    assert orn.clause_index == 0
    assert not orn.matcher
    assert orn.children == ()


def test_gc_generic_goal_stays_unknown(gc):
    g, _ = parse_atom("connected(X, Y)")
    assert tm_prove(gc, g, 50).status is Status.UNKNOWN


def test_prove_all(listnat, bad):
    assert tuple(tm_prove(listnat, g, 3) for g in []) == ()
    goals = [parse_atom("nat(0)")[0], parse_atom("nat(nil)", listnat.signature)[0]]
    statuses = [tm_prove(listnat, g, 3).status for g in goals]
    assert statuses == [Status.PROVED, Status.FAILED]
    # exhaustive head scan: no clause head matches nat(nil)
    from matchlog import mgm
    assert all(mgm(c.head, goals[1]) is None for c in listnat.clauses)
    assert [tm_prove(bad, g, 10).status for g in [parse_atom("bad(X)")[0]]] \
        == [Status.UNKNOWN]


def test_depth_precondition(listnat):
    with pytest.raises(ValueError):
        tm_prove(listnat, parse_atom("nat(0)")[0], 0)


def test_agreement_with_tree_search(listnat, listnat_plus, gc, bad):
    rng = random.Random(41)
    programs = [listnat, listnat_plus, gc, bad] + [
        random_fo_program(rng, existential=bool(i % 2)) for i in range(8)
    ]
    goal_texts = ["nat(X)", "nat(0)", "nat(s(s(0)))", "list(cons(X, Y))",
                  "connected(X, Y)", "connected(X, X)", "bad(X)",
                  "p(X)", "q(X, Y)", "p(a)", "q(a, b)", "p(f(X))"]
    for program in programs:
        for text in goal_texts:
            try:
                g, n = parse_atom(text, program.signature)
            except Exception:
                continue
            for depth in range(1, 7):
                via_tree = success_subtree(build_tree(program, g, n, depth)).status
                assert tm_prove(program, g, depth).status is via_tree, (text, depth)


def test_proof_is_the_trees_success_subtree():
    # The prover extracts its proof with build_tree's step, so the proof is
    # the tree's success subtree node for node, fresh variables included: in
    # p's proof, c's fresh variable is X2, one above a's X1 on the path.
    program = parse_program("p :- a(Y), b.\nb :- c(Z).\na(X).\nc(X).")
    goal, _ = parse_atom("p")
    proof = tm_prove(program, goal, 4).proof
    assert same_tree(proof, success_subtree(build_tree(program, goal, 0, 4)).proof)
    c_node = proof.root.children[0].children[1].children[0].children[0]
    assert c_node.atom == Atom("c", (Var(2),))
    rng, proved = random.Random(1), 0
    for _ in range(300):
        program = random_fo_program(rng, True)
        for g in program.signature.generic_atoms:
            for depth in range(1, 6):
                result = tm_prove(program, g, depth)
                if result.status is Status.PROVED:
                    proved += 1
                    tree = build_tree(program, g, g.max_var, depth)
                    assert same_tree(result.proof, success_subtree(tree).proof), (g, depth)
    assert proved == 258


def test_proofs_survive_ground_instantiation():
    import itertools
    from matchlog import parse_program

    program = parse_program(
        "node(a).\nnode(b).\neq(X, X).\ntop(X, Y) :- eq(X, X), eq(Y, Y).")
    depth = 4
    for text in ("eq(X, X)", "top(X, Y)", "node(a)"):
        g, n = parse_atom(text, program.signature)
        assert tm_prove(program, g, depth).status is Status.PROVED
        pool = enumerate_terms(program.signature, 0, 2)
        for combo in itertools.product(pool, repeat=n):
            instance = arrow_apply(ArrowSubstitution(0, n, combo), g)
            assert tm_prove(program, instance, depth).status is Status.PROVED


def test_monotone_in_depth(listnat, gc, bad):
    rng = random.Random(13)
    programs = [listnat, gc, bad] + [random_fo_program(rng, existential=True)]
    goal_texts = ["nat(s(0))", "list(cons(X, Y))", "connected(X, Y)", "bad(X)", "p(X)", "q(a, X)"]
    for program in programs:
        for text in goal_texts:
            try:
                g, _ = parse_atom(text, program.signature)
            except Exception:
                continue
            prev = None
            for depth in range(1, 8):
                status = tm_prove(program, g, depth).status
                if prev is Status.PROVED:
                    assert status is Status.PROVED
                if prev is Status.FAILED:
                    assert status is Status.FAILED
                prev = status


def test_proof_through_existential_clause():
    from matchlog import apply, parse_program

    program = parse_program(
        "top(X) :- mid(Z), base(X).\nmid(Y).\nbase(a).")
    goal, _ = parse_atom("top(a)", program.signature)
    result = tm_prove(program, goal, 4)
    assert result.status is Status.PROVED
    (orn,) = result.proof.root.children
    assert orn.clause_index == 0
    mid_node, base_node = orn.children
    # the fresh subgoal was proved by the generic clause head
    assert mid_node.children[0].clause_index == 1
    # matcher replay stays valid through the fresh variable
    clause = program.clauses[0]
    assert apply(orn.matcher, clause.head) == goal
    assert tuple(apply(orn.matcher, b) for b in clause.body) == \
        (mid_node.atom, base_node.atom)
    # the generic goal still fails: base(X) matches no head as stated
    generic, _ = parse_atom("top(X)", program.signature)
    assert tm_prove(program, generic, 6).status is Status.FAILED


def test_ground_agreement_with_fixpoint(ex33):
    rng = random.Random(29)
    programs = [ex33] + [random_ground_program(rng) for _ in range(30)]
    for program in programs:
        entailed = lfp_entailed(program)
        assert entailed == ground_lfp(program)
        atoms = {c.head for c in program.clauses}
        for c in program.clauses:
            atoms.update(c.body)
        depth = len(atoms) + 1
        for atom in atoms:
            assert (tm_prove(program, atom, depth).status is Status.PROVED) == (atom in entailed)


def test_status_is_the_status_of_tm_prove(listnat, listnat_plus, gc, bad, ex33):
    rng = random.Random(31)
    cases = []
    for program in (listnat, listnat_plus, gc, bad, ex33):
        goals = list(program.signature.generic_atoms) + [c.head for c in program.clauses]
        for text in ("nat(s(s(0)))", "list(cons(0, nil))", "connected(X, X)"):
            try:
                goals.append(parse_atom(text, program.signature)[0])
            except Exception:
                continue
        cases += [(program, g, depth) for g in goals for depth in range(1, 7)]
    for _ in range(30):
        program = random_ground_program(rng)
        atoms = {c.head for c in program.clauses}
        for c in program.clauses:
            atoms.update(c.body)
        cases += [(program, a, depth) for a in atoms for depth in (1, 2, len(atoms) + 1)]
    assert any(tm_status(*case) is Status.PROVED for case in cases)
    for case in cases:
        assert tm_status(*case) is tm_prove(*case).status, case


def test_proof_steps_build_no_terms(listnat, monkeypatch):
    """Memo keys of atoms over the goal's variables are the atoms themselves,
    and matching reuses the goal's subterms, so the number of terms built
    (`Fn` constructions that are not atoms) does not grow with the goal."""
    counts = {}
    for n in (50, 200):
        goal = Fn("0")
        for _ in range(n):
            goal = Fn("s", (goal,))
        goal = Atom("nat", (goal,))
        built = [0]
        init = Fn.__init__

        def counting_init(self, *args, **kwargs):
            built[0] += type(self) is Fn
            init(self, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Fn, "__init__", counting_init)
            assert tm_prove(listnat, goal, n + 1).status is Status.PROVED
        counts[n] = built[0]
    assert counts[50] == counts[200], counts


def test_proofs_1500_steps_deep_take_no_frames():
    # The search keeps its open subgoals on an explicit stack, and proof
    # extraction is a fold, so proof depth costs no Python frames.
    k = 1500
    program = parse_program("r(n0).\n" + "".join(f"r(n{i}) :- r(n{i - 1}).\n"
                                                  for i in range(1, k + 1)))
    goal, _ = parse_atom(f"r(n{k})")
    assert tm_prove(program, goal, k).status is Status.UNKNOWN
    result = tm_prove(program, goal, k + 1)
    assert result.status is Status.PROVED
    node, clauses = result.proof.root, []
    while True:
        (orn,) = node.children
        clauses.append(orn.clause_index)
        if not orn.children:
            break
        (node,) = orn.children
    assert clauses == list(range(k, -1, -1))


def test_one_table_per_program_agrees_with_the_tree_at_every_depth(listnat, listnat_plus,
                                                                   gc, bad, ex33):
    # Every search on a program shares its table, so a verdict may come from
    # a search at another depth, or under a goal with another base (a
    # variable above the base is fresh, and a dead end on it is Unknown, not
    # Failed). Goals of several bases are asked at depths 1..D in ascending,
    # descending and shuffled order, each order on its own copy of the
    # program; tm_prove and tm_status take turns on it.
    rng, depths = random.Random(43), range(1, 7)
    named = {"gc": ["connected(X, X)", "connected(X, Y)", "edge(X, Y)", "edge(X, X)"],
             "bad": ["bad(X)"],
             "listnat": ["nat(X)", "list(cons(X, Y))", "list(cons(0, nil))", "nat(s(s(0)))"]}
    programs = [("listnat", listnat), ("listnat_plus", listnat_plus), ("gc", gc), ("bad", bad),
                ("ex33", ex33)] + [(f"random {i}", random_fo_program(rng, existential=i % 3 > 0))
                                   for i in range(18)]
    seen = set()
    for name, program in programs:
        goals = [parse_atom(text, program.signature)[0] for text in named.get(name, [])]
        goals += list(program.signature.generic_atoms)
        pool = enumerate_terms(program.signature, 2, 2)
        instances = {Atom(pred, args) for pred, arity in program.signature.predicates
                     for args in itertools.product(pool, repeat=arity)}
        goals += rng.sample(sorted(instances, key=str), min(10, len(instances)))
        expected = {}
        for g in goals:
            for depth in depths:
                tree = build_tree(program, g, g.max_var, depth)
                expected[g, depth] = success_subtree(tree)
                copy = Program(program.clauses, program.signature)
                assert tm_status(copy, g, depth) is expected[g, depth].status, (name, g, depth)
        seen.update(outcome.status for outcome in expected.values())
        cases = list(expected)
        shuffled = rng.sample(cases, len(cases))
        for order in (sorted(cases, key=lambda c: c[1]), sorted(cases, key=lambda c: -c[1]),
                      shuffled):
            shared = Program(program.clauses, program.signature)
            for i, (g, depth) in enumerate(order):
                want = expected[g, depth]
                if i % 2:
                    assert tm_status(shared, g, depth) is want.status, (name, g, depth)
                    continue
                result = tm_prove(shared, g, depth)
                assert result.status is want.status, (name, g, depth)
                assert result.proof is None or same_tree(result.proof, want.proof), (g, depth)
    assert seen == set(Status)
