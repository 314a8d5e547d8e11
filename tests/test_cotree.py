"""And-or tree construction, search, ordering and rendering tests."""

from __future__ import annotations

import random
import re

import pytest

from matchlog import (
    AndNode,
    ArityMismatchError,
    ArrowSubstitution,
    Atom,
    CoTree,
    Fn,
    OrNode,
    ProofTree,
    Status,
    Var,
    apply,
    parse_program,
    arrow_apply,
    build_tree,
    map_tree,
    parse_atom,
    render,
    success_subtree,
    tm_prove,
    tree_equal_upto_renaming,
    tree_leq,
    truncate_tree,
)

from matchlog import cotree
from matchlog.substitution import is_var_injection

from helpers import (
    ascii_oracle,
    assert_linear_work,
    c_calls,
    dot_oracle,
    expected_or_children,
    json_oracle,
    random_fo_program,
    same_tree,
)


def _goal(text):
    return parse_atom(text)


def test_fig_left_shape(listnat_plus):
    goal, n = _goal("list(cons(0, nil))")
    t = build_tree(listnat_plus, goal, n, 3)
    root = t.root
    assert [o.clause_index for o in root.children] == [3, 4]
    first, second = root.children
    assert [c.atom for c in first.children] == [_goal("nat(0)")[0], _goal("list(nil)")[0]]
    assert [c.atom for c in second.children] == [_goal("list(nil)")[0]]
    # all branches close at childless or-nodes within depth 3
    assert success_subtree(t).status is Status.PROVED


def test_fig_right_shape(listnat_plus):
    goal, n = _goal("list(cons(X, Y))")
    t = build_tree(listnat_plus, goal, n, 1)
    assert len(t.root.children) == 1
    (orn,) = t.root.children
    assert orn.clause_index == 3
    assert [c.atom for c in orn.children] == [Atom("nat", (Var(1),)), Atom("list", (Var(2),))]
    assert all(c.truncated for c in orn.children)


def test_equal_subtrees_are_built_once(listnat_plus):
    # list(cons(0, ...)) has two clauses, 3 and 4, whose bodies both reach
    # the tail at the same depth and ceiling, so they share that subtree.
    tail = "nil"
    for _ in range(9):
        tail = f"cons(0, {tail})"
    goal, n = _goal(f"list(cons(0, {tail}))")
    t = build_tree(listnat_plus, goal, n, 12)
    by_clause, by_unfolding = t.root.children
    assert (by_clause.clause_index, by_unfolding.clause_index) == (3, 4)
    assert by_clause.children[1].atom == _goal(f"list({tail})")[0]
    assert by_clause.children[1] is by_unfolding.children[0]


def _and_nodes(t):
    """The distinct and-nodes of a tree, by identity."""
    seen, stack = {}, [t.root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(c for o in node.children for c in o.children)
    return seen


def test_tree_walks_keep_shared_subtrees(listnat_plus):
    # Cutting and mapping make each distinct node once, so the result is as
    # small as the tree it came from, not its full expansion.
    goal, n = _goal("list(" + "cons(0, " * 12 + "nil" + ")" * 12 + ")")
    t = build_tree(listnat_plus, goal, n, 14)
    assert len(_and_nodes(t)) == 25
    assert len(_and_nodes(truncate_tree(t, 14))) == 25
    assert len(_and_nodes(map_tree(ArrowSubstitution.identity(n), t))) == 25
    assert tree_leq(truncate_tree(t, 14), map_tree(ArrowSubstitution.identity(n), t))


def _chain(k):
    """r(n0). and r(ni) :- r(n(i-1)). for i up to k: a proof k + 1 steps deep."""
    return parse_program("r(n0).\n" + "".join(f"r(n{i}) :- r(n{i - 1}).\n"
                                              for i in range(1, k + 1)))


def test_trees_1500_layers_deep_take_no_frames():
    program = _chain(1500)
    goal, n = _goal("r(n1500)")
    t = build_tree(program, goal, n, 1502)
    assert len(_and_nodes(t)) == 1501
    mapped = map_tree(ArrowSubstitution.identity(n), truncate_tree(t, 1502))
    assert tree_leq(mapped, t) and tree_leq(t, mapped)
    outcome = success_subtree(t)
    assert outcome.status is Status.PROVED
    assert tree_leq(truncate_tree(outcome.proof, 1502), t)
    ascii_lines = render(outcome.proof).splitlines()
    assert len(ascii_lines) == 2 * 1501
    assert (ascii_lines[0], ascii_lines[-1].strip()) == ("r(n1500)", "└─ •[0]")
    dot = render(t, "dot").splitlines()
    assert len(dot) == 2 + 1501 + 3 * 1501 - 1 + 1 and dot[-1] == "}"
    assert hash(t.root) == hash(t.root) and t.root != mapped.root
    assert tree_equal_upto_renaming(t, mapped)
    js = render(t, "json").splitlines()
    assert (js[0], js[-1]) == ("{", "}")
    assert [line.strip() for line in js if '"atom"' in line] == [
        f'"atom": "r(n{k})",' for k in range(1500, -1, -1)]


def test_comparisons_visit_each_node_pair_once(listnat_plus, monkeypatch):
    goal, n = _goal("list(" + "cons(0, " * 16 + "nil" + ")" * 16 + ")")
    t = build_tree(listnat_plus, goal, n, 18)
    assert len(_and_nodes(t)) == 33
    calls = []
    rename = cotree.rename
    monkeypatch.setattr(cotree, "rename", lambda *a: calls.append(1) or rename(*a))
    assert tree_equal_upto_renaming(t, t)
    assert len(calls) == 2 * 33
    assert tree_leq(t, t)


def test_gc_tree_fresh_variables(gc):
    goal, n = _goal("connected(X, Y)")
    t = build_tree(gc, goal, n, 2)
    (orn,) = t.root.children
    assert orn.clause_index == 1
    edge, conn = orn.children
    assert edge.atom == Atom("edge", (Var(1), Var(3)))
    assert edge.children == () and not edge.truncated
    assert conn.atom == Atom("connected", (Var(3), Var(2)))
    (orn2,) = conn.children
    edge2, conn2 = orn2.children
    assert edge2.atom == Atom("edge", (Var(3), Var(4)))
    assert conn2.atom == Atom("connected", (Var(4), Var(2)))
    assert edge2.truncated and conn2.truncated


def test_depth_zero_tree(listnat):
    goal, n = _goal("nat(0)")
    t = build_tree(listnat, goal, n, 0)
    assert same_tree(t, CoTree(AndNode(goal, (), True), n))
    assert render(t) == "nat(0) …\n"


def test_success_subtree_verdicts(listnat, gc):
    g, n = _goal("list(cons(0, nil))")
    assert success_subtree(build_tree(listnat, g, n, 3)).status is Status.PROVED
    g, n = _goal("list(cons(X, Y))")
    assert success_subtree(build_tree(listnat, g, n, 2)).status is Status.FAILED
    g, n = _goal("connected(X, Y)")
    for d in (1, 2, 5, 9):
        assert success_subtree(build_tree(gc, g, n, d)).status is Status.UNKNOWN


def test_proof_replay(listnat_plus):
    g, n = _goal("list(cons(0, nil))")
    outcome = success_subtree(build_tree(listnat_plus, g, n, 3))
    proof = outcome.proof
    assert proof is not None

    def replay(node):
        (orn,) = node.children
        clause = listnat_plus.clauses[orn.clause_index]
        assert apply(orn.matcher, clause.head) == node.atom
        assert tuple(apply(orn.matcher, b) for b in clause.body) == \
            tuple(c.atom for c in orn.children)
        for c in orn.children:
            replay(c)

    replay(proof.root)


def test_monotone_truncation(listnat_plus, gc, bad):
    rng = random.Random(23)
    programs = [listnat_plus, gc, bad] + [
        random_fo_program(rng, existential=bool(i % 2)) for i in range(6)
    ]
    goals = ["list(cons(X, Y))", "connected(X, Y)", "bad(X)", "p(X)", "q(X, Y)"]
    for p in programs:
        for text in goals:
            try:
                g, n = parse_atom(text, p.signature)
            except Exception:
                continue
            for d in range(4):
                deeper = build_tree(p, g, n, d + 1)
                assert same_tree(truncate_tree(deeper, d), build_tree(p, g, n, d))


def test_or_children_match_per_node_rescan(listnat_plus, gc):
    def walk(program, node, ceiling, base):
        if node.truncated:
            return
        expected = expected_or_children(program, node.atom, ceiling)
        assert [(o.clause_index, tuple(c.atom for c in o.children)) for o in node.children] \
            == [(idx, kids) for idx, kids, _ in expected]
        for o, (_, _, k) in zip(node.children, expected):
            for c in o.children:
                walk(program, c, ceiling + k, base)

    for program, text, depth in (
        (listnat_plus, "list(cons(X, Y))", 3),
        (gc, "connected(X, Y)", 4),
        (gc, "connected(X, X)", 3),
    ):
        g, n = parse_atom(text, program.signature)
        t = build_tree(program, g, n, depth)
        walk(program, t.root, max(n, g.max_var), n)


def test_finite_branching(listnat_plus, gc):
    def widths(node):
        yield len(node.children)
        for o in node.children:
            for c in o.children:
                yield from widths(c)

    for program, text in ((listnat_plus, "list(X)"), (gc, "connected(X, Y)")):
        g, n = parse_atom(text, program.signature)
        assert max(widths(build_tree(program, g, n, 4).root)) <= len(program.clauses)


def test_map_tree_merges_variables(gc):
    g, n = _goal("connected(X, Y)")
    t = build_tree(gc, g, n, 2)
    merged = map_tree(ArrowSubstitution(1, 2, (Var(1), Var(1))), t)
    assert merged.base == 1
    root = merged.root
    assert root.atom == Atom("connected", (Var(1), Var(1)))
    (orn,) = root.children
    edge, conn = orn.children
    # the second base variable was merged away; fresh variables shifted down
    assert edge.atom == Atom("edge", (Var(1), Var(2)))
    assert conn.atom == Atom("connected", (Var(2), Var(1)))
    (orn2,) = conn.children
    assert [c.atom for c in orn2.children] == [
        Atom("edge", (Var(2), Var(3))),
        Atom("connected", (Var(3), Var(1))),
    ]
    ident = ArrowSubstitution.identity(2)
    assert same_tree(map_tree(ident, t), t)


def test_map_tree_requires_matching_base(gc):
    g, n = _goal("connected(X, Y)")
    t = build_tree(gc, g, n, 1)
    with pytest.raises(Exception):
        map_tree(ArrowSubstitution(1, 3, (Var(1), Var(1), Var(1))), t)


def test_tree_leq_examples(gc):
    g2, _ = _goal("connected(X, Y)")
    g1, _ = _goal("connected(X, X)")
    merge = ArrowSubstitution(1, 2, (Var(1), Var(1)))
    for d in (1, 2, 3):
        mapped = map_tree(merge, build_tree(gc, g2, 2, d))
        built = build_tree(gc, g1, 1, d)
        assert tree_leq(mapped, built)
        assert not tree_leq(built, mapped)
        assert tree_leq(mapped, mapped) and tree_leq(built, built)


def test_trees_reject_bad_depths_and_goals(gc):
    goal, n = _goal("connected(X, Y)")
    with pytest.raises(ValueError, match="depth must be >= 0"):
        build_tree(gc, goal, n, -1)
    with pytest.raises(ArityMismatchError,
                       match=re.escape("goal 'connected(X1, X2)' used with arity 1 and arity 2")):
        build_tree(gc, goal, 1, 2)
    with pytest.raises(ValueError, match="depth must be >= 0"):
        truncate_tree(build_tree(gc, goal, n, 2), -1)


def test_tree_comparisons_fail_on_each_mismatch(gc):
    goal, n = _goal("connected(X, Y)")
    t = build_tree(gc, goal, n, 2)
    (orn,) = t.root.children
    atom = t.root.atom
    mismatches = {
        "base": CoTree(t.root, n + 1),
        "root atom": build_tree(gc, Atom("connected", (Var(2), Var(1))), n, 2),
        "truncation": truncate_tree(t, 1),
        "or-children": CoTree(AndNode(atom), n),
        "clause index": CoTree(AndNode(atom, (OrNode(0, orn.matcher, orn.children),)), n),
        "body length": CoTree(AndNode(atom, (OrNode(1, orn.matcher, orn.children[:1]),)), n),
    }
    assert tree_equal_upto_renaming(t, t) and tree_leq(t, t)
    for what, other in mismatches.items():
        assert not tree_leq(t, other), what
        assert not tree_equal_upto_renaming(t, other), what
        assert not tree_equal_upto_renaming(other, t), what


def test_tree_leq_transitive_instance(gc):
    g2, _ = _goal("connected(X, Y)")
    merge = ArrowSubstitution(1, 2, (Var(1), Var(1)))
    pick = ArrowSubstitution(2, 1, (Var(2),))
    base_tree = build_tree(gc, g2, 2, 2)
    a = map_tree(pick, map_tree(merge, base_tree))
    b = map_tree(pick, build_tree(gc, arrow_apply(merge, g2), 1, 2))
    c = build_tree(gc, arrow_apply(pick, arrow_apply(merge, g2)), 2, 2)
    assert tree_leq(a, b) and tree_leq(b, c)
    assert tree_leq(a, c)
    widen = ArrowSubstitution(3, 2, (Var(1), Var(2)))
    t_wide_small = map_tree(widen, base_tree)
    t_wide_big = build_tree(gc, arrow_apply(widen, g2), 3, 2)
    assert tree_leq(t_wide_small, t_wide_big)
    assert tree_leq(t_wide_big, t_wide_small)  # injections act strictly


def test_tree_level_lax_squares(listnat_plus, gc, bad):
    rng = random.Random(5)
    programs = [listnat_plus, gc, bad] + [
        random_fo_program(rng, existential=bool(i % 2)) for i in range(4)
    ]
    arrows = [
        ArrowSubstitution(1, 2, (Var(1), Var(1))),
        ArrowSubstitution(2, 2, (Var(2), Var(1))),
        ArrowSubstitution(3, 2, (Var(2), Var(3))),
        ArrowSubstitution(0, 1, (Fn("0"),)),
        ArrowSubstitution(1, 1, (Fn("s", (Var(1),)),)),
        ArrowSubstitution(1, 2, (Fn("0"), Var(1))),
    ]
    for program in programs:
        preds = program.signature.predicate_arities
        goals = [Atom(p, tuple(Var(i + 1) for i in range(r))) for p, r in preds.items()]
        for f in arrows:
            for g in goals:
                if g.max_var > f.target:
                    continue
                lhs = map_tree(f, build_tree(program, g, f.target, 3))
                rhs = build_tree(program, arrow_apply(f, g), f.source, 3)
                assert tree_leq(lhs, rhs), (str(f), g)
                if is_var_injection(f.terms):
                    assert tree_equal_upto_renaming(lhs, rhs)


def test_tree_equal_upto_renaming(gc):
    g, n = _goal("connected(X, Y)")
    t = build_tree(gc, g, n, 2)

    def remap(node, image):
        def sh(term):
            if isinstance(term, Var):
                return Var(image(term.index))
            return Fn(term.name, tuple(sh(a) for a in term.args))

        return AndNode(
            Atom(node.atom.name, tuple(sh(t) for t in node.atom.args)),
            tuple(OrNode(o.clause_index, o.matcher, tuple(remap(c, image) for c in o.children))
                  for o in node.children),
            node.truncated,
        )

    renamed = CoTree(remap(t.root, lambda i: i + 2 if i > n else i), t.base)
    assert tree_equal_upto_renaming(t, renamed)
    assert not tree_equal_upto_renaming(t, build_tree(gc, g, n, 3))

    # Depth 3 has fresh variables X3, X4 and X5 over the base X1, X2.
    deep = build_tree(gc, g, n, 3)

    def swapped(i, j):
        return CoTree(remap(deep.root, lambda k: {i: j, j: i}.get(k, k)), deep.base)

    assert tree_equal_upto_renaming(deep, swapped(3, 4))
    assert tree_equal_upto_renaming(swapped(4, 5), swapped(3, 4))
    collapsed = CoTree(remap(deep.root, lambda k: 3 if k == 4 else k), deep.base)
    assert not tree_equal_upto_renaming(deep, collapsed)
    assert not tree_equal_upto_renaming(collapsed, deep)
    assert not tree_equal_upto_renaming(deep, swapped(1, 3))
    assert not tree_equal_upto_renaming(swapped(2, 5), deep)


def test_render_dot_shapes_and_rejects_unknown_format(gc):
    g, n = _goal("connected(X, Y)")
    t = build_tree(gc, g, n, 2)
    dot = render(t, "dot")
    assert "shape=point" in dot and "shape=box" in dot and "style=dashed" in dot
    with pytest.raises(ValueError):
        render(t, "svg")


def test_json_writer_matches_recursive_encoder():
    rng = random.Random(53)
    for i in range(60):
        program = random_fo_program(rng, existential=bool(i % 2))
        pred, arity = rng.choice(list(program.signature.predicate_arities.items()))
        goal = Atom(pred, tuple(Var(j) for j in range(1, arity + 1)))
        t = build_tree(program, goal, arity, rng.randint(0, 5))
        assert render(t, "json") == json_oracle(t)
        proof = success_subtree(t).proof
        if proof is not None:
            assert render(proof, "json") == json_oracle(proof)


RENDER_ORACLES = {"ascii": ascii_oracle, "dot": dot_oracle, "json": json_oracle}


def _assert_renders_as_oracles(t):
    for fmt, oracle in RENDER_ORACLES.items():
        text = render(t, fmt)
        assert text == oracle(t), fmt
        assert "".join(cotree.render(t, fmt, pieces=True)) == text, fmt


def _features(t) -> set[str]:
    """Which of fresh variables, truncated nodes and shared subtrees occur."""
    found, seen, stack = set(), set(), [t.root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            found.add("shared")
            continue
        seen.add(id(node))
        if node.truncated:
            found.add("truncated")
        if node.atom.max_var > t.base:
            found.add("fresh")
        stack.extend(c for o in node.children for c in o.children)
    return found


def test_render_matches_recursive_oracles_on_random_trees_and_proofs():
    rng = random.Random(61)
    found, proofs = set(), 0
    for i in range(120):
        program = random_fo_program(rng, existential=True)
        pred, arity = rng.choice(sorted(program.signature.predicate_arities.items()))
        pool = [*(Var(j) for j in range(1, arity + 1)), Fn("a"), Fn("b"),
                Fn("f", (Fn("a"),)), Fn("f", (Var(1),))]
        goal = Atom(pred, tuple(rng.choice(pool) for _ in range(arity)))
        t = build_tree(program, goal, arity, i % 5)
        found |= _features(t)
        _assert_renders_as_oracles(t)
        proof = success_subtree(t).proof
        if proof is not None:
            proofs += 1
            _assert_renders_as_oracles(proof)
    assert found == {"fresh", "truncated", "shared"} and proofs >= 5, (found, proofs)


def test_render_matches_recursive_oracles_on_bundled_programs(listnat, listnat_plus, gc,
                                                              bad, ex33):
    cases = [(listnat, "list(cons(0, cons(s(0), nil)))"), (listnat, "nat(s(s(0)))"),
             (listnat, "list(cons(X, Y))"), (listnat_plus, "list(cons(0, cons(0, nil)))"),
             (gc, "connected(X, Y)"), (bad, "bad(X)"), (ex33, "a"), (ex33, "d")]
    for program, text in cases:
        goal, n = parse_atom(text, program.signature)
        for depth in range(5):
            t = build_tree(program, goal, n, depth)
            _assert_renders_as_oracles(t)
            proof = success_subtree(t).proof
            if proof is not None:
                _assert_renders_as_oracles(proof)


def test_rendering_chains_does_linear_work(listnat):
    """Each atom of the proof of nat(s^n(0)) shares all but one node with
    the next, and so does each atom of the tree of p(a) under
    p(X) :- p(f(X)), where terms grow instead of shrink. Rendering either
    takes work linear in n plus the bytes copied. Work is counted as calls
    into C, not timed; printing every atom afresh made the count grow
    fourfold per doubling of n."""
    grow = parse_program("p(X) :- p(f(X)).")

    def work(n: int, fmt: str, shrinking: bool) -> int:
        if shrinking:
            term = Fn("0")
            for _ in range(n):
                term = Fn("s", (term,))
            t = tm_prove(listnat, Atom("nat", (term,)), n + 1).proof
        else:
            t = build_tree(grow, Atom("p", (Fn("a"),)), 0, n)
        return c_calls(lambda: render(t, fmt))

    for fmt in RENDER_ORACLES:
        for shrinking in (True, False):
            assert_linear_work(lambda n: work(n, fmt, shrinking), (100, 200, 400),
                               (fmt, shrinking))


def test_proof_tree_rejects_open_and_branching_nodes(listnat_plus):
    g, n = _goal("list(cons(0, nil))")
    with pytest.raises(ValueError, match="exactly one or-child"):
        ProofTree(build_tree(listnat_plus, g, n, 4).root, n)  # clauses 3 and 4 both match
    with pytest.raises(ValueError, match="truncated"):
        ProofTree(build_tree(listnat_plus, g, n, 0).root, n)
    proof = success_subtree(build_tree(listnat_plus, g, n, 4)).proof
    with pytest.raises(ValueError, match="truncated"):
        ProofTree(truncate_tree(proof, 1).root, n)  # a cut below the root


def test_success_subtree_and_prover_pick_same_proof(listnat_plus, gc):
    from matchlog import tm_prove

    for program, text, depth in (
        (listnat_plus, "list(cons(0, nil))", 4),
        (gc, "connected(X, X)", 3),
    ):
        g, n = parse_atom(text, program.signature)
        via_tree = success_subtree(build_tree(program, g, n, depth)).proof
        via_prover = tm_prove(program, g, depth).proof
        assert same_tree(via_tree, via_prover)


def test_truncated_flag_only_at_cut_depth(gc):
    g, n = _goal("connected(X, Y)")
    t = build_tree(gc, g, n, 3)

    def check(node, depth):
        if node.truncated:
            assert depth == 3 and node.children == ()
        for o in node.children:
            for c in o.children:
                check(c, depth + 1)

    check(t.root, 0)
