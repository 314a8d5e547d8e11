"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

from __future__ import annotations

import random
import time

from matchlog import (
    AndNode,
    Approximant,
    ArrowSubstitution,
    Atom,
    CoTree,
    Fn,
    OrNode,
    PffElement,
    SldLimits,
    Status,
    Substitution,
    Var,
    approximant_matches_tree,
    build_tree,
    check_bridge,
    ground_coalgebra,
    lax_sweep,
    map_tree,
    parse_atom,
    pff_map,
    pff_step,
    render,
    sld_solve,
    tm_prove,
    tree_equal_upto_renaming,
    tree_leq,
    unfold,
)
from matchlog.coalgebra import ground_lfp

from conftest import golden
from helpers import (
    check_apply_compose_case,
    check_arrow_case,
    check_mgm_case,
    check_mgu_case,
    ground_term_pool,
    lfp_entailed,
    random_fo_program,
    random_ground_program,
)


def _passed(n: int, label: str) -> None:
    print(f"[acceptance] criterion {n} ({label}): PASS")


def test_criterion_1_golden_examples(listnat, listnat_plus, gc, bad):
    started = time.monotonic()

    # term-matching verdicts
    result = tm_prove(listnat, parse_atom("list(cons(0,nil))")[0], 8)
    assert result.status is Status.PROVED
    (orn,) = result.proof.root.children
    assert orn.clause_index == 3
    assert [c.children[0].clause_index for c in orn.children] == [0, 2]
    assert tm_prove(listnat, parse_atom("list(cons(X,Y))")[0], 8).status is Status.FAILED

    reflexive = tm_prove(gc, parse_atom("connected(X,X)")[0], 2)
    assert reflexive.status is Status.PROVED
    assert reflexive.proof.root.children[0].clause_index == 0
    assert reflexive.proof.root.children[0].children == ()
    assert tm_prove(gc, parse_atom("connected(X,Y)")[0], 50).status is Status.UNKNOWN

    # SLD answers
    answers = sld_solve(gc, [parse_atom("connected(X,Y)")[0]]).answers
    assert [a.bindings for a in answers] == [Substitution({2: Var(1)})]
    assert answers[0].steps == 1
    answers = sld_solve(listnat, [parse_atom("list(cons(X,Y))")[0]]).answers
    assert answers[0].bindings == Substitution({1: Fn("0"), 2: Fn("nil")})
    bad_result = sld_solve(bad, [parse_atom("bad(X)")[0]], SldLimits(max_steps=100))
    assert bad_result.answers == () and bad_result.exhausted

    # golden renderings of the two displayed trees
    left = build_tree(listnat_plus, parse_atom("list(cons(0,nil))")[0], 0, 3)
    assert render(left) == golden("fig_left_ascii.txt")
    right_goal, right_n = parse_atom("list(cons(X,Y))")
    right = build_tree(listnat_plus, right_goal, right_n, 2)
    assert render(right) == golden("fig_right_ascii.txt")

    # the infinite connectivity tree, truncated, up to fresh renaming
    built = build_tree(gc, parse_atom("connected(X,Y)")[0], 2, 3)
    assert render(built) == golden("gc_depth3_ascii.txt")
    expected = CoTree(
        AndNode(Atom("connected", (Var(1), Var(2))), (
            OrNode(1, Substitution({3: Var(7)}), (
                AndNode(Atom("edge", (Var(1), Var(7)))),
                AndNode(Atom("connected", (Var(7), Var(2))), (
                    OrNode(1, Substitution({1: Var(7), 3: Var(9)}), (
                        AndNode(Atom("edge", (Var(7), Var(9)))),
                        AndNode(Atom("connected", (Var(9), Var(2))), (
                            OrNode(1, Substitution({1: Var(9), 3: Var(11)}), (
                                AndNode(Atom("edge", (Var(9), Var(11))), (), True),
                                AndNode(Atom("connected", (Var(11), Var(2))), (), True),
                            )),
                        )),
                    )),
                )),
            )),
        )),
        2,
    )
    assert tree_equal_upto_renaming(built, expected)

    assert time.monotonic() - started < 1.0
    _passed(1, "golden example suite")


def test_criterion_2_unfolding_exactness(ex33):
    g = ground_coalgebra(ex33)
    a, b, c, d = (Atom(x) for x in "abcd")
    lvl0 = {x: Approximant(0, x) for x in (a, b, c, d)}
    assert unfold(g, a, 0) == lvl0[a]
    assert unfold(g, a, 1) == Approximant(1, a, frozenset({
        frozenset({lvl0[b], lvl0[c]}),
        frozenset({lvl0[b], lvl0[d]}),
    }))
    b1 = Approximant(1, b, frozenset())
    c1 = Approximant(1, c, frozenset())
    d1 = Approximant(1, d, frozenset({frozenset({lvl0[a], lvl0[c]})}))
    assert unfold(g, a, 2) == Approximant(2, a, frozenset({
        frozenset({b1, c1}),
        frozenset({b1, d1}),
    }))
    _passed(2, "level 0/1/2 unfolding values")


def test_criterion_3_ground_oracle_equivalence(ex33):
    started = time.monotonic()
    rng = random.Random(2024)
    programs = [ex33] + [random_ground_program(rng) for _ in range(100)]
    for program in programs:
        g = ground_coalgebra(program)
        for atom in g.atoms:
            for level in range(5):
                assert approximant_matches_tree(program, g, atom, level)
    assert time.monotonic() - started < 10.0
    _passed(3, "unfolding equals tree on 100+ ground programs, levels <= 4")


def test_criterion_4_laxness_suite(listnat, listnat_plus, gc, bad):
    started = time.monotonic()
    rng = random.Random(4242)
    programs = [listnat, listnat_plus, gc, bad]
    programs += [random_fo_program(rng, existential=False) for _ in range(12)]
    programs += [random_fo_program(rng, existential=True) for _ in range(12)]
    for program in programs:
        report = lax_sweep(program, max_arity=3, term_depth=2)
        assert not report.lax_failures, [sq.to_record() for sq in report.lax_failures[:3]]
        assert not report.injection_failures, [
            sq.to_record() for sq in report.injection_failures[:3]]

    # the strict-naturality counterexample must show up for listnat
    report = lax_sweep(listnat, max_arity=3, term_depth=2)
    witness = [
        sq for sq in report.equality_failures
        if str(sq.arrow) == "(0):0->1" and sq.atom == Atom("nat", (Var(1),))
    ]
    assert witness, "expected the nat(X) strict failure under (0):0->1"
    assert witness[0].lhs.body == frozenset()
    assert witness[0].rhs.body == frozenset({frozenset()})
    assert witness[0].lax_ok
    assert time.monotonic() - started < 30.0
    _passed(4, "lax squares hold; injections strict; counterexample found")


def test_criterion_5_fresh_block_exactness(listnat, gc):
    assert pff_step(listnat, parse_atom("nat(0)")[0], 0) \
        == PffElement(0, 0, frozenset({frozenset()}))
    assert pff_step(listnat, parse_atom("nat(X)")[0], 1) == PffElement(1, 0, frozenset())
    assert pff_step(listnat, parse_atom("list(cons(X,0))")[0], 1) == PffElement(
        1, 0, frozenset({frozenset({
            Atom("nat", (Var(1),)),
            Atom("list", (Fn("0"),)),
        })}))
    conn = parse_atom("connected(X,Y)")[0]
    element = pff_step(gc, conn, 2)
    assert element == PffElement(2, 1, frozenset({frozenset({
        Atom("edge", (Var(1), Var(3))),
        Atom("connected", (Var(3), Var(2))),
    })}))
    assert element.fresh == 1
    inj = ArrowSubstitution(3, 2, (Var(1), Var(2)))
    assert pff_map(inj, element) == pff_step(gc, conn, 3)
    _passed(5, "fresh-block element values")


def test_criterion_6_tree_level_laxness(gc):
    merge = ArrowSubstitution(1, 2, (Var(1), Var(1)))
    generic = parse_atom("connected(X,Y)")[0]
    reflexive = parse_atom("connected(X,X)")[0]
    for depth in (1, 2, 3):
        mapped = map_tree(merge, build_tree(gc, generic, 2, depth))
        direct = build_tree(gc, reflexive, 1, depth)
        assert tree_leq(mapped, direct)
        assert not tree_leq(direct, mapped)
    _passed(6, "substituted tree embeds, reverse fails, depths 1..3")


def test_criterion_7_bridge_and_ground_agreement(listnat, listnat_plus, gc, bad, ex33):
    limits = SldLimits(max_steps=10_000, max_answers=5)
    for program in (listnat, listnat_plus, gc, bad):
        for pred, arity in program.signature.predicate_arities.items():
            goal = Atom(pred, tuple(Var(i) for i in range(1, arity + 1)))
            report = check_bridge(program, goal, limits)
            assert report.violations == (), report.violations

    rng = random.Random(77)
    programs = [ex33] + [random_ground_program(rng) for _ in range(50)]
    for program in programs:
        entailed = lfp_entailed(program)
        assert ground_lfp(program) == entailed
        atoms = {c.head for c in program.clauses}
        for c in program.clauses:
            atoms.update(c.body)
        depth = len(atoms) + 1
        for atom in atoms:
            assert (tm_prove(program, atom, depth).status is Status.PROVED) == (atom in entailed)
    _passed(7, "answers never refute the prover; fixpoint agreement")


def test_criterion_8_matching_algebra_battery():
    rng = random.Random(31337)
    cases = 0
    pool = ground_term_pool(2)
    for _ in range(2500):
        check_apply_compose_case(rng)
        cases += 1
    for _ in range(3000):
        check_mgm_case(rng)
        cases += 1
    for i in range(2600):
        check_mgu_case(rng, enumerate_pool=pool if i % 6 == 0 else None)
        cases += 1
    for _ in range(2000):
        check_arrow_case(rng)
        cases += 1
    assert cases >= 10_000
    _passed(8, f"{cases} random algebra cases, zero failures")
