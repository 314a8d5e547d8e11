"""Ground structure maps, unfoldings, fresh-block elements and lax squares."""

from __future__ import annotations

import itertools
import random
from functools import lru_cache, partial

import pytest

from matchlog import coalgebra
from matchlog import (
    Approximant,
    ArityMismatchError,
    ArrowSubstitution,
    Atom,
    Fn,
    PffElement,
    Substitution,
    Var,
    apply,
    approximant_matches_tree,
    build_tree,
    default_check_atoms,
    encode_tree,
    enumerate_arrows,
    enumerate_terms,
    ground_coalgebra,
    ground_lfp,
    lax_square,
    lax_sweep,
    parse_atom,
    parse_program,
    pff_leq,
    pff_map,
    pff_step,
    pp_leq,
    print_atom,
    project_approximant,
    rebase,
    unfold,
)

from matchlog.syntax import atom_vars, term_vars

from helpers import brute_lax_sweep, lfp_entailed, random_fo_program, random_ground_program

A, B, C, D = Atom("a"), Atom("b"), Atom("c"), Atom("d")


def test_ground_coalgebra_values(ex33):
    g = ground_coalgebra(ex33)
    assert set(g.atoms) == {A, B, C, D}
    assert g.body_sets(A) == frozenset({frozenset({B, C}), frozenset({B, D})})
    assert g.body_sets(B) == frozenset()
    assert g.body_sets(C) == frozenset()
    assert g.body_sets(D) == frozenset({frozenset({A, C})})


def test_ground_coalgebra_extra_atoms():
    g = ground_coalgebra(parse_program(""), extra_atoms=[A])
    assert g.atoms == (A,)
    assert g.body_sets(A) == frozenset()
    with pytest.raises(ValueError):
        g.body_sets(B)


def test_ground_coalgebra_rejects_variables(gc):
    with pytest.raises(ValueError):
        ground_coalgebra(gc)


def test_program_coalgebra_round_trip():
    rng = random.Random(101)
    for _ in range(40):
        program = random_ground_program(rng)
        g = ground_coalgebra(program)
        assert ground_coalgebra(g.program) == g
        # the other direction is identity up to clause order and duplicate
        # collapse: same clauses as (head, body-set) pairs
        back = g.program
        as_pairs = lambda p: {(c.head, frozenset(c.body)) for c in p.clauses}
        assert as_pairs(back) == as_pairs(program)


def test_unfold_values(ex33):
    g = ground_coalgebra(ex33)
    assert unfold(g, A, 0) == Approximant(0, A)
    lvl0 = {x: Approximant(0, x) for x in (A, B, C, D)}
    p1 = Approximant(1, A, frozenset({
        frozenset({lvl0[B], lvl0[C]}),
        frozenset({lvl0[B], lvl0[D]}),
    }))
    assert unfold(g, A, 1) == p1
    b1 = Approximant(1, B, frozenset())
    c1 = Approximant(1, C, frozenset())
    d1 = Approximant(1, D, frozenset({frozenset({lvl0[A], lvl0[C]})}))
    p2 = Approximant(2, A, frozenset({
        frozenset({b1, c1}),
        frozenset({b1, d1}),
    }))
    assert unfold(g, A, 2) == p2


def test_unfold_unknown_atom(ex33):
    with pytest.raises(ValueError):
        unfold(ground_coalgebra(ex33), Atom("zz"), 1)


def _criterion_3_coalgebras(ex33):
    """ex33 and the 100 random ground programs of acceptance criterion 3."""
    rng = random.Random(2024)
    return [ground_coalgebra(ex33)] + [
        ground_coalgebra(random_ground_program(rng)) for _ in range(100)
    ]


def _is_cone(xs):
    """Does projecting each approximant give the one before it, as one object?"""
    return all(y.level > 0 and project_approximant(y) is x for x, y in zip(xs, xs[1:]))


def test_cone_condition(ex33, monkeypatch):
    # Unfolding and tree encoding both commute with projection, which is why
    # approximant_matches_tree compares at its deepest level only.
    for g in _criterion_3_coalgebras(ex33):
        for atom in g.atoms:
            root = build_tree(g.program, atom, 0, 8).root
            assert _is_cone([unfold(g, atom, k) for k in range(9)])
            assert _is_cone([encode_tree(root, k) for k in range(9)])
    # An encoding wrong at the top of level 1 alone breaks the cone.
    real_encode = coalgebra.encode_tree
    monkeypatch.setattr(coalgebra, "encode_tree",
                        lambda node, n: real_encode(node, 0 if n == 1 else n))
    root = build_tree(ground_coalgebra(ex33).program, A, 0, 8).root
    assert not _is_cone([coalgebra.encode_tree(root, k) for k in range(9)])


def test_approximant_matches_tree_agrees_with_every_level_loop(ex33):
    for g in _criterion_3_coalgebras(ex33):
        for atom in g.atoms:
            root = build_tree(g.program, atom, 0, 8).root
            for level in range(9):
                assert approximant_matches_tree(g, atom, level) == all(
                    unfold(g, atom, n) == encode_tree(root, n) for n in range(level + 1))


def test_approximant_matches_tree_examples(ex33):
    g = ground_coalgebra(ex33)
    for atom in g.atoms:
        assert approximant_matches_tree(g, atom, 0)
        assert approximant_matches_tree(g, atom, 2)


def test_approximant_matches_tree_checks_every_level_on_one_tree(ex33, monkeypatch):
    g = ground_coalgebra(ex33)
    calls = {"build_tree": [], "unfold": [], "encode_tree": []}
    for name, levels in calls.items():
        real = getattr(coalgebra, name)
        monkeypatch.setattr(coalgebra, name, lambda *args, real=real, levels=levels:
                            levels.append(args[-1]) or real(*args))
    for atom in g.atoms:
        assert approximant_matches_tree(g, atom, 3)
    assert calls == {name: [3] * len(g.atoms) for name in calls}
    # An encoding whose level-1 nodes each lose a branch is caught at level 3
    # by every atom whose depth-3 tree has such a node (a and d, through the
    # cycle a -> d -> a), and passes at level 0.
    real_encode, real_approximant = coalgebra.encode_tree, coalgebra._approximant

    def lossy_encode(node, n):
        with monkeypatch.context() as m:
            m.setattr(coalgebra, "_approximant", lambda level, atom, groups:
                      real_approximant(level, atom, groups[1:] if level == 1 else groups))
            return real_encode(node, n)
    monkeypatch.setattr(coalgebra, "encode_tree", lossy_encode)
    assert all(approximant_matches_tree(g, atom, 0) for atom in g.atoms)
    assert [atom for atom in g.atoms if not approximant_matches_tree(g, atom, 3)] == [A, D]


def test_pff_step_examples(listnat, gc):
    natx, _ = parse_atom("nat(X)")
    assert pff_step(listnat, natx, 1) == PffElement(1, 0, frozenset())
    nat0, _ = parse_atom("nat(0)")
    assert pff_step(listnat, nat0, 0) == PffElement(0, 0, frozenset({frozenset()}))
    lc, _ = parse_atom("list(cons(X, 0))")
    assert pff_step(listnat, lc, 1) == PffElement(1, 0, frozenset({
        frozenset({parse_atom("nat(X)")[0], parse_atom("list(0)")[0]})
    }))
    conn, _ = parse_atom("connected(X, Y)")
    e = pff_step(gc, conn, 2)
    assert e.base == 2 and e.fresh == 1
    assert e.body == frozenset({frozenset({
        Atom("edge", (Var(1), Var(3))),
        Atom("connected", (Var(3), Var(2))),
    })})


def test_pff_step_arity_checks(listnat):
    with pytest.raises(Exception):
        pff_step(listnat, parse_atom("connected(X, Y)")[0], 1)


def test_pff_map_examples(gc):
    conn, _ = parse_atom("connected(X, Y)")
    e = pff_step(gc, conn, 2)
    assert pff_map(ArrowSubstitution.identity(2), e) == e
    inj = ArrowSubstitution(3, 2, (Var(1), Var(2)))
    assert pff_map(inj, e) == pff_step(gc, conn, 3)
    merge = ArrowSubstitution(1, 2, (Var(1), Var(1)))
    assert pff_map(merge, e) == PffElement(1, 1, frozenset({frozenset({
        Atom("edge", (Var(1), Var(2))),
        Atom("connected", (Var(2), Var(1))),
    })}))


def test_pp_leq():
    s = frozenset
    nat0 = parse_atom("nat(0)")[0]
    listnil = parse_atom("list(nil)")[0]
    assert pp_leq(s(), s({s({nat0})}))
    assert pp_leq({s({nat0})}, {s({nat0, listnil})})
    assert not pp_leq({s({nat0}), s({listnil})}, {s({nat0})})


def test_pp_leq_preorder():
    s = frozenset
    nat0 = parse_atom("nat(0)")[0]
    listnil = parse_atom("list(nil)")[0]
    chains = [
        (s(), {s({nat0})}, {s({nat0}), s({listnil})}),
        ({s({nat0})}, {s({nat0, listnil})}, {s({nat0, listnil}), s()}),
    ]
    for a, b, c in chains:
        assert pp_leq(a, a) and pp_leq(b, b)
        assert pp_leq(a, b) and pp_leq(b, c)
        assert pp_leq(a, c)


def test_pff_canonical_idempotent_and_renaming_invariant():
    rng = random.Random(83)
    for _ in range(60):
        base = rng.randint(0, 2)
        k = rng.randint(0, 3)
        sets = []
        for _ in range(rng.randint(0, 3)):
            atoms = []
            for _ in range(rng.randint(1, 3)):
                args = tuple(
                    Var(rng.randint(1, base + k)) if (base + k) and rng.random() < 0.7
                    else Fn("a")
                    for _ in range(2)
                )
                atoms.append(Atom("q", args))
            sets.append(frozenset(atoms))
        e = PffElement.canonical(base, sets)
        assert PffElement.canonical(base, e.body) == e
        # rename the fresh block by a random permutation; canonical form is stable
        perm = list(range(base + 1, base + k + 1))
        rng.shuffle(perm)
        ren = dict(zip(range(base + 1, base + k + 1), perm))

        def rn(t):
            if isinstance(t, Var):
                return Var(ren.get(t.index, t.index))
            return Fn(t.name, tuple(rn(x) for x in t.args))

        shuffled = [
            frozenset(Atom(a.pred, tuple(rn(t) for t in a.args)) for a in sset)
            for sset in sets
        ]
        assert PffElement.canonical(base, shuffled) == e


def test_pff_leq_uses_fresh_renaming(gc):
    conn, _ = parse_atom("connected(X, Y)")
    e = pff_step(gc, conn, 2)
    bigger = PffElement.canonical(2, list(e.body) + [frozenset({
        Atom("edge", (Var(1), Var(1)))
    })])
    assert pff_leq(e, bigger)
    assert not pff_leq(bigger, e)
    assert pff_leq(e, e)
    # the one fresh variable of the small element must land on the right
    # fresh variable of the big one, whichever index canonicalisation gave it
    small = PffElement.canonical(1, [frozenset({Atom("q", (Var(2), Var(2)))})])
    big = PffElement.canonical(1, [frozenset({
        Atom("p", (Var(2),)),
        Atom("q", (Var(3), Var(3))),
    })])
    assert pff_leq(small, big)
    assert not pff_leq(big, small)


def test_lax_square_counterexample(listnat):
    natx, _ = parse_atom("nat(X)")
    f = ArrowSubstitution(0, 1, (Fn("0"),))
    square = lax_square(partial(pff_step, listnat), f, natx)
    assert square.lax_ok and not square.strict_ok
    assert square.lhs == PffElement(0, 0, frozenset())
    assert square.rhs == PffElement(0, 0, frozenset({frozenset()}))
    assert "LAX OK" in square.line()
    assert "STRICT FAIL" in square.line(strict_expected=True)


def test_lax_square_identity_and_injection(listnat, gc):
    listc, n = parse_atom("list(cons(X, Y))")
    assert lax_square(partial(pff_step, listnat), ArrowSubstitution.identity(n), listc).strict_ok
    conn, _ = parse_atom("connected(X, Y)")
    inj = ArrowSubstitution(3, 2, (Var(2), Var(3)))
    assert lax_square(partial(pff_step, gc), inj, conn).strict_ok


def test_pff_step_is_the_first_layer_of_the_tree(listnat, listnat_plus, gc, bad, ex33):
    for program in (listnat, listnat_plus, gc, bad, ex33):
        for atom, base in default_check_atoms(program):
            layer = build_tree(program, atom, base, 1).root.children
            bodies = [[c.atom for c in o.children] for o in layer]
            assert pff_step(program, atom, base) == PffElement.canonical(base, bodies)


def test_enumerate_terms_counts(listnat):
    sig = listnat.signature
    assert len(enumerate_terms(sig, 0, 1)) == 2          # 0, nil
    assert len(enumerate_terms(sig, 1, 1)) == 3          # X1, 0, nil
    # depth 2 over one variable: 3 atomic + s(3) + cons(3*3)
    assert len(enumerate_terms(sig, 1, 2)) == 3 + 3 + 9


def test_default_check_atoms(gc):
    pairs = default_check_atoms(gc)
    assert (Atom("connected", (Var(1), Var(2))), 2) in pairs
    assert (Atom("connected", (Var(1), Var(1))), 1) in pairs
    assert (Atom("connected", (Var(1), Var(2))), 3) in pairs


def test_lax_sweep_small(gc, bad):
    for program in (gc, bad):
        report = lax_sweep(program)
        assert report.all_lax_ok
        assert report.injections_strict


def _sweep_lines(report):
    """Counts and printed witness lines, as `check --what lax|inj` shows them."""
    return (report.squares_checked, report.classes_checked, report.strict_ok_squares,
            [sq.line() for sq in report.lax_failures],
            [sq.line() for sq in report.equality_failures],
            [sq.line(strict_expected=True) for sq in report.injection_failures])


def test_lax_sweep_matches_brute_force_oracle(listnat, listnat_plus, gc, bad, ex33):
    rng = random.Random(4242)
    programs = [listnat, listnat_plus, gc, bad, ex33]
    programs += [random_fo_program(rng, existential=False) for _ in range(12)]
    programs += [random_fo_program(rng, existential=True) for _ in range(12)]
    for program in programs:
        for arity in range(4):
            report = lax_sweep(program, max_arity=arity, term_depth=2)
            oracle = brute_lax_sweep(program, max_arity=arity, term_depth=2)
            assert _sweep_lines(report) == _sweep_lines(oracle)
            assert report == oracle


def test_lax_sweep_matches_oracle_on_injection_failures(listnat, gc, monkeypatch):
    # A step that loses a body of every atom whose first argument mentions x1
    # or x2 breaks injective squares. connected(x3, x1) at base 3 has a free
    # position between its used ones, so the failing injections of its
    # classes (x3, x1) and (x3, x2) interleave in product order.
    real_step = coalgebra.pff_step

    def lossy_step(program, atom, base):
        element = real_step(program, atom, base)
        if not {1, 2} & set(term_vars(atom.args[0])) or not element.body:
            return element
        bodies = sorted(element.body, key=lambda s: sorted(print_atom(a) for a in s))
        return PffElement.canonical(base, bodies[1:])

    monkeypatch.setattr(coalgebra, "pff_step", lossy_step)
    x1, x3 = Var(1), Var(3)
    for program, extra in [
        (listnat, [Atom("list", (Fn("cons", (x3, x1)),))]),
        (gc, [Atom("connected", (x3, x1))]),
    ]:
        atom_bases = list(default_check_atoms(program)) + [(a, 3) for a in extra]
        report = lax_sweep(program, atom_bases)
        oracle = brute_lax_sweep(program, atom_bases)
        assert report.injection_failures
        assert _sweep_lines(report) == _sweep_lines(oracle)
        assert report == oracle


def _classes_and_atoms(program, max_arity):
    """The distinct (atom, restriction) pairs of the default sweep, and the
    atoms they step: each checked atom and its image under each restriction."""
    pools = [enumerate_terms(program.signature, n, 2) for n in range(max_arity + 1)]
    pairs, atoms = set(), set()
    for atom, m in default_check_atoms(program, max_arity):
        used = sorted(set(atom_vars(atom)))
        atoms.add(atom)
        for pool in pools:
            if m and not pool:
                continue
            for fkey in itertools.product(pool, repeat=len(used)):
                pairs.add((atom, fkey))
                atoms.add(apply(Substitution(dict(zip(used, fkey))), atom))
    return pairs, atoms


def test_lax_sweep_checks_one_square_per_class(listnat, monkeypatch):
    squares, steps = [], []
    real_square, real_step = coalgebra.lax_square, coalgebra.pff_step

    def counted_square(*args):
        squares.append(args)
        return real_square(*args)

    def counted_step(*args):
        steps.append(args)
        return real_step(*args)

    monkeypatch.setattr(coalgebra, "lax_square", counted_square)
    monkeypatch.setattr(coalgebra, "pff_step", counted_step)
    report = lax_sweep(listnat, max_arity=3, term_depth=2)
    pairs, atoms = _classes_and_atoms(listnat, 3)
    assert (report.classes_checked, report.squares_checked) == (2508, 123516)
    assert len(squares) == len(pairs) == 1332
    assert len(steps) == len(atoms)


def test_lax_sweep_rejects_an_atom_above_its_base(listnat):
    atom, _ = parse_atom("list(cons(X, Y))")
    with pytest.raises(ArityMismatchError):
        lax_sweep(listnat, [(atom, 1)], max_arity=2)


def test_lax_verdict_is_the_order(listnat, listnat_plus, gc, bad, ex33):
    # lax_square decides equality first; every square of the bundled sweeps
    # at arity 2 must still carry pff_leq's verdict.
    for program in (listnat, listnat_plus, gc, bad, ex33):
        step = lru_cache(maxsize=None)(partial(pff_step, program))
        arrows = list(enumerate_arrows(program.signature, max_arity=2, term_depth=2))
        checked = 0
        for atom, m in default_check_atoms(program, 2):
            for f in arrows:
                if f.target == m:
                    sq = lax_square(step, f, atom)
                    assert sq.lax_ok == pff_leq(sq.lhs, sq.rhs), (str(f), print_atom(atom))
                    checked += 1
        assert checked


def test_rebase_equals_stepping_at_the_base(listnat, listnat_plus, gc, bad, ex33):
    rng = random.Random(4242)
    programs = [listnat, listnat_plus, gc, bad, ex33]
    programs += [random_fo_program(rng, existential=False) for _ in range(12)]
    programs += [random_fo_program(rng, existential=True) for _ in range(12)]
    moved = 0
    for program in programs:
        for atom in _classes_and_atoms(program, 3)[1]:
            e = pff_step(program, atom, atom.max_var)
            for n in range(atom.max_var, 4):
                assert rebase(e, n) == pff_step(program, atom, n), (print_atom(atom), n)
                moved += bool(e.fresh) and n > atom.max_var
    assert moved


def test_rebase_renumbers_across_x9_x10():
    # Canonical numbering compares printed names: over base 8 the fresh pair
    # is x9, x10, and "X10" sorts before "X9", so a plain shift of the
    # canonical element over base 1 is not canonical.
    def p(i, j):
        return Atom("p", (Var(i), Var(j)))

    def q(i):
        return Atom("q", (Var(i),))

    e = PffElement.canonical(1, [{p(2, 3)}, {q(2)}])
    assert e.body == frozenset({frozenset({p(2, 3)}), frozenset({q(2)})})
    shifted = frozenset({frozenset({p(9, 10)}), frozenset({q(9)})})
    moved = rebase(e, 8)
    assert moved == PffElement.canonical(8, shifted) != PffElement(8, 2, shifted)
    assert moved.body == frozenset({frozenset({p(10, 9)}), frozenset({q(10)})})
    assert rebase(moved, 1) == e
    assert rebase(e, 1) is e


def test_enumerate_arrows_and_json_records(gc):
    from matchlog import enumerate_arrows

    # a functor-free signature admits only variable tuples
    arrows = list(enumerate_arrows(gc.signature, max_arity=2, term_depth=2))
    assert len(arrows) == sum((n ** m) for n in range(3) for m in range(3))
    conn, _ = parse_atom("connected(X, Y)")
    square = lax_square(partial(pff_step, gc), ArrowSubstitution(1, 2, (Var(1), Var(1))), conn)
    record = square.to_record()
    assert record["atom"] == "connected(X1, X2)"
    assert record["lax_ok"] is True and record["strict_ok"] is False
    assert "LAX OK" in square.line()


def test_ground_lfp_agrees_with_independent_oracle(ex33):
    rng = random.Random(9)
    programs = [ex33] + [random_ground_program(rng) for _ in range(20)]
    for program in programs:
        assert ground_lfp(program) == lfp_entailed(program)
