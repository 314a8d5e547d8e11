"""Substitution, unification, matching and arrow tests."""

from __future__ import annotations

import random

import pytest

from matchlog import (
    ArityMismatchError,
    ArrowSubstitution,
    Atom,
    Clause,
    Fn,
    Substitution,
    Var,
    apply,
    arrow_apply,
    compose_arrows,
    mgm,
    mgu,
    parse_atom,
    unify,
)
from matchlog.substitution import is_var_injection, rename_apart
from matchlog.syntax import rename

from helpers import (
    assert_linear_work,
    c_calls,
    check_apply_compose_case,
    check_arrow_case,
    check_mgm_case,
    check_mgu_case,
    compose,
    enumerate_unifiers,
    flat_store,
    ground_term_pool,
    random_atom,
    random_store,
    robinson_mgu,
    substitute,
)


def test_apply_examples():
    nat_sx, _ = parse_atom("nat(s(X))")
    assert apply(Substitution({1: Fn("0")}), nat_sx) == parse_atom("nat(s(0))")[0]
    conn, _ = parse_atom("connected(X, Y)")
    assert apply(Substitution(), conn) == conn
    assert apply(Substitution({2: Var(1)}), conn) == parse_atom("connected(X, X)")[0]


def test_identity_bindings_are_dropped():
    s = Substitution({1: Var(1), 2: Fn("0")})
    assert {i for i, _ in s.items()} == {2}


def test_substitution_accepts_any_mapping():
    from types import MappingProxyType
    expected = Substitution({2: Fn("0")})
    assert Substitution(MappingProxyType({1: Var(1), 2: Fn("0")})) == expected


def test_compose_examples():
    s = Substitution({1: Fn("0")})
    assert compose(Substitution(), s) == s
    t = Substitution({2: Fn("s", (Var(1),))})
    assert compose(s, t) == Substitution({1: Fn("0"), 2: Fn("s", (Fn("0"),))})


def test_mgu_examples():
    assert mgu(*_atoms("nat(X)", "nat(0)")) == Substitution({1: Fn("0")})
    a = parse_atom("connected(X, Y)")[0]
    b = Atom("connected", (Var(3), Var(3)))
    assert mgu(a, b) == Substitution({2: Var(1), 3: Var(1)})
    assert mgu(Atom("p", (Var(1),)), Atom("q", (Var(1),))) is None


def test_mgu_occurs_check():
    a = Atom("p", (Var(1), Fn("s", (Var(1),))))
    b = Atom("p", (Var(2), Var(2)))
    assert mgu(a, b) is None
    # brute force: no instance over ground terms of depth <= 3 equalises them
    assert enumerate_unifiers(a, b, ground_term_pool(3)) == []


def test_robinson_mgu_is_most_general():
    # The SLD oracles' own unifier, checked as `check_mgu_case` checks `mgu`:
    # every unifier over a ground pool factors through it. It also equals
    # `mgu`, both keeping the smaller of two merged variables.
    a, b = Atom("p", (Var(1), Fn("s", (Var(1),)))), Atom("p", (Var(2), Var(2)))
    assert robinson_mgu(a, b) is None  # the occurs check
    assert robinson_mgu(*_atoms("nat(X)", "list(X)")) is None
    assert robinson_mgu(Atom("c", (Var(1), Var(2))), Atom("c", (Var(3), Var(3)))) == {
        2: Var(1), 3: Var(1)}
    rng = random.Random(1965)
    pool = ground_term_pool(2)
    unified = 0
    for i in range(400):
        nvars = rng.randint(1, 3)
        a = random_atom(rng, nvars, depth=2)
        b = random_atom(rng, nvars, depth=2, preds=((a.name, len(a.args)),))
        sigma = robinson_mgu(a, b)
        assert mgu(a, b) == (None if sigma is None else Substitution(sigma))
        if sigma is not None:
            unified += 1
            assert substitute(sigma, a) == substitute(sigma, b)
            images = tuple(sigma.values())
            assert substitute(sigma, images) == images, "the unifier must be idempotent"
        if i % 4 == 0:
            unifiers = enumerate_unifiers(a, b, pool + [Var(j) for j in range(1, nvars + 1)])
            if unifiers:
                assert sigma is not None
            for tau in unifiers:
                assert compose(tau, Substitution(sigma)) == tau
    assert 100 < unified < 400


def test_mgm_examples():
    pat = parse_atom("list(cons(X, Y))")[0]
    tgt = parse_atom("list(cons(X, 0))")[0]
    assert mgm(pat, tgt) == Substitution({2: Fn("0")})
    assert mgm(parse_atom("nat(0)")[0], parse_atom("nat(X)")[0]) is None
    diag = parse_atom("connected(X, X)")[0]
    generic = parse_atom("connected(X, Y)")[0]
    assert mgm(diag, generic) is None
    # exhaustive: no substitution over the target's terms equates the two
    from helpers import enumerate_matchers
    assert enumerate_matchers(diag, generic) == []


def test_mgm_never_binds_target_variables():
    rng = random.Random(3)
    for _ in range(200):
        check_mgm_case(rng)


def test_rename_apart(gc):
    shifted = rename_apart(gc.clauses[1], 2)
    assert shifted.head == Atom("connected", (Var(3), Var(4)))
    assert shifted.body == (
        Atom("edge", (Var(3), Var(5))),
        Atom("connected", (Var(5), Var(4))),
    )
    assert rename_apart(gc.clauses[1], 0) == gc.clauses[1]


def test_rename_apart_returns_a_ground_clause_as_it_is():
    from matchlog import parse_program
    program = parse_program("edge(a, b).\nedge(b, c) :- edge(a, b).\n")
    for clause in program.clauses:
        assert rename_apart(clause, 5) is clause


def _resolved_by_fixpoint(store, x):
    while True:
        y = apply(Substitution(store), x)
        if y == x:
            return x
        x = y


def test_unify_binds_the_mgu_of_the_resolved_atoms_into_the_store():
    # Molecules at random offsets against the eager path: the atoms shifted
    # by `rename_apart` and resolved through the store's plain form.
    rng = random.Random(23)
    unified = 0
    for _ in range(400):
        store = random_store(rng, 6)
        before = dict(store)
        plain = flat_store(store)
        a = random_atom(rng, 6)
        b = random_atom(rng, 6, preds=((a.name, len(a.args)),))
        a_off, b_off = rng.randint(0, 4), rng.randint(0, 4)
        shifted_a = rename_apart(Clause(a), a_off).head
        shifted_b = rename_apart(Clause(b), b_off).head
        ra, rb = _resolved_by_fixpoint(plain, shifted_a), _resolved_by_fixpoint(plain, shifted_b)
        for t in shifted_a.args:
            assert rename(t, bound=store.get) == _resolved_by_fixpoint(plain, t)
        expected = mgu(ra, rb)
        trail = [0]  # an earlier entry, which unify must leave alone
        ok = unify(a, a_off, b, b_off, store, trail)
        assert ok == (expected is not None)
        assert trail[0] == 0
        if ok:
            unified += 1
            assert all(type(store[k]) is tuple and len(store[k]) == 2 for k in trail[1:])
            new = Substitution({k: rename(Var(k), bound=store.get) for k in trail[1:]})
            assert new == expected
        while len(trail) > 1:
            del store[trail.pop()]
        assert store == before
    assert 0 < unified < 400


def test_reading_through_a_store_and_occurs_check_do_not_recurse_on_depth():
    depth = 5000
    # Key i holds s(x1) at offset i, so its x1 is key i + 1.
    chain = {i: (Fn("s", (Var(1),)), i) for i in range(1, depth)}
    chain[depth] = (Fn("0"), 0)
    expected = Fn("0")
    for _ in range(depth - 1):
        expected = Fn("s", (expected,))
    assert rename(Var(1), bound=chain.get) == expected
    deep = Var(1)
    for _ in range(depth):
        deep = Fn("s", (deep,))
    assert mgu(Atom("p", (Var(1),)), Atom("p", (deep,))) is None
    assert mgu(Atom("p", (Var(2),)), Atom("p", (deep,))) == Substitution({2: deep})
    # The same occurs check, with the depth in the store instead of the term.
    del chain[depth]
    trail = []
    assert not unify(Atom("p", (Var(depth),)), 0, Atom("p", (Var(1),)), 0, chain, trail)
    assert trail == []
    assert unify(Atom("p", (Var(1),)), depth, Atom("p", (Var(1),)), 0, chain, trail)
    assert trail == [depth + 1] and chain[depth + 1] == (Fn("s", (Var(1),)), 1)


def test_double_renaming_is_summed_offset(gc):
    c = gc.clauses[1]
    assert rename_apart(rename_apart(c, 3), 4) == rename_apart(c, 7)


def test_arrow_apply_examples():
    conn = parse_atom("connected(X, Y)")[0]
    merge = ArrowSubstitution(1, 2, (Var(1), Var(1)))
    assert arrow_apply(merge, conn) == parse_atom("connected(X, X)")[0]
    zero = ArrowSubstitution(0, 1, (Fn("0"),))
    assert arrow_apply(zero, parse_atom("nat(X)")[0]) == parse_atom("nat(0)")[0]
    ident = ArrowSubstitution.identity(2)
    assert arrow_apply(ident, conn) == conn


def test_arrow_validation():
    with pytest.raises(ValueError):
        ArrowSubstitution(1, 2, (Var(1),))
    with pytest.raises(ArityMismatchError):
        ArrowSubstitution(1, 1, (Var(2),))
    with pytest.raises(ArityMismatchError):
        arrow_apply(ArrowSubstitution(0, 1, (Fn("0"),)), parse_atom("p(X, Y)")[0])
    with pytest.raises(ArityMismatchError,
                       match="arrow 'arrow composition' used with arity 1 and arity 2"):
        compose_arrows(ArrowSubstitution.identity(1), ArrowSubstitution.identity(2))


def test_arrow_injection_flag():
    assert is_var_injection(ArrowSubstitution(3, 2, (Var(1), Var(3))).terms)
    assert not is_var_injection(ArrowSubstitution(1, 2, (Var(1), Var(1))).terms)
    assert not is_var_injection(ArrowSubstitution(1, 1, (Fn("a"),)).terms)


def test_substitution_formatting():
    assert str(Substitution()) == "{}"
    s = Substitution({1: Fn("0"), 2: Fn("nil")})
    assert str(s) == "{X1 -> 0, X2 -> nil}"


def test_property_batteries_small():
    rng = random.Random(17)
    pool = ground_term_pool(2)
    for _ in range(200):
        check_apply_compose_case(rng)
        check_arrow_case(rng)
    for i in range(120):
        check_mgu_case(rng, enumerate_pool=pool if i % 4 == 0 else None)


def _atoms(*texts):
    return tuple(parse_atom(t)[0] for t in texts)


def test_unify_does_linear_work_in_term_size():
    """p(x1, ..., xn) against p(f(y1), ..., f(yn)) binds n variables, each
    after an occurs check; nat(s^n(x1)) against nat(s^n(0)) walks n levels
    to bind one. Both make calls into C in proportion to n."""
    def nest(n, leaf):
        for _ in range(n):
            leaf = Fn("s", (leaf,))
        return leaf

    shapes = {
        "wide": lambda n: (Atom("p", tuple(Var(i) for i in range(1, n + 1))),
                           Atom("p", tuple(Fn("f", (Var(i),)) for i in range(1, n + 1)))),
        "deep": lambda n: (Atom("nat", (nest(n, Var(1)),)), Atom("nat", (nest(n, Fn("0")),))),
    }
    for shape, pair in shapes.items():
        def work(n):
            a, b = pair(n)
            unified = []
            count = c_calls(lambda: unified.append(unify(a, 0, b, n, {}, [])))
            assert unified == [True]
            return count
        assert_linear_work(work, label=shape)
