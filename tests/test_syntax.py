"""Parser, printer and classification tests."""

from __future__ import annotations

import random

import pytest

from matchlog import (
    ArityMismatchError,
    Atom,
    Fn,
    ParseError,
    Substitution,
    Var,
    apply,
    classify_program,
    mgm,
    mgu,
    parse_atom,
    parse_goal,
    parse_program,
    print_term,
    rename,
)
from matchlog.substitution import rename_apart
from matchlog.syntax import (
    canonical_clause,
    term_vars,
)

from helpers import (
    assert_linear_work,
    c_calls,
    edge_program,
    subterms,
    flat_store,
    forest_edges,
    highest_var_oracle,
    print_term_oracle,
    program_text,
    random_atom,
    random_fo_program,
    random_ground_program,
    random_store,
    random_term,
    rebuilt,
    rename_oracle,
)


def test_parse_fact():
    p = parse_program("nat(0).")
    assert len(p.clauses) == 1
    c = p.clauses[0]
    assert c.head == Atom("nat", (Fn("0"),))
    assert c.body == ()
    assert c.head_var_count == 0 and c.var_count == 0


def test_parse_rule_with_existential_variable():
    p = parse_program("connected(X,Y) :- edge(X,Z), connected(Z,Y).")
    c = p.clauses[0]
    assert c.head == Atom("connected", (Var(1), Var(2)))
    assert c.body[0] == Atom("edge", (Var(1), Var(3)))
    assert c.body[1] == Atom("connected", (Var(3), Var(2)))
    assert (c.head_var_count, c.var_count) == (2, 3)
    assert c.is_existential
    assert c.var_names == ("X", "Y", "Z")


def test_parse_empty_program():
    assert parse_program("").clauses == ()
    assert parse_program("% only a comment\n").clauses == ()


def test_parse_atom_examples():
    atom, n = parse_atom("list(cons(X, Y))")
    assert atom == Atom("list", (Fn("cons", (Var(1), Var(2))),)) and n == 2
    atom, n = parse_atom("nat(s(0))")
    assert atom == Atom("nat", (Fn("s", (Fn("0"),)),)) and n == 0
    atom, n = parse_atom("p(X, X, Y)")
    assert atom == Atom("p", (Var(1), Var(1), Var(2))) and n == 2


def test_parse_goal_conjunction():
    goal = parse_goal("edge(X, Z), connected(Z, Y)")
    assert len(goal.atoms) == 2
    assert goal.var_count == 3
    assert goal.var_names == ("X", "Z", "Y")
    with pytest.raises(ValueError, match="expected a single-atom goal"):
        goal.atom
    assert parse_goal("edge(X, Z), connected(Z, Y).") == goal


def test_zero_arity_atoms_round_trip():
    p = parse_program("a :- b, c.\n")
    assert p.clauses[0].head == Atom("a")
    assert program_text(p) == "a :- b, c.\n"


def test_classify(listnat, gc):
    assert classify_program(listnat) == ()
    assert classify_program(gc) == (1,)
    assert classify_program(parse_program("")) == ()


def test_classify_matches_variable_containment():
    rng = random.Random(7)
    for _ in range(40):
        p = random_fo_program(rng, existential=rng.random() < 0.5)
        expected = tuple(
            i for i, c in enumerate(p.clauses)
            if not set().union(*[set(term_vars(b)) for b in c.body] or [set()])
                   <= set(term_vars(c.head))
        )
        assert classify_program(p) == expected


def test_print_parse_round_trip(listnat, listnat_plus, gc, bad, ex33):
    for p in (listnat, listnat_plus, gc, bad, ex33):
        assert parse_program(program_text(p)).clauses == p.clauses


def test_print_parse_round_trip_random():
    rng = random.Random(11)
    for _ in range(60):
        p = random_ground_program(rng) if rng.random() < 0.5 else \
            random_fo_program(rng, existential=rng.random() < 0.5)
        assert parse_program(program_text(p)).clauses == p.clauses


def test_canonical_numbering_idempotent(gc):
    for c in gc.clauses:
        again = canonical_clause(c.head, c.body)
        assert (again.head, again.body) == (c.head, c.body)


def test_print_term_prints_atoms_with_canonical_names():
    atom, _ = parse_atom("nat(s(FOO))")
    assert print_term(atom) == "nat(s(X1))"


def test_comments_whitespace_and_wrapping():
    p = parse_program("list(\n  cons(X,\n       Y)) :- % inline\n  nat(X),\n  list(Y).")
    assert len(p.clauses) == 1
    assert p.clauses[0].var_count == 2


def test_integer_constants():
    p = parse_program("succ(42, 43).")
    assert p.clauses[0].head.args == (Fn("42"), Fn("43"))


def test_syntax_error_positions():
    with pytest.raises(ParseError) as err:
        parse_program("nat(0)\nnat(1).")
    assert err.value.line == 2 and err.value.column == 1
    with pytest.raises(ParseError):
        parse_program("nat(0.")
    with pytest.raises(ParseError):
        parse_program("nat(0)) .")


PARSE_ERRORS = [
    (parse_program, "nat(0).\nnat(#).", "unexpected character '#'", 2, 5),
    # A bad character anywhere is reported before any parse error.
    (parse_program, "nat(0 0).\n  é", "unexpected character 'é'", 2, 3),
    (parse_program, "nat(s(0).", "expected ')', found '.'", 1, 9),
    (parse_program, "nat(0)\nnat(1).", "expected '.', found 'nat'", 2, 1),
    (parse_program, "nat(s(0)", "expected ')', found end of input", 1, 9),
    (parse_program, "p(a)) .", "expected '.', found ')'", 1, 5),
    (parse_program, "p :- X.", "expected a predicate name, found 'X'", 1, 6),
    (parse_program, "% c\n  p(a) :-\n\tq(,).", "expected a term, found ','", 3, 4),
    (parse_goal, "nat(", "expected a term, found end of input", 1, 5),
    (parse_goal, "p(a),", "expected a predicate name, found end of input", 1, 6),
    (parse_goal, "X(a)", "expected a predicate name, found 'X'", 1, 1),
    (parse_goal, "p(a) q", "expected end of input, found 'q'", 1, 6),
]


@pytest.mark.parametrize("parse,text,message,line,column", PARSE_ERRORS,
                         ids=[repr(case[1]) for case in PARSE_ERRORS])
def test_parse_error_message_line_and_column(parse, text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"{line}:{column}: {message}"
    assert (err.value.line, err.value.column) == (line, column)


def test_arities_are_noted_innermost_first():
    with pytest.raises(ArityMismatchError) as err:
        parse_program("q(f(f(a, b))).")
    assert (err.value.symbol, err.value.arities) == ("f", (2, 1))


def test_terms_nested_5000_deep_parse():
    depth = 5000
    deep = Var(1)
    for _ in range(depth):
        deep = Fn("s", (deep,))
    text = "s(" * depth + "X" + ")" * depth
    goal = parse_goal(f"nat({text}), nat(0)")
    assert goal.atoms == (Atom("nat", (deep,)), Atom("nat", (Fn("0"),)))
    clause = parse_program(f"nat({text}) :- nat(X).").clauses[0]
    assert clause.head == Atom("nat", (deep,)) and clause.body == (Atom("nat", (Var(1),)),)


def test_arity_mismatch_error_names_both_arities():
    with pytest.raises(ArityMismatchError) as err:
        parse_program("p(a).\np(a, b).")
    assert err.value.symbol == "p"
    assert set(err.value.arities) == {1, 2}
    with pytest.raises(ArityMismatchError):
        parse_program("p(f(a), f(a, b)).")


def test_parse_atom_checks_signature(listnat):
    with pytest.raises(ArityMismatchError):
        parse_atom("nat(s(0, 0))", listnat.signature)


def test_check_atom_reads_the_signature_without_changing_it(listnat):
    signature = listnat.signature
    listnat.check_atom(parse_atom("list(cons(f(0), g(0, nil)))")[0])
    with pytest.raises(ArityMismatchError):
        listnat.check_atom(parse_atom("nat(s(0, 0))")[0])
    # An unknown functor is noted per atom, so two arities in one atom clash.
    with pytest.raises(ArityMismatchError) as err:
        listnat.check_atom(parse_atom("list(cons(f(0), f(0, nil)))")[0])
    assert err.value.symbol == "f" and set(err.value.arities) == {1, 2}
    listnat.check_atom(parse_atom("list(f(0, nil))")[0])
    assert listnat.signature == signature and "f" not in signature.functor_arities


def test_var_names_do_not_affect_equality():
    a = parse_program("p(X) :- q(X).").clauses[0]
    b = parse_program("p(Long) :- q(Long).").clauses[0]
    assert a == b
    assert a.var_names != b.var_names


def test_underscore_variables_are_ordinary():
    c = parse_program("p(_, _Tail) :- q(_).").clauses[0]
    # every occurrence of the same spelling is the same variable
    assert c.head.args == (Var(1), Var(2))
    assert c.body[0].args == (Var(1),)
    assert c.var_names == ("_", "_Tail")


def test_name_shared_between_predicate_and_functor_roles():
    p = parse_program("f(f(a)).\nf(f(f(a))).")
    assert p.signature.predicate_arities["f"] == 1
    assert p.signature.functor_arities["f"] == 1
    assert parse_program(program_text(p)).clauses == p.clauses


def _random_signature_atom(rng, program, pred, arity):
    """An atom over the program's signature, with variables and with functors
    that head no clause (`nohead`, `nohead1/1`) mixed in."""
    functors = list(program.signature.functors) + [("nohead", 0), ("nohead1", 1)]

    def term(depth):
        if rng.random() < 0.3:
            return Var(rng.randint(1, 3))
        name, n = rng.choice(functors if depth > 1 else
                             [f for f in functors if f[1] == 0])
        return Fn(name, tuple(term(depth - 1) for _ in range(n)))

    return Atom(pred, tuple(term(3) for _ in range(arity)))


def test_candidates_cover_every_matching_and_unifying_clause(
        listnat, listnat_plus, gc, bad, ex33):
    rng = random.Random(3)
    programs = [listnat, listnat_plus, gc, bad, ex33]
    programs += [random_fo_program(random.Random(seed), seed % 2 == 0) for seed in range(24)]
    programs.append(edge_program(forest_edges(random.Random(7), 60)))
    for program in programs:
        preds = list(program.signature.predicates) + [("nopred", 1)]
        for _ in range(40):
            a = _random_signature_atom(rng, program, *rng.choice(preds))
            first = a.args[0] if a.args else None
            got = program.candidates(a.name, first)
            assert all(i < j for i, j in zip(got, got[1:]))
            assert all(program.clauses[i].head.name == a.name for i in got)
            matching = program.candidates(a.name, first, matching=True)
            assert all(i < j for i, j in zip(matching, matching[1:]))
            assert set(matching) <= set(got)
            if a.args and isinstance(a.args[0], Var):
                assert not any(isinstance(program.clauses[i].head.args[0], Fn)
                               for i in matching)
            for i, clause in enumerate(program.clauses):
                if mgm(clause.head, a) is not None:
                    assert i in matching, (print_term(a), i)
                if mgu(a, rename_apart(clause, a.max_var).head) is not None:
                    assert i in got, (print_term(a), i)


# ---------------------------------------------------------------------------
# Term representation
# ---------------------------------------------------------------------------

def _random_terms_and_atoms(seed, count=300):
    rng = random.Random(seed)
    for _ in range(count):
        nvars = rng.randint(0, 4)
        depth = rng.randint(1, 5)
        yield random_term(rng, nvars, depth)
        yield random_atom(rng, nvars, depth)


def test_cached_max_var_matches_a_recursive_oracle():
    for x in _random_terms_and_atoms(11):
        assert x.max_var == highest_var_oracle(x), repr(x)
    deep = Fn("0")
    for _ in range(5000):
        deep = Fn("s", (deep,))
    assert Atom("nat", (Fn("f", (deep, Var(7))),)).max_var == 7


def test_equal_terms_built_independently_are_equal_with_equal_hashes():
    draws = list(_random_terms_and_atoms(12))
    for x in draws:
        copy = rebuilt(x)
        assert copy == x and not copy != x
        assert hash(copy) == hash(x)
    # Unequal terms compare unequal: printing is an independent structural key.
    terms = [x for x in draws if not isinstance(x, Atom)]
    for a, b in zip(terms, terms[1:]):
        assert (a == b) == (print_term(a) == print_term(b))
    assert Var(1) != Fn("a") and Fn("p") != Atom("p") and Var(2) != 2


def test_terms_are_immutable():
    for x in (Var(3), Fn("f", (Var(1), Fn("a"))), Atom("p", (Fn("a"),))):
        for name in ("index", "name", "args", "max_var", "_hash", "other"):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)
    with pytest.raises(ValueError):
        Var(0)


def test_ground_input_is_returned_unchanged():
    rng = random.Random(13)
    fail = Substitution({1: Fn("b")})
    for _ in range(200):
        t = random_term(rng, 0, rng.randint(1, 5))
        a = random_atom(rng, 0, rng.randint(1, 4))
        assert rename(t, lambda v: Fn("b")) is t
        assert rename(a, lambda v: Fn("b")) is a
        assert apply(fail, t) is t and apply(fail, a) is a
        assert all(x is y for x, y in zip(apply(fail, (a, a)), (a, a)))


def _first_occurrence():
    """A stateful var_fn numbering variables 100, 101, ... as first met."""
    seen: dict[int, Var] = {}
    return lambda v: seen.setdefault(v.index, Var(100 + len(seen)))


def test_rename_matches_a_recursive_oracle():
    rng = random.Random(15)
    for _ in range(400):
        store = random_store(rng, 6)
        t = random_term(rng, 6, rng.randint(1, 5))
        a = random_atom(rng, 6, rng.randint(1, 4))
        for x in (t, a):
            assert rename(x) is x and rename(x, bound={}.get) is x
            assert rename(x, _first_occurrence()) == rename_oracle(x, _first_occurrence())
            assert rename(x, bound=store.get) == rename_oracle(x, store=flat_store(store))
            assert (rename(x, _first_occurrence(), store.get)
                    == rename_oracle(x, _first_occurrence(), flat_store(store)))


def test_rename_does_not_recurse_on_depth():
    depth = 5000
    deep, image = Var(1), Fn("0")
    for _ in range(depth):
        deep, image = Fn("s", (deep,)), Fn("s", (image,))
    assert rename(deep, lambda v: Fn("0")) == image
    assert rename(deep, bound={1: (Fn("0"), 0)}.get) == image
    # The same term as a binding at offset 1, so its x1 is key 2.
    assert rename(Var(1), bound={1: (deep, 1), 2: (Fn("0"), 0)}.get) == image
    assert rename(Atom("nat", (deep,)), lambda v: Fn("0")) == Atom("nat", (image,))


def test_print_term_matches_a_recursive_oracle():
    def custom(index):
        return f"V{index}_"

    for x in _random_terms_and_atoms(14):
        assert print_term(x) == print_term_oracle(x), repr(x)
        assert print_term(x, custom) == print_term_oracle(x, custom), repr(x)
    deep = Var(1)
    for _ in range(5000):
        deep = Fn("s", (deep,))
    assert print_term(deep) == "s(" * 5000 + "X1" + ")" * 5000
    assert print_term(deep, custom) == "s(" * 5000 + "V1_" + ")" * 5000


def test_print_term_memo_stores_wanted_texts_and_reuses_known_ones():
    rng = random.Random(16)
    for x in _random_terms_and_atoms(15):
        compound = sorted((s for s in subterms(x) if type(s) is Fn and s.args), key=repr)
        wanted = dict.fromkeys(rng.sample(compound, rng.randint(0, len(compound))))
        assert print_term(x, texts=wanted) == print_term_oracle(x), repr(x)
        assert wanted == {s: print_term_oracle(s) for s in wanted}, repr(x)
    fa = Fn("f", (Fn("a"),))
    g = Fn("g", (Fn("f", (Fn("a"),)), Var(1)))
    texts = {fa: "F", g: None}
    assert print_term(Atom("p", (fa, g)), texts=texts) == "p(F, g(F, X1))"
    assert texts == {fa: "F", g: "g(F, X1)"}
    # One deep term: only the wanted texts are kept, each printed once.
    deep = [Fn("0")]
    for _ in range(100_000):
        deep.append(Fn("s", (deep[-1],)))
    texts = dict.fromkeys((deep[-1], deep[-2]))
    assert print_term(Atom("nat", (deep[-1],)), texts=texts) == "nat(" + "s(" * 100_000 + "0" + ")" * 100_001
    assert list(texts) == [deep[-1], deep[-2]] and texts[deep[-2]] == texts[deep[-1]][2:-1]


def test_equality_of_deep_terms_does_not_recurse():
    def chain(bottom, depth=5000):
        for _ in range(depth):
            bottom = Fn("s", (bottom,))
        return Atom("nat", (Fn("g", (bottom, bottom)),))

    assert chain(Fn("0")) == chain(Fn("0"))
    assert chain(Var(1)) != chain(Var(2))
    assert chain(Fn("0")) != chain(Var(1))


def test_parse_program_does_linear_work_in_input_bytes():
    """Parsing n copies of a clause, or one atom nested n deep, makes calls
    into C in proportion to the input's bytes."""
    shapes = {"wide": lambda n: "p(s(X), Y) :- q(X, f(Y)).\n" * n,
              "deep": lambda n: "p(" + "s(" * n + "0" + ")" * n + ").\n"}
    for shape, source in shapes.items():
        assert_linear_work(lambda n: c_calls(lambda: parse_program(source(n))), label=shape)
