"""SLD resolution tests: answers, traces, strategies, and the bridge check."""

from __future__ import annotations

import inspect
import random
import sys
import tracemalloc

import pytest

from matchlog import cotree, engine_sld, engine_tm, substitution
from matchlog import (
    Atom,
    Fn,
    SldLimits,
    Status,
    Substitution,
    Var,
    check_bridge,
    parse_atom,
    parse_goal,
    parse_program,
    sld_solve,
    tm_prove,
)

from helpers import (
    assert_linear_work,
    c_calls,
    chain_edges,
    eager_sld,
    edge_program,
    random_fo_program,
    replay_trace,
)


def test_gc_first_answer(gc):
    g, _ = parse_atom("connected(X, Y)")
    result = sld_solve(gc, [g])
    assert len(result.answers) == 1
    ans = result.answers[0]
    assert ans.bindings == Substitution({2: Var(1)})
    assert ans.steps == 1
    assert not result.exhausted


def test_listnat_first_answer(listnat):
    g, _ = parse_atom("list(cons(X, Y))")
    result = sld_solve(listnat, [g])
    assert result.answers[0].bindings == Substitution({1: Fn("0"), 2: Fn("nil")})
    assert not result.exhausted


def test_bad_exhausts(bad):
    g, _ = parse_atom("bad(X)")
    result = sld_solve(bad, [g], SldLimits(max_steps=100))
    assert result.answers == ()
    assert result.exhausted
    result = sld_solve(bad, [g], SldLimits(max_steps=100, strategy="dfs"))
    assert result.answers == () and result.exhausted


def test_empty_goal(listnat):
    result = sld_solve(listnat, [])
    assert len(result.answers) == 1
    assert not result.answers[0].bindings
    assert result.answers[0].steps == 0


def test_limits_validation():
    with pytest.raises(ValueError):
        SldLimits(max_steps=0)
    with pytest.raises(ValueError):
        SldLimits(strategy="bfs")


def test_answers_replay(listnat_plus, gc):
    for program, text, k in ((listnat_plus, "list(X)", 4), (gc, "connected(X, Y)", 2)):
        g, _ = parse_atom(text, program.signature)
        result = sld_solve(program, [g], SldLimits(max_answers=k, max_steps=500))
        assert result.answers
        for ans in result.answers:
            assert replay_trace(program, [g], ans.trace) == ans.bindings


def test_replay_trace_rejects_a_trace_that_does_not_derive_the_goal(listnat):
    goal, _ = parse_atom("nat(0)")
    (ans,) = sld_solve(listnat, [goal]).answers
    assert ans.trace == ((0, 0),)
    for trace, message in ((((0, 0), (0, 0)), "trace continues past an empty goal"),
                           (((2, 0),), "trace step does not unify: clause 2"),
                           ((), "trace ends on a non-empty goal")):
        with pytest.raises(ValueError, match=message):
            replay_trace(listnat, [goal], trace)


def test_duplicate_answers_collapse(listnat_plus):
    # two distinct derivations of the same ground goal yield one empty answer
    g, _ = parse_atom("list(cons(0, nil))")
    result = sld_solve(listnat_plus, [g], SldLimits(max_answers=5, max_steps=100))
    assert len(result.answers) == 1
    assert not result.answers[0].bindings


def test_strategies_find_same_answer_set(listnat, listnat_plus, gc):
    # queries whose full SLD tree is finite, so both strategies enumerate it
    queries = [
        (gc, "connected(X, Y)"),
        (gc, "edge(X, Y)"),
        (listnat, "list(cons(0, nil))"),
        (listnat, "nat(s(s(X)))"),
        (listnat_plus, "list(cons(0, nil))"),
    ]
    for program, text in queries:
        g, _ = parse_atom(text, program.signature)
        found = {}
        for strategy in ("dfs", "iddfs"):
            limits = SldLimits(max_steps=60, max_answers=16, strategy=strategy)
            result = sld_solve(program, [g], limits)
            assert not result.exhausted
            found[strategy] = {a.bindings for a in result.answers}
        assert found["dfs"] == found["iddfs"]


def test_renaming_hygiene(listnat_plus):
    from matchlog import apply, mgu
    from matchlog.substitution import rename_apart
    from matchlog.syntax import term_vars

    g, n = parse_atom("list(cons(X, Y))")
    result = sld_solve(listnat_plus, [g], SldLimits(max_answers=3, max_steps=200))
    for ans in result.answers:
        offsets = [off for _, off in ans.trace]
        assert all(o >= n for o in offsets)
        assert offsets == sorted(offsets)
        # replay step by step: renamed clause variables never collide with
        # variables already present in the resolvent
        resolvent = (g,)
        for idx, offset in ans.trace:
            renamed = rename_apart(listnat_plus.clauses[idx], offset)
            live = {v for a in resolvent for v in term_vars(a)}
            fresh = {v for a in (renamed.head,) + renamed.body for v in term_vars(a)}
            assert not live & fresh
            unifier = mgu(resolvent[0], renamed.head)
            resolvent = apply(unifier, renamed.body + resolvent[1:])
        assert resolvent == ()


def test_conjunction_goal(gc):
    from matchlog import parse_goal
    goal = parse_goal("edge(X, Z), connected(Z, Y)", gc.signature)
    result = sld_solve(gc, goal.atoms, SldLimits(max_steps=50, max_answers=2))
    assert result.answers == ()  # no edge facts exist
    assert not result.exhausted


def test_bridge_reports(listnat, gc, bad):
    g, _ = parse_atom("list(cons(X, Y))")
    report = check_bridge(listnat, g)
    assert len(report.entries) == 1
    entry = report.entries[0]
    assert entry.instance == parse_atom("list(cons(0, nil))")[0]
    assert entry.status is Status.PROVED
    assert report.violations == ()

    g, _ = parse_atom("connected(X, Y)")
    report = check_bridge(gc, g)
    assert report.entries[0].instance == parse_atom("connected(X, X)")[0]
    assert report.entries[0].status is Status.PROVED

    g, _ = parse_atom("bad(X)")
    report = check_bridge(bad, g, SldLimits(max_steps=64))
    assert report.entries == () and report.exhausted


def test_bridge_never_fails_on_random_programs():
    # small step budget: bounded DFS over a branchy looping program is
    # exponential in the budget, and violations would show up early anyway
    rng = random.Random(59)
    for i in range(12):
        program = random_fo_program(rng, existential=bool(i % 2))
        for pred, arity in program.signature.predicate_arities.items():
            g, _ = parse_atom(
                pred + ("(" + ", ".join(f"V{j}" for j in range(arity)) + ")" if arity else ""),
                program.signature)
            report = check_bridge(program, g, SldLimits(max_steps=12, max_answers=3))
            assert report.violations == ()


def test_bridge_runs_the_search_without_proof_extraction(listnat, monkeypatch):
    # Extracting a proof re-matches every proof node; the bridge reads only
    # the verdict, so it makes fewer clause-instance steps than tm_prove. The
    # search steps in engine_tm, the extraction through cotree.or_children.
    calls = [0]
    real_instances = engine_tm.instances

    def counted(*args):
        calls[0] += 1
        return real_instances(*args)

    monkeypatch.setattr(engine_tm, "instances", counted)
    monkeypatch.setattr(cotree, "instances", counted)
    g, _ = parse_atom("list(X)")
    report = check_bridge(listnat, g, SldLimits(max_answers=12))
    bridge_calls, calls[0] = calls[0], 0
    assert report.entries and all(e.status is Status.PROVED for e in report.entries)
    for e in report.entries:
        assert tm_prove(listnat, e.instance, 3 * e.answer.steps).status is e.status
    assert bridge_calls < calls[0]


def test_step_unifies_only_clauses_that_can_fit(monkeypatch):
    program = edge_program(chain_edges(200))
    outcomes = {True: 0, False: 0}
    real_unify = engine_sld.unify

    def counting_unify(*args):
        ok = real_unify(*args)
        outcomes[ok] += 1
        return ok

    monkeypatch.setattr(engine_sld, "unify", counting_unify)
    g, _ = parse_atom("connected(n0, Y)", program.signature)
    result = sld_solve(program, [g], SldLimits(max_answers=201, strategy="dfs"))
    assert len(result.answers) == 201
    assert outcomes[True] >= 201
    assert outcomes[False] <= outcomes[True]


def test_sld_steps_apply_no_substitution(monkeypatch, listnat, gc):
    # Steps bind variables in a store instead of instantiating the resolvent,
    # so solving makes no `apply` call at all.
    counts = {"apply": 0, "unified": 0}
    real_apply, real_unify = engine_sld.apply, engine_sld.unify

    def counting_apply(s, x):
        counts["apply"] += 1
        return real_apply(s, x)

    def counting_unify(*args):
        ok = real_unify(*args)
        counts["unified"] += ok
        return ok

    monkeypatch.setattr(engine_sld, "apply", counting_apply)
    monkeypatch.setattr(engine_sld, "unify", counting_unify)
    for program, text, limits in [
        (listnat, "list(X)", SldLimits(max_answers=20)),
        (listnat, "nat(X), list(cons(X, Y))", SldLimits(max_answers=10, strategy="dfs")),
        (gc, "connected(X, Y)", SldLimits(max_steps=64, max_answers=5)),
    ]:
        goal = parse_goal(text, program.signature)
        before = counts["unified"]
        result = sld_solve(program, goal.atoms, limits)
        assert result.answers
        assert counts["unified"] > before
    assert counts["apply"] == 0


def test_sld_solve_never_renames_a_clause(monkeypatch, listnat, listnat_plus, gc):
    # Clauses are used in place at an offset; no step renames one apart.
    def refuse(*args):
        raise AssertionError("rename_apart called")

    monkeypatch.setattr(substitution, "rename_apart", refuse)
    longest = 0
    for program, text, limits in [
        (listnat, "list(X)", SldLimits(max_answers=20)),
        (listnat_plus, "list(cons(X, Y))", SldLimits(max_answers=3, max_steps=200)),
        (gc, "connected(X, Y)", SldLimits(max_steps=64, max_answers=5, strategy="dfs")),
    ]:
        goal = parse_goal(text, program.signature)
        result = sld_solve(program, goal.atoms, limits)
        assert result.answers
        longest = max([longest] + [a.steps for a in result.answers])
    assert longest > 5


def _conjunction(n):
    """q(a). q(b). p(Y1, ..., Yn) :- q(Y1), ..., q(Yn). and the goal
    p(X1, ..., Xn): every step but the first leaves a choice point."""
    ys = ", ".join(f"Y{i}" for i in range(1, n + 1))
    body = ", ".join(f"q(Y{i})" for i in range(1, n + 1))
    program = parse_program(f"q(a).\nq(b).\np({ys}) :- {body}.\n")
    goal, _ = parse_atom("p(" + ", ".join(f"X{i}" for i in range(1, n + 1)) + ")",
                         program.signature)
    return program, goal


def test_choice_points_share_the_resolvent():
    # Each choice point keeps the resolvent as a shared frame, so the peak
    # grows with the conjunction's length; one resolvent copy per choice
    # point would grow with its square (a ratio near 16 here).
    peaks = []
    for n in (500, 2000):
        program, goal = _conjunction(n)
        tracemalloc.start()
        try:
            result = sld_solve(program, [goal], SldLimits(strategy="dfs"))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(result.answers) == 1 and result.answers[0].steps == n + 1
        assert result.answers[0].bindings == Substitution({i: Fn("a") for i in range(1, n + 1)})
    assert peaks[1] / peaks[0] < 8


def test_a_3000_step_derivation_replays():
    program = parse_program("r(n0).\n" + "".join(f"r(n{k}) :- r(n{k - 1}).\n"
                                                  for k in range(1, 3000)))
    goal, _ = parse_atom("r(n2999)", program.signature)
    for strategy in ("dfs", "iddfs"):
        result = sld_solve(program, [goal], SldLimits(strategy=strategy))
        (answer,) = result.answers
        assert answer.steps == len(answer.trace) == 3000
        assert [idx for idx, _ in answer.trace] == list(range(2999, -1, -1))
        assert replay_trace(program, [goal], answer.trace) == answer.bindings == Substitution()


def test_sld_solve_equals_eager_oracle(listnat, listnat_plus, gc, bad, ex33):
    # The store-and-trail search against the textbook eager step: same
    # answers (bindings, steps, trace) in the same order, same `exhausted`.
    rng = random.Random(4242)
    programs = [listnat, listnat_plus, gc, bad, ex33]
    programs += [random_fo_program(rng, existential=False) for _ in range(12)]
    programs += [random_fo_program(rng, existential=True) for _ in range(12)]
    queries = 0
    for program in programs:
        generic = program.signature.generic_atoms
        goals = [(g,) for g in generic] + ([generic] if len(generic) > 1 else [])
        goals += [(rebound,) for rebound in _first_argument_constants(program)]
        for goal in goals:
            for strategy in ("dfs", "iddfs"):
                # max_steps stays at 10 or below: bounded DFS on these looping
                # programs is exponential in the bound.
                for max_steps, max_answers in ((3, 50), (8, 7), (10, 4)):
                    result = sld_solve(program, goal,
                                       SldLimits(max_steps, max_answers, strategy))
                    expected, exhausted = eager_sld(program, goal, max_steps,
                                                    max_answers, strategy)
                    got = [(a.bindings, a.steps, a.trace) for a in result.answers]
                    assert got == expected, (goal, strategy, max_steps)
                    assert result.exhausted == exhausted, (goal, strategy, max_steps)
                    for ans in result.answers:
                        assert replay_trace(program, goal, ans.trace) == ans.bindings
                    queries += 1
    assert queries > 500


def test_sld_oracles_call_no_function_of_substitution(listnat, listnat_plus, gc):
    # `eager_sld` and `replay_trace` unify with the tests' own Robinson
    # unifier, so a defect in `unify` cannot show on both sides of
    # `test_sld_solve_equals_eager_oracle`. `Substitution` only holds answers.
    codes = {f.__code__ for f in vars(substitution).values()
             if inspect.isfunction(f) and f.__module__ == substitution.__name__}
    called = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            called.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        for program, text in ((listnat, "list(X)"), (listnat_plus, "list(cons(X, Y))"),
                              (gc, "connected(X, Y)")):
            goal = tuple(parse_goal(text, program.signature).atoms)
            answers, _ = eager_sld(program, goal, 8, 5, "iddfs")
            assert answers
            for bindings, _, trace in answers:
                assert replay_trace(program, goal, trace) == bindings
        assert not called, sorted(set(called))
        substitution.mgu(*parse_goal("p(X), p(a)").atoms)  # the profile sees a call
    finally:
        sys.setprofile(None)
    assert called[0] == "mgu"


def _first_argument_constants(program):
    """One generic atom per predicate with its first argument set to each
    constant of the program, so the clause index sees bound first arguments."""
    for g in program.signature.generic_atoms:
        if g.args:
            for c in program.signature.constants:
                yield Atom(g.name, (Fn(c),) + g.args[1:])


def test_dfs_on_a_ground_chain_does_linear_work():
    """r(n{k-1}) is the one candidate for the body of r(nk), so proving
    r(n{n-1}) under r(n0). r(nk) :- r(n{k-1}). takes n steps, and makes calls
    into C in proportion to n, the first-argument index built included."""
    def work(n):
        program = parse_program("r(n0).\n" + "".join(f"r(n{k}) :- r(n{k - 1}).\n"
                                                     for k in range(1, n)))
        goal = Atom("r", (Fn(f"n{n - 1}"),))
        results = []
        count = c_calls(lambda: results.append(
            sld_solve(program, [goal], SldLimits(strategy="dfs"))))
        assert [a.steps for a in results[0].answers] == [n]
        return count

    assert_linear_work(work)


def test_answer_text_is_the_text_of_the_bindings_read_once(listnat, listnat_plus, gc, bad):
    # `answer_text` reads an answer from its store copy without building it;
    # with the default namer it prints what `str` of its bindings prints, so
    # it is a faithful dedup key. The bindings and the trace are read once.
    rng = random.Random(7)
    programs = [listnat, listnat_plus, gc, bad, parse_program(
        "mk(nil).\nmk(cons(A, L)) :- mk(L).\nsh(f(A, B)).\nsh(f(A, A)).\nsh(f(C, D)).\n"
        "q(g(A), g(B)).\nq(A, g(A)).\nq(g(A), A).\nq(h(A, B, A), h(B, C, C)).\n")]
    programs += [random_fo_program(rng, existential=bool(i % 2)) for i in range(16)]
    answers, residual = 0, 0
    for program in programs:
        generic = program.signature.generic_atoms
        for goal in [(g,) for g in generic] + ([generic] if len(generic) > 1 else []):
            n0 = max(g.max_var for g in goal)
            for ans in sld_solve(program, goal, SldLimits(8, 20)).answers:
                assert engine_sld.answer_text(ans.store.get, n0) == ans.text == str(ans.bindings)
                assert ans.bindings is ans.bindings and ans.trace is ans.trace
                answers += 1
                residual += any(t.max_var > n0 for _, t in ans.bindings.items())
    assert answers > 80 and residual > 10, (answers, residual)
