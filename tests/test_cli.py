"""Command line behaviour: outputs and the exit-code contract."""

from __future__ import annotations

import hashlib
import json
import pathlib

from matchlog import coalgebra, cotree, engine_sld, engine_tm
from matchlog.cli import main
from matchlog.coalgebra import PffElement
from matchlog.syntax import term_vars

PROGRAMS = pathlib.Path(__file__).parent / "programs"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_prove_exit_codes(capsys):
    code, out, _ = run(capsys, "prove", PROGRAMS / "listnat.lp", "list(cons(0,nil))",
                       "--depth", "8")
    assert code == 0 and out.startswith("Proved")
    assert "•[3]" in out
    code, out, _ = run(capsys, "prove", PROGRAMS / "listnat.lp", "list(cons(X,Y))",
                       "--depth", "8")
    assert code == 1 and out.strip() == "Failed"
    code, out, _ = run(capsys, "prove", PROGRAMS / "gc.lp", "connected(X,Y)",
                       "--depth", "50")
    assert code == 2 and out.strip() == "Unknown"


def test_prove_prints_the_success_subtree_of_the_tree(capsys, tmp_path):
    path = tmp_path / "four.lp"
    path.write_text("p :- a(Y), b.\nb :- c(Z).\na(X).\nc(X).\n", encoding="utf-8")
    code, proved, _ = run(capsys, "prove", path, "p", "--depth", "4")
    assert code == 0 and proved.startswith("Proved\n")
    _, tree, _ = run(capsys, "tree", path, "p", "--depth", "4")
    assert proved.removeprefix("Proved\n") == tree
    assert "c(X2)" in tree


def test_solve_surface_names(capsys):
    code, out, _ = run(capsys, "solve", PROGRAMS / "gc.lp", "connected(X,Y)",
                       "--max-answers", "1")
    assert code == 0
    assert out.strip() == "{Y -> X}"
    code, out, _ = run(capsys, "solve", PROGRAMS / "listnat.lp", "list(cons(X,Y))",
                       "--max-answers", "1")
    assert out.strip() == "{X -> 0, Y -> nil}"


def test_solve_bound_marker(capsys):
    code, out, _ = run(capsys, "solve", PROGRAMS / "bad.lp", "bad(X)",
                       "--max-steps", "100")
    assert code == 0
    assert out.strip() == "%% bound reached"


def test_tree_formats(capsys):
    code, out, _ = run(capsys, "tree", PROGRAMS / "listnat_plus.lp", "list(cons(0,nil))",
                       "--depth", "3")
    assert code == 0
    assert out.count("•[") == 5
    code, out, _ = run(capsys, "tree", PROGRAMS / "gc.lp", "connected(X,Y)",
                       "--depth", "2", "--format", "dot")
    assert code == 0 and "shape=point" in out
    code, out, _ = run(capsys, "tree", PROGRAMS / "gc.lp", "connected(X,Y)",
                       "--depth", "0", "--format", "json")
    data = json.loads(out)
    assert data["truncated"] is True and data["children"] == []


def test_check_lax(capsys):
    code, out, _ = run(capsys, "check", PROGRAMS / "listnat.lp", "--what", "lax")
    assert code == 0
    assert "LAX OK" in out
    assert "STRICT FAIL  f=(0):0->1  A=nat(X1)" in out
    assert "lhs={} rhs={{}}" in out


def test_check_inj(capsys):
    code, out, _ = run(capsys, "check", PROGRAMS / "gc.lp", "--what", "inj")
    assert code == 0
    assert "STRICT OK" in out


def test_check_lax_at_term_depth_3(capsys):
    # Of the 433,952 classes the sweep steps 612 distinct (atom, restriction)
    # pairs and counts the rest strict; the text is that of the walk over
    # every class.
    code, out, _ = run(capsys, "check", PROGRAMS / "listnat.lp", "--what", "lax",
                       "--arity", "2", "--term-depth", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("checked 1290792 squares (433952 distinct): 0 lax failures, "
                        "0 injection equality failures, 1836 equality failures elsewhere")
    assert len(lines) == 23 and lines[-1] == "LAX OK"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "229f5b83bbe433fd36a345a7ff13fe31bca429b7a2ae77c194c0b89b74eca086")


def test_check_with_nothing_to_check_is_a_data_error(capsys, tmp_path):
    empty = tmp_path / "empty.lp"
    empty.write_text("")
    cases = [(PROGRAMS / program, what, "--arity", "0")
             for program in ("gc.lp", "bad.lp") for what in ("lax", "inj")]
    cases += [(empty, what) for what in ("bridge", "ground-oracle")]
    for program, what, *bounds in cases:
        for fmt in ("ascii", "json"):
            code, out, err = run(capsys, "check", program, "--what", what, *bounds,
                                 "--format", fmt)
            assert code == 65 and out == ""
            assert err.startswith("matchlog: nothing to check: ") and err.count("\n") == 1
    code, out, _ = run(capsys, "check", PROGRAMS / "ex33.lp", "--what", "lax", "--arity", "0")
    assert code == 0 and out.startswith("checked 4 squares") and "LAX OK" in out


def test_check_bridge(capsys):
    code, out, _ = run(capsys, "check", PROGRAMS / "gc.lp", "--what", "bridge",
                       "--max-steps", "200")
    assert code == 0
    assert "BRIDGE OK" in out and "BRIDGE FAIL" not in out


def test_check_ground_oracle(capsys):
    code, out, _ = run(capsys, "check", PROGRAMS / "ex33.lp", "--what", "ground-oracle",
                       "--levels", "4")
    assert code == 0
    assert out.count("GROUND OK") == 4
    assert run(capsys, "check", PROGRAMS / "gc.lp", "--what", "ground-oracle") == (
        65, "", "matchlog: ground-oracle requires a variable-free program: "
                "clause 0 contains variables; the program is not ground\n")


def test_ground_oracle_3000_levels_deep(capsys, tmp_path, monkeypatch):
    # Unfolding and encoding are folds over interned approximants, so the
    # number of levels costs no frames and the comparison ends at the roots.
    # Each atom's levels are read off one tree, in one comparison.
    real_build, builds = coalgebra.build_tree, []
    monkeypatch.setattr(coalgebra, "build_tree",
                        lambda *args: builds.append(args[3]) or real_build(*args))
    program = tmp_path / "cycle.lp"
    program.write_text("p :- q.\nq :- p.\n")
    code, out, err = run(capsys, "check", program, "--what", "ground-oracle", "--levels", "3000")
    assert (code, err) == (0, "")
    assert out.splitlines() == [f"GROUND OK  A={a}  levels=0..3000 match=True  lfp_agrees=True"
                                for a in "pq"]
    assert builds == [3000, 3000]


def test_check_writes_nothing_when_it_fails_midway(capsys, monkeypatch):
    def failing_call(status, k):
        calls = []

        def wrapped(*args, **kwargs):
            calls.append(1)
            if len(calls) == k:
                raise ValueError("the prover fails")
            return status(*args, **kwargs)
        return wrapped

    # The second atom's verdict fails, after the first atom's line is ready.
    monkeypatch.setattr(engine_tm, "tm_status", failing_call(engine_tm.tm_status, 2))
    code, out, err = run(capsys, "check", PROGRAMS / "ex33.lp", "--what", "ground-oracle")
    assert (code, out, err) == (65, "", "matchlog: the prover fails\n")
    # list(X1) has five answers; the first answer to nat(X1) fails.
    monkeypatch.setattr(engine_sld, "tm_status", failing_call(engine_sld.tm_status, 6))
    code, out, err = run(capsys, "check", PROGRAMS / "listnat.lp", "--what", "bridge")
    assert (code, out, err) == (65, "", "matchlog: the prover fails\n")
    # A step that loses every body of an atom whose first argument mentions
    # X1 breaks injective squares, so the inj sweep has witnesses too. The
    # second witness line fails, after the summary and the first witness.
    real_step, real_line = coalgebra.pff_step_unchecked, coalgebra.LaxSquare.line

    def lossy_step(program, atom, base):
        element = real_step(program, atom, base)
        return PffElement.canonical(base, []) if 1 in term_vars(atom.args[0]) else element
    monkeypatch.setattr(coalgebra, "pff_step_unchecked", lossy_step)
    for what in ("lax", "inj"):
        monkeypatch.setattr(coalgebra.LaxSquare, "line", failing_call(real_line, 2))
        code, out, err = run(capsys, "check", PROGRAMS / "gc.lp", "--what", what)
        assert (code, out, err) == (65, "", "matchlog: the prover fails\n"), what


def test_check_json_format(capsys):
    code, out, _ = run(capsys, "check", PROGRAMS / "listnat.lp", "--what", "lax",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True and data["lax_failures"] == 0
    assert data["witnesses"][0]["arrow"] == "(0):0->1"
    assert data["witnesses"][0]["atom"] == "nat(X1)"

    code, out, _ = run(capsys, "check", PROGRAMS / "ex33.lp", "--what", "ground-oracle",
                       "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["ok"] is True and len(data["atoms"]) == 4

    code, out, _ = run(capsys, "check", PROGRAMS / "gc.lp", "--what", "bridge",
                       "--format", "json", "--max-steps", "200")
    data = json.loads(out)
    assert code == 0 and data["ok"] is True
    conn = [g for g in data["goals"] if g["goal"] == "connected(X1, X2)"]
    assert conn and conn[0]["answers"][0]["tm"] == "Proved"


def test_classify_output(capsys):
    code, out, _ = run(capsys, "classify", PROGRAMS / "gc.lp")
    assert code == 0
    assert out.strip() == "existential: clause 2 of 2 (variable Z)"
    code, out, _ = run(capsys, "classify", PROGRAMS / "listnat.lp")
    assert out.strip() == "non-existential"


def test_usage_and_parse_errors(capsys, tmp_path):
    code, _, err = run(capsys, "frobnicate", PROGRAMS / "gc.lp")
    assert code == 64
    code, _, err = run(capsys, "prove", PROGRAMS / "gc.lp")
    assert code == 64
    broken = tmp_path / "broken.lp"
    broken.write_text("p(a.\n")
    code, _, err = run(capsys, "prove", broken, "p(X)")
    assert code == 65 and "1:" in err
    code, _, err = run(capsys, "prove", tmp_path / "missing.lp", "p(X)")
    assert code == 65
    code, _, err = run(capsys, "prove", PROGRAMS / "listnat.lp", "nat(s(X,Y))")
    assert code == 65 and "arity" in err


def test_bad_numeric_bounds_are_usage_errors(capsys):
    listnat = PROGRAMS / "listnat.lp"
    for argv in [
        ("prove", listnat, "nat(0)", "--depth", "0"),
        ("tree", listnat, "nat(0)", "--depth", "-1"),
        ("solve", listnat, "nat(X)", "--max-steps", "0"),
        ("solve", listnat, "nat(X)", "--max-answers", "0"),
        ("check", listnat, "--what", "lax", "--arity", "-1"),
        ("check", PROGRAMS / "ex33.lp", "--what", "ground-oracle", "--levels", "-1"),
        ("check", listnat, "--what", "lax", "--max-report", "-1"),
        ("check", listnat, "--what", "lax", "--term-depth", "0"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 64 and out == "" and "must be at least" in err, argv


def test_deep_terms_exit_cleanly(capsys, monkeypatch):
    deep = "s(" * 300 + "0" + ")" * 300
    argv = ("prove", PROGRAMS / "listnat.lp", f"nat({deep})", "--depth", "302",
            "--format", "json")
    # The JSON writer keeps its own stack, so this proof renders.
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert (out.splitlines()[0], out.splitlines()[-1]) == ("Proved", "}")
    assert out.splitlines()[3] == f'  "atom": "nat({deep})",'

    def too_deep(*args):
        raise RecursionError
    monkeypatch.setattr(cotree, "render_chunks", too_deep)
    assert run(capsys, *argv) == (65, "", "matchlog: input nested too deeply to process\n")
    # Answers are read through the store by an explicit-stack walk and
    # compared without recursion, so enumeration goes on well past this depth.
    code, out, err = run(capsys, "solve", PROGRAMS / "listnat.lp", "nat(X)",
                         "--max-answers", "600")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["{X -> " + "s(" * k + "0" + ")" * k + "}" for k in range(600)]


def test_proofs_1000_steps_deep_are_proved(capsys):
    # The prover's search and proof extraction keep their own stacks.
    deep = "s(" * 1000 + "0" + ")" * 1000
    code, out, err = run(capsys, "prove", PROGRAMS / "listnat.lp", f"nat({deep})",
                         "--depth", "1002")
    assert (code, out.splitlines()[0], err) == (0, "Proved", "")


def test_goals_nested_3000_deep_answer(capsys):
    # Parsing, the arity check and reading an answer keep their own stacks.
    goal = "nat(" + "s(" * 3000 + "0" + ")" * 3000 + ")"
    listnat = PROGRAMS / "listnat.lp"
    code, out, err = run(capsys, "tree", listnat, goal, "--depth", "2")
    assert (code, out.splitlines()[0], err) == (0, goal, "")
    code, out, err = run(capsys, "prove", listnat, goal, "--depth", "3")
    assert (code, out, err) == (2, "Unknown\n", "")
    code, out, err = run(capsys, "solve", listnat, goal)
    assert (code, out, err) == (0, "{}\n", "")


def test_non_ground_answers_nested_600_deep(capsys, tmp_path):
    # An answer is read through the store and renumbered in one
    # explicit-stack walk, so a deep non-ground answer prints.
    program = tmp_path / "up.lp"
    program.write_text("up(X, X).\nup(X, Y) :- up(s(X), Y).\n")
    code, out, err = run(capsys, "solve", program, "up(Z, Y)", "--max-answers", "600",
                         "--strategy", "dfs")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["{Y -> " + "s(" * k + "Z" + ")" * k + "}" for k in range(600)]


def test_terms_nested_300_deep_are_proved(capsys):
    # Hashing a term reads its cached hash instead of recursing, so this depth answers.
    deep = "s(" * 300 + "0" + ")" * 300
    code, out, err = run(capsys, "prove", PROGRAMS / "listnat.lp", f"nat({deep})",
                         "--depth", "400")
    assert (code, out.splitlines()[0], err) == (0, "Proved", "")


def test_terms_nested_340_deep_are_proved(capsys):
    # Printing keeps its own stack, so an atom this deep renders.
    deep = "s(" * 340 + "0" + ")" * 340
    code, out, err = run(capsys, "prove", PROGRAMS / "listnat.lp", f"nat({deep})",
                         "--depth", "342")
    assert (code, out.splitlines()[0], err) == (0, "Proved", "")
    assert out.splitlines()[1] == f"nat({deep})"


def test_terms_nested_900_deep_are_proved(capsys):
    # Proof extraction keeps its own stack, so a proof this deep is printed.
    deep = "s(" * 900 + "0" + ")" * 900
    code, out, err = run(capsys, "prove", PROGRAMS / "listnat.lp", f"nat({deep})",
                         "--depth", "902")
    assert (code, out.splitlines()[0], err) == (0, "Proved", "")


def test_solve_names_residual_variables(capsys, tmp_path):
    program = tmp_path / "residual.lp"
    program.write_text("p(f(Z)).\nq(g(A, B)).\n")
    for goal, expected in [("p(X)", "{X -> f(_G1)}"),
                           ("p(_G1)", "{_G1 -> f(__G1)}"),
                           ("q(X)", "{X -> g(_G1, _G2)}")]:
        code, out, err = run(capsys, "solve", program, goal)
        assert (code, out, err) == (0, expected + "\n", ""), goal
