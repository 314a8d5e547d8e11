"""Command line behaviour: outputs and the exit-code contract."""

from __future__ import annotations

import hashlib
import json
import pathlib

from matchlog import coalgebra, cotree, engine_sld, engine_tm, syntax
from matchlog.cli import main
from matchlog.coalgebra import PffElement
from matchlog.syntax import Fn, term_vars

from helpers import assert_linear_work, c_calls

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
    assert run(capsys, "check", PROGRAMS / "bad.lp", "--what", "bridge", "--max-steps", "64") == (
        0, "BRIDGE OK  goal=bad(X1)  (no answers)\n", "")


def test_check_ground_oracle(capsys):
    code, out, _ = run(capsys, "check", PROGRAMS / "ex33.lp", "--what", "ground-oracle",
                       "--levels", "4")
    assert code == 0
    assert out.count("GROUND OK") == 4
    assert run(capsys, "check", PROGRAMS / "gc.lp", "--what", "ground-oracle") == (
        65, "", "matchlog: ground-oracle requires a variable-free program: "
                "clause 0 contains variables; the program is not ground\n")


def test_ground_oracle_catches_a_misread_map(capsys, monkeypatch):
    # The trees come from the program as loaded, not from the map under
    # test, so a map that loses one of a's two bodies fails at a, and at d,
    # whose tree reaches a.
    real = coalgebra.ground_coalgebra
    monkeypatch.setattr(coalgebra, "ground_coalgebra", lambda program: coalgebra.GroundCoalgebra(
        tuple((atom, frozenset(list(bodies)[1:]) if len(bodies) == 2 else bodies)
              for atom, bodies in real(program).entries)))
    assert run(capsys, "check", PROGRAMS / "ex33.lp", "--what", "ground-oracle") == (1, "".join(
        f"GROUND {'FAIL' if a in 'ad' else 'OK'}  A={a}  levels=0..4 "
        f"match={a not in 'ad'}  lfp_agrees=True\n" for a in "abcd"), "")


def test_ground_oracle_reads_the_program_as_written(capsys, tmp_path):
    # Out of order, a clause repeated, one body written in two orders: a's
    # tree has four or-children where the map has two bodies, and the
    # unfoldings still carry exactly the trees' information.
    text = "d :- a, c.\na :- b, d.\na :- c, b.\na :- b, c.\nb.\na :- b, c.\n"
    program = tmp_path / "written.lp"
    program.write_text(text)
    parsed = syntax.parse_program(text)
    a = syntax.Atom("a")
    assert len(cotree.build_tree(parsed, a, 0, 1).root.children) == 4
    assert len(coalgebra.ground_coalgebra(parsed).body_sets(a)) == 2
    assert run(capsys, "check", program, "--what", "ground-oracle") == (0, "".join(
        f"GROUND OK  A={x}  levels=0..4 match=True  lfp_agrees=True\n" for x in "abcd"), "")


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


def test_ground_oracle_does_linear_work_on_a_chain(capsys, tmp_path):
    # Every atom's tm_status reads and extends the program's one verdict
    # table, so r(nk) is proved from the stored verdict of r(nk-1) instead
    # of by a search down the whole chain: n atoms cost n steps, not n²/2.
    def work(n: int) -> int:
        program = tmp_path / f"chain{n}.lp"
        program.write_text("r(n0).\n" + "".join(f"r(n{k}) :- r(n{k - 1}).\n"
                                                 for k in range(1, n)))
        codes = []
        count = c_calls(lambda: codes.append(
            main(["check", str(program), "--what", "ground-oracle"])))
        out = capsys.readouterr().out
        assert codes == [0] and out.count("GROUND OK  ") == n == len(out.splitlines())
        return count

    assert_linear_work(work)


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
    # second witness record fails, after the counts and the first witness.
    real_step, real_record = coalgebra.pff_step, coalgebra.LaxSquare.to_record

    def lossy_step(program, atom, base):
        element = real_step(program, atom, base)
        return PffElement.canonical(base, []) if 1 in term_vars(atom.args[0]) else element
    monkeypatch.setattr(coalgebra, "pff_step", lossy_step)
    for what in ("lax", "inj"):
        for fmt in ("ascii", "json"):
            monkeypatch.setattr(coalgebra.LaxSquare, "to_record", failing_call(real_record, 2))
            code, out, err = run(capsys, "check", PROGRAMS / "gc.lp", "--what", what,
                                 "--format", fmt)
            assert (code, out, err) == (65, "", "matchlog: the prover fails\n"), (what, fmt)


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


# sha256 of the JSON array [exit code, stdout, stderr] of `check <program>.lp`
# under each "what arity format" row, taken before the text was rendered from
# the JSON document. Arity "-" runs a lax/inj sweep at its defaults with
# --max-report 3, and other rows with --arity and --max-report 100000.
_PINNED_CHECKS = {
    "bad": {
        "lax 0 ascii": "9fbd2afb42587975a424aba685f6c19ec24e657ad72bde8e87bbd38196551727",
        "lax 0 json": "9fbd2afb42587975a424aba685f6c19ec24e657ad72bde8e87bbd38196551727",
        "lax 1 ascii": "c4070bcbf650315b751babfb678c6ac90df3b5722325e7d475e78e5b84fbe11d",
        "lax 1 json": "e443d47e7324917c70f2a38afb55234483dacac7ffaa261d200bb5b11425eca0",
        "lax 2 ascii": "8609cb2864ddad5fcd75faeab9d09309bc16966c512cc771fe65acc4d6585aab",
        "lax 2 json": "0e7aec441fdb1761bad04773d62729466b313539bff48d5f4b32f31d954401d9",
        "lax 3 ascii": "22b656cc55cf0499beb24140e305b9363784abf9475c5c0978eb643a7a62004c",
        "lax 3 json": "5c4edeb7c71ce7f46927231548f563daf48d5ff7516610cce852565c9815d807",
        "lax - ascii": "22b656cc55cf0499beb24140e305b9363784abf9475c5c0978eb643a7a62004c",
        "lax - json": "5c4edeb7c71ce7f46927231548f563daf48d5ff7516610cce852565c9815d807",
        "inj 0 ascii": "9fbd2afb42587975a424aba685f6c19ec24e657ad72bde8e87bbd38196551727",
        "inj 0 json": "9fbd2afb42587975a424aba685f6c19ec24e657ad72bde8e87bbd38196551727",
        "inj 1 ascii": "c3430fe58f776c9de1e90e55824408be6bd91865e46970d7ae5f3980343838a3",
        "inj 1 json": "61f1b3baaadf191700531c359b00371dcc70bebb031e865b3fa0beacb84c7c1d",
        "inj 2 ascii": "bf5eadb94b8f28a265d09026cabc7c59fd9e0b1d0e805b1b1885ffa7e214739b",
        "inj 2 json": "0592c1e188ae576b51e328821d05c795564d34360a5dbd5b66de33a0910ffd7b",
        "inj 3 ascii": "ac12ea6ea20c73389bddb47eaf40fb3b6b3540119f18b6c9d020af1c145ac9e2",
        "inj 3 json": "321f4d0e33cb6934175b6d95cd69c623f98f60df2c13e4ef610d38b026ee814c",
        "inj - ascii": "ac12ea6ea20c73389bddb47eaf40fb3b6b3540119f18b6c9d020af1c145ac9e2",
        "inj - json": "321f4d0e33cb6934175b6d95cd69c623f98f60df2c13e4ef610d38b026ee814c",
        "bridge - ascii": "3487e148d75995c9c8391d0c99320c75fa67b3dd2fa21f2e084b7d2a5208bfbf",
        "bridge - json": "1a4426c3b673b0d15d0bbec988dd3dc007945e79adc8c9f2eac44509185268f5",
        "ground-oracle - ascii": "95026c9e2df99909a4097fabb36a91005b225898786fff87157919376d511fab",
        "ground-oracle - json": "95026c9e2df99909a4097fabb36a91005b225898786fff87157919376d511fab",
    },
    "ex33": {
        "lax 0 ascii": "0666cd748eb7d6a9815652765eb6ddad10d77507ed828930d8cbdf2bbb69ecad",
        "lax 0 json": "146e0ea4810edef3ea239b1c1aaec45eaca286b1d8fd71b3c145aaeaab224055",
        "lax 1 ascii": "5e298b3bb202b28f1ae2bf876b971ad4f0f45060e071d087aa1cc52775e6d9b8",
        "lax 1 json": "4f43670792ea80f8d717577273cb5cbf9b93300d349c163eb08e8ac0b7382c65",
        "lax 2 ascii": "791c55d0cf4012d9dae829359bd0c50ea8235c201e6c639ffb2c2b9d2a4fa2d0",
        "lax 2 json": "caba7488d8a6885c0a4bf264c879f258c0375ba66a6eb3676eed1f39f88da238",
        "lax 3 ascii": "fc3aabb8a8c778c0c06a0b2119b0ec9e4d1b3021862d6d7194e71b1b01d67884",
        "lax 3 json": "033a1f511e88f8262eb75cef00d5882f1e207252189da4dcc9a6ab2e55629f38",
        "lax - ascii": "fc3aabb8a8c778c0c06a0b2119b0ec9e4d1b3021862d6d7194e71b1b01d67884",
        "lax - json": "033a1f511e88f8262eb75cef00d5882f1e207252189da4dcc9a6ab2e55629f38",
        "inj 0 ascii": "d1f5737ba1d97cbef23cd9f8307e3cd253478c99b5f714b8425d087aade58f1a",
        "inj 0 json": "4753a3deeb66ccc4c9e1025a658bd8a82be2476fa9e3c09e3b47498ef2a5de96",
        "inj 1 ascii": "944d396c5a6c4d2ac2e5e45d1c4808ca155a18e6a1cad6802a3ee365f66d5216",
        "inj 1 json": "2059060c92f7de623f9928ca93236c2ba8560ff25958fe8ea230d2d22fec275d",
        "inj 2 ascii": "1e7df19a2d6b238d0def129b799de15caf35c6d6fe3737a3819776d49ba8076e",
        "inj 2 json": "8e59b6dbea0144afd402658fbce2685ae097b9bc6911409849470d1aab2abdc8",
        "inj 3 ascii": "2a7e95f1943588f708a78edd286b7dfbd40b98470fc3ba65dc8638f1528af848",
        "inj 3 json": "415c721dab8e140d6edb80e1a2f7a2f252d0fc2509ad9273ae4c2f6f69532eae",
        "inj - ascii": "2a7e95f1943588f708a78edd286b7dfbd40b98470fc3ba65dc8638f1528af848",
        "inj - json": "415c721dab8e140d6edb80e1a2f7a2f252d0fc2509ad9273ae4c2f6f69532eae",
        "bridge - ascii": "66649c1e98dd7bc118d4eae29fecdb01ece8879220a7819bb35d5d27629ff808",
        "bridge - json": "1d76a13594daff4332c39ebf7ed630ff5c6a80a076d6cb8f9a629bb0ca36ada5",
        "ground-oracle - ascii": "5f11893a8986448b48804b5fbb0723a97c9eea62e51a9c0617f03aa8a4df2dde",
        "ground-oracle - json": "830089487a0ad941ff4a14c900db764a9c3235aa74392575eb7f53276ff241c3",
    },
    "gc": {
        "lax 0 ascii": "9fbd2afb42587975a424aba685f6c19ec24e657ad72bde8e87bbd38196551727",
        "lax 0 json": "9fbd2afb42587975a424aba685f6c19ec24e657ad72bde8e87bbd38196551727",
        "lax 1 ascii": "c4070bcbf650315b751babfb678c6ac90df3b5722325e7d475e78e5b84fbe11d",
        "lax 1 json": "e443d47e7324917c70f2a38afb55234483dacac7ffaa261d200bb5b11425eca0",
        "lax 2 ascii": "620b89b99adff795451105c8581b556ff1c4cd18e051e96738284a0dade134dd",
        "lax 2 json": "a5c7cc2bc483b4bd3b5de6fa367227103219817093ee2d9c54842e0d4f4fbeef",
        "lax 3 ascii": "5fdac350e20e1b9def5615e20e07d222ad0279b829be9306d52d3e21b1eea0fa",
        "lax 3 json": "3cd54857cd9b6167fc9f366e2a304fa8c2eccea1dc5cf0b338c289d197c0c6d3",
        "lax - ascii": "d2ea4b9813887e8260ed8883d2a8df97f6a9a392c9a826df6cfedb5b5259aeb5",
        "lax - json": "321b8c985163a8fd1ddf9e3be90f8cbdd3ab3d63e235f99651075aeaa7243f5d",
        "inj 0 ascii": "9fbd2afb42587975a424aba685f6c19ec24e657ad72bde8e87bbd38196551727",
        "inj 0 json": "9fbd2afb42587975a424aba685f6c19ec24e657ad72bde8e87bbd38196551727",
        "inj 1 ascii": "c3430fe58f776c9de1e90e55824408be6bd91865e46970d7ae5f3980343838a3",
        "inj 1 json": "61f1b3baaadf191700531c359b00371dcc70bebb031e865b3fa0beacb84c7c1d",
        "inj 2 ascii": "186de7940591c0f68436cfad8f6f82ddf2c72d83187fca707754fd846ca5d5cb",
        "inj 2 json": "ccc6c85ea24a50df1342916986fa5a9f4d146be1abb6ce371b4881d4ce79da33",
        "inj 3 ascii": "8038fe5e3e8449776cda3feb2e51efafb116fb2e0d1f9a5be7195c3159f1db62",
        "inj 3 json": "43bc952951c4fdd0e91b1854b5a1d0311b93a4b6ad77469678d4bf928fe6a68d",
        "inj - ascii": "8038fe5e3e8449776cda3feb2e51efafb116fb2e0d1f9a5be7195c3159f1db62",
        "inj - json": "43bc952951c4fdd0e91b1854b5a1d0311b93a4b6ad77469678d4bf928fe6a68d",
        "bridge - ascii": "63a5cca4db44255e242f97fbe66062998131d71503feaebd9570fbc38a0f2df0",
        "bridge - json": "99658976e1bf2e890b48c33972e6f8e34b074c935844ecc296230d946e4f3635",
        "ground-oracle - ascii": "95026c9e2df99909a4097fabb36a91005b225898786fff87157919376d511fab",
        "ground-oracle - json": "95026c9e2df99909a4097fabb36a91005b225898786fff87157919376d511fab",
    },
    "listnat": {
        "lax 0 ascii": "30e6c5f9a8140b1fbf4e0f89065aa887b94c22f173a18a00f13dabab00bbfdd7",
        "lax 0 json": "526d21181a527d4fe60821bb910076dd16efc231602e09574258e9b57aa166e3",
        "lax 1 ascii": "1ff7075a2a435e213642cd48ad4eef19a6a67effa4af6c1a708f3e47dc1ed797",
        "lax 1 json": "146f4ea96fbd6dc81713c30a1dd3643bbde4071b81622564e8f3bfa588be594a",
        "lax 2 ascii": "6a53801c21b3c9bb5f4f5cc534be866e0aab74fe8e8b8b213773e0691814c9e9",
        "lax 2 json": "bcd6840170a415a00d4ddc5e6caff31c04e0a425edd49d3f7a041a1c36709c08",
        "lax 3 ascii": "02f67431152c66219c8a060cab30a61b6fcd513803a4c5f782ce65ca23e983dc",
        "lax 3 json": "5ccfd999d0d4ad95db882eeb237e47d823bafcf313201bf8bea22608ffd06901",
        "lax - ascii": "1cdbdca16c9ab8449a2364d4206f047e0cf12e7f2a7b2fe7e367ddea4556cd23",
        "lax - json": "5eb1ba902f11047731ab26e49fe7a288ddee57057fbe40e0a18021a43e9487ca",
        "inj 0 ascii": "a54a20f5b59ae7bb108ad1cef5da30aecfbbbb1baf1cc194cc83393ea2c67202",
        "inj 0 json": "54d0ab23512418205294cb689629dd2bbb2dd97cd8e92b47ffbf8644fa14d73f",
        "inj 1 ascii": "7fffe99b4d4ccbf2f17314249eed4de4d9e159a7be12b72dfe4b41252396af8b",
        "inj 1 json": "a4a069af9c4e7b6e2a1d733046af02faf3cf69a73ef86a6edecc433a0052192f",
        "inj 2 ascii": "5dee74dffed5850c8ee431230cce4cd6e45f27c39cf74847fa9e59d82b7250e6",
        "inj 2 json": "8670b5f98999a8390b86771c7f23851028388f723055d8f54e806df31cae72b6",
        "inj 3 ascii": "8023684ae01d49c2b3027f4d94b040a454f075c72b7335ed3625ccc20cb2940f",
        "inj 3 json": "6fb164ef60738c9ab22c4537e85cbc6222cbd070e87a68fc3f5f974fb9d20fa1",
        "inj - ascii": "8023684ae01d49c2b3027f4d94b040a454f075c72b7335ed3625ccc20cb2940f",
        "inj - json": "6fb164ef60738c9ab22c4537e85cbc6222cbd070e87a68fc3f5f974fb9d20fa1",
        "bridge - ascii": "8053cf330a58007a6c17af3e28fcd151c479dd7cc53fb0d6c6b266cb0e705d36",
        "bridge - json": "f0b5a82861628d8bead85d6c838574c662008e25b13faa8d37fdee430e745b96",
        "ground-oracle - ascii": "00e4c77677c10507536ade310632bb4b68625c54099072128e7dc3fe869059bd",
        "ground-oracle - json": "00e4c77677c10507536ade310632bb4b68625c54099072128e7dc3fe869059bd",
    },
    "listnat_plus": {
        "lax 0 ascii": "30e6c5f9a8140b1fbf4e0f89065aa887b94c22f173a18a00f13dabab00bbfdd7",
        "lax 0 json": "526d21181a527d4fe60821bb910076dd16efc231602e09574258e9b57aa166e3",
        "lax 1 ascii": "2418ae7420050533e934acbbda823ae4043ca953832c5c98ef28d83a01b1bc3c",
        "lax 1 json": "92b7b06d99b5fba720bf12fa34d82fff2aed97589212d02c0681565478ee3d06",
        "lax 2 ascii": "a551ba87b1d2d0ee55f108a7cdfb7dd0564c30caacb6ed050e97087f260df552",
        "lax 2 json": "ba33ecdb291abdb167c8521d2ee461f08374dc9182c3685f8044a12cc2144f3e",
        "lax 3 ascii": "af7292370ca465bb736b494765fad861c575d27a1a1321f3f8620a99cdd148b3",
        "lax 3 json": "9c2ad525c8a1e3aebf0040204548a0543443126709f0667fb6135a1b3ebe54c0",
        "lax - ascii": "1919b9ef6fec12f77d47e1a753f19033f928352563403d3adcb4b7f54bde76e3",
        "lax - json": "820c039b62e03e259d995b3d5853ae234960f4dbdd12e279d96e42bb3a7cc19a",
        "inj 0 ascii": "a54a20f5b59ae7bb108ad1cef5da30aecfbbbb1baf1cc194cc83393ea2c67202",
        "inj 0 json": "54d0ab23512418205294cb689629dd2bbb2dd97cd8e92b47ffbf8644fa14d73f",
        "inj 1 ascii": "add6f49387a02659561aad63a1beb9cb0a0fddf4ce2e763fa6a51ee36cac08c7",
        "inj 1 json": "d4f56256a17c64886549e7879ad87c838d398ef66d009f0a0240a184c3399bba",
        "inj 2 ascii": "c9a5e50cb64b058015501fcdbb5a61886ade010c6c7542bda4f69b3502f1031d",
        "inj 2 json": "94932c89680a696a4b6073241703c7de6672a910e15b57a4dcdf85ea651e6526",
        "inj 3 ascii": "8f793f85fb91bda3788b4fb0fc0076d3e5d791f72df49c9dd3a2d2f0a6a481cf",
        "inj 3 json": "fe113445f94147bb4b60963c704ed260caa6c4311daa19c63542c66b86263f78",
        "inj - ascii": "8f793f85fb91bda3788b4fb0fc0076d3e5d791f72df49c9dd3a2d2f0a6a481cf",
        "inj - json": "fe113445f94147bb4b60963c704ed260caa6c4311daa19c63542c66b86263f78",
        "bridge - ascii": "73ee2d7637f3d2051ed647c5da6f070dc0fcd9f8153fa5b7d2cfe4d4fc267355",
        "bridge - json": "c175af0b680855dcbb5eee4511758528f5e6e302e2c29656ecadd21823e3e453",
        "ground-oracle - ascii": "00e4c77677c10507536ade310632bb4b68625c54099072128e7dc3fe869059bd",
        "ground-oracle - json": "00e4c77677c10507536ade310632bb4b68625c54099072128e7dc3fe869059bd",
    },
}


def test_check_outputs_are_pinned(capsys):
    for program, rows in _PINNED_CHECKS.items():
        for row, digest in rows.items():
            what, arity, fmt = row.split()
            bounds = (() if what in ("bridge", "ground-oracle") else
                      ("--max-report", "3") if arity == "-" else
                      ("--arity", arity, "--max-report", "100000"))
            result = run(capsys, "check", PROGRAMS / f"{program}.lp", "--what", what,
                         *bounds, "--format", fmt)
            assert hashlib.sha256(json.dumps(result).encode()).hexdigest() == digest, (
                program, row, result[0], result[1][:200], result[2])


def test_classify_output(capsys, tmp_path):
    code, out, _ = run(capsys, "classify", PROGRAMS / "gc.lp")
    assert code == 0
    assert out.strip() == "existential: clause 2 of 2 (variable Z)"
    code, out, _ = run(capsys, "classify", PROGRAMS / "listnat.lp")
    assert out.strip() == "non-existential"
    two = tmp_path / "two.lp"
    two.write_text("p(X) :- q(X, Y).\nq(a, b).\nr(X) :- q(X, Y), q(Y, Z), q(Z, W).\n",
                   encoding="utf-8")
    assert run(capsys, "classify", two) == (
        0, "existential: clause 1 of 3 (variable Y)\n"
           "existential: clause 3 of 3 (variables Y, Z, W)\n", "")
    empty = tmp_path / "empty.lp"
    empty.write_text("", encoding="utf-8")
    assert run(capsys, "classify", empty) == (0, "non-existential\n", "")


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

    def too_deep(*args, **kwargs):
        raise RecursionError
    monkeypatch.setattr(cotree, "render", too_deep)
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


def test_solve_keeps_answers_apart_by_shared_residual_variables(capsys, tmp_path):
    # Answers that differ only in how residual variables are shared are both
    # printed; answers equal up to renumbering them print once. A goal
    # variable spelled _G1 renames the first residual variable __G1; the
    # second, _G2, clashes with no goal variable.
    program = tmp_path / "sharing.lp"
    program.write_text("p(f(A, B)).\np(f(A, A)).\np(f(C, D)).\np(f(E, E)).\n"
                       "q(g(A), g(B)).\nq(g(A), g(A)).\nq(g(B), g(C)).\nq(A, g(A)).\n"
                       "q(g(A), A).\n")
    for goal, expected in [("p(X)", ["{X -> f(_G1, _G2)}", "{X -> f(_G1, _G1)}"]),
                           ("p(_G1)", ["{_G1 -> f(__G1, _G2)}", "{_G1 -> f(__G1, __G1)}"]),
                           ("q(_G1, Y)", ["{_G1 -> g(__G1), Y -> g(_G2)}",
                                          "{_G1 -> g(__G1), Y -> g(__G1)}",
                                          "{Y -> g(_G1)}", "{_G1 -> g(Y)}"])]:
        code, out, err = run(capsys, "solve", program, goal, "--max-answers", "10")
        assert (code, out.splitlines(), err) == (0, expected, ""), goal


def test_solve_builds_no_terms_per_answer(capsys, monkeypatch):
    """An answer is printed from a copy of the binding store, so the number
    of terms built (`Fn` constructions that are not atoms) does not grow
    with the number of answers."""
    counts = {}
    for k in (50, 200):
        built = [0]
        init = Fn.__init__

        def counting_init(self, *args, **kwargs):
            built[0] += type(self) is Fn
            init(self, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Fn, "__init__", counting_init)
            code, out, err = run(capsys, "solve", PROGRAMS / "listnat.lp", "nat(X)",
                                 "--max-answers", k)
        assert (code, len(out.splitlines()), err) == (0, k, "")
        assert out.splitlines()[-1] == "{X -> " + "s(" * (k - 1) + "0" + ")" * (k - 1) + "}"
        counts[k] = built[0]
    assert counts[50] == counts[200], counts


def test_answer_read_out_does_linear_work(capsys, tmp_path):
    # len(L, N) on a list of n elements has one answer, N = s^n(0), bound
    # through n stored molecules at n offsets; reading it out walks each
    # once, so the whole solve makes calls into C in proportion to n.
    program = tmp_path / "len.lp"
    program.write_text("len(nil, 0).\nlen(cons(X, L), s(N)) :- len(L, N).\n")

    def work(n: int) -> int:
        goal = "len(" + "cons(0, " * n + "nil" + ")" * n + ", N)"
        codes = []
        count = c_calls(lambda: codes.append(
            main(["solve", str(program), goal, "--strategy", "dfs"])))
        out = capsys.readouterr().out
        assert codes == [0] and out == "{N -> " + "s(" * n + "0" + ")" * n + "}\n"
        return count

    # Sizes from 400 up, so that the parser's fixed calls weigh little.
    assert_linear_work(work, (400, 800, 1600))
