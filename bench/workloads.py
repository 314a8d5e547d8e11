"""Seeded op generators for the three benchmark workloads.

An op is one `matchlog` command line plus the exit code and output the
benchmark expects, computed by `oracle` without importing matchlog. Ladder
sizes are fixed per workload; the seed varies the instances (elements,
depth slack, forest shape, names in the random programs, order).

Size caps, and the probes behind them (2-core x86 box, Python 3.11):
- prove/solve terms stop at 200 levels of nesting. At about 250 levels the
  recursive term equality and hash raise RecursionError, so those sizes live
  in the `*_limits` builders: a separate pass reported as failed_frac, not
  in the timed loop.
- listnat_plus trees stop at lists of length 10 (7,163 lines, 0.07 s). The
  tree has about 2^n nodes: length 14 built 49,150 nodes in 2.1 s and 61 MB,
  and length 20 was killed for memory at 8 GB.
- ground-oracle programs stop at 8 atoms and 12 clauses: a 20-atom,
  60-clause program did not finish in 20 s.
- solve graphs are forests, so each reachable node has one derivation. Edge
  sets with cycles or shared descendants blow up to the SLD step bound.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracle

WORKLOADS = ("prove-deep", "solve-wide", "check-sweep")


@dataclass
class Op:
    id: str
    family: str
    size: int  # the ladder coordinate used for slopes
    argv: list[str]
    rc: int
    stdout: str | None = None  # exact expected output, or
    check: Callable[[str], bool] | None = field(default=None, repr=False)

    def verdict(self, rc: int, out: str) -> bool:
        if rc != self.rc:
            return False
        if self.stdout is not None:
            return out == self.stdout
        try:
            return self.check(out)
        except (ValueError, KeyError, TypeError):  # e.g. malformed JSON
            return False


class _Builder:
    def __init__(self, workload: str, seed: int, programs: Path, work: Path) -> None:
        self.rng = random.Random(f"{workload}:{seed}")
        self.programs = programs
        self.work = work
        self.ops: list[Op] = []
        self._written = 0

    def bundled(self, name: str) -> str:
        return str(self.programs / f"{name}.lp")

    def write(self, text: str) -> str:
        path = self.work / f"p{self._written}.lp"
        self._written += 1
        path.write_text(text, encoding="utf-8")
        return str(path)

    def add(self, family: str, size: int, argv: list[str], rc: int,
            stdout: str | None = None, check: Callable[[str], bool] | None = None) -> None:
        n = sum(1 for o in self.ops if o.family == family and o.size == size)
        self.ops.append(Op(f"{family}-{size}-{n}", family, size, argv, rc, stdout, check))


def _var(rng: random.Random) -> str:
    return rng.choice(("X", "Y", "N", "Z1"))


# ---------------------------------------------------------------------------
# prove-deep
# ---------------------------------------------------------------------------

# Evenly spaced rungs keep op costs spread without gaps, so a percentile
# cannot jump between two clusters of ops from one run to the next.
NAT_LADDER = tuple(range(25, 201, 25))
LIST_LADDER = tuple(range(10, 81, 10))
TREE_LADDER = tuple(range(3, 11))
GC_LADDER = tuple(range(8, 65, 8))


def _nat_proved(b: _Builder, prog: str, n: int, family: str = "nat-proved") -> None:
    depth = n + 1 + b.rng.randint(0, 8)
    b.add(family, n, ["prove", b.bundled(prog), f"nat({oracle.peano(n)})",
                      "--depth", str(depth)],
          0, "Proved\n" + oracle.render_ascii(oracle.nat_proof(n)))


def _list_proved(b: _Builder, prog: str, length: int, family: str = "list-proved") -> None:
    elems = [i % 4 for i in range(length)]  # a fixed multiset, so a fixed cost
    b.rng.shuffle(elems)
    depth = oracle.list_height(elems) + b.rng.randint(0, 8)
    b.add(family, length, ["prove", b.bundled(prog), f"list({oracle.nat_list(elems)})",
                           "--depth", str(depth)],
          0, "Proved\n" + oracle.render_ascii(oracle.list_proof(elems)))


def _nat_failed(b: _Builder, prog: str, n: int, family: str = "nat-failed") -> None:
    v = _var(b.rng)
    goal = "s(" * n + v + ")" * n
    b.add(family, n, ["prove", b.bundled(prog),
                      f"nat({goal})", "--depth", str(n + 1 + b.rng.randint(0, 8))],
          1, "Failed\n")


def prove_deep(b: _Builder) -> None:
    rng = b.rng
    for prog in ("listnat", "listnat_plus"):
        for n in NAT_LADDER:
            _nat_proved(b, prog, n)
            _nat_failed(b, prog, n)
            # A depth bound below n leaves the chain unfinished. The search
            # runs to the bound, so the bound is fixed: it sets the cost.
            b.add("nat-unknown", n, ["prove", b.bundled(prog), f"nat({oracle.peano(n)})",
                                     "--depth", str(n - 4)], 2, "Unknown\n")
        for length in LIST_LADDER:
            _list_proved(b, prog, length)
        for length in TREE_LADDER:
            depth = length + (1 if prog == "listnat" else 2)  # cut short, or whole
            root = oracle.list_tree([0] * length, depth)
            b.add("tree-plus", length, ["tree", b.bundled("listnat_plus"),
                                        f"list({oracle.nat_list([0] * length)})",
                                        "--depth", str(depth)],
                  0, oracle.render_ascii(root))
    for i, depth in enumerate(GC_LADDER):
        reflexive = i % 2 == 0  # the two trees differ in size, so not seeded
        v, w = _var(rng), "W"
        goal = f"connected({v}, {v})" if reflexive else f"connected({v}, {w})"
        b.add("tree-gc", depth, ["tree", b.bundled("gc"), goal, "--depth", str(depth)],
              0, oracle.render_ascii(oracle.gc_tree(reflexive, depth)))
        # gc's fresh variables and bad's loop keep these Unknown at any depth.
        b.add("gc-unknown", depth, ["prove", b.bundled("gc"), f"connected({v}, {w})",
                                    "--depth", str(depth)], 2, "Unknown\n")
        b.add("bad-unknown", depth, ["prove", b.bundled("bad"), f"bad({v})",
                                     "--depth", str(depth)], 2, "Unknown\n")
    b.add("ex33-failed", 1, ["prove", b.bundled("ex33"), "a",
                             "--depth", str(rng.randint(2, 40))], 1, "Failed\n")


def prove_deep_limits(b: _Builder) -> None:
    """Sizes past the recursion limit: each op has a by-construction verdict."""
    for n in (300, 400):
        _nat_proved(b, "listnat", n, "limit-nat-proved")
        _nat_failed(b, "listnat", n, "limit-nat-failed")
    _list_proved(b, "listnat", 300, "limit-list-proved")


# ---------------------------------------------------------------------------
# solve-wide
# ---------------------------------------------------------------------------

REACH_LADDER = tuple(range(2, 25, 2))
FOREST_NODES = 180
SOLVE_NAT_LADDER = tuple(range(25, 151, 25))
SOLVE_LIST_LADDER = tuple(range(25, 201, 25))


def _levels(size: int) -> list[int]:
    """Level widths 1, 2, 4, ... of a tree with `size` nodes; the last level
    takes the rest."""
    widths, width = [], 1
    while sum(widths) + width < size:
        widths.append(width)
        width *= 2
    return widths + [size - sum(widths)]


def _forest(rng: random.Random,
            gc_text: str) -> tuple[str, dict[str, list[str]], dict[int, str]]:
    """A random forest of FOREST_NODES nodes. One tree per reach rung has
    exactly that many nodes, in levels of fixed width whose nodes pick a
    random parent on the level above, so height and search cost do not vary
    by seed; its root is the query source. The rest are random recursive
    trees of 1..12 nodes. Names and edge order are shuffled."""
    names = [f"n{i}" for i in range(FOREST_NODES)]
    rng.shuffle(names)
    edges: list[tuple[str, str]] = []
    sources: dict[int, str] = {}
    for size in REACH_LADDER:
        levels = [[names.pop()]]
        for width in _levels(size)[1:]:
            levels.append([names.pop() for _ in range(width)])
            edges += [(rng.choice(levels[-2]), node) for node in levels[-1]]
        sources[size] = levels[0][0]
    while names:
        nodes = [names.pop() for _ in range(min(rng.randint(1, 12), len(names)))]
        edges += [(nodes[rng.randrange(i)], nodes[i]) for i in range(1, len(nodes))]
    rng.shuffle(edges)
    children: dict[str, list[str]] = {}
    for parent, child in edges:
        children.setdefault(parent, []).append(child)
    text = gc_text + "".join(f"edge({a}, {c}).\n" for a, c in edges)
    return text, children, sources


def _answers_are(expected: set[str]) -> Callable[[str], bool]:
    """Every answer once, in any order, and no bound-reached marker."""
    def check(out: str) -> bool:
        lines = out.splitlines()
        return len(lines) == len(expected) and set(lines) == expected
    return check


def _enum_op(b: _Builder, pred: str, k: int, family: str, prog: str, strategy: str) -> None:
    v = _var(b.rng)
    answers, exhausted = oracle.enumerate_answers(pred, prog == "listnat_plus", k,
                                                  10_000, strategy)
    out = "".join(f"{{{v} -> {a}}}\n" for a in answers)
    out += "%% bound reached\n" if exhausted else ""
    b.add(family, k, ["solve", b.bundled(prog), f"{pred}({v})", "--max-answers", str(k),
                      "--strategy", strategy], 0, out)


def solve_wide(b: _Builder) -> None:
    rng = b.rng
    text, children, sources = _forest(rng, (b.programs / "gc.lp").read_text(encoding="utf-8"))
    forest = b.write(text)
    for reach_size, src in sources.items():
        for strategy in ("dfs", "iddfs"):
            v = rng.choice(("Y", "W", "Node"))
            expected = {f"{{{v} -> {n}}}" for n in oracle.reach(children, src)}
            assert len(expected) == reach_size
            b.add("graph", reach_size,
                  ["solve", forest, f"connected({src}, {v})", "--strategy", strategy,
                   "--max-answers", str(reach_size + 1 + rng.randint(0, 20))],
                  0, check=_answers_are(expected))
    for prog in ("listnat", "listnat_plus"):
        for i, k in enumerate(SOLVE_NAT_LADDER):
            _enum_op(b, "nat", k, "nat-enum", prog, ("dfs", "iddfs")[i % 2])
        for k in SOLVE_LIST_LADDER:
            # Depth-first list(X) runs down ever longer zero lists; only
            # deepening keeps the answers shallow.
            _enum_op(b, "list", k, "list-enum", prog, "iddfs")


def solve_wide_limits(b: _Builder) -> None:
    _enum_op(b, "nat", 300, "limit-nat-enum", "listnat", "iddfs")


# ---------------------------------------------------------------------------
# check-sweep
# ---------------------------------------------------------------------------

BUNDLED = ("listnat", "listnat_plus", "gc", "bad", "ex33")
BRIDGE_LADDER = tuple(range(5, 41, 5))
GROUND_LEVELS = (2, 4)


def _random_fo_program(rng: random.Random, slot: int) -> str:
    """Criterion-4-shaped: p/1 and q/2 over constants a, b and f/1, two to
    five clauses, at most two head variables, odd slots existential. The
    slot fixes the clause count, head variables and body lengths; `rng`
    draws the terms."""
    preds = (("p", 1), ("q", 2))
    lines = []
    n_clauses = 2 + slot % 4
    existential_at = rng.randrange(n_clauses) if slot % 2 else -1
    for ci in range(n_clauses):
        pred, arity = rng.choice(preds)
        head_vars = [f"V{i}" for i in range(1, (ci + slot) % 3 + 1)]

        def head_term() -> str:
            roll = rng.random()
            if head_vars and roll < 0.6:
                return rng.choice(head_vars)
            if roll < 0.85:
                return rng.choice("ab")
            inner = (rng.choice(head_vars) if head_vars and rng.random() < 0.7
                     else rng.choice("ab"))
            return f"f({inner})"

        head_args = [head_term() for _ in range(arity)]
        used = [v for v in head_vars if v in head_args or f"f({v})" in head_args]

        def body_term() -> str:
            if used and rng.random() < 0.7:
                return rng.choice(used)
            return rng.choice("ab")

        body = []
        for _ in range((ci + slot) % 3):
            bp, ba = rng.choice(preds)
            body.append(f"{bp}({', '.join(body_term() for _ in range(ba))})")
        if ci == existential_at:
            bp, ba = rng.choice(preds)
            body.append(f"{bp}({', '.join(['Fresh'] + [body_term() for _ in range(ba - 1)])})")
        head = f"{pred}({', '.join(head_args)})"
        lines.append(head + (f" :- {', '.join(body)}" if body else "") + ".\n")
    # Keep both predicates and the constants in the signature.
    lines.append("q(a, b).\np(f(a)).\n")
    return "".join(lines)


def _random_ground_program(rng: random.Random, slot: int) -> list[tuple[str, list[str]]]:
    """4 + slot atoms and 4 + 2 slot clauses (at most 8 and 12) with bodies
    of 0..3 atoms, wired at random and redrawn until the benchmark's own
    fixpoint entails some atoms and not others, so neither verdict is vacuous."""
    while True:
        atoms = [f"g{i}" for i in range(4 + slot)]
        clauses = [(rng.choice(atoms), [rng.choice(atoms) for _ in range(i % 4)])
                   for i in range(4 + 2 * slot)]
        universe = {h for h, _ in clauses} | {a for _, body in clauses for a in body}
        if 0 < len(oracle.ground_fixpoint(clauses)) < len(universe):
            return clauses


# The random programs' structure is drawn once per slot from these seeds, so
# a slot costs the same under every run seed; the run seed renames symbols.
# Drawn from the run seed, the structures moved the median check-sweep op
# by about 30% from seed to seed.
def _structure_rng(kind: str, slot: int) -> random.Random:
    return random.Random(f"check-sweep:{kind}:{slot}")


def _renamed(text: str, names: dict[str, str]) -> str:
    return re.sub(r"\b\w+\b", lambda m: names.get(m.group(0), m.group(0)), text)


def _fo_names(rng: random.Random) -> dict[str, str]:
    """Swap the constants or not, and give the variables fresh names."""
    consts = ["a", "b"]
    rng.shuffle(consts)
    new_vars = rng.sample(("X", "Y", "Z", "U", "W", "N", "M", "V1", "V2", "Fresh"), 3)
    return {"a": consts[0], "b": consts[1], **dict(zip(("V1", "V2", "Fresh"), new_vars))}


def _lax_check(squares: int, what: str, as_json: bool) -> Callable[[str], bool]:
    if as_json:
        def check_json(out: str) -> bool:
            report = json.loads(out)
            return (report["check"] == what and report["squares_checked"] == squares
                    and report["lax_failures"] == 0 and report["ok"] is True
                    and (what == "lax" or report["injection_failures"] == 0))
        return check_json
    verdict = "LAX OK" if what == "lax" else "STRICT OK"
    head = f"checked {squares} squares ("
    counts = ": 0 lax failures, " + ("0 injection equality failures, " if what == "inj" else "")

    def check(out: str) -> bool:
        lines = out.splitlines()
        return (bool(lines) and lines[0].startswith(head) and counts in lines[0]
                and lines[-1] == verdict)
    return check


def _bridge_text(prog: str, k: int, depth: int) -> str:
    plus = prog == "listnat_plus"
    lines = []
    for pred in ("list", "nat"):  # predicates in name order
        answers, _ = oracle.enumerate_answers(pred, plus, k, 10_000, "iddfs")
        for a in answers:
            # An upper bound on the clause layers of the instance's proof.
            assert a.count("s(") + a.count("cons(") + 2 <= depth
            lines.append(f"BRIDGE OK  goal={pred}(X1)  answer={{X1 -> {a}}}  "
                         f"instance={pred}({a})  tm=Proved")
    return "\n".join(lines) + "\n"


def check_sweep(b: _Builder) -> None:
    rng = b.rng
    for prog in BUNDLED:
        text = (b.programs / f"{prog}.lp").read_text(encoding="utf-8")
        for arity in (1, 2, 3):
            squares = oracle.lax_squares(text, arity, 2)
            # json output only where the sweep is big enough to matter; the
            # small programs would only add ops that are mostly CLI overhead.
            # At arity 3 a json op would repeat a 0.3-0.6 s sweep for little
            # new output code, and cut the passes a 30 s run gets from 6 to 4.
            formats = (("ascii", "json") if prog.startswith("listnat") and arity < 3
                       else ("ascii",))
            for what in ("lax", "inj"):
                for fmt in formats:
                    b.add(f"{what}-bundled", arity,
                          ["check", b.bundled(prog), "--what", what, "--arity", str(arity),
                           "--format", fmt],
                          0, check=_lax_check(squares, what, fmt == "json"))
    for slot in range(8):
        text = _renamed(_random_fo_program(_structure_rng("fo", slot), slot), _fo_names(rng))
        path = b.write(text)
        for arity in (2, 3):
            what = ("lax", "inj")[(slot + arity) % 2]
            b.add(f"{what}-random", arity, ["check", path, "--what", what, "--arity", str(arity)],
                  0, check=_lax_check(oracle.lax_squares(text, arity, 2), what, False))
    for k in BRIDGE_LADDER:
        for prog in ("listnat", "listnat_plus"):
            depth = 76  # bridge proofs are depth-bounded searches: fixed, as it sets cost
            b.add("bridge", k, ["check", b.bundled(prog), "--what", "bridge",
                                "--max-answers", str(k), "--depth", str(depth)],
                  0, _bridge_text(prog, k, depth))
    b.add("bridge", 1, ["check", b.bundled("gc"), "--what", "bridge"], 0,
          "BRIDGE OK  goal=connected(X1, X2)  answer={X2 -> X1}  "
          "instance=connected(X1, X1)  tm=Proved\n"
          "BRIDGE OK  goal=edge(X1, X2)  (no answers)\n")
    b.add("bridge", 1, ["check", b.bundled("ex33"), "--what", "bridge"], 0,
          "".join(f"BRIDGE OK  goal={a}  (no answers)\n" for a in "abcd"))
    b.add("bridge", 1, ["check", b.bundled("bad"), "--what", "bridge", "--max-steps", "160"],
          0, "BRIDGE OK  goal=bad(X1)  (no answers)\n")
    ex33 = oracle.read_program((b.programs / "ex33.lp").read_text(encoding="utf-8"))
    ground = [(b.bundled("ex33"), [(h[0], [a[0] for a in body]) for h, body in ex33])]
    for slot in range(5):
        clauses = _random_ground_program(_structure_rng("ground", slot), slot)
        atoms = [f"g{i}" for i in range(4 + slot)]
        names = dict(zip(atoms, rng.sample(atoms, len(atoms))))
        clauses = [(names[h], [names[a] for a in body]) for h, body in clauses]
        text = "".join(h + (f" :- {', '.join(body)}" if body else "") + ".\n"
                       for h, body in clauses)
        ground.append((b.write(text), clauses))
    for path, clauses in ground:
        universe = sorted({h for h, _ in clauses} | {a for _, body in clauses for a in body})
        for levels in GROUND_LEVELS:
            b.add("ground-oracle", levels, ["check", path, "--what", "ground-oracle",
                                            "--levels", str(levels)],
                  0, "".join(f"GROUND OK  A={a}  levels=0..{levels} match=True  "
                             "lfp_agrees=True\n" for a in universe))


_BUILD = {"prove-deep": (prove_deep, prove_deep_limits),
          "solve-wide": (solve_wide, solve_wide_limits),
          "check-sweep": (check_sweep, None)}


def build(workload: str, seed: int, programs: Path, work: Path,
          limits: bool = False) -> list[Op]:
    """The op list of `workload` for `seed`, or its past-the-limit ops."""
    b = _Builder(workload, seed, programs, work)
    main, beyond = _BUILD[workload]
    if limits:
        if beyond is not None:
            beyond(b)
    else:
        main(b)
    return b.ops
