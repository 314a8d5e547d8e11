"""Per-layer tracing of matchlog from outside the package.

`Tracer.install` replaces each named function, such as `substitution.mgm`
or `coalgebra.PffElement.canonical`, with a timing wrapper in
every `matchlog` module namespace that binds it (so `from .x import f`
copies are covered too), and wraps class methods on their class. A call
made while the same function is already active (recursion, direct or
through other traced functions) is passed straight through: it is not a
new call and its time stays in the innermost open span. Spans are not kept
one by one; each closes into per-function totals, per-(parent, child) call
counts, and the inclusive totals of the current op (`begin_op`/`end_op`).
"""

from __future__ import annotations

import sys
from time import perf_counter_ns
from typing import Any, Callable

def _tree_nodes(tree: Any) -> int:
    count, stack = 0, [tree.root]
    while stack:
        node = stack.pop()
        count += 1 + len(node.children)
        for o in node.children:
            stack.extend(o.children)
    return count


# Counters read off a call's result after its span has closed.
_OBSERVE: dict[str, Callable[[Any], dict[str, int]]] = {
    "substitution.mgm": lambda r: {"ok": r is not None},
    "substitution.mgu": lambda r: {"ok": r is not None},
    "engine_sld.sld_solve": lambda r: {"answers": len(r.answers), "exhausted": r.exhausted},
    "coalgebra.lax_sweep": lambda r: {"squares": r.squares_checked,
                                      "classes": r.classes_checked},
    "cotree.build_tree": lambda r: {"nodes": _tree_nodes(r)},
}


class Tracer:
    def __init__(self, names: list[str]) -> None:
        self.names = names
        self.index = {name: i for i, name in enumerate(self.names)}
        n = len(self.names)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.extra: list[dict[str, int]] = [{} for _ in range(n)]
        self.edges: dict[tuple[int, int], int] = {}  # (parent, child) -> calls
        self.op_incl: dict[int, int] = {}
        self.op_calls: dict[int, int] = {}
        self._active = [False] * n
        self._stack: list[list[int]] = []  # [function index, child ns]
        self._patches: list[tuple[Any, str, Any, Any]] = []

    # -- installation -------------------------------------------------------

    def _wrap(self, fid: int, raw: Callable) -> Callable:
        active, stack, calls, self_ns = self._active, self._stack, self.calls, self.self_ns
        extra, edges, observe = self.extra[fid], self.edges, _OBSERVE.get(self.names[fid])
        tracer = self

        def traced(*args, **kwargs):
            if active[fid]:
                return raw(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            frame = [fid, 0]
            stack.append(frame)
            active[fid] = True
            t0 = perf_counter_ns()
            try:
                result = raw(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                active[fid] = False
                stack.pop()
                calls[fid] += 1
                self_ns[fid] += dt - frame[1]
                edges[parent, fid] = edges.get((parent, fid), 0) + 1
                incl = tracer.op_incl
                incl[fid] = incl.get(fid, 0) + dt
                tracer.op_calls[fid] = tracer.op_calls.get(fid, 0) + 1
                if stack:
                    stack[-1][1] += dt
            if observe is not None:
                t1 = perf_counter_ns()
                for key, value in observe(result).items():
                    extra[key] = extra.get(key, 0) + int(value)
                # Counting is benchmark work: keep it out of the parent's self time.
                if stack:
                    stack[-1][1] += perf_counter_ns() - t1
            return result

        traced.__wrapped__ = raw  # type: ignore[attr-defined]
        return traced

    def install(self) -> None:
        if not self._patches:
            self._find_patches()
        for owner, key, _, wrapped in self._patches:
            setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original, _ in reversed(self._patches):
            setattr(owner, key, original)

    def _find_patches(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "matchlog" or name.startswith("matchlog.")}
        for fid, name in enumerate(self.names):
            mod_name, _, attr = name.partition(".")
            owner = modules[f"matchlog.{mod_name}"]
            if "." in attr:  # Class.method
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                descriptor = cls.__dict__[meth]
                if isinstance(descriptor, classmethod):
                    wrapped = classmethod(self._wrap(fid, descriptor.__func__))
                else:
                    wrapped = self._wrap(fid, descriptor)
                self._patch(cls, meth, wrapped)
                continue
            raw = getattr(owner, attr)
            wrapped = self._wrap(fid, raw)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner: Any, key: str, wrapped: Any) -> None:
        self._patches.append((owner, key, owner.__dict__[key], wrapped))

    # -- per-op attribution -------------------------------------------------

    def begin_op(self) -> None:
        self.op_incl = {}
        self.op_calls = {}

    def end_op(self) -> dict[str, tuple[int, int]]:
        """This op's (calls, inclusive ns) per traced function."""
        return {self.names[f]: (self.op_calls[f], ns) for f, ns in self.op_incl.items()}

    # -- totals -------------------------------------------------------------

    def calls_under(self, parent: str, child: str) -> int:
        return self.edges.get((self.index[parent], self.index[child]), 0)

    def snapshot(self) -> dict[str, Any]:
        return {
            "calls": dict(zip(self.names, self.calls)),
            "self_ns": dict(zip(self.names, self.self_ns)),
            "extra": {n: dict(e) for n, e in zip(self.names, self.extra) if e},
        }
