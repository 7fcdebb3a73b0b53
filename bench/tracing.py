"""Spans around the public functions of each degenpoly layer, for traced runs.

The wrappers live in the benchmark, not in the package: :meth:`Tracer.install`
rebinds each function everywhere it is looked up, and :meth:`Tracer.uninstall`
puts the originals back.  That means

* module functions are replaced in every ``degenpoly`` module namespace and
  module-level dict that holds them, because ``families``, ``verify`` and
  ``cli`` import ``deg_log``, ``deg_exp`` and ``stirling1_deg_recurrence`` by
  name and ``verify.PER_KS_CHECKS`` holds the checkers;
* ``__radd__`` and ``__rmul__`` are patched on their own, because they are
  class-level aliases of ``__add__`` and ``__mul__`` and patching those does
  not reach them.

One span is recorded per wrapped call (name, start, end, parent span, op id)
into flat arrays kept in memory; :meth:`Tracer.layer_metrics` reads them at
the end.  A span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict

CHECKERS = {
    "thm1": "check_theorem1",
    "cor2": "check_corollary2",
    "thm3": "check_theorem3",
    "prop4": "check_prop4",
    "eq15": "check_eq15",
    "vanishing": "check_vanishing",
    "eq19": "check_eq19",
    "reduction": "check_reduction",
    "basics": "check_basics",
}

FAMILY_BUILDERS = (
    "genocchi_deg",
    "genocchi_deg_order",
    "euler_deg_order",
    "poly_genocchi_deg",
    "multi_poly_genocchi_deg",
)

MEMO_METHODS = (
    "multi_poly_genocchi",
    "poly_genocchi",
    "genocchi",
    "genocchi_order",
    "euler_order",
    "stirling",
)


def _targets() -> list[tuple[str, object, str]]:
    """(span name, owner, attribute) for every wrapped callable.

    The owner is a class for methods and a module for functions.
    """
    layers = ("poly", "series", "degen", "families", "verify", "cli")
    mods = {name: sys.modules[f"degenpoly.{name}"] for name in layers}
    poly, series, degen = mods["poly"], mods["series"], mods["degen"]
    families, verify = mods["families"], mods["verify"]
    mp, ts = poly.MultiPoly, series.TruncatedSeries
    targets = [
        ("poly.add", mp, "__add__"),
        ("poly.add", mp, "__radd__"),
        ("poly.mul", mp, "__mul__"),
        ("poly.mul", mp, "__rmul__"),
        ("poly.substitute", mp, "substitute"),
        ("poly.render", poly, "render_poly"),
        ("series.mul", ts, "__mul__"),
        ("series.mul", ts, "__rmul__"),
        ("series.invert", ts, "invert"),
        ("series.pow", ts, "__pow__"),
        ("series.compose", ts, "compose"),
        ("degen.deg_log", degen, "deg_log"),
        ("degen.deg_exp", degen, "deg_exp"),
        ("degen.multi_polyexp", degen, "deg_multi_polyexp"),
        ("degen.stirling", degen, "stirling1_deg_recurrence"),
        ("verify.chain_factors", verify, "_chain_factors"),
        ("cli", mods["cli"], "main"),
    ]
    targets += [("families.build", families, name) for name in FAMILY_BUILDERS]
    targets += [("verify.memo", verify.FamilyMemo, name) for name in MEMO_METHODS]
    targets += [(f"verify.checker.{cid}", verify, fn) for cid, fn in CHECKERS.items()]
    return targets


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op_id = -1
        # families built during the current op, for the growth counts
        self.built: list = []
        self._undo: list[tuple[object, object, object]] = []

    def _wrap(self, span: str, fn, keep_result: bool):
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self.names):
            self.names.append(span)
        clock = time.perf_counter
        stack, start, end = self._stack, self.start, self.end
        name_append, parent_append, op_append = self.name.append, self.parent.append, self.op.append
        built_append = self.built.append

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_append(nid)
            parent_append(stack[-1])
            op_append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if keep_result:
                    built_append(result)
                return result
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _rebind(self, container, key, old, new) -> None:
        if isinstance(container, dict):
            container[key] = new
        else:
            setattr(container, key, new)
        self._undo.append((container, key, old))

    def install(self) -> None:
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if name == "degenpoly" or name.startswith("degenpoly.")
        ]
        for span, owner, attr in _targets():
            if isinstance(owner, type):
                fn = owner.__dict__[attr]
                self._rebind(owner, attr, fn, self._wrap(span, fn, False))
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(span, fn, span == "families.build")
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._rebind(mod, key, fn, wrapped)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is fn:
                                self._rebind(value, dkey, fn, wrapped)

    def uninstall(self) -> None:
        for container, key, old in reversed(self._undo):
            if isinstance(container, dict):
                container[key] = old
            else:
                setattr(container, key, old)
        self._undo.clear()

    def take_built(self) -> list:
        built = list(self.built)
        self.built.clear()
        return built

    def layer_metrics(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``self_s`` and ``total_s`` over all spans."""
        n = len(self.start)
        start, end, parent, name = self.start, self.end, self.parent, self.name
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += end[i] - start[i]
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        )
        for i in range(n):
            dur = end[i] - start[i]
            entry = stats[self.names[name[i]]]
            entry["calls"] += 1
            entry["self_s"] += dur - child[i]
            entry["total_s"] += dur
        return dict(stats)

    def memo_misses(self) -> int:
        """Family and Stirling builds made inside a memo call.

        Memo hits are memo calls minus these builds.
        """
        memo = self._ids.get("verify.memo")
        builds = {self._ids.get("families.build"), self._ids.get("degen.stirling")} - {None}
        return sum(
            1
            for i, nid in enumerate(self.name)
            if nid in builds and self.parent[i] >= 0 and self.name[self.parent[i]] == memo
        )

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                span = {
                    "id": i,
                    "name": self.names[self.name[i]],
                    "start": self.start[i],
                    "end": self.end[i],
                    "parent": self.parent[i],
                    "op": self.op[i],
                }
                fh.write(json.dumps(span) + "\n")
