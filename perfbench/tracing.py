"""Spans recorded from outside gridclear, by wrapping its public callables.

`Tracer.install()` replaces module functions and class methods with
wrappers that time each call (a span) or only count it (for calls too
frequent to time without distorting the run). Spans aggregate into a call
tree keyed by the chain of enclosing span names, so a node's self time is
its total time minus the time of its timed children. Coarse spans (a market
run, a round, an oracle solve) are also kept one by one, with the id of the
span that caused them, and written out when the run ends. `uninstall()`
puts every original back.
"""

from __future__ import annotations

import json
from time import perf_counter_ns


class Node:
    """Aggregated calls of one span name under one chain of parents."""

    __slots__ = ("name", "calls", "ns", "children", "tags")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.ns = 0
        self.children = {}
        self.tags = {}          # tag -> [calls, ns], e.g. per solver regime

    def child(self, name: str) -> "Node":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Node(name)
        return node

    def self_ns(self) -> int:
        return self.ns - sum(c.ns for c in self.children.values())

    def walk(self):
        yield self
        for c in self.children.values():
            yield from c.walk()

    def to_dict(self) -> dict:
        return {"name": self.name, "calls": self.calls, "ns": self.ns,
                "self_ns": self.self_ns(),
                "tags": {str(k): v for k, v in self.tags.items()},
                "children": [c.to_dict() for c in self.children.values()]}

    @classmethod
    def from_dict(cls, d: dict) -> "Node":
        node = cls(d["name"])
        node.calls, node.ns = d["calls"], d["ns"]
        node.tags = {int(k): list(v) for k, v in d["tags"].items()}
        for c in d["children"]:
            node.children[c["name"]] = cls.from_dict(c)
        return node

    def merge(self, other: "Node") -> None:
        self.calls += other.calls
        self.ns += other.ns
        for k, (calls, ns) in other.tags.items():
            t = self.tags.setdefault(k, [0, 0])
            t[0] += calls
            t[1] += ns
        for name, c in other.children.items():
            self.child(name).merge(c)


class Tracer:
    def __init__(self):
        self.root = Node("root")
        self._stack = [self.root]
        self._ids = [0]
        self._next_id = 1
        self.spans = []         # (id, parent id, name, start ns, end ns)
        self._patches = []

    # -- wrappers -----------------------------------------------------------

    def timed(self, name: str, fn, keep: bool = False, tag=None):
        """Wrap fn in a span. keep=True also records the span itself;
        tag(result) files the call under a per-result key as well."""
        stack, ids, spans = self._stack, self._ids, self.spans

        def wrapper(*args, **kwargs):
            node = stack[-1].child(name)
            span_id = self._next_id
            self._next_id += 1
            stack.append(node)
            ids.append(span_id)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                ids.pop()
                node.calls += 1
                node.ns += end - start
                if keep:
                    spans.append((span_id, ids[-1], name, start, end))
            if tag is not None:
                t = node.tags.setdefault(tag(result), [0, 0])
                t[0] += 1
                t[1] += end - start
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        """Wrap fn so that calls are counted under the enclosing span."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack[-1].child(name).calls += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------------

    def patch(self, owner, attr: str, wrapper) -> None:
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the layer boundaries of every gridclear module."""
        from gridclear import local_solver, market, oracle, transport
        from gridclear.cost_models import CubicTransfer, SoftCappedQuadratic

        gen, tr = SoftCappedQuadratic, CubicTransfer
        self.patch(gen, "inverse_marginal",
                   self.timed("cost_models.gen_inverse", gen.inverse_marginal))
        self.patch(gen, "marginal",
                   self.counted("cost_models.gen_marginal", gen.marginal))
        self.patch(gen, "value", self.counted("cost_models.gen_value", gen.value))
        self.patch(tr, "inverse_marginal",
                   self.timed("cost_models.transfer_inverse", tr.inverse_marginal))

        # market.py imports these two by name, so both modules get the wrapper.
        solve = self.timed("local_solver.solve", local_solver.solve_local,
                           tag=lambda s: s.case_id)
        expenditure = self.timed("local_solver.net_expenditure",
                                 local_solver.net_expenditure)
        for module in (local_solver, market):
            self.patch(module, "solve_local", solve)
            self.patch(module, "net_expenditure", expenditure)
        self.patch(market, "feasibilize_and_cost",
                   self.timed("market.feasibilize", market.feasibilize_and_cost))
        self.patch(market, "step", self.timed("market.step", market.step, keep=True))
        self.patch(market, "run", self.timed("market.run", market.run, keep=True))
        trace_cls = market.IterationTrace
        self.patch(trace_cls, "append",
                   self.timed("market.trace_append", trace_cls.append))
        self.patch(trace_cls, "trace_csv",
                   self.timed("market.trace_csv", trace_cls.trace_csv, keep=True))

        self.patch(transport, "encode", self.timed("transport.encode", transport.encode))
        self.patch(transport, "decode", self.timed("transport.decode", transport.decode))
        loop = transport.LoopbackTransport
        self.patch(loop, "post", self.timed("transport.post", loop.post))
        self.patch(loop, "collect", self.timed("transport.collect", loop.collect))

        self.patch(oracle, "solve_global_numeric",
                   self.timed("oracle.global", oracle.solve_global_numeric, keep=True))
        self.patch(oracle, "solve_local_numeric",
                   self.timed("oracle.local", oracle.solve_local_numeric, keep=True))

    def uninstall(self) -> None:
        for owner, attr, original, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- reading ------------------------------------------------------------

    def write(self, path) -> None:
        doc = {"tree": self.root.to_dict(),
               "spans": [{"id": i, "parent": p, "name": n, "start_ns": s,
                          "end_ns": e} for i, p, n, s, e in self.spans]}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n")


def nodes(root: Node, name: str, under: str | None = None):
    """Every node called `name`, optionally only inside spans called `under`."""
    if under is None:
        return [n for n in root.walk() if n.name == name]
    out = []
    for top in nodes(root, under):
        out.extend(n for n in top.walk() if n.name == name and n is not top)
    return out


def totals(root: Node, name: str, under: str | None = None):
    """(calls, ns) summed over every node called `name`."""
    found = nodes(root, name, under)
    return sum(n.calls for n in found), sum(n.ns for n in found)
