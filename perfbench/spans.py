"""Span recording and attribute patching for the traced benchmark run.

The traced run observes the program from outside: it rebinds module and
class attributes to timing wrappers for the length of the run and puts
the originals back afterwards. Nothing inside ``be_spectral`` changes.

A span has a name, start, end, parent and an operation id; every span
opened inside one train step or one CLI command carries that operation's
id. Spans stay in memory and are written out once, when the run ends.

Calls that happen thousands of times per step (``autodiff.matmul``, the
operator-assembly primitives, ``SymOperator.matvec``) are not kept as
single spans: their count and time are summed into the innermost open
span under ``leaf``, which bounds memory while still subtracting them
from that span's self time. A span's self time is its duration minus the
time covered by its child spans and leaf calls.
"""
from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "name", "parent", "op", "start", "end", "child_ns",
                 "leaf", "attrs")

    @property
    def ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.ns - self.child_ns


class Tracer:
    """In-memory span tree for one run."""

    def __init__(self):
        self.spans: list[Span] = []      # closed spans, in closing order
        self._stack: list[Span] = []
        self._ids = 0
        self._ops = 0
        self.t0 = time.perf_counter_ns()

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def new_op(self) -> int:
        self._ops += 1
        return self._ops

    def open(self, name: str, op: int | None = None, **attrs) -> Span:
        parent = self.current
        s = Span()
        s.id = self._ids
        self._ids += 1
        s.name = name
        s.parent = parent.id if parent is not None else None
        s.op = op if op is not None else (parent.op if parent is not None else None)
        s.attrs = attrs
        s.child_ns = 0
        s.leaf = {}
        s.end = None
        s.start = time.perf_counter_ns()
        self._stack.append(s)
        return s

    def close(self, s: Span) -> Span:
        s.end = time.perf_counter_ns()
        if self._stack.pop() is not s:
            raise RuntimeError(f"span {s.name!r} closed out of order")
        if self._stack:
            self._stack[-1].child_ns += s.ns
        self.spans.append(s)
        return s

    def add_leaf(self, name: str, ns: int) -> None:
        """Add one leaf call of ``ns`` nanoseconds to the open span."""
        s = self.current
        if s is None:
            return
        entry = s.leaf.get(name)
        if entry is None:
            s.leaf[name] = [1, ns]
        else:
            entry[0] += 1
            entry[1] += ns
        s.child_ns += ns

    def count(self, name: str, amount: int) -> None:
        """Add ``amount`` to a counter attribute of the open span."""
        s = self.current
        if s is not None:
            s.attrs[name] = s.attrs.get(name, 0) + amount

    def span(self, name: str, fn, new_op: bool = False, attrs=None):
        """Wrap ``fn`` so each call is one span; ``attrs(args)`` adds attributes."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = attrs(*args, **kwargs) if attrs is not None else {}
            s = self.open(name, op=self.new_op() if new_op else None, **extra)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(s)
        return wrapper

    def leaf(self, name, fn):
        """Wrap ``fn`` as a leaf call; ``name`` may be a function of the args."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                label = name(*args) if callable(name) else name
                self.add_leaf(label, time.perf_counter_ns() - t)
        return wrapper

    # --- queries over closed spans ---

    def children(self) -> dict[int, list[Span]]:
        kids: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(s)
        return kids

    def subtree(self, root: Span, kids=None) -> list[Span]:
        kids = self.children() if kids is None else kids
        out, todo = [], [root]
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(kids.get(s.id, ()))
        return out

    def self_times(self, roots, kids=None) -> dict[str, float]:
        """Mean self milliseconds per root, by span name and by leaf name.

        The entries for one root add up to the root's duration.
        """
        kids = self.children() if kids is None else kids
        table: dict[str, float] = {}
        for root in roots:
            for s in self.subtree(root, kids):
                table[s.name] = table.get(s.name, 0.0) + s.self_ns / 1e6
                for name, (_, ns) in s.leaf.items():
                    table[name] = table.get(name, 0.0) + ns / 1e6
        n = max(len(roots), 1)
        return {k: v / n for k, v in sorted(table.items(), key=lambda kv: -kv[1])}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                row = {"id": s.id, "name": s.name, "parent": s.parent, "op": s.op,
                       "start_us": (s.start - self.t0) / 1e3,
                       "end_us": (s.end - self.t0) / 1e3,
                       "self_us": s.self_ns / 1e3}
                if s.leaf:
                    row["leaf"] = {k: {"calls": c, "us": ns / 1e3}
                                   for k, (c, ns) in s.leaf.items()}
                row.update(s.attrs)
                fh.write(json.dumps(row) + "\n")


@contextmanager
def patched(*bindings):
    """Rebind ``(owner, attribute, value)`` triples; restore them on exit."""
    saved = []
    try:
        for owner, attr, value in bindings:
            old = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, old))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)
