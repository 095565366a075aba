"""In-memory span recorder wrapping diffeolab's public functions from outside.

Modules of the package import each other with ``from .x import y``, so one
function is bound under several names in several module namespaces.  The
recorder finds every binding of a target function by identity, replaces each
with one wrapper, and puts the originals back on ``uninstall``.  Private
helpers are never wrapped.

A span is ``(name, start, end, parent, op, self_s, nodes)``: ``parent`` is the
index of the enclosing span (-1 for none), ``op`` the id shared by all spans
of one benchmark operation, ``self_s`` the duration minus the time its child
spans cover, and ``nodes`` the grid size ``Diffeo1.n`` of the returned map
(0 when the function returns something else).
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time


class Tracer:
    def __init__(self, diffeo1_type):
        self._diffeo1 = diffeo1_type
        self.spans: list[tuple] = []
        self._stack: list[list] = []      # [index, start, child time, name]
        self._restore: list[tuple] = []
        self.op = -1

    # -- recording ------------------------------------------------------------

    def open(self, name: str) -> list:
        frame = [len(self.spans), time.perf_counter(), 0.0, name]
        self.spans.append(None)           # placeholder, filled on close
        self._stack.append(frame)
        return frame

    def close(self, frame: list, result=None) -> None:
        end = time.perf_counter()
        self._stack.pop()
        index, start, child, name = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        nodes = result.n if isinstance(result, self._diffeo1) else 0
        self.spans[index] = (name, start, end,
                             parent[0] if parent is not None else -1,
                             self.op, duration - child, nodes)

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self.open(name)
        try:
            yield
        finally:
            self.close(frame)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.close(frame, result)

        return wrapper

    # -- installing wrappers --------------------------------------------------

    def install(self, package: str, targets: list[str],
                methods: list[tuple[type, str, str]]) -> int:
        """Wrap each ``module.function`` of ``targets`` in every module of
        ``package`` that binds it, and each ``(class, method, name)`` of
        ``methods`` on its class.  Returns the number of bindings replaced."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package
                                         or key.startswith(package + "."))]
        for target in targets:
            module, func = target.rsplit(".", 1)
            original = getattr(sys.modules[f"{package}.{module}"], func)
            wrapper = self._wrap(target, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, attr, original))
                        setattr(m, attr, wrapper)
        for cls, method, name in methods:
            original = cls.__dict__[method]
            self._restore.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original))
        return len(self._restore)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- summaries ------------------------------------------------------------

    def _inside(self, i: int, name: str) -> bool:
        while i >= 0:
            if self.spans[i][0] == name:
                return True
            i = self.spans[i][3]
        return False

    def per_name(self, ops: set[int], within: str | None = None
                 ) -> dict[str, dict]:
        """calls, self time, inclusive time and nodes per span name, over the
        spans of the given ops (and only inside spans named ``within``, when
        given).  Inclusive time counts only the outermost span of a name, so
        recursion is not counted twice."""
        out: dict[str, dict] = {}
        for i, (name, start, end, parent, op, self_s, nodes) in enumerate(
                self.spans):
            if op not in ops or (within and not self._inside(i, within)):
                continue
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0,
                                        "incl_s": 0.0, "nodes": 0})
            row["calls"] += 1
            row["self_s"] += self_s
            row["nodes"] += nodes
            if not self._inside(parent, name):
                row["incl_s"] += end - start
        return out

    def self_sum(self, op: int) -> float:
        return sum(s[5] for s in self.spans if s[4] == op)
