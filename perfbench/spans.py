"""Per-layer spans for the poloids package, recorded from outside it.

``Tracer.install`` wraps every public module-level function of each
layer module and rebinds the wrapper wherever a ``poloids`` module
namespace, or a dict held at module level, refers to the original: the
library imports functions by name (``from .classify import classify``)
and dispatches through tables (``enumeration._CHECKS``), so patching
only the defining module would miss most calls.  ``uninstall`` puts
every original back.

Each call is a span whose parent is the innermost wrapped call active
when it started.  Spans are aggregated in memory by (name, parent name)
so that millions of calls cost a dict update each; the aggregate is
written out once, by the caller.  A generator function's span covers
each resumption, so a walk's self time excludes the work its consumer
does between items.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "poloids"
ROOT = "<root>"


class Tracer:
    """Aggregated spans over the ``layers`` modules of the package.

    ``nested`` maps a span name to ancestor names: each call of the
    span made while such an ancestor is active is counted in
    ``nested_calls[(name, ancestor)]``.  ``on_result`` maps a span name
    to a callback that receives each return value.  ``clock`` times the
    spans.
    """

    def __init__(self, layers, nested=None, on_result=None, clock=time.perf_counter):
        self.layers = tuple(layers)
        self.clock = clock
        self.nested = dict(nested or {})
        self.on_result = dict(on_result or {})
        self.stats: dict[tuple[str, str], list] = {}  # -> [calls, total_s, self_s]
        self.nested_calls: dict[tuple[str, str], int] = {}
        self._active: dict[str, int] = {}
        self._stack = [[ROOT, 0.0]]
        self._undo: list[tuple[dict, str, object]] = []

    # -- recording -------------------------------------------------------

    def _enter(self, name):
        active = self._active
        for ancestor in self.nested.get(name, ()):
            if active.get(ancestor):
                key = (name, ancestor)
                self.nested_calls[key] = self.nested_calls.get(key, 0) + 1
        active[name] = active.get(name, 0) + 1
        frame = [name, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame, dt, calls):
        stack = self._stack
        stack.pop()
        parent = stack[-1]
        parent[1] += dt
        self._active[frame[0]] -= 1
        key = (frame[0], parent[0])
        s = self.stats.get(key)
        if s is None:
            self.stats[key] = [calls, dt, dt - frame[1]]
        else:
            s[0] += calls
            s[1] += dt
            s[2] += dt - frame[1]

    def _wrap(self, fn, name):
        clock = self.clock
        enter, exit_ = self._enter, self._exit
        on_result = self.on_result.get(name)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                frame = enter(name)
                t0 = clock()
                try:
                    gen = fn(*args, **kwargs)
                finally:
                    exit_(frame, clock() - t0, 1)
                return _resumed(gen)

            def _resumed(gen):
                try:
                    while True:
                        frame = enter(name)
                        t0 = clock()
                        try:
                            value = next(gen)
                        except StopIteration:
                            return
                        finally:
                            exit_(frame, clock() - t0, 0)
                        yield value
                finally:
                    gen.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame, clock() - t0, 1)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    # -- rebinding -------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in self.layers:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    wrappers[value] = self._wrap(value, f"{layer}.{attr}")
        for namespace in package_namespaces():
            tables = [v for k, v in namespace.items() if not k.startswith("__") and type(v) is dict]
            for container in [namespace] + tables:
                for key, value in list(container.items()):
                    if inspect.isfunction(value) and value in wrappers:
                        self._undo.append((container, key, value))
                        container[key] = wrappers[value]

    def uninstall(self) -> None:
        while self._undo:
            container, key, value = self._undo.pop()
            container[key] = value

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reading ---------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """Per span name, summed over parents: [calls, total_s, self_s]."""
        out: dict[str, list] = {}
        for (name, _parent), (calls, total, self_s) in self.stats.items():
            agg = out.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": name, "parent": parent, "calls": c, "total_s": t, "self_s": s}
            for (name, parent), (c, t, s) in sorted(self.stats.items())
        ]


def package_namespaces() -> list[dict]:
    """The globals of every loaded module of the package, itself included."""
    return [
        vars(module)
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]
