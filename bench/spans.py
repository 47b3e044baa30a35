"""Outside-in tracing of wedgespan's public functions.

A span is recorded around every call to a traced function by rebinding the
function's name, in every ``wedgespan`` module namespace that holds it, to a
wrapper. Callers resolve those names at call time, both as module attributes
(``generators.generate``) and as ``from .graph import euclidean_mst``
bindings, so they reach the wrapper. No file of the package is edited.

References captured elsewhere, such as a dict of functions built at import,
bypass the wrapper; the nonzero-calls self-test in ``run.py`` catches that.

Spans are folded into per-function totals as they close: call count and
self time, which is the span's duration minus the time its direct child
spans cover. On one thread the spans nest, so a stack of child totals is
enough to compute it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


class Tracer:
    """Installs and removes span wrappers around ``module.function`` targets."""

    def __init__(self, package: str, targets: list[str]):
        self.package = package
        self.targets = list(targets)
        self.calls = {t: 0 for t in self.targets}
        self.self_s = {t: 0.0 for t in self.targets}
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                children = stack.pop()
                calls[key] += 1
                self_s[key] += elapsed - children
                if stack:
                    stack[-1] += elapsed

        return span

    def install(self) -> None:
        """Rebind every target in every loaded module of the package."""
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(self.package + "."))
        ]
        self.missing = []
        for key in self.targets:
            mod_name, fn_name = key.rsplit(".", 1)
            try:
                fn = getattr(importlib.import_module(f"{self.package}.{mod_name}"), fn_name, None)
            except ImportError:
                fn = None
            if fn is None:
                self.missing.append(key)
                continue
            wrapper = self._wrap(key, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._bindings.append((mod, attr, fn))

    def uninstall(self) -> None:
        """Restore every binding that ``install`` replaced."""
        for mod, attr, fn in reversed(self._bindings):
            setattr(mod, attr, fn)
        self._bindings.clear()

    def take(self) -> tuple[dict[str, int], dict[str, float]]:
        """Return the totals gathered so far and start new ones from zero."""
        calls, self_s = dict(self.calls), dict(self.self_s)
        for t in self.targets:
            self.calls[t] = 0
            self.self_s[t] = 0.0
        return calls, self_s
