"""Outside-in tracing of the ``xymeas`` layers for the benchmark's traced runs.

`Tracer.install` replaces every public function of the package, in every
``xymeas`` module namespace that binds it, with a wrapper that records a
span: id, parent id, name ``<layer>.<function>``, start, end, thread, run id
and a work count. The layer is the module that defines the function.
`xymeas.qubit` is left alone: its functions take well under a microsecond,
so a wrapper would cost more than the call.

Two spans come from objects rather than functions: the generator that
``simulate.block_rng`` returns is wrapped so that its ``random`` draws
record ``simulate.draw`` spans.

Spans stay in memory until `dump`; `restore` puts the originals back.
Nothing in the program is edited, and untraced runs never import this file.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import types
from time import perf_counter

UNTRACED_MODULES = ("xymeas.qubit",)


def _samples(fn):
    """Count of a check: its ``samples`` argument, defaults applied."""
    signature = inspect.signature(fn)
    if "samples" not in signature.parameters:
        return None

    def count(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return int(bound.arguments["samples"])

    return count


def _counter(name, fn):
    """Work count recorded with a span, or None for functions that count nothing."""
    if name in ("simulate.run_eigenstate_experiment", "simulate.run_pair_experiment"):
        return lambda args, kwargs, result: int(args[0].shots)
    if name == "checks.visibility_grid":
        return lambda args, kwargs, result: len(result)
    if name in ("fileio.write_document", "fileio.read_document"):
        return lambda args, kwargs, result: os.path.getsize(args[0])
    if name.startswith("checks.check_"):
        return _samples(fn)
    return None


class _TimedGenerator:
    """A numpy Generator whose ``random`` draws are recorded as spans."""

    def __init__(self, generator, tracer):
        self._generator = generator
        self.random = tracer.wrap("simulate.draw", generator.random)

    def __getattr__(self, name):
        return getattr(self._generator, name)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.run = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = threading.get_ident()
        self._root_stack: list[int] = []
        self._local.stack = self._root_stack
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, post=None):
        """``fn`` recording a span ``name`` per call; ``post`` maps its result."""
        count = _counter(name, fn) if isinstance(fn, types.FunctionType) else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # A pool thread's first span belongs to the span the installing
            # thread is blocked in (the pool is only used from inside a span).
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != tracer._root and tracer._root_stack:
                parent = tracer._root_stack[-1]
            else:
                parent = None
            sid = next(tracer._ids)
            stack.append(sid)
            returned = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if post is not None:
                    result = post(result)
                returned = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                n = count(args, kwargs, result) if returned and count is not None else 0
                tracer.spans.append((sid, parent, name, start, end, threading.get_ident(), tracer.run, n))

        return traced

    def install(self) -> None:
        """Wrap every public function of every imported ``xymeas`` module."""
        wrappers = {}
        modules = [m for key, m in list(sys.modules.items()) if key == "xymeas" or key.startswith("xymeas.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                home = value.__module__
                if not home.startswith("xymeas.") or home in UNTRACED_MODULES:
                    continue
                if value not in wrappers:
                    name = f"{home.split('.', 1)[1]}.{value.__name__}"
                    post = (lambda g: _TimedGenerator(g, self)) if name == "simulate.block_rng" else None
                    wrappers[value] = self.wrap(name, value, post)
                setattr(module, attr, wrappers[value])
                self._patched.append((module, attr, value))

    def restore(self) -> None:
        """Put back every original function `install` replaced."""
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.spans, fh)
