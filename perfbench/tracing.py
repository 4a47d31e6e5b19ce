"""Spans recorded from outside the program, around calls into each layer.

A :class:`Tracer` replaces a function or method at the name its caller
resolves (a module global or a class attribute) with a wrapper that
records one span per call: name, start, end, parent span and run id.
Spans live in flat arrays while the benchmark runs and are written out
once, at exit.  Self time is a span's duration minus the time its child
spans cover.

Nothing under ``src/`` changes: :meth:`Tracer.installed` restores every
original when the traced job ends.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from array import array
from pathlib import Path

import numpy as np

clock = time.perf_counter


def resolve(target: str):
    """``"pkg.mod:attr"`` or ``"pkg.mod:Class.method"`` -> (owner, attr)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@contextlib.contextmanager
def patched(replacements):
    """Install ``{target: wrapper_factory}`` and restore the originals on exit.

    ``wrapper_factory(original)`` returns the callable installed in its
    place.  A target must be defined on its owner itself, not inherited,
    so that restoring it puts back exactly what was there.
    """
    saved = []
    try:
        for target, factory in replacements.items():
            owner, attr = resolve(target)
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, factory(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self, run_id: int) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.run_id = run_id
        #: Counts taken from return values at the span boundaries; keys
        #: starting ``peak_`` keep the maximum, the others the sum.
        self.counts: dict[str, float] = {}
        #: Return values of the targets installed with ``keep=True``.
        self.kept: dict[str, list] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = clock()
        self._stack.pop()

    def _count(self, values: dict) -> None:
        for key, value in values.items():
            if key.startswith("peak_"):
                self.counts[key] = max(self.counts.get(key, 0), value)
            else:
                self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, *, counter=None, keep: bool = False):
        """A wrapper factory recording one ``name`` span per call.

        ``counter(result, args)`` returns counts to add; ``keep`` holds
        on to every return value under ``kept[name]``.
        """
        nid = self._name_id(name)

        def factory(fn):
            def traced(*args, **kwargs):
                idx = self._open(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(idx)
                if counter is not None:
                    self._count(counter(result, args))
                if keep:
                    self.kept.setdefault(name, []).append(result)
                return result

            return traced

        return factory

    def wrap_leaf(self, name: str):
        """Like :meth:`wrap` for a callee that calls no wrapped function.

        It records its span after the call returns, without the stack
        bookkeeping a parent needs: the event loop makes these calls
        once or more per request, millions of times per job.
        """
        nid = self._name_id(name)
        stack = self._stack

        def factory(fn):
            def traced(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    self.name.append(nid)
                    self.parent.append(stack[-1] if stack else -1)
                    self.run.append(self.run_id)
                    self.start.append(t0)
                    self.end.append(t1)

            return traced

        return factory

    def wrap_iter(self, name: str):
        """Like :meth:`wrap` for a generator function: one span per ``next``.

        The time a generator spends producing an item is spent inside
        ``next``, interleaved with its consumer's work, so each resumption
        is its own span.
        """
        nid = self._name_id(name)

        def factory(fn):
            def traced(*args, **kwargs):
                it = iter(fn(*args, **kwargs))
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield item

            return traced

        return factory

    def installed(self, targets: dict):
        """Wrap every ``target -> (span name, kind, counter)`` for a ``with`` block.

        ``kind`` is "call", "keep" (also keep the return values), "leaf"
        (calls nothing wrapped) or "iter" (a generator function, one span
        per step).
        """
        factories = {}
        for target, (name, kind, counter) in targets.items():
            if kind == "iter":
                factories[target] = self.wrap_iter(name)
            elif kind == "leaf":
                factories[target] = self.wrap_leaf(name)
            else:
                factories[target] = self.wrap(name, counter=counter, keep=kind == "keep")
        return patched(factories)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def __len__(self) -> int:
        return len(self.start)

    def totals(self) -> dict[str, tuple[float, int]]:
        """Per span name: (summed self time in seconds, call count)."""
        if not len(self):
            return {}
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        covered = np.zeros_like(dur)
        child = parent >= 0
        np.add.at(covered, parent[child], dur[child])
        self_s = np.bincount(name, weights=dur - covered, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        return {n: (float(self_s[i]), int(calls[i])) for i, n in enumerate(self.names)}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            run=np.frombuffer(self.run, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
