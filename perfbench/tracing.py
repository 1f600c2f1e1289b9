"""In-memory spans around the benchmark's calls into ``lambda_saga``.

A span is ``{id, name, start, end, parent, run}`` with ``perf_counter``
times; ``id`` and ``parent`` are unique within one ``run``.  Spans are kept in a list and written out once, when the benchmark
ends.  ``NULL`` is the tracer of untraced repetitions: its ``span`` is a
shared no-op context manager, so untraced code pays one method call per
public call and records nothing.
"""

from __future__ import annotations

import contextlib
import functools
from time import perf_counter


class Tracer:
    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "start": perf_counter(),
            "end": None,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "run": self.run_id,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


class _NullTracer:
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


NULL = _NullTracer()


@contextlib.contextmanager
def patched(*replacements):
    """Temporarily set ``(owner, attribute, value)`` triples.

    Used to wrap a function where the library looks it up, for example
    ``lambda_saga.montecarlo.run_ensemble`` or a method of one problem
    instance.  Every attribute is restored on exit; one the owner did not
    hold itself (a method found on an instance's class) is deleted again.
    """
    missing = object()
    saved = [(owner, attr, vars(owner).get(attr, missing))
             for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            if value is missing:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def descendants(spans: list[dict], root: dict, name: str) -> list[dict]:
    """All spans called ``name`` below ``root``."""
    found, frontier = [], [root["id"]]
    while frontier:
        below = [s for s in spans if s["parent"] in frontier]
        found.extend(s for s in below if s["name"] == name)
        frontier = [s["id"] for s in below]
    return found


def check_nesting(spans: list[dict]) -> list[str]:
    """Problems with parent links: a missing parent, or a child interval
    outside its parent's.  Span ids are unique within one run."""
    by_id = {(s["run"], s["id"]): s for s in spans}
    problems = []
    for s in spans:
        if s["end"] is None or s["end"] < s["start"]:
            problems.append(f"span {s['id']} {s['name']} has no valid end")
            continue
        if s["parent"] is None:
            continue
        parent = by_id.get((s["run"], s["parent"]))
        if parent is None:
            problems.append(f"span {s['id']} {s['name']} has a missing parent")
        elif not (parent["start"] <= s["start"] and s["end"] <= parent["end"]):
            problems.append(
                f"span {s['id']} {s['name']} lies outside parent {parent['name']}"
            )
    return problems
