"""Spans recorded from outside the program.

The tracer wraps callables at layer boundaries -- class methods in
place, module-level functions in every ``repro`` module that bound
them (``from x import f`` copies the reference, so patching ``x.f``
alone would miss those callers) -- and keeps every span in memory:
name, layer, start, end, the span that caused it, and the job id.
Nothing is written until :func:`write_jsonl` at exit.

A span's *self time* is its duration minus the part of that interval
its child spans cover.  The workloads are single-threaded inside a
job, so children of one span never overlap each other and the covered
part is the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: One recorded span: [name, layer, start_s, end_s, parent_index, job].
Span = List[Any]
NAME, LAYER, START, END, PARENT, JOB = range(6)


@dataclass(frozen=True)
class Boundary:
    """One callable to time: ``module:attr`` or ``module:Class.attr``."""

    layer: str
    name: str
    module: str
    attr: str
    cls: Optional[str] = None


class Tracer:
    """In-memory span recorder with a parent stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: List[Span] = []
        self.job = 0
        self._open: List[int] = []
        self._clock = clock

    def wrap(self, name: str, layer: str,
             fn: Callable[..., Any]) -> Callable[..., Any]:
        spans, open_, clock = self.spans, self._open, self._clock

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append([name, layer, clock(), 0.0,
                          open_[-1] if open_ else -1, self.job])
            open_.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[index][END] = clock()
        return traced

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        """A span around benchmark-side code (the job itself)."""
        index = len(self.spans)
        self.spans.append([name, layer, self._clock(), 0.0,
                           self._open[-1] if self._open else -1, self.job])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][END] = self._clock()


# -- patching ---------------------------------------------------------------

#: Undo record: (owner object, attribute name, original value).
Patch = Tuple[Any, str, Any]


def install(tracer: Tracer, boundaries: Sequence[Boundary],
            package: str = "repro") -> List[Patch]:
    """Wrap every boundary; returns the undo list for :func:`uninstall`.

    Import every module that will bind a boundary *before* calling
    this (run a warm-up job first): a module imported later copies the
    wrapper, which is fine, but one that bound the original under a
    lazy import after install would be missed -- the per-workload
    "expected hit" assertion is what catches that.
    """
    patches: List[Patch] = []
    for boundary in boundaries:
        module = importlib.import_module(boundary.module)
        if boundary.cls is not None:
            owner = getattr(module, boundary.cls)
            original = owner.__dict__[boundary.attr]
            setattr(owner, boundary.attr,
                    tracer.wrap(boundary.name, boundary.layer, original))
            patches.append((owner, boundary.attr, original))
            continue
        original = getattr(module, boundary.attr)
        wrapped = tracer.wrap(boundary.name, boundary.layer, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package
                                   or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    patches.append((mod, key, original))
    return patches


def uninstall(patches: Sequence[Patch]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


# -- span arithmetic --------------------------------------------------------

def self_times(spans: Sequence[Span]) -> List[float]:
    """Per-span self time: duration minus direct children's durations."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            own[parent] -= span[END] - span[START]
    return own


def self_time_by(spans: Sequence[Span], key: int) -> Dict[str, float]:
    """Self time summed per span name (``NAME``) or layer (``LAYER``)."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span[key]] = totals.get(span[key], 0.0) + own
    return totals


def counts_by_name(spans: Sequence[Span]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for span in spans:
        counts[span[NAME]] = counts.get(span[NAME], 0) + 1
    return counts


def durations(spans: Sequence[Span], name: str) -> List[float]:
    return [span[END] - span[START] for span in spans if span[NAME] == name]


def children_of(spans: Sequence[Span]) -> Dict[int, List[int]]:
    """Direct children per span index."""
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(index)
    return children


def job_spans(spans: Sequence[Span], job: int) -> List[Span]:
    """The spans of one job, parent indices re-based to the slice.

    A job's spans are contiguous (jobs run one after another), so the
    slice keeps every parent link of the job intact.
    """
    indices = [i for i, span in enumerate(spans) if span[JOB] == job]
    if not indices:
        return []
    low = indices[0]
    return [span[:PARENT] + [span[PARENT] - low if span[PARENT] >= 0
                             else -1] + span[PARENT + 1:]
            for span in spans[low:indices[-1] + 1]]


def write_jsonl(spans: Sequence[Span], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for index, span in enumerate(spans):
            handle.write(json.dumps({
                "id": index, "name": span[NAME], "layer": span[LAYER],
                "start": span[START], "end": span[END],
                "parent": span[PARENT], "job": span[JOB]}) + "\n")
