"""In-memory span recorder and the wrappers that feed it.

The traced run wraps the public entry points of each layer of the
``repro`` package from the outside: class methods are replaced on the
class that defines them (per concrete codec class, because ``UnLz4``
nests ``Lz4``), and module functions are replaced at *every* module
binding, because ``from ... import`` copies the function object into
the importing module (``repro.fleet.gateway.evaluate_admission``,
``repro.bench.harness.profile_workload``, ...).

A span is (name, start, end, parent span, request id). Self time is a
span's duration minus the durations of its direct children. Spans stay
in memory; :meth:`Recorder.write` dumps them once measurement is over.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: request id of spans recorded outside any benchmark operation (set-up)
SETUP_REQUEST = 0

#: span name of one timed benchmark operation (the request root)
REQUEST_SPAN = "request"


class Recorder:
    """Span stack plus per-name aggregates of spans inside operations."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_ids = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.requests = array("l")
        self.layer_of: Dict[str, str] = {}
        #: open spans: [span index, start, child seconds]
        self._stack: List[list] = []
        self.request = SETUP_REQUEST
        #: set once the wrappers are installed (the traced run only)
        self.enabled = False
        self._pause_depth = 0
        #: name -> [calls, inclusive s, self s] for spans inside operations
        self.totals: Dict[str, list] = {}
        #: name -> durations (s) of spans inside operations
        self.durations: Dict[str, List[float]] = {}
        #: name -> [calls, inclusive s] of spans in set-up
        self.setup_totals: Dict[str, list] = {}
        #: counters fed by the per-target ``note`` hooks
        self.counters: Dict[str, float] = {}

    @property
    def recording(self) -> bool:
        return self.enabled and self._pause_depth == 0

    @contextmanager
    def pause(self):
        """Record nothing inside: for the benchmark's own checks."""
        self._pause_depth += 1
        try:
            yield
        finally:
            self._pause_depth -= 1

    def _name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def enter(self, name: str) -> None:
        index = len(self.starts)
        parent = self._stack[-1][0] if self._stack else -1
        self.name_ids.append(self._name_id(name))
        self.parents.append(parent)
        self.requests.append(self.request)
        self.ends.append(0.0)
        start = time.perf_counter()
        self.starts.append(start)
        self._stack.append([index, start, 0.0])

    def exit(self, name: str) -> float:
        end = time.perf_counter()
        index, start, child = self._stack.pop()
        self.ends[index] = end
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        if self.request == SETUP_REQUEST:
            entry = self.setup_totals.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += duration
        else:
            entry = self.totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child
            self.durations.setdefault(name, []).append(duration)
        return duration

    def count(self, name: str, value: float = 1.0) -> None:
        if self.request != SETUP_REQUEST:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def write(self, path: str) -> int:
        """Write every span as a tab-separated line; returns the count."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart_s\tend_s\tparent\trequest\n")
            for i in range(len(self.starts)):
                out.write(
                    f"{self.names[self.name_ids[i]]}\t{self.starts[i]:.9f}\t"
                    f"{self.ends[i]:.9f}\t{self.parents[i]}\t"
                    f"{self.requests[i]}\n"
                )
        return len(self.starts)


RECORDER = Recorder()

#: note hook: (recorder, args, kwargs, result) -> None
Note = Callable[[Recorder, tuple, dict, object], None]


def _wrap(fn, name: str, note: Optional[Note]):
    recorder = RECORDER

    def wrapper(*args, **kwargs):
        if not recorder.recording:
            return fn(*args, **kwargs)
        recorder.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.exit(name)
        if note is not None:
            note(recorder, args, kwargs, result)
        return result

    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__qualname__ = getattr(fn, "__qualname__", name)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    wrapper.__wrapped__ = fn
    return wrapper


def wrap_method(cls, attr: str, name: str, layer: str,
                note: Optional[Note] = None) -> None:
    """Replace ``cls.attr`` (defined on ``cls`` itself) by a spanning wrapper."""
    raw = cls.__dict__[attr]
    RECORDER.layer_of[name] = layer
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(_wrap(raw.__func__, name, note)))
    else:
        setattr(cls, attr, _wrap(raw, name, note))


def wrap_function(fn, name: str, layer: str,
                  note: Optional[Note] = None) -> int:
    """Rebind ``fn`` in every loaded ``repro`` module that holds it.

    Returns the number of bindings replaced (at least the defining one).
    """
    RECORDER.layer_of[name] = layer
    wrapper = _wrap(fn, name, note)
    replaced = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is fn:
                namespace[attr] = wrapper
                replaced += 1
    if replaced == 0:
        raise RuntimeError(f"no module binds {name}")
    return replaced

