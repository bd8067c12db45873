"""Spans recorded from outside the program, for the traced (``--trace 1``)
runs.

:class:`Tracer` replaces a public function or method of a layer with a
wrapper that records ``(start, end, extra)`` into memory.  Module functions
are rebound in every ``repro`` module that imported them by name, so a call
through ``from x import f`` is traced as well.  Times come from
``time.monotonic`` (``CLOCK_MONOTONIC``), which every process on the host
shares, so spans of different processes line up.

Forked worker processes inherit the wrappers; :meth:`Tracer.dump` writes one
file per process, which the benchmark merges at the end of the run.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_ABSENT = object()


class Tracer:
    def __init__(self) -> None:
        #: name -> list of [start, end, extra]
        self.spans: Dict[str, list] = defaultdict(list)
        #: name -> [calls, seconds] for functions too hot to keep every span
        self.totals: Dict[str, list] = defaultdict(lambda: [0, 0.0])
        self._patches: List[tuple] = []
        os.register_at_fork(after_in_child=self._forget)

    def _forget(self) -> None:
        """A forked child starts with no spans of its own.  Cleared in
        place: installed wrappers hold references to these lists."""
        for items in self.spans.values():
            items.clear()
        for total in self.totals.values():
            total[:] = [0, 0.0]

    # ------------------------------------------------------------------ #
    def patch(self, owner, attr: str, wrapper: Callable) -> Callable:
        """Install ``wrapper`` in place of ``owner.attr`` and return the
        original.  For a module function every ``repro`` module binding the
        same object is rebound too."""
        original = getattr(owner, attr)
        if isinstance(owner, type):  # the method may be inherited
            self._patches.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
            setattr(owner, attr, wrapper)
            return original
        modules = [
            mod for name, mod in list(sys.modules.items()) if name.split(".")[0] == "repro"
        ]
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))
        return original

    def unpatch(self) -> None:
        while self._patches:
            target, key, original = self._patches.pop()
            if original is _ABSENT:
                delattr(target, key)
            else:
                setattr(target, key, original)

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        extra: Optional[Callable] = None,
        aggregate: bool = False,
        after: Optional[Callable] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``extra(args, kwargs)`` stores one number with the span;
        ``aggregate`` keeps only a call count and total time; ``after()``
        runs once the span is recorded (e.g. to dump a worker's spans)."""
        original = getattr(owner, attr)
        if aggregate:
            total = self.totals[name]

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                start = time.monotonic()
                try:
                    return original(*args, **kwargs)
                finally:
                    total[0] += 1
                    total[1] += time.monotonic() - start

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                start = time.monotonic()
                try:
                    return original(*args, **kwargs)
                finally:
                    value = extra(args, kwargs) if extra is not None else None
                    self.spans[name].append([start, time.monotonic(), value])
                    if after is not None:
                        after()

        self.patch(owner, attr, wrapper)

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        return {"spans": dict(self.spans), "totals": dict(self.totals)}

    def dump(self, directory) -> None:
        """Write this process's spans to ``directory/trace-<pid>.json``."""
        path = os.path.join(directory, f"trace-{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(tmp, path)


def merge(snapshots) -> dict:
    """Combine per-process snapshots: spans concatenate, totals add up."""
    spans: Dict[str, list] = defaultdict(list)
    totals: Dict[str, list] = defaultdict(lambda: [0, 0.0])
    for snap in snapshots:
        for name, items in snap["spans"].items():
            spans[name].extend(items)
        for name, (calls, seconds) in snap["totals"].items():
            totals[name][0] += calls
            totals[name][1] += seconds
    return {"spans": dict(spans), "totals": dict(totals)}


def durations(spans: list) -> List[float]:
    return [end - start for start, end, _ in spans]
