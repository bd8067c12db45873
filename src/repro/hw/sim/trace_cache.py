"""Process-wide, thread-safe LRU cache of :class:`~repro.hw.sim.jit.JitTemplate`.

Every ``repro.compile(...)`` call used to re-decode and re-compile the same
program — NAS sweeps, stage-4 deploys and serve worker restarts each paid
the full trace compile again.  Templates are memory-independent (see
:mod:`repro.hw.sim.jit`), so one compile can serve every engine in the
process: the cache is keyed by the **program content** (the structural tuple
of every instruction), the :class:`~repro.hw.cycles.CycleModel` (a frozen,
hashable dataclass) and the ``enable_sdotp`` flag.

Lookup and binding
------------------
Building the content key walks every instruction (tens of microseconds on
a Table-I program), so the cache also remembers, per program *object*, the
list's elements and the :func:`~repro.hw.isa.edit_stamp` it saw.  A lookup
whose program is the same list, holds the same elements (an identity walk
in C, about 1 µs for 278 instructions) and sees the same edit stamp is
answered without rebuilding the key; it still takes the lock and refreshes
the template's LRU position, so eviction and :func:`clear_trace_cache`
stay exact.  The guard's contract: replacing, appending or removing a list
element, or assigning any :class:`~repro.hw.isa.Instruction` field, makes
the next lookup rebuild the key (and recompile if the content changed).
Edits that bypass attribute assignment (writing an instruction's
``__dict__``) are not seen.

:func:`bind_program` is where every JIT run gets its binding (a core's
run and a batch alike, before
:meth:`~repro.hw.sim.jit.JitProgram.run_lockstep` runs it): it looks the
template up and returns the calling thread's
:class:`~repro.hw.sim.jit.JitProgram` of it, rebound to the run's memories
(see :meth:`JitTemplate.bound`).

Knobs
-----
* capacity — constructor argument, :func:`set_trace_cache_capacity`, or the
  ``REPRO_SIM_TRACE_CACHE`` environment variable (default 16 templates).
* :func:`clear_trace_cache` — drop all cached templates (tests, memory
  pressure).
* :func:`cache_stats` — hits / misses / evictions counters.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..cycles import CycleModel, DEFAULT_CYCLE_MODEL
from ..isa import Instruction, edit_stamp
from ..memory import Memory
from .jit import JitProgram, JitTemplate

_DEFAULT_CAPACITY = 16


def structural_key(program: List[Instruction]) -> Tuple:
    """Content key of a program: every field that affects execution."""
    return tuple(
        (i.mnemonic, i.rd, i.rs1, i.rs2, i.imm) for i in program
    )


class _Key:
    """A cache key whose hash is computed once.

    Tuples do not cache their hash, and the content key holds one tuple
    per instruction; the LRU's dict operations on a remembered key then
    cost one identity compare instead of a full rehash.
    """

    __slots__ = ("fields", "_hash")

    def __init__(self, fields: Tuple):
        self.fields = fields
        self._hash = hash(fields)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self is other or self.fields == other.fields


@dataclass
class TraceCacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0


class TraceCache:
    """Thread-safe LRU of compiled JIT templates."""

    def __init__(self, capacity: Optional[int] = None):
        if capacity is None:
            capacity = int(
                os.environ.get("REPRO_SIM_TRACE_CACHE", _DEFAULT_CAPACITY)
            )
        self._capacity = max(1, capacity)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[_Key, JitTemplate]" = OrderedDict()
        # (id(program), cycle model, sdotp) -> (program, its elements, edit
        # stamp, key): the programs seen lately, so a repeat lookup skips
        # the content key.  The entry keeps the program alive, so its id
        # cannot be recycled while the entry exists.
        self._seen: Dict[tuple, tuple] = {}
        self._stats = TraceCacheStats()

    # ------------------------------------------------------------------ #
    def get(
        self,
        program: List[Instruction],
        cycle_model: CycleModel,
        enable_sdotp: bool,
    ) -> JitTemplate:
        """Return the (possibly cached) template for ``program``.

        Template construction happens outside the lock so a slow compile
        never blocks concurrent lookups of other programs; the price is
        that two threads racing on the *same* uncached program may both
        compile it — the loser's template is discarded, correctness is
        unaffected (templates are interchangeable).
        """
        cycle_model = cycle_model or DEFAULT_CYCLE_MODEL
        # Read the stamp before the content: an edit that lands after this
        # point changes the stamp, so it can never hide behind this lookup.
        stamp = edit_stamp()
        seen_at = (id(program), cycle_model, enable_sdotp)
        seen = self._seen.get(seen_at)
        if (
            seen is not None
            and seen[2] == stamp
            and seen[0] is program
            and program == seen[1]
        ):
            key = seen[3]
        else:
            key = _Key((structural_key(program), cycle_model, enable_sdotp))
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._stats.hits += 1
                self._remember(seen_at, program, stamp, key)
                return entry
            self._stats.misses += 1
        template = JitTemplate(list(program), cycle_model, enable_sdotp)
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                template = existing
            else:
                self._entries[key] = template
                while len(self._entries) > self._capacity:
                    self._entries.popitem(last=False)
                    self._stats.evictions += 1
            self._remember(seen_at, program, stamp, key)
        return template

    def _remember(self, seen_at, program, stamp, key) -> None:
        """Record a resolved program (lock held); keeps ``capacity`` entries."""
        seen = self._seen.get(seen_at)
        if seen is not None and seen[3] is key and seen[2] == stamp:
            return
        self._seen.pop(seen_at, None)
        self._seen[seen_at] = (program, list(program), stamp, key)
        while len(self._seen) > self._capacity:
            self._seen.pop(next(iter(self._seen)))

    # ------------------------------------------------------------------ #
    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._seen.clear()
            self._stats = TraceCacheStats()

    def set_capacity(self, capacity: int) -> None:
        with self._lock:
            self._capacity = max(1, capacity)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._stats.evictions += 1
            while len(self._seen) > self._capacity:
                self._seen.pop(next(iter(self._seen)))

    @property
    def capacity(self) -> int:
        return self._capacity

    def stats(self) -> TraceCacheStats:
        with self._lock:
            return TraceCacheStats(
                self._stats.hits, self._stats.misses, self._stats.evictions
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_CACHE = TraceCache()


def get_template(
    program: List[Instruction],
    cycle_model: CycleModel,
    enable_sdotp: bool,
) -> JitTemplate:
    """Fetch a compiled template from the process-wide cache."""
    return _CACHE.get(program, cycle_model, enable_sdotp)


def bind_program(
    program: List[Instruction],
    cycle_model: CycleModel,
    enable_sdotp: bool,
    mems: Sequence[Memory],
) -> JitProgram:
    """The calling thread's binding of ``program``'s template to ``mems``.

    ``mems`` holds one memory per frame (one for the core's run).  The
    generated module is exec'd once per thread and template; later calls
    only point the binding at the new memories.
    """
    return _CACHE.get(program, cycle_model, enable_sdotp).bound(program, mems)


def clear_trace_cache() -> None:
    """Drop every cached template and reset counters (mainly for tests)."""
    _CACHE.clear()


def set_trace_cache_capacity(capacity: int) -> None:
    """Bound the process-wide cache to ``capacity`` templates (LRU)."""
    _CACHE.set_capacity(capacity)


def cache_stats() -> TraceCacheStats:
    """Hit/miss/eviction counters of the process-wide cache."""
    return _CACHE.stats()
