"""Zero-copy shared-memory handoff of numpy arrays to worker processes.

The dominant constant factor of the PR-3 process pool was payload pickling:
every task unit shipped the full train/val arrays (~MBs) through the pipe,
once per unit.  This module removes that cost by placing each large array
into a :mod:`multiprocessing.shared_memory` block **once per flow run** and
shipping only a tiny :class:`ShmDescriptor` (name, dtype, shape) per task.

The mechanism is transparent to task functions:

* :class:`SharedArray` is an ``np.ndarray`` subclass whose instances carry a
  descriptor of the block they view.  Pickling such an instance serializes
  the descriptor instead of the bytes; unpickling in a worker attaches the
  block (cached per process) and reconstructs a zero-copy, **read-only**
  view.  Views or copies derived from a :class:`SharedArray` do not inherit
  the descriptor and pickle normally, so nothing ever aliases memory it does
  not actually span.
* :class:`ShmArena` owns the blocks on the creating side: it copies a source
  array into shared memory once (idempotently, keyed by source identity),
  and :meth:`ShmArena.close` closes **and unlinks** every block, on normal
  exit and on exception alike — executors call it from ``close()``.

Because a shared view has the same dtype/shape/bytes as its source, cache
fingerprints (:func:`repro.parallel.fingerprint`) and training numerics are
bit-identical whether a dataset is shared or not.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Dict, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class ShmDescriptor:
    """Everything a worker needs to reconstruct a view: (name, dtype, shape)."""

    name: str
    dtype: str
    shape: Tuple[int, ...]

    @property
    def nbytes(self) -> int:
        n = np.dtype(self.dtype).itemsize
        for dim in self.shape:
            n *= dim
        return int(n)


class SharedArray(np.ndarray):
    """An ndarray that pickles as a shared-memory descriptor.

    Only the exact full-block views created by :class:`ShmArena` (and by
    :func:`attach`) carry the ``_shm_desc`` attribute; slices, copies and
    arithmetic results are plain arrays again and fall back to ordinary
    by-value pickling.
    """

    def __reduce__(self):
        desc = getattr(self, "_shm_desc", None)
        if desc is not None:
            return (attach, (desc,))
        return super().__reduce__()

    def __reduce_ex__(self, protocol):
        if getattr(self, "_shm_desc", None) is not None:
            return self.__reduce__()
        return super().__reduce_ex__(protocol)


def _as_shared_view(shm: shared_memory.SharedMemory, desc: ShmDescriptor) -> SharedArray:
    base = np.ndarray(desc.shape, dtype=np.dtype(desc.dtype), buffer=shm.buf)
    base.flags.writeable = False  # shared across processes: corruption-proof
    view = base.view(SharedArray)
    view._shm_desc = desc
    return view


# Per-process cache of attached blocks.  The SharedMemory object must stay
# alive as long as any view into it exists, and attaching once per process
# (not once per task) keeps the per-payload cost at a dict lookup.
_ATTACHED: Dict[str, Tuple[shared_memory.SharedMemory, SharedArray]] = {}

# Retired creator-side mappings.  Unmapping a block (SharedMemory.close or
# its __del__) while numpy views into it are still referenced turns those
# views into dangling pointers — reading them is a segfault, not an
# exception.  Arenas therefore *unlink* on close (the name disappears from
# /dev/shm immediately and the kernel frees the pages once the last process
# unmaps, i.e. at exit) but park the mapping objects here so outstanding
# views stay valid.  The footprint is bounded by the arrays shared in this
# process — for the flow, one train + one test set per run.
_RETIRED: list = []


def attach(desc: ShmDescriptor) -> SharedArray:
    """Return the (read-only, zero-copy) view of a shared block.

    Used as the reconstructor when unpickling a :class:`SharedArray` in a
    worker; repeated payloads referencing the same block reuse one mapping.
    """
    cached = _ATTACHED.get(desc.name)
    if cached is not None:
        return cached[1]
    shm = shared_memory.SharedMemory(name=desc.name)
    view = _as_shared_view(shm, desc)
    _ATTACHED[desc.name] = (shm, view)
    return view


def attach_blocks(descriptors) -> None:
    """Warm-worker initializer: pre-attach every descriptor.

    Passed as the pool ``initializer`` so workers map the flow's datasets
    when they start rather than on their first task.  Blocks shared after
    the pool started are still attached lazily by :func:`attach`.
    """
    for desc in descriptors:
        try:
            attach(desc)
        except FileNotFoundError:
            # The block was unlinked between pool creation and worker start
            # (e.g. an executor closed concurrently); the payload that needs
            # it will fail with a precise error instead.
            pass


class ShmArena:
    """Creator-side registry of shared blocks with guaranteed unlink.

    ``share_array`` is idempotent per source array (keyed by identity, with
    a strong reference held so the key stays valid), so sharing the same
    dataset for the NAS sweep and again for the QAT sweep costs one copy.
    """

    def __init__(self) -> None:
        self._blocks: Dict[str, shared_memory.SharedMemory] = {}
        self._views: Dict[int, SharedArray] = {}
        self._sources: Dict[int, Any] = {}  # strong refs: keep ids stable

    def __len__(self) -> int:
        return len(self._blocks)

    @property
    def nbytes(self) -> int:
        return sum(shm.size for shm in self._blocks.values())

    def block_names(self) -> Tuple[str, ...]:
        return tuple(self._blocks)

    def descriptors(self) -> Tuple[ShmDescriptor, ...]:
        return tuple(view._shm_desc for view in self._views.values())

    def share_array(self, array: np.ndarray) -> np.ndarray:
        """Copy ``array`` into a shared block and return the shared view.

        Already-shared views pass through, empty arrays are returned as-is
        (a zero-byte block cannot be created), and repeated calls with the
        same source object reuse the existing block.
        """
        if isinstance(array, SharedArray) and getattr(array, "_shm_desc", None):
            return array
        key = id(array)
        if key in self._views:
            return self._views[key]
        src = np.ascontiguousarray(array)
        if src.nbytes == 0:
            return array
        shm = shared_memory.SharedMemory(create=True, size=src.nbytes)
        desc = ShmDescriptor(shm.name, src.dtype.str, tuple(src.shape))
        staging = np.ndarray(desc.shape, dtype=src.dtype, buffer=shm.buf)
        staging[...] = src
        view = _as_shared_view(shm, desc)
        self._blocks[shm.name] = shm
        self._views[key] = view
        self._sources[key] = array
        return view

    def share_dataset(self, dataset):
        """Return a shallow copy of ``dataset`` with shm-backed arrays.

        Works for any object exposing ``inputs`` / ``targets`` array
        attributes (:class:`repro.nn.ArrayDataset` and friends); the copy
        keeps the original class so isinstance checks, fingerprints and
        task-function code are unaffected.
        """
        import copy

        if dataset is None:
            return None
        inputs = self.share_array(dataset.inputs)
        targets = self.share_array(dataset.targets)
        if inputs is dataset.inputs and targets is dataset.targets:
            return dataset
        shared = copy.copy(dataset)
        shared.inputs = inputs
        shared.targets = targets
        return shared

    def close(self) -> None:
        """Unlink every block this arena created (idempotent).

        The names vanish from the system immediately (leak assertions in
        tests/CI check exactly this); the local mappings are retired, not
        unmapped, so views handed out earlier can never dangle.
        """
        blocks, self._blocks = self._blocks, {}
        self._views.clear()
        self._sources.clear()
        for shm in blocks.values():
            try:
                shm.unlink()
            except (FileNotFoundError, OSError):
                pass
            _RETIRED.append(shm)

    def __del__(self):  # best-effort safety net; executors close explicitly
        try:
            self.close()
        except Exception:
            pass


# --------------------------------------------------------------------- #
# SPSC byte ring: the serving pool's frame transport
# --------------------------------------------------------------------- #


class RingFull(RuntimeError):
    """A non-blocking ring write found insufficient free space."""


def attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach a named block WITHOUT registering it with the resource tracker.

    Attaching by name normally registers the segment (bpo-38119), which is
    doubly wrong for pool workers: the spawned child shares the parent's
    tracker process, so (a) a worker exiting would unlink segments the
    parent still owns, and (b) sending ``unregister`` afterwards would
    delete the parent's own registration of the same name (the tracker
    dedups by name), making the parent's eventual ``unlink`` complain.
    Suppressing ``register`` for the duration of the attach sidesteps both;
    workers attach before starting any threads, so the brief monkeypatch
    cannot race.
    """
    try:
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original
    except ImportError:  # pragma: no cover - tracker internals vary
        return shared_memory.SharedMemory(name=name)


class ShmRing:
    """Single-producer / single-consumer byte ring over one shared block.

    The ring stores *payload bytes only* — no in-band framing and no shared
    cursors.  The producer copies a payload in with :meth:`write` and ships
    the returned ``(pos, end)`` to the consumer out of band (the serving
    pool's pipe doorbell); the consumer maps it with :meth:`view`, copies
    it, and echoes ``end`` back the same way; the producer then frees the
    space with :meth:`release`.  Both cursors live in the producer's
    handle, so neither process ever writes the other's state, and every
    hand-off is ordered by the pipe's send/recv: the ring needs no atomics
    and holds on any CPU memory model.

    Allocations are contiguous: a payload that does not fit before the end
    of the buffer skips the tail fragment (the skip is accounted in the
    absolute cursors, so ``release(end)`` frees it implicitly).
    """

    def __init__(self, shm: shared_memory.SharedMemory, capacity: int, owner: bool):
        self._shm = shm
        self._owner = owner
        self.capacity = capacity
        self.head = 0  # absolute end of the last write (producer side)
        self.tail = 0  # absolute cursor up to which space is free again

    # ------------------------------------------------------------------ #
    @classmethod
    def create(cls, capacity: int) -> "ShmRing":
        if capacity < 1:
            raise ValueError("ring capacity must be positive")
        shm = shared_memory.SharedMemory(create=True, size=capacity)
        return cls(shm, capacity, owner=True)

    @classmethod
    def attach(cls, name: str) -> "ShmRing":
        """The consumer's handle: :meth:`view` only."""
        shm = attach_untracked(name)
        return cls(shm, shm.size, owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    def occupancy(self) -> float:
        """Fraction of the ring currently in flight (0.0 .. 1.0).

        Clamped: an empty-ring write whose wraparound skip plus payload
        exceeds ``capacity`` (see :meth:`write`) briefly puts more than
        ``capacity`` absolute bytes in flight even though no physical byte
        is used twice.
        """
        return min(1.0, (self.head - self.tail) / self.capacity)

    # ------------------------------------------------------------------ #
    def write(
        self,
        data,
        timeout: Optional[float] = None,
        poll_s: float = 0.0002,
    ) -> Tuple[int, int]:
        """Copy ``data`` (bytes-like) into the ring; returns ``(pos, end)``.

        ``pos`` is the byte offset of the payload, ``end`` the absolute
        cursor to pass to :meth:`release` once the consumer is done.  Blocks
        polling for space (freed by another producer-side thread) up to
        ``timeout`` seconds (``None``: forever); ``timeout=0`` is a
        non-blocking attempt.  Raises :class:`RingFull` on timeout and
        ``ValueError`` for payloads larger than the ring.
        """
        data = memoryview(data).cast("B")
        n = data.nbytes
        if n > self.capacity:
            raise ValueError(
                f"payload of {n} bytes exceeds ring capacity {self.capacity}"
            )
        deadline = None if timeout is None else time.monotonic() + timeout
        head = self.head
        while True:
            pos = head % self.capacity
            skip = self.capacity - pos if pos + n > self.capacity else 0
            if (head + skip + n) - self.tail <= self.capacity:
                break
            if skip and self.tail == head:
                # Ring empty: the skipped tail fragment holds no unconsumed
                # bytes, so a payload whose skip + n window exceeds capacity
                # (a near-maximal frame landing just past a wraparound) can
                # still be placed at the buffer start without clobbering
                # anything.  The absolute cursors advance by skip + n >
                # capacity, which is fine — release() frees by cursor, not
                # by byte position.  Without this clause such a write would
                # poll forever: the fit condition above can never hold.
                break
            if deadline is not None and time.monotonic() >= deadline:
                raise RingFull(
                    f"ring {self.name} full ({self.head - self.tail}/"
                    f"{self.capacity} bytes in flight, need {skip + n})"
                )
            time.sleep(poll_s)
        start = head + skip
        pos = start % self.capacity
        self._shm.buf[pos : pos + n] = data
        self.head = start + n
        return pos, self.head

    # ------------------------------------------------------------------ #
    def view(self, pos: int, nbytes: int) -> memoryview:
        """Zero-copy view of a payload; drop all references before close."""
        return self._shm.buf[pos : pos + nbytes]

    def release(self, end: int) -> None:
        """Free the space of every payload up to the absolute cursor ``end``.

        Echoed ``end`` values may arrive out of order (an error reply can
        overtake an earlier request's success reply), so the tail only moves
        forward.  Releasing up to the largest echoed ``end`` is safe as long
        as the consumer copies each payload when it receives it, before it
        replies to anything later.
        """
        self.tail = max(self.tail, end)

    # ------------------------------------------------------------------ #
    def close(self, unlink: Optional[bool] = None) -> None:
        """Unmap the ring; the owning side also unlinks the block."""
        unlink = self._owner if unlink is None else unlink
        if unlink:
            try:
                self._shm.unlink()
            except (FileNotFoundError, OSError):
                pass
        try:
            self._shm.close()
        except BufferError:
            # Views are still outstanding; retire the mapping instead of
            # segfaulting them (same policy as ShmArena.close).
            _RETIRED.append(self._shm)
