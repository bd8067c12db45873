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

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Dict, Tuple

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
