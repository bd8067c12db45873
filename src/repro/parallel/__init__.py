"""`repro.parallel` — executor-based trial parallelism with result caching.

The optimization flow's slow layers are sweeps of independent training runs
(one PIT search per lambda, one QAT run per precision scheme, one
compile+verify per deployment target).  This package supplies the pieces
that turn those loops into parallel, resumable task units:

* **Executors** (:func:`get_executor`, :class:`SerialExecutor`,
  :class:`ThreadExecutor`, :class:`ProcessExecutor`) — where units run.
  Each unit carries its own :class:`numpy.random.SeedSequence`-derived RNG,
  so serial, thread and process execution are bit-identical for any worker
  count.  The process executor keeps one **persistent** worker pool across
  ``run()`` calls and is a context manager (``close()`` releases workers
  and shared memory).
* **Shared-memory handoff** (:mod:`repro.parallel.shm`) — the flow's
  datasets are placed in ``multiprocessing.shared_memory`` once per run and
  referenced by tiny descriptors in task payloads, eliminating the per-task
  dataset pickling that made the PR-3 pool slower than serial.  It is the
  process executor's alone: the serving pool sends its few-KB frame pushes
  inline on its worker pipes.
* **Result cache** (:class:`ResultCache`, :func:`fingerprint`) — a
  content-addressed on-disk store keyed by (seed, config, dataset content),
  so repeated flow runs skip already-trained points.

Entry points are ``FlowConfig(executor=..., max_workers=..., cache_dir=...)``
and the ``executor`` / ``cache`` parameters of
:func:`repro.nas.search.run_search` and
:func:`repro.quant.mixed.explore_mixed_precision`.
"""

from .cache import ResultCache, fingerprint
from .executor import (
    EXECUTORS,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    executor_is_owned,
    get_executor,
    run_tasks,
)
from .shm import SharedArray, ShmArena, ShmDescriptor, attach

__all__ = [
    "EXECUTORS",
    "ProcessExecutor",
    "ResultCache",
    "SerialExecutor",
    "SharedArray",
    "ShmArena",
    "ShmDescriptor",
    "ThreadExecutor",
    "attach",
    "executor_is_owned",
    "fingerprint",
    "get_executor",
    "run_tasks",
]
