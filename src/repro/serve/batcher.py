"""Cross-session micro-batching through one engine ``predict_batch`` call.

The batcher owns the serving hot path.  Frames arriving from any number of
concurrent sessions are enqueued as individual work items on one bounded
FIFO; a single dispatch thread pops the head item, keeps collecting until
``max_batch`` frames are in hand or ``max_wait_ms`` has elapsed since the
window opened, stacks the frames into one ``(N, C, H, W)`` array and runs a
single ``Engine.predict_batch`` — so the per-frame Python overhead
amortizes exactly like the batched simulator path, while each session's
majority FIFO is updated strictly in that session's arrival order.

Ordering guarantee: items are appended under the queue lock in submit
order and dispatched FIFO by one thread, so for any single session the
voter sees frames in exactly the order the client pushed them — which is
what makes served outputs bit-identical to an offline ``Engine.stream``
replay regardless of how sessions interleave (property-tested in
``tests/test_serve.py``).

Backpressure is reject-not-block: a submit that would exceed the global or
per-session bound raises :class:`~repro.serve.errors.OverloadedError`
immediately (the HTTP layer maps it to 429) instead of stalling the
event loop.  ``stop(drain=True)`` refuses new work but runs the dispatch
loop until the queue is empty, so graceful shutdown never drops an
in-flight frame.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .errors import OverloadedError, SessionClosedError, ShuttingDownError
from .sessions import Session


def _settle_future(
    future: Future, result=None, exc: Optional[BaseException] = None
) -> None:
    """Resolve a request future, tolerating one the front-end abandoned.

    ``asyncio.wait_for`` cancels the wrapped future on request timeout or
    client disconnect, possibly between a ``done()`` check and the set, so
    a late result must be a no-op — not an ``InvalidStateError`` that would
    kill the dispatch thread (batcher) or the pump thread (pool).
    """
    try:
        if future.done():
            return
        if exc is not None:
            future.set_exception(exc)
        else:
            future.set_result(result)
    except InvalidStateError:
        pass  # cancelled between the done() check and the set


@dataclass
class FrameResult:
    """Raw + majority-voted outcome of one served frame."""

    seq: int
    raw: int
    voted: int
    cycles: Optional[int] = None
    energy_uj: Optional[float] = None
    #: the session's vote margin after this frame: carried from a pool
    #: worker to the parent's health gauge, never into the HTTP payload
    margin: Optional[float] = None

    def as_json(self) -> dict:
        return {
            "seq": self.seq,
            "raw": self.raw,
            "voted": self.voted,
            "cycles": self.cycles,
            "energy_uj": self.energy_uj,
        }


class _Request:
    """Aggregates the per-frame results of one client push."""

    def __init__(self, count: int):
        self.future: Future = Future()
        self._results: List[Optional[FrameResult]] = [None] * count
        self._remaining = count

    def complete(self, slot: int, result: FrameResult) -> None:
        self._results[slot] = result
        self._remaining -= 1
        if self._remaining == 0:
            _settle_future(self.future, result=self._results)

    def fail(self, exc: BaseException) -> None:
        _settle_future(self.future, exc=exc)


@dataclass
class _Item:
    session: Session
    frame: np.ndarray
    request: _Request
    slot: int
    seq: int


class MicroBatcher:
    """Bounded FIFO + one dispatch thread coalescing frames across sessions.

    Parameters
    ----------
    runner:
        ``(N, ...) ndarray -> BatchPrediction``-shaped callable; in the
        service this is the engine's thread-safe ``predict_batch``.  All
        calls happen on the single dispatch thread the batcher owns.
    max_batch:
        Largest number of frames fused into one ``runner`` call
        (``1`` disables batching — the unbatched reference path).
    max_wait_ms:
        How long the dispatcher holds an under-full batch open waiting for
        more frames, measured from the first queued frame of the batch.
    max_queue / max_session_queue:
        Global / per-session admission bounds (reject with 429 beyond).
    """

    def __init__(
        self,
        runner: Callable[[np.ndarray], object],
        *,
        max_batch: int = 32,
        max_wait_ms: float = 2.0,
        max_queue: int = 1024,
        max_session_queue: int = 256,
        metrics=None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        self._runner = runner
        self.max_batch = int(max_batch)
        self.max_wait_s = float(max_wait_ms) / 1e3
        self.max_queue = int(max_queue)
        self.max_session_queue = int(max_session_queue)
        self._metrics = metrics
        self._clock = clock
        self._queue: deque = deque()
        self._cond = threading.Condition()
        self._stopping = False
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    @property
    def depth(self) -> int:
        with self._cond:
            return len(self._queue)

    def open(self, session: Session) -> dict:
        """Dispatcher seam: nothing to set up in-process (the pool places
        the session on a worker here)."""
        return {}

    def close(self, session: Session) -> None:
        """Dispatcher seam: queued frames of a closed session fail on
        their own at dispatch."""

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stopping = False
        self._thread = threading.Thread(
            target=self._loop, name="repro-serve-batcher", daemon=True
        )
        self._thread.start()

    def submit(self, session: Session, frames: np.ndarray) -> Future:
        """Admit ``(N, ...)`` frames for one session; all-or-nothing.

        Returns a future resolving to the ordered ``List[FrameResult]``.
        """
        frames = np.asarray(frames)
        n = int(frames.shape[0])
        if n < 1:
            raise ValueError("submit needs at least one frame")
        request = _Request(n)
        with self._cond:
            if self._stopping or self._thread is None:
                raise ShuttingDownError("server is draining")
            if len(self._queue) + n > self.max_queue:
                raise OverloadedError(
                    f"global queue full ({len(self._queue)}/{self.max_queue})"
                )
            first_seq = session.admit(n, self.max_session_queue, self._clock())
            for slot in range(n):
                self._queue.append(
                    _Item(
                        session=session,
                        frame=frames[slot],
                        request=request,
                        slot=slot,
                        seq=first_seq + slot,
                    )
                )
            self._cond.notify_all()
        return request.future

    def stop(self, drain: bool = True, timeout: Optional[float] = 30.0) -> None:
        """Refuse new work; with ``drain`` finish the queue first."""
        with self._cond:
            self._stopping = True
            if not drain:
                while self._queue:
                    item = self._queue.popleft()
                    item.session.release(1)
                    item.request.fail(ShuttingDownError("server stopped"))
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    # ------------------------------------------------------------------ #
    def _collect(self) -> Optional[List[_Item]]:
        """Block for the next batch (None once stopped and drained)."""
        with self._cond:
            while not self._queue and not self._stopping:
                self._cond.wait()
            if not self._queue:
                return None  # stopping and fully drained
            batch = [self._queue.popleft()]
            deadline = self._clock() + self.max_wait_s
            while len(batch) < self.max_batch:
                if self._queue:
                    batch.append(self._queue.popleft())
                    continue
                if self._stopping:
                    break
                remaining = deadline - self._clock()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            return batch

    def _loop(self) -> None:
        while True:
            batch = self._collect()
            if batch is None:
                return
            self._run_batch(batch)

    def _run_batch(self, batch: List[_Item]) -> None:
        # Frames of sessions closed/evicted while queued never reach the
        # engine; their requests fail with 409.
        live: List[_Item] = []
        for item in batch:
            with item.session.lock:
                closed = item.session.closed
            if closed:
                item.request.fail(
                    SessionClosedError(f"session {item.session.id} closed mid-stream")
                )
            else:
                live.append(item)
        if live:
            # Count the batch before any request future resolves: a client
            # that has seen its response must find its frames in /metrics.
            if self._metrics is not None:
                self._metrics.observe_batch(len(live))
                self._metrics.inc("batches_total")
                self._metrics.inc("frames_total", len(live))
            try:
                result = self._runner(np.stack([item.frame for item in live]))
            except Exception as exc:  # propagate engine failures per request
                for item in live:
                    item.request.fail(exc)
            else:
                predictions = result.predictions
                cycles = result.cycles_per_frame
                energy = result.energy_uj_per_frame
                for i, item in enumerate(live):
                    raw = int(predictions[i])
                    with item.session.lock:
                        if item.session.closed:
                            item.request.fail(
                                SessionClosedError(
                                    f"session {item.session.id} closed mid-stream"
                                )
                            )
                            continue
                        voted = item.session.record_vote(raw)
                        item.session.frames_done += 1
                        margin = item.session.last_margin
                    item.request.complete(
                        item.slot,
                        FrameResult(
                            seq=item.seq,
                            raw=raw,
                            voted=voted,
                            cycles=None if cycles is None else int(cycles[i]),
                            energy_uj=None if energy is None else float(energy[i]),
                            margin=margin,
                        ),
                    )
        for item in batch:
            item.session.release(1)
