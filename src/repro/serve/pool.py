"""Sharded multi-process serving: the engine worker pool.

With ``ServeConfig(workers=N)`` the :class:`~repro.serve.service.ServeService`
dispatches frames to an :class:`EngineWorkerPool` of N worker processes
instead of an in-process :class:`~repro.serve.batcher.MicroBatcher`; each
worker owns its own engine + micro-batcher (see :mod:`repro.serve.worker`).
Sessions are sharded onto workers by a consistent hash of the session id,
so every frame of a session flows through exactly one worker in submission
order — which is why served outputs stay bit-identical to an offline
``Engine.stream`` replay for every worker count.

Transport: every parent -> worker message (a push's frames array, session
opens and closes, ``prime``, ``drain``) goes into one FIFO outbox per
worker, and that worker's sender thread pickles it onto the pipe.  The
ingress only enqueues, so a worker that stops reading (stopped, swapping,
wedged) fills its socket buffer without ever blocking the event loop; the
``max_queue`` frames-in-flight cap answers 429 long before the outbox
grows large.  Result rows come back inline in the worker's reply.

Failure model: a worker that dies (segfault, OOM-kill) is detected by its
pump thread via pipe EOF.  Every in-flight request on that worker fails
with 503 + ``Retry-After: 1``, its sessions are purged (voter state lived
in the dead process, so subsequent pushes 404), and the pump thread
respawns and re-primes a fresh worker right away.  ``/metrics`` reports
per-worker ``worker_up``, shard sizes, frames in flight and cumulative
crash/restart counters.

Lifecycle: ``start()`` spawns every worker; ``prime()`` (used by the
benchmark) warms each one's trace cache up front.  Session mirrors are
opened and closed by fire-and-forget messages, so nothing but a push ever
waits on a worker.  ``stop(drain=True)`` sends each worker a ``drain`` op,
which flushes its batcher queue and replies to every outstanding frame
before the "drained" ack, so graceful shutdown never drops a frame.
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp
import queue
import threading
import time
from concurrent.futures import Future
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .batcher import FrameResult, _settle_future
from .errors import (
    ERRORS_BY_CODE,
    OverloadedError,
    ServeError,
    ShuttingDownError,
    WorkerCrashedError,
)
from .service import ServeService
from .sessions import Session
from .worker import WorkerSpec, worker_main

#: "fork" is faster to start but unsafe with the parent's threads
_MP = mp.get_context("spawn")

#: Kept for the frozen ``perfbench/serve_host.py``, which imports this name.
PoolServeService = ServeService


def shard_of(session_id: str, workers: int) -> int:
    """Consistent shard of a session id: sha256 is stable across processes
    and Python runs (unlike ``hash()`` under PYTHONHASHSEED)."""
    digest = hashlib.sha256(session_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % workers


class WorkerHandle:
    """Parent-side endpoint of one engine worker process.

    Owns the process, the pipe, the outbox with its sender thread (the only
    writer of the pipe) and the pump thread that drains worker replies.
    Callers never touch the pipe: they enqueue, so no call here blocks on a
    worker that stopped reading.  Request and lifecycle state change under
    ``_lock``; (re)spawns are serialized by ``_spawn_lock``, which
    ``prime``, ``drain`` and ``abort`` take too, so each waits out a
    respawn in progress.
    """

    def __init__(
        self,
        index: int,
        spec: WorkerSpec,
        config,
        on_crash: Optional[Callable[["WorkerHandle", List[Session]], None]] = None,
    ):
        self.index = index
        self.state = "new"  # new | up | dead | stopped
        self.restarts = 0  # successful respawns after a crash
        #: parent-side shard map: the sessions mirrored on this worker
        self.sessions: Dict[str, Session] = {}
        self.last_stats: Dict[str, float] = {}
        self.inflight = 0  # frames accepted for this worker, result not yet back
        #: frame shape a respawned worker is re-primed with (None: never)
        self.prime_shape: Optional[Tuple[int, ...]] = None
        self._spec = spec
        self._config = config
        self._on_crash = on_crash
        self._lock = threading.Lock()
        self._spawn_lock = threading.Lock()
        self._next_req = 0
        self._pending: Dict[int, Tuple[int, Future]] = {}  # req -> (n_frames, fut)
        self._proc = None
        self._conn = None
        #: parent -> worker messages in send order; ``None`` stops the sender
        self._outbox: Optional[queue.SimpleQueue] = None
        self._sender_thread: Optional[threading.Thread] = None
        self._pump_thread: Optional[threading.Thread] = None
        self._draining = False

    # ------------------------------------------------------------------ #
    @property
    def alive(self) -> bool:
        return self.state == "up" and self._proc is not None and self._proc.is_alive()

    def start(self) -> None:
        """Spawn the worker; returns once it reported ready."""
        with self._spawn_lock:
            if self.state != "up":
                self._spawn()

    def _spawn(self) -> None:
        config = self._config
        self._draining = False
        parent_conn, child_conn = _MP.Pipe(duplex=True)
        self._conn = parent_conn
        knobs = {
            "max_batch": config.max_batch,
            "max_wait_ms": config.max_wait_ms,
            "max_queue": config.max_queue,
            "max_session_queue": config.max_session_queue,
        }
        proc = _MP.Process(
            target=worker_main,
            args=(self._spec, knobs, child_conn, self.index),
            name=f"repro-serve-worker-{self.index}",
            daemon=True,
        )
        # Start, then a synchronous readiness handshake before the pump
        # owns the pipe.
        try:
            proc.start()
            self._proc = proc
            child_conn.close()  # the worker holds the other end now
            if not parent_conn.poll(config.worker_start_timeout_s):
                raise WorkerCrashedError(
                    f"engine worker {self.index} did not come up within "
                    f"{config.worker_start_timeout_s:.0f}s"
                )
            ready = parent_conn.recv()
            if "error" in ready:
                raise WorkerCrashedError(
                    f"engine worker {self.index} failed to start: "
                    f"{ready['error']['detail']}"
                )
        except (EOFError, OSError) as exc:
            child_conn.close()
            self._teardown()
            raise WorkerCrashedError(
                f"engine worker {self.index} failed to start: {exc}"
            ) from exc
        except WorkerCrashedError:
            self._teardown()
            raise
        self._outbox = queue.SimpleQueue()
        self._sender_thread = threading.Thread(
            target=_send_loop,
            args=(parent_conn, self._outbox),
            name=f"repro-serve-sender-{self.index}",
            daemon=True,
        )
        self._sender_thread.start()
        with self._lock:
            self.state = "up"
            self.inflight = 0
            self._pending = {}
            # Sessions opened while the shard was respawning.
            for session in self.sessions.values():
                self._notify_open(session)
        self._pump_thread = threading.Thread(
            target=self._pump, name=f"repro-serve-pump-{self.index}", daemon=True
        )
        self._pump_thread.start()

    def _respawn(self) -> None:
        """Replace a crashed worker right away (runs on the dead worker's
        pump thread), retrying once a second until it is up or stopped."""
        while True:
            with self._spawn_lock:
                if self.state != "dead":
                    return
                try:
                    self._spawn()
                except WorkerCrashedError:
                    pass
                else:
                    self.restarts += 1
                    if self.prime_shape is not None:
                        try:
                            self._prime()
                        except ServeError:
                            pass  # a crash here takes the new pump's crash path
                    return
            time.sleep(1.0)

    def prime(self, frame_shape: Tuple[int, ...]) -> None:
        """Warm the worker with one throwaway frame (and remember the shape
        for respawns)."""
        self.prime_shape = tuple(int(d) for d in frame_shape)
        with self._spawn_lock:
            self._prime()

    def _prime(self) -> None:
        self.rpc(
            "prime", timeout=self._config.worker_start_timeout_s, shape=self.prime_shape
        )

    # ------------------------------------------------------------------ #
    def _pump(self) -> None:
        """Drain worker replies and resolve the matching futures; on pipe
        EOF, finish the drain — or, if none was asked for, handle a crash."""
        conn = self._conn
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            try:
                self._pump_one(msg)
            except Exception:
                # One bad reply must never kill the pump: the shard would
                # wedge with inflight never decremented and every other
                # future unresolved.  _pump_one already settled its future.
                continue
        with self._lock:
            crashed = not self._draining
            self.state = "dead" if crashed else "stopped"
            pending, self._pending = self._pending, {}
            self.inflight = 0
            purged = list(self.sessions.values()) if crashed else []
            if crashed:
                self.sessions = {}
        if crashed:
            exc: ServeError = WorkerCrashedError(
                f"engine worker {self.index} died unexpectedly; session state lost"
            )
        else:
            exc = ShuttingDownError("server stopped")
        for _, future in pending.values():
            _settle_future(future, exc=exc)
        if crashed:
            self._teardown()
            if self._on_crash is not None:
                self._on_crash(self, purged)
            self._respawn()

    def _pump_one(self, msg: dict) -> None:
        """Settle the future of one worker reply.  Always decrements
        ``inflight``, even when the front-end already abandoned the future
        (request timeout / client disconnect) — otherwise the shard would
        fill up and stay full."""
        stats = msg.get("stats")
        if stats:
            self.last_stats = stats
        with self._lock:
            entry = self._pending.pop(msg.get("req"), None)
            if entry is not None:
                self.inflight -= entry[0]
        if entry is None:
            return
        future = entry[1]
        if "error" in msg:
            err = msg["error"]
            exc_cls = ERRORS_BY_CODE.get(err.get("code"), ServeError)
            _settle_future(future, exc=exc_cls(err.get("detail", "")))
        elif "rows" in msg:
            try:
                results = [FrameResult(*row) for row in msg["rows"]]
            except Exception as exc:  # malformed reply: fail this caller only
                _settle_future(future, exc=ServeError(f"undecodable worker reply: {exc}"))
            else:
                _settle_future(future, result=results)
        else:
            _settle_future(future, result=msg.get("payload"))

    def _teardown(self) -> None:
        """Stop the sender, reap the process, then close the pipe.  A send
        blocked on a full socket buffer returns once the process is gone,
        so the pipe is never closed under it."""
        sender, self._sender_thread = self._sender_thread, None
        if sender is not None:
            self._outbox.put(None)
        proc, self._proc = self._proc, None
        if proc is not None:
            proc.join(timeout=5)
            if proc.is_alive():  # a wedged or stopped worker
                proc.kill()
                proc.join(timeout=5)
        if sender is not None:
            sender.join()
        conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()

    # ------------------------------------------------------------------ #
    def open(self, session: Session) -> None:
        """Mirror ``session`` on the worker (fire-and-forget; a shard that is
        respawning gets it once its new worker is up)."""
        with self._lock:
            self.sessions[session.id] = session
            if self.state == "up":
                self._notify_open(session)

    def _notify_open(self, session: Session) -> None:
        self._notify(
            {
                "op": "open",
                "sid": session.id,
                "window": session.window,
                "num_classes": session.num_classes,
            }
        )

    def close(self, session_id: str) -> None:
        """Retire the session's mirror (fire-and-forget)."""
        with self._lock:
            if self.sessions.pop(session_id, None) is not None and self.state == "up":
                self._notify({"op": "close", "sid": session_id})

    def _notify(self, msg: dict) -> None:
        """Queue a message that gets no reply; the caller holds ``_lock``."""
        self._outbox.put(msg)

    def submit(self, session_id: str, frames: np.ndarray, max_queue: int) -> Future:
        """Queue one frames payload for the worker; returns the result future.

        Reject-not-block: more than ``max_queue`` frames in flight raises
        :class:`OverloadedError` (HTTP 429) instead of stalling the ingress.
        """
        # A private copy: the sender pickles it later, after the caller
        # may have reused its buffer.
        frames = np.array(frames, dtype=np.float64)
        n = int(frames.shape[0])
        with self._lock:
            if self._draining or self.state == "stopped":
                raise ShuttingDownError("server is draining")
            if self.state != "up":
                raise WorkerCrashedError(f"engine worker {self.index} is down")
            if self.inflight + n > max_queue:
                raise OverloadedError(
                    f"worker {self.index} queue full "
                    f"({self.inflight}/{max_queue} frames in flight)"
                )
            return self._request({"op": "frames", "sid": session_id, "frames": frames}, n)

    def _request(self, msg: dict, n: int) -> Future:
        """Queue a message that gets a reply (carrying ``n`` frames); the
        caller holds ``_lock``.  If the worker is dead, the pump's EOF path
        fails the future."""
        req = msg["req"] = self._next_req
        self._next_req += 1
        future: Future = Future()
        self._pending[req] = (n, future)
        self.inflight += n
        self._outbox.put(msg)
        return future

    def rpc(self, op: str, timeout: float = 30.0, **payload):
        """Blocking control round-trip (prime / drain)."""
        with self._lock:
            if self.state != "up":
                raise WorkerCrashedError(f"engine worker {self.index} is down")
            future = self._request({"op": op, **payload}, 0)
        try:
            return future.result(timeout=timeout)
        except TimeoutError as exc:
            raise ServeError(
                f"engine worker {self.index} {op!r} timed out after {timeout:.0f}s"
            ) from exc

    # ------------------------------------------------------------------ #
    def drain(self, timeout: float = 60.0) -> None:
        """Flush the worker's batcher queue, then shut the process down.

        The ``drain`` op is queued behind any frames already accepted, so
        every in-flight request resolves before the "drained" ack."""
        with self._spawn_lock, self._lock:
            up = self.state == "up"
            self._draining = True
            if not up:
                self.state = "stopped"
        if up:
            try:
                self.rpc("drain", timeout=timeout)
            except ServeError:  # died mid-drain: fall through to teardown
                pass
        self._shutdown()

    def abort(self) -> None:
        """Immediate shutdown: terminate the process; in-flight requests
        fail with 503 ``shutting_down``."""
        with self._spawn_lock, self._lock:
            self._draining = True  # pump EOF -> stopped, not crashed
            self.state = "stopped"
            proc = self._proc
        if proc is not None and proc.is_alive():
            proc.terminate()
        self._shutdown()

    def _shutdown(self) -> None:
        pump, self._pump_thread = self._pump_thread, None
        if pump is not None:
            pump.join(timeout=5)
        with self._lock:
            self.state = "stopped"
        self._teardown()

    def kill(self) -> None:
        """Test hook: SIGKILL the worker (simulates a crash; the pump thread
        observes pipe EOF and runs the normal crash path)."""
        proc = self._proc
        if proc is not None and proc.is_alive():
            proc.kill()

    # ------------------------------------------------------------------ #
    def describe(self) -> dict:
        return {
            "up": 1 if self.alive else 0,
            "sessions": len(self.sessions),
            "inflight": self.inflight,
            "stats": dict(self.last_stats),
        }


def _send_loop(conn, outbox: queue.SimpleQueue) -> None:
    """A worker's sender thread: the pipe's only writer, in outbox order.
    It stops at the ``None`` sentinel or when the worker is gone (the
    pump's EOF path then fails whatever was still pending)."""
    while True:
        msg = outbox.get()
        if msg is None:
            return
        try:
            conn.send(msg)
        except OSError:
            return


class EngineWorkerPool:
    """N engine workers plus the shard routing between them: the
    ``workers=N`` dispatcher of :class:`~repro.serve.service.ServeService`.

    Implements the same seam as :class:`~repro.serve.batcher.MicroBatcher`
    (``open`` / ``submit`` / ``close`` / ``depth`` / ``start`` / ``stop``)
    and adds the pool's gauges and per-worker series to ``metrics``.
    """

    def __init__(
        self,
        engine,
        config,
        metrics,
        clock: Callable[[], float] = time.monotonic,
        on_crash: Optional[Callable[[List[Session]], None]] = None,
    ):
        if config.workers < 1:
            raise ValueError("EngineWorkerPool needs workers >= 1")
        spec = WorkerSpec.from_engine(engine)
        self.config = config
        self._metrics = metrics
        self._clock = clock
        self._on_crash = on_crash
        # Deterministic chaos bookkeeping (config.chaos; all counters, no RNG).
        self.chaos_kills = 0
        self._chaos_frames = 0
        self._chaos_submits = 0
        self._chaos_lock = threading.Lock()
        self.handles = [
            WorkerHandle(i, spec, config, on_crash=self._crashed)
            for i in range(config.workers)
        ]
        metrics.register_gauge("pool_workers", lambda: self.workers)
        metrics.register_gauge("pool_workers_up", self.workers_up)
        metrics.register_renderer(self.render)

    # ------------------------------------------------------------------ #
    @property
    def workers(self) -> int:
        return len(self.handles)

    @property
    def depth(self) -> int:
        """Frames in flight across all workers (the ``queue_depth`` gauge)."""
        return sum(h.inflight for h in self.handles)

    def handle(self, session_id: str) -> WorkerHandle:
        return self.handles[shard_of(session_id, self.workers)]

    def _crashed(self, handle: WorkerHandle, sessions: List[Session]) -> None:
        self._metrics.inc("pool_worker_crashes_total")
        if self._on_crash is not None:
            self._on_crash(sessions)

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Spawn every worker (a failed spawn stops the ones already up)."""
        try:
            for h in self.handles:
                h.start()
        except BaseException:
            self.stop(drain=False)
            raise

    def stop(self, drain: bool = True) -> None:
        for h in self.handles:
            if drain:
                h.drain()
            else:
                h.abort()

    def prime(self, frame_shape: Tuple[int, ...]) -> None:
        """Warm every worker's trace cache now (one decode per worker)
        instead of on first traffic."""
        for h in self.handles:
            h.prime(frame_shape)

    # ------------------------------------------------------------------ #
    def open(self, session: Session) -> dict:
        handle = self.handle(session.id)
        handle.open(session)
        return {"worker": handle.index}

    def close(self, session: Session) -> None:
        self.handle(session.id).close(session.id)

    def _apply_chaos(self, handle: WorkerHandle, n: int) -> None:
        """Run the configured deterministic failure injection for one submit.

        Trigger evaluation is counter-based under one lock; the disruptive
        actions (sleep, SIGKILL, simulated overload 429) happen outside it.
        A killed worker takes the normal crash path — pump EOF, 503 on
        in-flight requests, session purge, respawn — so chaos tests
        exercise exactly the machinery real crashes do.
        """
        chaos = self.config.chaos
        if chaos is None:
            return
        with self._chaos_lock:
            self._chaos_submits += 1
            reject = bool(chaos.reject_every) and (
                self._chaos_submits % chaos.reject_every == 0
            )
            kill = (
                chaos.kill_after_frames is not None
                and self.chaos_kills < chaos.max_kills
                and (chaos.kill_worker is None or handle.index == chaos.kill_worker)
                and self._chaos_frames + n >= chaos.kill_after_frames
            )
            if kill:
                self.chaos_kills += 1
            self._chaos_frames += n
        if chaos.delay_ms > 0:
            time.sleep(chaos.delay_ms / 1e3)
        if kill:
            handle.kill()
        if reject:
            raise OverloadedError(
                f"chaos: simulated full queue on worker {handle.index}"
            )

    def submit(self, session: Session, frames: np.ndarray) -> Future:
        """Admit ``frames`` for ``session`` and ship them to its worker;
        returns a future resolving to the ordered ``List[FrameResult]``."""
        n = int(frames.shape[0])
        handle = self.handle(session.id)
        if handle.prime_shape is None:
            handle.prime_shape = tuple(int(d) for d in frames.shape[1:])
        self._apply_chaos(handle, n)
        session.admit(n, self.config.max_session_queue, self._clock())
        try:
            sent = handle.submit(session.id, frames, self.config.max_queue)
        except BaseException:
            # The worker's mirror numbers the frames, so only the pending
            # count needs rolling back.
            session.release(n)
            raise
        future: Future = Future()
        sent.add_done_callback(lambda f: self._settle(session, n, f, future))
        return future

    def _settle(self, session: Session, n: int, sent: Future, future: Future) -> None:
        """Book a worker reply into the parent session, then resolve the
        caller's future (so a client that saw its response finds the frames
        in ``frames_seen``, the vote-margin gauge and ``/metrics``)."""
        exc = sent.exception()
        results = None if exc is not None else sent.result()
        with session.lock:
            session.pending -= n
            if results is not None:
                session.frames_done += n
                for r in results:
                    session.record_margin(r.margin)
        if results is not None:
            self._metrics.inc("frames_total", n)
        _settle_future(future, result=results, exc=exc)

    # ------------------------------------------------------------------ #
    def workers_up(self) -> int:
        return sum(1 for h in self.handles if h.alive)

    def restarts_total(self) -> int:
        return sum(h.restarts for h in self.handles)

    def ring_names(self) -> List[str]:
        """Always empty: kept for the frozen ``perfbench/serve_host.py``."""
        return []

    def stats(self) -> dict:
        """Aggregated per-worker batching counters (piggybacked snapshots)."""
        frames = batches = batch_sum = batch_n = 0
        for h in self.handles:
            stats = h.last_stats
            frames += int(stats.get("frames_total", 0))
            batches += int(stats.get("batches_total", 0))
            batch_sum += int(stats.get("batch_sum", 0))
            batch_n += int(stats.get("batch_n", 0))
        return {
            "frames_total": frames,
            "batches_total": batches,
            "mean_batch_size": (batch_sum / batch_n) if batch_n else None,
            "workers": self.workers,
            "workers_up": self.workers_up(),
            "crashes_total": self._metrics.counter("pool_worker_crashes_total"),
            "restarts_total": self.restarts_total(),
            "chaos_kills": self.chaos_kills,
        }

    def render(self) -> str:
        """Per-worker labeled series appended to the ``/metrics`` payload."""
        p = "repro_serve_pool"
        described = [h.describe() for h in self.handles]
        lines = [
            f"# TYPE {p}_worker_restarts_total counter",
            f"{p}_worker_restarts_total {self.restarts_total()}",
        ]
        for name, kind, value in (
            ("worker_up", "gauge", lambda d: d["up"]),
            ("shard_sessions", "gauge", lambda d: d["sessions"]),
            ("inflight_frames", "gauge", lambda d: d["inflight"]),
            ("worker_frames_total", "counter", lambda d: int(d["stats"].get("frames_total", 0))),
            ("worker_batches_total", "counter", lambda d: int(d["stats"].get("batches_total", 0))),
        ):
            lines.append(f"# TYPE {p}_{name} {kind}")
            lines.extend(f'{p}_{name}{{worker="{i}"}} {value(d)}' for i, d in enumerate(described))
        return "\n".join(lines)
