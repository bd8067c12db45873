"""The engine worker process of the serving pool.

One worker owns one compiled :class:`~repro.engine.Engine`, one
:class:`~repro.serve.batcher.MicroBatcher` and the session mirrors of its
shard — the same pieces the in-process server uses, just isolated in a
process so N workers beat the GIL on the stats/voting paths.  The parent
talks to it over a duplex pipe (the "doorbell": a few hundred bytes of
control data per request) while frame payloads arrive through a
shared-memory :class:`~repro.parallel.shm.ShmRing` — no numpy array is
ever pickled on the way in.

Protocol (all messages are small dicts over the pipe):

========  =============================================================
op        meaning
========  =============================================================
frames    run a ``(N, C, H, W)`` payload at ``(pos, end)`` in the ring
          through the batcher for session ``sid``; replies ``rows`` (or
          ``error``) and echoes ``end`` so the parent can free the space
open      mirror a parent-allocated session (explicit ``sid``); no reply
close     retire a session mirror; no reply
prime     one throwaway batch to warm the trace cache / numpy dispatch
drain     flush the batcher queue, reply, exit cleanly
========  =============================================================

Replies carry the originating ``req`` id.  A ``frames`` reply holds one
``(seq, raw, voted, cycles, energy_uj, margin)`` row per frame — the
fields of :class:`~repro.serve.batcher.FrameResult` — plus a counters
snapshot, so the parent's aggregated ``/metrics`` never has to ask a
worker for anything.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Any, Dict

import numpy as np

from ..parallel.shm import ShmRing
from .batcher import MicroBatcher
from .errors import ServeError, UnknownSessionError
from .metrics import ServeMetrics
from .sessions import SessionManager

# Workers never self-evict: the parent owns TTLs and sends explicit closes,
# so a worker-local eviction could never race the parent's view.
_WORKER_TTL_S = 1e12


@dataclass
class WorkerSpec:
    """Picklable recipe to rebuild the parent's engine inside a worker."""

    bundle: Any
    target: str
    majority_window: int
    num_classes: int
    backend_opts: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_engine(cls, engine) -> "WorkerSpec":
        backend = getattr(engine, "backend", None)
        if backend is None or not hasattr(backend, "bundle"):
            raise ValueError(
                "the worker pool needs a real repro.engine.Engine (the spec "
                "rebuilds it per worker from its ModelBundle); got "
                f"{type(engine).__name__}"
            )
        bundle = backend.bundle
        # Shed cached activation buffers before the spec is pickled to the
        # spawn machinery (same policy as the parallel flow's task units).
        for model in (bundle.float_model, bundle.quant_model):
            clear = getattr(model, "clear_caches", None)
            if clear is not None:
                clear()
        opts: Dict[str, Any] = {}
        sim_mode = getattr(backend, "sim_mode", None)
        if sim_mode is not None:
            opts["sim_mode"] = sim_mode
        return cls(
            bundle=bundle,
            target=engine.target,
            majority_window=engine.majority_window,
            num_classes=engine.num_classes,
            backend_opts=opts,
        )

    def build_engine(self):
        from ..engine.api import compile as compile_engine

        return compile_engine(
            self.bundle,
            target=self.target,
            majority_window=self.majority_window,
            num_classes=self.num_classes,
            **self.backend_opts,
        )


def _encode_error(exc: BaseException) -> dict:
    if isinstance(exc, ServeError):
        return {"code": exc.code, "status": exc.status, "detail": exc.detail}
    return {"code": "internal", "status": 500, "detail": f"{type(exc).__name__}: {exc}"}


def worker_main(
    spec: WorkerSpec, knobs: Dict[str, Any], ring_name: str, conn, index: int
) -> None:
    """Entry point of one engine worker process."""
    ring = ShmRing.attach(ring_name)
    send_lock = threading.Lock()

    def send(msg: dict) -> None:
        with send_lock:
            try:
                conn.send(msg)
            except (BrokenPipeError, OSError):  # parent is gone; exiting anyway
                pass

    metrics = ServeMetrics()

    def snapshot() -> dict:
        batch_sum, batch_n = metrics.batch_totals()
        return {
            "frames_total": metrics.counter("frames_total"),
            "batches_total": metrics.counter("batches_total"),
            "batch_sum": batch_sum,
            "batch_n": batch_n,
        }

    try:
        engine = spec.build_engine()
    except Exception as exc:  # the readiness handshake reports it
        send({"error": _encode_error(exc)})
        return

    sessions = SessionManager(
        ttl_s=_WORKER_TTL_S,
        default_window=engine.majority_window,
        num_classes=engine.num_classes,
    )
    batcher = MicroBatcher(
        engine.predict_batch,
        max_batch=knobs["max_batch"],
        max_wait_ms=knobs["max_wait_ms"],
        max_queue=knobs["max_queue"],
        max_session_queue=knobs["max_session_queue"],
        metrics=metrics,
    )
    batcher.start()
    send({"pid": os.getpid(), "target": engine.target, "worker": index})

    def finish(req: int, end: int, future) -> None:
        # Runs on the batcher dispatch thread.
        exc = future.exception()
        if exc is not None:
            send({"req": req, "end": end, "error": _encode_error(exc), "stats": snapshot()})
            return
        rows = [
            (r.seq, r.raw, r.voted, r.cycles, r.energy_uj, r.margin)
            for r in future.result()
        ]
        send({"req": req, "end": end, "rows": rows, "stats": snapshot()})

    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break  # parent died or closed: nothing left to serve
            op, req = msg["op"], msg.get("req")
            if op == "frames":
                end = msg["end"]
                dtype = np.dtype(msg["dtype"])
                shape = tuple(msg["shape"])
                nbytes = dtype.itemsize * int(np.prod(shape))
                # One private copy before anything else is received: every
                # later reply then tells the parent this payload's space is
                # free, whichever request it answers.
                view = ring.view(msg["pos"], nbytes)
                frames = np.frombuffer(view, dtype=dtype).reshape(shape).copy()
                del view
                try:
                    future = batcher.submit(sessions.get(msg["sid"]), frames)
                except ServeError as exc:
                    send({"req": req, "end": end, "error": _encode_error(exc)})
                else:
                    future.add_done_callback(
                        lambda f, req=req, end=end: finish(req, end, f)
                    )
            elif op == "open":
                # The parent opened the same session already, so this
                # cannot fail on the arguments.
                sessions.open(
                    window=msg["window"],
                    num_classes=msg["num_classes"],
                    session_id=msg["sid"],
                )
            elif op == "close":
                try:
                    sessions.close(msg["sid"])
                except UnknownSessionError:
                    pass
            elif op == "prime":
                # One throwaway batch decodes the trace into this process's
                # TraceCache and warms numpy dispatch before real traffic.
                try:
                    engine.predict_batch(np.zeros((1, *msg["shape"]), dtype=np.float64))
                except Exception as exc:
                    send({"req": req, "error": _encode_error(exc)})
                else:
                    send({"req": req, "payload": {"primed": True}})
            elif op == "drain":
                batcher.stop(drain=True)  # every queued frame replies first
                send({"req": req, "payload": {"drained": True}, "stats": snapshot()})
                break
    finally:
        try:
            batcher.stop(drain=False, timeout=5.0)
        except Exception:
            pass
        try:
            conn.close()
        except OSError:
            pass
        ring.close()
