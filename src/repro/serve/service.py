"""Transport-agnostic core of the serving subsystem.

:class:`ServeService` glues one thread-safe :class:`~repro.engine.Engine`
to the session registry, a frame dispatcher and the metrics registry, and
implements the HTTP route semantics once — both front-ends (the
hand-rolled asyncio HTTP/1.1 server and the WSGI adapter) route into
:meth:`ServeService.handle` and only differ in how they wait for the
dispatcher's future: the asyncio server awaits it, WSGI blocks on it.
"""

from __future__ import annotations

import json
import re
import sys
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from ..engine.guard import InvalidFrameError
from .batcher import MicroBatcher
from .errors import (
    BadRequestError,
    InvalidFramesError,
    ServeError,
    ShuttingDownError,
    UnknownSessionError,
)
from .metrics import ServeMetrics
from .sessions import SessionManager

_FRAMES_PATH = re.compile(r"^/v1/sessions/([0-9a-f]+)/frames$")
_SESSION_PATH = re.compile(r"^/v1/sessions/([0-9a-f]+)$")


def _endpoint_of(path: str) -> str:
    """The ``endpoint`` label of a request path, from the fixed set
    ``healthz|metrics|sessions|frames|unknown``: a client-chosen path (a
    session id, a typo) must never become a ``/metrics`` series."""
    if path in ("/healthz", "/metrics"):
        return path[1:]
    if _FRAMES_PATH.match(path):
        return "frames"
    if path == "/v1/sessions" or _SESSION_PATH.match(path):
        return "sessions"
    return "unknown"


@dataclass
class ChaosConfig:
    """Deterministic failure injection for the worker pool (tests/CI).

    No randomness: every trigger is a plain counter over submits/frames, so
    a chaos scenario replays identically.  All knobs default to off; the
    config only takes effect with ``workers >= 1``.
    """

    #: SIGKILL a worker once this many frames have been submitted pool-wide
    #: (exercises the crash path: in-flight 503, session purge, respawn) —
    #: ``None`` disables.
    kill_after_frames: Optional[int] = None
    #: restrict the kill to one worker index (``None``: whichever worker
    #: receives the submit that crosses the threshold).
    kill_worker: Optional[int] = None
    #: at most this many chaos kills per pool lifetime.
    max_kills: int = 1
    #: every Nth submit fails as if the request ring were full (HTTP 429).
    reject_every: Optional[int] = None
    #: added latency per submit, in milliseconds (slow-worker simulation).
    delay_ms: float = 0.0


@dataclass
class ServeConfig:
    """Knobs of the serving layer (micro-batching, backpressure, eviction).

    ``workers=0`` (the default) keeps everything in-process: one engine, one
    micro-batcher.  ``workers=N`` shards sessions by consistent hash onto N
    engine worker processes, each with its own engine + micro-batcher, with
    frames travelling through per-worker shared-memory rings (see
    :mod:`repro.serve.pool`).
    """

    max_batch: int = 32
    max_wait_ms: float = 2.0
    max_queue: int = 1024
    max_session_queue: int = 256
    session_ttl_s: float = 300.0
    request_timeout_s: float = 30.0
    majority_window: Optional[int] = None  # None: the engine's default
    num_classes: Optional[int] = None  # None: the engine's default
    # --- input guardrails (None = no validation, the historical behavior) ---
    on_invalid: Optional[str] = None  # "reject" | "clamp" | "hold_last"
    input_range: Optional[Tuple[float, float]] = None
    # --- worker pool (0 = single-process serving, the default) ---
    workers: int = 0
    worker_start_timeout_s: float = 120.0
    #: deterministic failure injection (pool mode only; None = off)
    chaos: Optional[ChaosConfig] = None

    def as_json(self) -> dict:
        payload = {
            "max_batch": self.max_batch,
            "max_wait_ms": self.max_wait_ms,
            "max_queue": self.max_queue,
            "max_session_queue": self.max_session_queue,
            "session_ttl_s": self.session_ttl_s,
        }
        if self.workers:  # keep the workers=0 wire format byte-identical
            payload["workers"] = self.workers
        if self.on_invalid is not None:  # ditto for unguarded deployments
            payload["on_invalid"] = self.on_invalid
            if self.input_range is not None:
                payload["input_range"] = list(self.input_range)
        return payload


@dataclass
class Response:
    """One materialized HTTP response."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: Optional[Dict[str, str]] = None  # extra headers (e.g. Retry-After)

    @classmethod
    def json(
        cls, status: int, payload: Any, headers: Optional[Dict[str, str]] = None
    ) -> "Response":
        return cls(
            status=status, body=(json.dumps(payload) + "\n").encode(), headers=headers
        )

    @classmethod
    def text(cls, status: int, payload: str) -> "Response":
        return cls(
            status=status,
            body=payload.encode(),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    @classmethod
    def error(cls, exc: ServeError) -> "Response":
        return cls.json(
            exc.status,
            {"error": exc.code, "detail": exc.detail},
            headers=getattr(exc, "headers", None),
        )


@dataclass
class PendingResponse:
    """A frames request waiting on the dispatcher.

    The front-end waits for :attr:`future` its own way (``await`` vs
    ``.result()``) and then calls :meth:`complete` / :meth:`fail` to turn
    the outcome into a uniform :class:`Response`.
    """

    future: Future
    session_id: str
    count: int
    endpoint: str = "frames"
    started: float = field(default_factory=time.perf_counter)
    _metrics: Optional[ServeMetrics] = None

    def complete(self, results) -> Response:
        if self._metrics is not None:
            self._metrics.observe_latency(time.perf_counter() - self.started)
        return Response.json(
            200,
            {
                "session_id": self.session_id,
                "count": self.count,
                "results": [r.as_json() for r in results],
            },
        )

    def fail(self, exc: BaseException) -> Response:
        if isinstance(exc, ServeError):
            return Response.error(exc)
        return Response.json(500, {"error": "internal", "detail": str(exc)})


class ServeService:
    """Sessions + a frame dispatcher + metrics over one compiled engine.

    ``config.workers`` only picks the dispatcher: ``0`` builds an
    in-process :class:`MicroBatcher`, ``N`` an
    :class:`~repro.serve.pool.EngineWorkerPool` of N engine processes.
    Both implement ``open`` / ``submit(session, frames) -> Future`` /
    ``close`` / ``depth`` / ``start`` / ``stop``, so every route has one
    body whatever the worker count.
    """

    def __init__(
        self,
        engine,
        config: Optional[ServeConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.engine = engine
        self.config = config or ServeConfig()
        self._clock = clock
        self.metrics = ServeMetrics()
        self.sessions = SessionManager(
            ttl_s=self.config.session_ttl_s,
            default_window=self.config.majority_window
            if self.config.majority_window is not None
            else getattr(engine, "majority_window", 5),
            num_classes=self.config.num_classes
            if self.config.num_classes is not None
            else getattr(engine, "num_classes", 4),
            clock=clock,
            on_evict=self._evicted,
            on_invalid=self.config.on_invalid,
            input_range=self.config.input_range,
        )
        self.metrics.register_gauge("active_sessions", lambda: len(self.sessions))
        self.metrics.register_gauge("queue_depth", lambda: self.dispatcher.depth)
        self.metrics.register_renderer(self._render_session_health)
        if self.config.workers:
            from .pool import EngineWorkerPool  # deferred: pool imports this module

            self.pool = EngineWorkerPool(
                engine, self.config, self.metrics, clock, on_crash=self._purge
            )
            self.dispatcher = self.pool
        else:
            self.pool = None
            self.dispatcher = MicroBatcher(
                engine.predict_batch,
                max_batch=self.config.max_batch,
                max_wait_ms=self.config.max_wait_ms,
                max_queue=self.config.max_queue,
                max_session_queue=self.config.max_session_queue,
                metrics=self.metrics,
                clock=clock,
            )
        self._started = False
        self._stopping = False

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Start dispatching (spawns the pool's workers; blocks until they
        are up)."""
        self.dispatcher.start()
        self._started = True
        self._stopping = False

    def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: refuse new work, drain in-flight batches."""
        self._stopping = True
        self.dispatcher.stop(drain=drain)
        self.sessions.close_all()
        self._started = False

    @property
    def accepting(self) -> bool:
        return self._started and not self._stopping

    def prime(self, frame_shape) -> None:
        """Run one throwaway frame through every pool worker so its set-up
        costs (trace decode, JIT) are paid before the first real push
        (nothing to do in process)."""
        if self.pool is not None:
            self.pool.prime(frame_shape)

    def pool_stats(self) -> Optional[dict]:
        """Batching, crash and restart counters aggregated over the pool's
        workers (None without a pool)."""
        return None if self.pool is None else self.pool.stats()

    # ------------------------------------------------------------------ #
    def open_session(
        self, window: Optional[int] = None, num_classes: Optional[int] = None
    ) -> dict:
        if not self.accepting:
            raise ShuttingDownError("server is draining")
        try:
            session = self.sessions.open(window=window, num_classes=num_classes)
        except ValueError as exc:
            raise BadRequestError(str(exc)) from exc
        placement = self.dispatcher.open(session)
        self.metrics.inc("sessions_opened_total")
        return {
            "session_id": session.id,
            "window": session.window,
            "num_classes": session.num_classes,
            "target": getattr(self.engine, "target", "unknown"),
            **placement,
            "config": self.config.as_json(),
        }

    def _guard_frames(self, session, frames: np.ndarray) -> np.ndarray:
        """Apply the session's input guard (no-op when unconfigured).

        Runs under the session lock so the guard's hold-last state and
        counters see frames in admission order; maps a rejection to the
        HTTP 400 ``invalid_frames`` error.
        """
        guard = session.guard
        if guard is None:
            return frames
        with session.lock:
            before = guard.health.invalid_frames
            try:
                frames = guard.apply(frames)
            finally:
                bad = guard.health.invalid_frames - before
        if bad:
            self.metrics.inc("invalid_frames_total", bad)
        return frames

    def submit_frames(self, session_id: str, frames: np.ndarray) -> PendingResponse:
        session = self.sessions.get(session_id)
        try:
            frames = self._guard_frames(session, frames)
        except InvalidFrameError as exc:
            raise InvalidFramesError(str(exc)) from exc
        future = self.dispatcher.submit(session, frames)
        return PendingResponse(
            future=future,
            session_id=session_id,
            count=int(frames.shape[0]),
            _metrics=self.metrics,
        )

    def close_session(self, session_id: str) -> dict:
        session = self.sessions.close(session_id)
        self.dispatcher.close(session)
        self.metrics.inc("sessions_closed_total")
        return session.describe()

    def evict_idle(self) -> int:
        return len(self.sessions.evict_idle())

    def _evicted(self, session) -> None:
        """``on_evict`` hook of both eviction paths: the sweeper and the
        lazy TTL check of ``SessionManager.get``."""
        self.metrics.inc("evictions_total")
        self.dispatcher.close(session)

    def _purge(self, sessions) -> None:
        """A pool worker crashed and its sessions' voter state with it:
        retire them here too, so their next push is a clean 404 and the
        client re-opens onto the respawned worker."""
        for session in sessions:
            try:
                self.sessions.close(session.id)
            except UnknownSessionError:
                pass

    def healthz(self) -> Tuple[int, dict]:
        status = 200 if self.accepting else 503
        payload = {
            "status": "ok" if self.accepting else "shutting_down",
            "target": getattr(self.engine, "target", "unknown"),
            "active_sessions": len(self.sessions),
            "queue_depth": self.dispatcher.depth,
        }
        if self.pool is not None:
            payload["workers"] = self.pool.workers
            payload["workers_up"] = self.pool.workers_up()
        return status, payload

    # ------------------------------------------------------------------ #
    @staticmethod
    def _parse_json(body: bytes) -> dict:
        if not body:
            return {}
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise BadRequestError(f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise BadRequestError("JSON body must be an object")
        return payload

    @staticmethod
    def _parse_frames(payload: dict) -> np.ndarray:
        if "frames" not in payload:
            raise BadRequestError("missing 'frames' field")
        try:
            frames = np.asarray(payload["frames"], dtype=np.float64)
        except (ValueError, TypeError) as exc:
            raise BadRequestError(f"frames are not a numeric array: {exc}") from exc
        if frames.ndim == 3:  # a single (C, H, W) frame
            frames = frames[None]
        if frames.ndim != 4 or frames.shape[0] < 1:
            raise BadRequestError(
                "frames must be one (C, H, W) frame or an (N, C, H, W) batch; "
                f"got shape {frames.shape}"
            )
        return frames

    def handle(self, method: str, path: str, body: bytes):
        """Route one request; returns a :class:`Response` or, for the frames
        endpoint, a :class:`PendingResponse` the caller must wait on."""
        path = path.split("?", 1)[0]
        try:
            if path == "/healthz":
                if method != "GET":
                    return self._method_not_allowed("healthz")
                status, payload = self.healthz()
                return self._observed("healthz", Response.json(status, payload))
            if path == "/metrics":
                if method != "GET":
                    return self._method_not_allowed("metrics")
                return self._observed("metrics", Response.text(200, self.metrics.render()))
            if path == "/v1/sessions":
                if method != "POST":
                    return self._method_not_allowed("sessions")
                payload = self._parse_json(body)
                opened = self.open_session(
                    window=payload.get("window"),
                    num_classes=payload.get("num_classes"),
                )
                return self._observed("sessions", Response.json(201, opened))
            match = _FRAMES_PATH.match(path)
            if match:
                if method != "POST":
                    return self._method_not_allowed("frames")
                frames = self._parse_frames(self._parse_json(body))
                return self.submit_frames(match.group(1), frames)
            match = _SESSION_PATH.match(path)
            if match:
                if method != "DELETE":
                    return self._method_not_allowed("sessions")
                return self._observed(
                    "sessions", Response.json(200, self.close_session(match.group(1)))
                )
            return self._observed(
                "unknown",
                Response.json(404, {"error": "not_found", "detail": f"no route {path}"}),
            )
        except ServeError as exc:
            if exc.status == 429:
                self.metrics.inc("rejected_total")
            return self._observed(_endpoint_of(path), Response.error(exc))

    def resolve(self, pending: PendingResponse) -> Response:
        """Synchronously wait out a pending frames request (WSGI path)."""
        try:
            results = pending.future.result(timeout=self.config.request_timeout_s)
        except BaseException as exc:  # noqa: BLE001 - mapped to a response
            return self._observed(pending.endpoint, pending.fail(exc))
        return self._observed(pending.endpoint, pending.complete(results))

    def _render_session_health(self) -> str:
        """Per-session health gauges appended to the ``/metrics`` payload:
        the faulty-frame fraction seen by each session's input guard and
        the vote margin of its majority FIFO."""
        sessions = self.sessions.snapshot()
        if not sessions:
            return ""
        p = "repro_serve_session"
        lines = [f"# TYPE {p}_invalid_fraction gauge"]
        for s in sessions:
            lines.append(
                f'{p}_invalid_fraction{{session="{s.id}"}} {s.invalid_fraction:.6f}'
            )
        margins = [s for s in sessions if s.last_margin is not None]
        if margins:
            lines.append(f"# TYPE {p}_vote_margin gauge")
            for s in margins:
                lines.append(f'{p}_vote_margin{{session="{s.id}"}} {s.last_margin:.6f}')
        return "\n".join(lines)

    def _observed(self, endpoint: str, response: Response) -> Response:
        self.metrics.observe_request(endpoint, response.status)
        return response

    def _method_not_allowed(self, endpoint: str) -> Response:
        return self._observed(
            endpoint,
            Response.json(405, {"error": "method_not_allowed", "detail": ""}),
        )


def available_cpus() -> int:
    """CPUs actually *available* to this process, not the machine total.

    Inside containers / cgroups ``os.cpu_count()`` reports the host's
    cores even when the process is pinned to a subset, which would let
    the >=4-CPU benchmark gates fire on hosts that cannot deliver the
    parallelism.  ``sched_getaffinity`` reflects the real allowance.
    """
    import os

    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # non-Linux platforms
        return os.cpu_count() or 1


def describe_host() -> dict:
    """Host fingerprint recorded in benchmark payloads."""
    return {
        "cpus": available_cpus(),
        "python": sys.version.split()[0],
        "platform": sys.platform,
    }
