"""Minimal stdlib client for the serving API, with a resilience layer.

One :class:`ServeClient` holds one keep-alive ``http.client`` connection —
exactly what a sensor node (or one load-generator thread) uses.  Instances
are not thread-safe; give each concurrent stream its own client.

Frames travel as a NumPy ``.npy`` body (``Content-Type:
application/x-npy``): float64 pixels as bytes, with no text round trip.
Every other request body, and every response, is JSON.

Resilience is opt-in and layered:

* **Transport honesty** — a request that *verifiably never reached the
  server* (the TCP connect failed) is always safe to replay; a connection
  that drops after the request may have been sent is replayed automatically
  only for idempotent GETs, and surfaces as the distinct, retriable
  :class:`ConnectionDroppedError` otherwise.  The old behavior of blindly
  re-sending POSTs over a stale keep-alive connection could double-submit a
  frame (duplicate seq) when the first request *was* processed before the
  drop.
* **:class:`RetryPolicy`** — jittered exponential backoff (deterministic,
  seeded) for responses that guarantee the request was not processed:
  429 backpressure and worker-crash 503s, honoring ``Retry-After``.
* **:class:`SessionStream`** — one logical sensor stream that survives
  worker crashes: on a 503/404 (the pool purged the session) or an
  ambiguous connection drop it re-opens a session, warm-replays the last
  ``window - 1`` acknowledged frames to rebuild the majority-FIFO state,
  and re-pushes the failed chunk — so the voted outputs the caller
  collects stay bit-identical to an uninterrupted offline replay.
"""

from __future__ import annotations

import io
import json
import random
import time
from collections import deque
from dataclasses import dataclass, field
from http.client import HTTPConnection
from typing import List, Optional, Union

import numpy as np

from .errors import (
    ERRORS_BY_CODE,
    OverloadedError,
    ServeError,
    WorkerCrashedError,
    UnknownSessionError,
)


class ServeClientError(ServeError):
    """A server-side error surfaced client-side (unknown code or 5xx)."""


class ConnectionDroppedError(ServeClientError):
    """The connection failed during a request.

    ``request_sent`` distinguishes the two cases that matter for retry
    safety: ``False`` means the TCP connect itself failed — the request
    verifiably never reached the server and a replay is always safe;
    ``True`` means the drop happened after (part of) the request may have
    been sent — the server might have processed it, so blindly re-sending
    a non-idempotent request risks a duplicate submission.  Callers that
    own stream semantics (:class:`SessionStream`) recover by re-opening
    the session instead.
    """

    code = "connection_dropped"

    def __init__(self, detail: str = "", request_sent: bool = True):
        super().__init__(detail)
        self.request_sent = request_sent


@dataclass
class RetryPolicy:
    """Jittered exponential backoff for retriable serving errors.

    Retriable means *the request was provably not processed*: 429
    backpressure rejections, worker-crash 503s, and connection failures
    where nothing was sent.  Ambiguous drops (:class:`ConnectionDroppedError`
    with ``request_sent=True``) are never retried here — resolve them at
    the stream level (:class:`SessionStream`) or in the caller.

    The jitter is drawn from a seeded PRNG, so a client's exact retry
    timing is reproducible — consistent with the repo-wide determinism
    rule.  ``Retry-After`` response headers are honored as a lower bound,
    capped by ``backoff_max_s``.
    """

    max_attempts: int = 5
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    jitter: float = 0.25  # +/- fraction applied to each delay
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self._rng = random.Random(self.seed)

    def retriable(self, exc: BaseException) -> bool:
        if isinstance(exc, ConnectionDroppedError):
            return not exc.request_sent
        return isinstance(exc, (OverloadedError, WorkerCrashedError))

    def delay(self, attempt: int, retry_after: Optional[float] = None) -> float:
        base = self.backoff_base_s * (2.0 ** attempt)
        if retry_after is not None:
            base = max(base, retry_after)
        base = min(base, self.backoff_max_s)
        if self.jitter > 0:
            base *= 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        return max(0.0, base)


class ServeClient:
    """Synchronous HTTP client mirroring the serving endpoints.

    ``retry=None`` (the default) keeps the historical single-shot behavior
    apart from the transport fix; pass a :class:`RetryPolicy` to absorb
    429/worker-crash responses transparently.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry
        self._conn: Optional[HTTPConnection] = None

    # ------------------------------------------------------------------ #
    def _connection(self) -> HTTPConnection:
        if self._conn is None:
            self._conn = HTTPConnection(self.host, self.port, timeout=self.timeout)
        return self._conn

    def _request_once(
        self, method: str, path: str, payload: Union[dict, bytes, None]
    ):
        """One HTTP round trip with honest connection-failure semantics.

        A ``dict`` payload is sent as JSON, ``bytes`` as a ``.npy`` body."""
        if isinstance(payload, bytes):
            body, headers = payload, {"Content-Type": "application/x-npy"}
        elif payload is None:
            body, headers = None, {}
        else:
            body = json.dumps(payload).encode()
            headers = {"Content-Type": "application/json"}
        retried_stale = False
        while True:
            conn = self._connection()
            # Connect explicitly so connect-phase failures — where the
            # request verifiably never left this process — are
            # distinguishable from drops mid-exchange.
            if conn.sock is None:
                try:
                    conn.connect()
                except (ConnectionError, OSError) as exc:
                    self.close()
                    raise ConnectionDroppedError(
                        f"cannot connect to {self.host}:{self.port}: {exc}",
                        request_sent=False,
                    ) from exc
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                raw = response.read()
            except (ConnectionError, OSError) as exc:
                self.close()
                if method == "GET" and not retried_stale:
                    # Idempotent: replaying is safe even if the server saw
                    # the first attempt (the classic stale keep-alive race).
                    retried_stale = True
                    continue
                raise ConnectionDroppedError(
                    f"connection dropped during {method} {path} "
                    f"(the server may or may not have processed it): {exc}",
                ) from exc
            break
        content_type = response.getheader("Content-Type", "")
        if content_type.startswith("application/json"):
            data = json.loads(raw.decode()) if raw else {}
        else:
            data = raw.decode()
        if response.status >= 400:
            code = data.get("error", "") if isinstance(data, dict) else ""
            detail = data.get("detail", "") if isinstance(data, dict) else str(data)
            exc = ERRORS_BY_CODE.get(code, ServeClientError)(detail)
            retry_after = response.getheader("Retry-After")
            if retry_after is not None:
                try:
                    exc.retry_after = float(retry_after)
                except ValueError:
                    pass
            raise exc
        return data

    def _request(
        self, method: str, path: str, payload: Union[dict, bytes, None] = None
    ):
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, payload)
            except ServeError as exc:
                policy = self.retry
                if (
                    policy is None
                    or not policy.retriable(exc)
                    or attempt >= policy.max_attempts - 1
                ):
                    raise
                time.sleep(policy.delay(attempt, getattr(exc, "retry_after", None)))
                attempt += 1

    # ------------------------------------------------------------------ #
    def open_session(
        self, window: Optional[int] = None, num_classes: Optional[int] = None
    ) -> dict:
        payload = {}
        if window is not None:
            payload["window"] = window
        if num_classes is not None:
            payload["num_classes"] = num_classes
        return self._request("POST", "/v1/sessions", payload or None)

    def push(self, session_id: str, frames: Union[np.ndarray, list]) -> dict:
        """Push one ``(C, H, W)`` frame or an ``(N, C, H, W)`` chunk.

        The frames are converted to a float64 array here and sent as a
        ``.npy`` body, so input that is not a real numeric array (a ragged
        list, or strings, objects or complex numbers) raises
        :class:`ValueError` before any request is sent.  The server checks
        the shape.
        """
        body = io.BytesIO()
        np.save(body, _float_frames(frames), allow_pickle=False)
        return self._request(
            "POST", f"/v1/sessions/{session_id}/frames", body.getvalue()
        )

    def close_session(self, session_id: str) -> dict:
        return self._request("DELETE", f"/v1/sessions/{session_id}")

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> str:
        return self._request("GET", "/metrics")

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            finally:
                self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _float_frames(frames) -> np.ndarray:
    """``frames`` as a float64 array, refusing any dtype but bool, integer
    or float: a float64 cast would drop a complex value's imaginary part
    (with only a warning) and turn ``None`` into NaN."""
    frames = np.asarray(frames)
    if frames.dtype.kind not in "biuf":
        raise ValueError(
            f"frames must be bool, integer or float; got dtype {frames.dtype}"
        )
    return frames.astype(np.float64, copy=False)


class SessionStream:
    """One resilient logical sensor stream over a :class:`ServeClient`.

    Wraps session lifecycle so that a worker crash mid-stream is invisible
    to the caller: when a push fails with the pool's worker-crash 503, a
    404 for the purged session, or an ambiguous connection drop, the
    stream opens a fresh session, silently re-pushes the last
    ``window - 1`` *acknowledged* frames to rebuild the server-side
    majority-FIFO state, and then retries the failed chunk.  Because the
    voter sees exactly the frame sequence the caller pushed — each frame
    acknowledged exactly once — the collected raw/voted outputs stay
    bit-identical to an uninterrupted offline ``Engine.stream`` replay.

    ``seq`` values restart when a session is re-opened; the cross-recovery
    contract is the raw/voted stream, not the per-session counter.
    """

    _RECOVERABLE = (UnknownSessionError, WorkerCrashedError, ConnectionDroppedError)

    def __init__(
        self,
        client: ServeClient,
        window: Optional[int] = None,
        num_classes: Optional[int] = None,
        max_recoveries: int = 8,
        recovery_backoff_s: float = 0.05,
    ):
        self.client = client
        self.window = window
        self.num_classes = num_classes
        self.max_recoveries = max_recoveries
        self.recovery_backoff_s = recovery_backoff_s
        self.session_id: Optional[str] = None
        self.recoveries = 0  # successful transparent recoveries so far
        self.frames_acked = 0
        self._tail: deque = deque(maxlen=0)

    # ------------------------------------------------------------------ #
    def open(self) -> dict:
        info = self.client.open_session(
            window=self.window, num_classes=self.num_classes
        )
        self.session_id = info["session_id"]
        self.window = int(info["window"])
        # Keep any previously acknowledged tail (recovery path) but honor
        # the server-confirmed window.
        self._tail = deque(self._tail, maxlen=max(0, self.window - 1))
        if self._tail:
            # Rebuild the voter state; the replayed frames' results were
            # already delivered to the caller once, so they are discarded.
            self.client.push(self.session_id, np.stack(list(self._tail)))
        return info

    def push(self, frames: Union[np.ndarray, list]) -> List[dict]:
        """Push a frame/chunk; returns the per-frame result dicts.

        Input that is not a real numeric array raises :class:`ValueError`
        before any request is sent, as in :meth:`ServeClient.push`.
        """
        frames = _float_frames(frames)
        if frames.ndim == 3:
            frames = frames[None]
        failures = 0
        while True:
            try:
                if self.session_id is None:
                    self.open()
                out = self.client.push(self.session_id, frames)
            except self._RECOVERABLE as exc:
                failures += 1
                if failures > self.max_recoveries:
                    raise
                self._prepare_recovery(exc)
                continue
            break
        if failures:
            self.recoveries += 1
        for frame in frames:
            self._tail.append(np.array(frame))
        self.frames_acked += int(frames.shape[0])
        return out["results"]

    def _prepare_recovery(self, exc: BaseException) -> None:
        """Drop the (possibly poisoned) session; the next loop iteration
        re-opens and warm-replays.  An ambiguous connection drop must NOT
        reuse the old session — the server may have processed the lost
        push, and re-sending there would double-vote those frames."""
        old, self.session_id = self.session_id, None
        if old is not None and not isinstance(exc, UnknownSessionError):
            try:
                self.client.close_session(old)
            except (ServeError, OSError):
                pass  # best-effort: the pool purge usually beat us to it
        time.sleep(self.recovery_backoff_s)

    def close(self) -> dict:
        if self.session_id is None:
            return {}
        try:
            return self.client.close_session(self.session_id)
        finally:
            self.session_id = None

    def __enter__(self) -> "SessionStream":
        if self.session_id is None:
            self.open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self.close()
        except ServeError:
            pass
