"""Hand-rolled asyncio HTTP/1.1 front-end of the serving subsystem.

No web framework and no ``http.server``: connections are plain
``asyncio.start_server`` streams, requests are parsed with a minimal
HTTP/1.1 reader (request line, headers, ``Content-Length`` body,
keep-alive), and every route is delegated to the transport-agnostic
:class:`~repro.serve.service.ServeService`.  The frames endpoint awaits
the micro-batcher's future without ever blocking the event loop, so one
process sustains many concurrent sensor streams.

``ServeServer.run_in_thread`` (or the :func:`start_server` convenience)
hosts the event loop on a daemon thread, which is how the example, the
tests and the load benchmark embed the server in-process.

Endpoints::

    POST   /v1/sessions              open a stream     -> 201 {session_id, ...}
    POST   /v1/sessions/{id}/frames  push 1..N frames  -> 200 {results: [...]}
    DELETE /v1/sessions/{id}         close the stream  -> 200 {frames_seen}
    GET    /healthz                  liveness + queue  -> 200 / 503
    GET    /metrics                  Prometheus text   -> 200
"""

from __future__ import annotations

import asyncio
import threading
from http import HTTPStatus
from typing import Optional

from .errors import BadRequestError
from .service import PendingResponse, Response, ServeConfig, ServeService

_MAX_REQUEST_LINE = 8192
_MAX_HEADERS = 64
_MAX_BODY = 64 * 1024 * 1024


class ServeServer:
    """One engine served over HTTP/1.1 on an asyncio event loop."""

    def __init__(
        self,
        engine,
        host: str = "127.0.0.1",
        port: int = 0,
        config: Optional[ServeConfig] = None,
        eviction_interval_s: Optional[float] = None,
    ):
        self.service = (
            engine if isinstance(engine, ServeService) else ServeService(engine, config)
        )
        self.host = host
        self.port = port  # 0: ephemeral; replaced by the bound port on start
        self._eviction_interval_s = eviction_interval_s
        self._server: Optional[asyncio.AbstractServer] = None
        self._sweeper: Optional[asyncio.Task] = None
        self._handlers: set = set()
        self._writers: set = set()
        self._busy: set = set()  # handler tasks currently mid-request
        self._stopping = False

    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        self._stopping = False
        self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        interval = self._eviction_interval_s
        if interval is None:
            interval = max(0.5, self.service.config.session_ttl_s / 4.0)
        self._sweeper = asyncio.get_running_loop().create_task(self._sweep(interval))

    async def stop(self, grace_s: float = 10.0) -> None:
        """Graceful shutdown: stop accepting, finish in-flight requests,
        drain the micro-batcher, then close idle keep-alive connections.

        ``Server.wait_closed()`` is deliberately not awaited — on Python
        >= 3.12 it waits for *all* client connections, so one idle
        keep-alive peer would stall shutdown forever.  Instead, handlers
        that are mid-request get ``grace_s`` to complete, then every
        remaining connection is closed.
        """
        self._stopping = True
        if self._server is not None:
            self._server.close()
            self._server = None
        if self._sweeper is not None:
            self._sweeper.cancel()
            self._sweeper = None
        loop = asyncio.get_running_loop()
        deadline = loop.time() + grace_s
        while self._busy and loop.time() < deadline:
            await asyncio.sleep(0.01)
        for writer in list(self._writers):
            try:
                writer.close()
            except (ConnectionError, OSError):  # pragma: no cover - best effort
                pass
        if self._handlers:
            await asyncio.wait(list(self._handlers), timeout=grace_s)
        # Drain whatever is still queued in the batcher (blocking: run off-loop).
        await loop.run_in_executor(None, lambda: self.service.stop(True))

    async def _sweep(self, interval: float) -> None:
        while True:
            await asyncio.sleep(interval)
            self.service.evict_idle()

    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                if request is None:
                    break
                self._busy.add(task)
                try:
                    method, path, headers, body, parse_error = request
                    if parse_error is not None:
                        response = Response.error(parse_error)
                        keep_alive = False
                    else:
                        response = self.service.handle(method, path, body)
                        if isinstance(response, PendingResponse):
                            response = await self._await_pending(response)
                        keep_alive = headers.get("connection", "keep-alive") != "close"
                    try:
                        await self._write_response(writer, response, keep_alive)
                    except (ConnectionError, OSError):
                        break
                finally:
                    self._busy.discard(task)
                if not keep_alive or self._stopping:
                    break
        finally:
            self._busy.discard(task)
            self._handlers.discard(task)
            self._writers.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _await_pending(self, pending: PendingResponse) -> Response:
        try:
            results = await asyncio.wait_for(
                asyncio.wrap_future(pending.future),
                timeout=self.service.config.request_timeout_s,
            )
        except BaseException as exc:  # noqa: BLE001 - mapped to a response
            return self.service._observed(pending.endpoint, pending.fail(exc))
        return self.service._observed(pending.endpoint, pending.complete(results))

    async def _read_request(self, reader):
        """Parse one HTTP/1.1 request; None on clean EOF."""
        line = await reader.readline()
        if not line:
            return None
        if len(line) > _MAX_REQUEST_LINE:
            return "GET", "/", {}, b"", BadRequestError("request line too long")
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            return "GET", "/", {}, b"", BadRequestError("malformed request line")
        method, path = parts[0].upper(), parts[1]
        headers = {}
        for _ in range(_MAX_HEADERS):
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip().lower()
        else:
            return method, path, headers, b"", BadRequestError("too many headers")
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            return method, path, headers, b"", BadRequestError("bad Content-Length")
        if length > _MAX_BODY:
            return method, path, headers, b"", BadRequestError("body too large")
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body, None

    async def _write_response(self, writer, response: Response, keep_alive: bool) -> None:
        reason = HTTPStatus(response.status).phrase
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in (response.headers or {}).items()
        )
        head = (
            f"HTTP/1.1 {response.status} {reason}\r\n"
            f"Content-Type: {response.content_type}\r\n"
            f"Content-Length: {len(response.body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"{extra}"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + response.body)
        await writer.drain()


class RunningServer:
    """A ServeServer hosted on a background thread (context manager)."""

    def __init__(self, server: ServeServer):
        self.server = server
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # ------------------------------------------------------------------ #
    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def service(self) -> ServeService:
        return self.server.service

    def start(self) -> "RunningServer":
        if self._thread is not None:  # idempotent: already running
            return self
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        # No timeout: spawning pool workers may take a while, and _run
        # always sets the event — on success and on a startup error alike.
        self._started.wait()
        if self._startup_error is not None:
            self._thread = None
            raise self._startup_error
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.server.start())
        except BaseException as exc:  # surface bind errors to the caller
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.close()

    def stop(self) -> None:
        if self._loop is None or self._thread is None:
            return
        done = threading.Event()

        async def _shutdown():
            try:
                await self.server.stop()
            finally:
                done.set()
                asyncio.get_running_loop().stop()

        self._loop.call_soon_threadsafe(
            lambda: self._loop.create_task(_shutdown())
        )
        done.wait(timeout=60)
        self._thread.join(timeout=60)
        self._loop = None
        self._thread = None

    def __enter__(self) -> "RunningServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def start_server(
    engine,
    host: str = "127.0.0.1",
    port: int = 0,
    config: Optional[ServeConfig] = None,
    **config_kwargs,
) -> RunningServer:
    """Serve ``engine`` over HTTP on a background thread.

    ``config_kwargs`` (e.g. ``max_batch=32, max_wait_ms=2.0``) build a
    :class:`ServeConfig` when ``config`` is not given.  ``workers=N``
    shards sessions across N engine worker processes (shared-memory frame
    transport; see :mod:`repro.serve.pool`); ``workers=0`` — the default —
    is the single-process path.  Returns a started :class:`RunningServer`;
    use it as a context manager or call ``stop()``.
    """
    if config is None:
        config = ServeConfig(**config_kwargs)
    elif config_kwargs:
        raise ValueError("pass either config= or keyword knobs, not both")
    return RunningServer(ServeServer(engine, host=host, port=port, config=config)).start()
