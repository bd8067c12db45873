"""Error taxonomy of the serving layer.

Every failure the service can report to a client is a :class:`ServeError`
carrying an HTTP status code and a short machine-readable ``code``; the
HTTP front-ends (asyncio and WSGI) translate them uniformly into JSON
``{"error": code, "detail": ...}`` bodies.
"""

from __future__ import annotations


class ServeError(RuntimeError):
    """Base class: a client-reportable serving failure."""

    status = 500
    code = "internal"

    def __init__(self, detail: str = ""):
        super().__init__(detail or self.code)
        self.detail = detail or self.code


class UnknownSessionError(ServeError):
    """The session id does not exist (never opened, closed, or evicted)."""

    status = 404
    code = "unknown_session"


class SessionClosedError(ServeError):
    """The session was closed or evicted while frames were still in flight."""

    status = 409
    code = "session_closed"


class OverloadedError(ServeError):
    """Backpressure: the global or per-session queue bound was hit."""

    status = 429
    code = "overloaded"


class ShuttingDownError(ServeError):
    """The server is draining and no longer accepts new work."""

    status = 503
    code = "shutting_down"


class BadRequestError(ServeError):
    """Malformed request body (bad JSON, wrong frame shape, ...)."""

    status = 400
    code = "bad_request"


class InvalidFramesError(ServeError):
    """Frames failed input validation under the ``"reject"`` policy
    (NaN/Inf pixels, or values outside the configured ``input_range``)."""

    status = 400
    code = "invalid_frames"


class WorkerCrashedError(ServeError):
    """The engine worker process holding this session's shard died.

    The pool respawns the worker right away; clients should retry after the
    advertised delay (the session itself is gone — re-open one).
    """

    status = 503
    code = "worker_crashed"
    headers = {"Retry-After": "1"}


#: code -> class, for surfaces that reconstruct errors from their wire form
#: (the stdlib client, and the pool parent mapping worker-side failures).
ERRORS_BY_CODE = {
    cls.code: cls
    for cls in (
        UnknownSessionError,
        SessionClosedError,
        OverloadedError,
        ShuttingDownError,
        BadRequestError,
        InvalidFramesError,
        WorkerCrashedError,
    )
}
