"""Thin WSGI adapter over :class:`~repro.serve.service.ServeService`.

For deployments that already run a WSGI container (gunicorn, uWSGI,
``wsgiref.simple_server`` for smoke tests) the same service — sessions,
micro-batcher, metrics, backpressure — is exposed as a standard WSGI
callable with zero new dependencies.  The only semantic difference from
the asyncio front-end is the waiting style: WSGI worker threads block on
the batcher future (``Future.result``) instead of awaiting it, so
cross-session micro-batching still happens whenever several workers are
in flight at once.

Usage::

    from wsgiref.simple_server import make_server
    from repro.serve import ServeService, make_wsgi_app

    service = ServeService(engine)
    service.start()
    make_server("127.0.0.1", 8080, make_wsgi_app(service)).serve_forever()
"""

from __future__ import annotations

from http import HTTPStatus
from typing import Callable, Iterable, List, Tuple

from .service import PendingResponse, Response, ServeService


def make_wsgi_app(service: ServeService) -> Callable:
    """Build a WSGI application delegating every route to ``service``.

    The caller owns the service lifecycle (``service.start()`` before
    serving, ``service.stop()`` to drain on shutdown); lazily evicted idle
    sessions are swept on each request since WSGI has no background task.
    """

    def app(environ: dict, start_response: Callable) -> Iterable[bytes]:
        method = environ.get("REQUEST_METHOD", "GET").upper()
        path = environ.get("PATH_INFO", "/")
        try:
            length = int(environ.get("CONTENT_LENGTH") or 0)
        except ValueError:
            length = 0
        body = environ["wsgi.input"].read(length) if length else b""

        service.evict_idle()  # no event loop: sweep lazily per request
        response = service.handle(method, path, body)
        if isinstance(response, PendingResponse):
            response = service.resolve(response)
        return _emit(response, start_response)

    return app


def _emit(response: Response, start_response: Callable) -> List[bytes]:
    reason = HTTPStatus(response.status).phrase
    headers: List[Tuple[str, str]] = [
        ("Content-Type", response.content_type),
        ("Content-Length", str(len(response.body))),
    ]
    headers.extend((response.headers or {}).items())
    start_response(f"{response.status} {reason}", headers)
    return [response.body]
