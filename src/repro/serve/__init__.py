"""`repro.serve` — multi-session streaming inference with micro-batching.

The serving subsystem takes one compiled :class:`~repro.engine.Engine` and
turns it into a fleet-facing service: many concurrent sensor sessions, each
with its own majority-FIFO state (the paper's post-processing filter), fed
through a **cross-session micro-batcher** that coalesces the frames queued
while the engine is busy into single ``Engine.predict_batch`` calls — so the
per-frame Python overhead amortizes exactly like the batched simulator
path, while every session's outputs stay bit-identical to an offline
``Engine.stream()`` replay.

Quick start (in-process server on a background thread)::

    import repro
    from repro.serve import ServeClient, start_server

    engine = repro.compile(qmodel, target="int-golden")
    with start_server(engine, max_batch=32) as server:
        client = ServeClient(server.host, server.port)
        sid = client.open_session(window=5)["session_id"]
        out = client.push(sid, frames[:4])      # raw + voted per frame
        print(client.healthz(), client.metrics())
        client.close_session(sid)

Pieces
------
``ServeService``   transport-agnostic core: sessions + dispatcher + metrics
``ServeServer``    hand-rolled asyncio HTTP/1.1 front-end
``start_server``   run the asyncio server on a daemon thread (tests/examples)
``make_wsgi_app``  thin WSGI adapter over the same service
``ServeClient``    stdlib ``http.client`` client (one per stream); sends
                   frames as ``.npy`` bodies, JSON stays accepted for curl
``MicroBatcher``   the bounded FIFO + dispatch thread doing the coalescing
``EngineWorkerPool``  the ``workers=N`` dispatcher: sharded engine processes

Scaling out: ``start_server(engine, workers=N)`` shards sessions by
consistent hash onto N engine worker processes (each with its own engine
and micro-batcher) with frames sent inline on each worker's pipe — same
service, same wire protocol, same bit-exact outputs; ``workers=0`` (the
default) is the single-process path above.
"""

from .batcher import FrameResult, MicroBatcher
from .client import (
    ConnectionDroppedError,
    RetryPolicy,
    ServeClient,
    ServeClientError,
    SessionStream,
)
from .errors import (
    BadRequestError,
    InvalidFramesError,
    OverloadedError,
    ServeError,
    SessionClosedError,
    ShuttingDownError,
    UnknownSessionError,
    WorkerCrashedError,
)
from .metrics import ServeMetrics, quantile
from .pool import EngineWorkerPool, WorkerHandle, shard_of
from .server import RunningServer, ServeServer, start_server
from .service import (
    ChaosConfig,
    PendingResponse,
    Response,
    ServeConfig,
    ServeService,
    available_cpus,
    describe_host,
)
from .sessions import Session, SessionManager
from .worker import WorkerSpec
from .wsgi import make_wsgi_app

__all__ = [
    "BadRequestError",
    "ChaosConfig",
    "ConnectionDroppedError",
    "EngineWorkerPool",
    "FrameResult",
    "InvalidFramesError",
    "MicroBatcher",
    "OverloadedError",
    "PendingResponse",
    "Response",
    "RetryPolicy",
    "RunningServer",
    "ServeClient",
    "ServeClientError",
    "ServeConfig",
    "ServeError",
    "SessionStream",
    "ServeMetrics",
    "ServeServer",
    "ServeService",
    "Session",
    "SessionClosedError",
    "SessionManager",
    "ShuttingDownError",
    "UnknownSessionError",
    "WorkerCrashedError",
    "WorkerHandle",
    "WorkerSpec",
    "available_cpus",
    "describe_host",
    "make_wsgi_app",
    "quantile",
    "shard_of",
    "start_server",
]
