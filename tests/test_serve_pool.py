"""The multi-process serving pool: sharding, shared-memory transport,
parity with offline streams, crash semantics, drain, and metrics."""

import inspect
import json
import re
import threading
import time
from http.client import HTTPConnection
from multiprocessing import shared_memory

import numpy as np
import pytest

import repro
from repro.engine import ModelBundle
from repro.serve import (
    EngineWorkerPool,
    MicroBatcher,
    PendingResponse,
    ServeClient,
    ServeConfig,
    ServeError,
    ServeService,
    Session,
    UnknownSessionError,
    WorkerCrashedError,
    WorkerHandle,
    shard_of,
    start_server,
)


@pytest.fixture(scope="module")
def pool_engine(quantized_model):
    """One int-golden engine whose bundle the workers rebuild from."""
    return repro.compile(ModelBundle(quantized_model), target="int-golden")


@pytest.fixture(scope="module")
def pool_frames(prepared_data):
    return np.ascontiguousarray(prepared_data["test"].inputs, dtype=np.float64)


def _offline_stream(engine, frames, window):
    with engine.stream(window=window) as session:
        updates = [session.push(f) for f in frames]
    return {
        "raw": [u.raw for u in updates],
        "voted": [u.voted for u in updates],
    }


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and not predicate():
        time.sleep(0.01)
    return predicate()


# --------------------------------------------------------------------- #
class TestShardOf:
    def test_deterministic_and_in_range(self):
        for workers in (1, 2, 3, 7):
            for sid in ("a", "deadbeef", "f" * 16, ""):
                s = shard_of(sid, workers)
                assert s == shard_of(sid, workers)
                assert 0 <= s < workers

    def test_spreads_sessions_across_workers(self):
        shards = {shard_of(f"session-{i:04x}", 4) for i in range(64)}
        assert shards == {0, 1, 2, 3}

    def test_single_worker_is_always_zero(self):
        assert all(shard_of(f"s{i}", 1) == 0 for i in range(16))


class TestDispatcherSelection:
    """``workers`` only picks the dispatcher behind the one service."""

    def test_workers_zero_is_plain_in_process_service(self):
        class E:
            def predict_batch(self, frames):  # pragma: no cover - never called
                raise AssertionError

        service = ServeService(E(), ServeConfig())
        assert isinstance(service.dispatcher, MicroBatcher)
        assert service.pool is None and service.pool_stats() is None
        assert "workers" not in service.config.as_json()

    def test_pool_requires_a_real_engine(self):
        class E:
            def predict_batch(self, frames):  # pragma: no cover - never called
                raise AssertionError

        with pytest.raises(ValueError, match="ModelBundle"):
            ServeService(E(), ServeConfig(workers=2))

    def test_workers_selects_the_pool_dispatcher(self, pool_engine):
        service = ServeService(pool_engine, ServeConfig(workers=2))
        assert isinstance(service.dispatcher, EngineWorkerPool)
        assert service.dispatcher is service.pool
        assert service.pool.workers == 2
        assert service.config.as_json()["workers"] == 2


class TestFrozenBenchmarkHooks:
    """``perfbench/serve_host.py`` imports and wraps these serving
    internals, and the benchmark is frozen: a refactor that breaks them
    must fail here rather than in a ``--trace 1`` run."""

    def test_names_and_signatures(self):
        from repro.serve.pool import PoolServeService

        def params(fn):
            return list(inspect.signature(fn).parameters)

        assert PoolServeService is ServeService
        assert params(WorkerHandle.submit) == ["self", "session_id", "frames", "max_queue"]
        assert params(MicroBatcher.submit) == ["self", "session", "frames"]
        assert params(ServeService.handle) == ["self", "method", "path", "body"]
        assert params(ServeService.prime) == ["self", "frame_shape"]
        assert callable(ServeService.pool_stats)
        assert callable(EngineWorkerPool.ring_names)
        assert callable(PendingResponse.complete)
        assert callable(Session.record_vote)


class TestOneServingPath:
    """``workers=0`` and ``workers=1`` run the same service code: one request
    sequence — open, push, 429, close, 409 — gives the same statuses, the
    same payloads (but for the worker index) and the same health gauges."""

    def _run(self, engine, frames, workers):
        # max_batch=2 dispatches a 2-frame push at once; a 1-frame push
        # waits out the 300 ms window, long enough to overflow and close
        # its session behind it.
        service = ServeService(
            engine,
            ServeConfig(
                workers=workers, max_batch=2, max_wait_ms=300.0, max_session_queue=2
            ),
        )
        service.start()

        def call(method, path, payload=None):
            body = b"" if payload is None else json.dumps(payload).encode()
            response = service.handle(method, path, body)
            if isinstance(response, PendingResponse):
                response = service.resolve(response)
            return response

        try:
            opened = call("POST", "/v1/sessions", {"window": 3})
            sid = json.loads(opened.body)["session_id"]
            push = f"/v1/sessions/{sid}/frames"
            log = [opened, call("POST", push, {"frames": frames[:2].tolist()})]
            gauges = [
                line
                for line in service.metrics.render().splitlines()
                if line.startswith("repro_serve_session_")
            ]
            parked = service.handle(
                "POST", push, json.dumps({"frames": frames[2:3].tolist()}).encode()
            )
            log.append(call("POST", push, {"frames": frames[3:5].tolist()}))
            log.append(call("DELETE", f"/v1/sessions/{sid}"))
            log.append(service.resolve(parked))
            frames_total = service.metrics.counter("frames_total")
        finally:
            service.stop()

        def normalized(response):
            payload = json.loads(response.body.decode().replace(sid, "SID"))
            payload.pop("worker", None)
            payload.get("config", {}).pop("workers", None)
            return response.status, payload

        return (
            [normalized(r) for r in log],
            [g.replace(sid, "SID") for g in gauges],
            frames_total,
        )

    def test_same_sequence_for_zero_and_one_worker(self, pool_engine, pool_frames):
        in_process = self._run(pool_engine, pool_frames, workers=0)
        pooled = self._run(pool_engine, pool_frames, workers=1)
        statuses = [status for status, _ in in_process[0]]
        assert statuses == [201, 200, 429, 200, 409]
        assert in_process[0][3][1]["frames_seen"] == 2
        assert any("vote_margin" in g for g in in_process[1])
        assert pooled == in_process


# --------------------------------------------------------------------- #
class TestPoolParityWithOfflineStream:
    """ISSUE acceptance: pool-served outputs are bit-identical to offline
    ``Engine.stream`` replays for EVERY worker count."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_parity_across_worker_counts(self, workers, pool_engine, pool_frames):
        window, n = 3, 10
        streams = {
            "a": pool_frames[:n],
            "b": pool_frames[n : 2 * n],
            "c": pool_frames[2 * n : 3 * n],
        }
        offline = {
            key: _offline_stream(pool_engine, frames, window)
            for key, frames in streams.items()
        }

        service = ServeService(
            pool_engine, ServeConfig(workers=workers, max_batch=8, max_wait_ms=1.0)
        )
        service.start()
        try:
            sids = {key: service.open_session(window=window)["session_id"] for key in streams}
            # Interleave chunked pushes round-robin across the sessions.
            pending = []
            cursors = {key: 0 for key in streams}
            chunk = 2
            while any(cursors[k] < len(streams[k]) for k in streams):
                for key, frames in streams.items():
                    i = cursors[key]
                    if i >= len(frames):
                        continue
                    part = frames[i : i + chunk]
                    cursors[key] = i + len(part)
                    pending.append((key, service.submit_frames(sids[key], part)))
            served = {key: [] for key in streams}
            for key, p in pending:
                for r in p.future.result(timeout=60):
                    served[key].append((r.seq, r.raw, r.voted))
        finally:
            service.stop()
        for key in streams:
            ordered = sorted(served[key])
            assert [s for s, _, _ in ordered] == list(range(len(streams[key])))
            assert [r for _, r, _ in ordered] == offline[key]["raw"], f"{key} raw"
            assert [v for _, _, v in ordered] == offline[key]["voted"], f"{key} voted"

    def test_sessions_pin_to_their_shard_worker(self, pool_engine):
        service = ServeService(pool_engine, ServeConfig(workers=2, max_wait_ms=0.5))
        service.start()
        try:
            for _ in range(6):
                opened = service.open_session(window=3)
                sid = opened["session_id"]
                assert opened["worker"] == shard_of(sid, 2)
                assert sid in service.pool.handles[opened["worker"]].sessions
        finally:
            service.stop()


# --------------------------------------------------------------------- #
class TestPoolOverHttp:
    """The full HTTP front-end with workers=2 behind it."""

    @pytest.fixture(scope="class")
    def running(self, pool_engine):
        with start_server(pool_engine, workers=2, max_batch=8, max_wait_ms=1.0) as server:
            yield server

    def test_healthz_reports_pool(self, running):
        with ServeClient(running.host, running.port) as client:
            health = client.healthz()
        assert health["workers"] == 2
        assert 0 <= health["workers_up"] <= 2

    def test_lifecycle_voted_outputs_and_frames_seen(self, running, pool_engine, pool_frames):
        frames = pool_frames[:8]
        offline = _offline_stream(pool_engine, frames, window=5)
        with ServeClient(running.host, running.port) as client:
            opened = client.open_session(window=5)
            sid = opened["session_id"]
            assert opened["worker"] == shard_of(sid, 2)
            voted, raw = [], []
            for i in range(0, len(frames), 2):
                out = client.push(sid, frames[i : i + 2])
                raw.extend(r["raw"] for r in out["results"])
                voted.extend(r["voted"] for r in out["results"])
            closed = client.close_session(sid)
        assert raw == offline["raw"]
        assert voted == offline["voted"]
        assert closed["frames_seen"] == len(frames)

    def test_metrics_carry_per_worker_labels_and_pool_gauges(self, running, pool_frames):
        with ServeClient(running.host, running.port) as client:
            sid = client.open_session(window=3)["session_id"]
            client.push(sid, pool_frames[:2])
            text = client.metrics()
            client.close_session(sid)
        for series in (
            "repro_serve_pool_workers 2",
            'repro_serve_pool_worker_up{worker="0"}',
            'repro_serve_pool_worker_up{worker="1"}',
            'repro_serve_pool_shard_sessions{worker="0"}',
            'repro_serve_pool_inflight_frames{worker="1"}',
            "repro_serve_pool_worker_restarts_total 0",
            'repro_serve_pool_worker_frames_total{worker="',
        ):
            assert series in text, f"missing {series!r} in:\n{text}"
        # The request ring is the only one left: results come back inline.
        occupancy = re.findall(
            r"^repro_serve_pool_ring_occupancy\{([^}]*)\} [0-9.eE+-]+$", text, re.M
        )
        assert occupancy == [f'worker="{i}",ring="requests"' for i in range(2)]

    def test_frames_total_counts_served_frames(self, running, pool_frames):
        with ServeClient(running.host, running.port) as client:
            before = running.service.metrics.counter("frames_total")
            sid = client.open_session(window=3)["session_id"]
            client.push(sid, pool_frames[:4])
            client.close_session(sid)
            after = running.service.metrics.counter("frames_total")
        assert after - before == 4


# --------------------------------------------------------------------- #
class TestWorkerCrash:
    def _service(self, pool_engine, **knobs):
        service = ServeService(pool_engine, ServeConfig(workers=1, **knobs))
        service.start()
        return service

    def test_inflight_requests_fail_with_503_retry_after(self, pool_engine, pool_frames):
        # A huge batching window parks the frames inside the worker's
        # batcher, so the kill deterministically lands mid-request.
        service = self._service(
            pool_engine, max_batch=64, max_wait_ms=5000.0, worker_start_timeout_s=120.0
        )
        try:
            sid = service.open_session(window=3)["session_id"]
            pending = service.submit_frames(sid, pool_frames[:2])
            time.sleep(0.3)  # let the worker pull the doorbell
            service.pool.handles[0].kill()
            with pytest.raises(WorkerCrashedError) as excinfo:
                pending.future.result(timeout=30)
            assert excinfo.value.status == 503
            assert excinfo.value.headers == {"Retry-After": "1"}
            # The shard's sessions are purged: voter state died with the worker.
            assert _wait_for(lambda: len(service.sessions) == 0)
            with pytest.raises(UnknownSessionError):
                service.submit_frames(sid, pool_frames[:1])
            assert service.metrics.counter("pool_worker_crashes_total") == 1
        finally:
            service.stop()

    def test_crashed_shard_respawns_for_the_next_session(self, pool_engine, pool_frames):
        service = self._service(pool_engine, max_batch=8, max_wait_ms=1.0)
        try:
            handle = service.pool.handles[0]
            sid = service.open_session(window=3)["session_id"]
            service.submit_frames(sid, pool_frames[:2]).future.result(timeout=60)
            old_rings = handle.ring_names()
            handle.kill()
            # The pump respawns the worker right away, not on the next open,
            # and the dead worker's ring is gone with it.
            assert _wait_for(lambda: handle.restarts == 1 and handle.alive, timeout=60)
            assert handle.ring_names() != old_rings
            for name in old_rings:
                with pytest.raises(FileNotFoundError):
                    shared_memory.SharedMemory(name=name)
            sid2 = service.open_session(window=3)["session_id"]
            out = service.submit_frames(sid2, pool_frames[:2]).future.result(timeout=60)
            assert len(out) == 2
            assert service.pool.restarts_total() == 1
            text = service.metrics.render()
            assert "repro_serve_pool_worker_restarts_total 1" in text
            assert 'repro_serve_pool_worker_up{worker="0"} 1' in text
        finally:
            service.stop()

    def test_session_opened_while_respawning_is_mirrored(self, pool_engine, pool_frames):
        # A slow respawn must not block (or lose) an open in the meantime:
        # the parent registers the session and the new worker gets the
        # mirror as soon as it is up.
        service = self._service(pool_engine, max_batch=8, max_wait_ms=1.0)
        handle = service.pool.handles[0]
        spawn = handle._spawn
        may_spawn = threading.Event()

        def slow_spawn():
            assert may_spawn.wait(timeout=30)
            spawn()

        handle._spawn = slow_spawn
        try:
            handle.kill()
            assert _wait_for(lambda: handle.state == "dead")
            sid = service.open_session(window=3)["session_id"]
            with pytest.raises(WorkerCrashedError):
                service.submit_frames(sid, pool_frames[:1])
            may_spawn.set()
            assert _wait_for(lambda: handle.alive, timeout=60)
            out = service.submit_frames(sid, pool_frames[:2]).future.result(timeout=60)
            assert [r.seq for r in out] == [0, 1]
        finally:
            may_spawn.set()
            service.stop()

    def test_http_client_sees_503_with_retry_after_header(self, pool_engine, pool_frames):
        with start_server(
            pool_engine, workers=1, max_batch=64, max_wait_ms=5000.0
        ) as server:
            client = ServeClient(server.host, server.port)
            sid = client.open_session(window=3)["session_id"]
            client.close()

            result = {}

            def blocked_push():
                conn = HTTPConnection(server.host, server.port, timeout=60)
                import json

                body = json.dumps({"frames": pool_frames[:2].tolist()}).encode()
                conn.request(
                    "POST",
                    f"/v1/sessions/{sid}/frames",
                    body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                result["status"] = response.status
                result["retry_after"] = response.getheader("Retry-After")
                result["body"] = response.read()
                conn.close()

            t = threading.Thread(target=blocked_push)
            t.start()
            time.sleep(0.5)  # request parked in the worker's batching window
            server.service.pool.handles[0].kill()
            t.join(timeout=30)
            assert not t.is_alive(), "crashed worker stalled the request"
            assert result["status"] == 503
            assert result["retry_after"] == "1"
            assert b"worker_crashed" in result["body"]


# --------------------------------------------------------------------- #
class TestAbandonedRequests:
    """The asyncio front-end cancels the wrapped future on request timeout
    or client disconnect; the late worker reply must be swallowed, not kill
    the pump thread (which would wedge the whole shard)."""

    def test_late_reply_after_cancelled_future_keeps_shard_alive(
        self, pool_engine, pool_frames
    ):
        # A 400ms batching window parks the frames in the worker, giving the
        # cancellation a deterministic head start over the reply.
        service = ServeService(
            pool_engine, ServeConfig(workers=1, max_batch=8, max_wait_ms=400.0)
        )
        service.start()
        try:
            handle = service.pool.handles[0]
            sid = service.open_session(window=3)["session_id"]
            session = service.sessions.get(sid)
            pending = service.submit_frames(sid, pool_frames[:2])
            assert pending.future.cancel(), "reply won the race; retune the window"
            # The late reply must decrement inflight and free the ring...
            assert _wait_for(lambda: handle.inflight == 0 and session.pending == 0)
            assert handle.describe()["ring_occupancy"] == 0.0
            # ...and the pump must survive to serve the next request.
            out = service.submit_frames(sid, pool_frames[2:4]).future.result(
                timeout=30
            )
            assert len(out) == 2
            assert handle._pump_thread is not None and handle._pump_thread.is_alive()
        finally:
            service.stop()

    def test_many_cancelled_requests_do_not_wedge_the_worker(
        self, pool_engine, pool_frames
    ):
        service = ServeService(
            pool_engine, ServeConfig(workers=1, max_batch=4, max_wait_ms=100.0)
        )
        service.start()
        try:
            sid = service.open_session(window=3)["session_id"]
            for _ in range(8):
                service.submit_frames(sid, pool_frames[:1]).future.cancel()
            out = service.submit_frames(sid, pool_frames[:1]).future.result(timeout=30)
            assert len(out) == 1
            assert _wait_for(lambda: service.pool.handles[0].inflight == 0)
        finally:
            service.stop()


# --------------------------------------------------------------------- #
class TestDrainAndShutdown:
    def test_graceful_drain_flushes_every_worker_queue(self, pool_engine, pool_frames):
        # Frames park in each worker's batching window; stop(drain=True)
        # must flush them all before the workers exit.
        service = ServeService(
            pool_engine, ServeConfig(workers=2, max_batch=64, max_wait_ms=5000.0)
        )
        service.start()
        pending = []
        sids = [service.open_session(window=3)["session_id"] for _ in range(4)]
        for sid in sids:
            pending.append(service.submit_frames(sid, pool_frames[:2]))
        time.sleep(0.3)
        service.stop(drain=True)
        for p in pending:
            results = p.future.result(timeout=5)  # already resolved by drain
            assert len(results) == 2
        assert all(h.state == "stopped" for h in service.pool.handles)

    def test_no_leaked_shared_memory_after_stop(self, pool_engine, pool_frames):
        service = ServeService(pool_engine, ServeConfig(workers=2, max_wait_ms=0.5))
        service.start()
        sids = [service.open_session(window=3)["session_id"] for _ in range(4)]
        for sid in sids:
            service.submit_frames(sid, pool_frames[:1]).future.result(timeout=60)
        names = service.pool.ring_names()
        assert len(names) == 2, "expected one live ring per worker before stop"
        service.stop(drain=True)
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_failed_spawn_raises_and_leaks_no_ring(self, pool_engine, monkeypatch):
        from repro.parallel import ShmRing
        from repro.serve import pool as pool_module

        create = ShmRing.create
        rings = []

        def tracked_create(cls, capacity):
            rings.append(create(capacity))
            return rings[-1]

        def refuse(process):
            raise OSError("fork refused")

        monkeypatch.setattr(ShmRing, "create", classmethod(tracked_create))
        monkeypatch.setattr(pool_module._MP.Process, "start", refuse)
        service = ServeService(pool_engine, ServeConfig(workers=2))
        with pytest.raises(WorkerCrashedError, match="fork refused"):
            service.start()
        assert len(rings) == 1  # the second worker was never attempted
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=rings[0].name)

    def test_submits_after_stop_are_rejected(self, pool_engine, pool_frames):
        service = ServeService(pool_engine, ServeConfig(workers=1, max_wait_ms=0.5))
        service.start()
        sid = service.open_session(window=3)["session_id"]
        service.stop(drain=True)
        with pytest.raises(ServeError):
            service.submit_frames(sid, pool_frames[:1])


# --------------------------------------------------------------------- #
class TestPoolTtlEviction:
    def test_idle_session_is_retired_on_its_worker(self, pool_engine, pool_frames):
        # Both eviction paths — the sweeper and the lazy TTL check on a
        # push — count the eviction and retire the worker's mirror.
        now = [0.0]
        service = ServeService(
            pool_engine,
            ServeConfig(workers=1, session_ttl_s=10.0, max_wait_ms=0.5),
            clock=lambda: now[0],
        )
        service.start()
        try:
            swept, lazy = (service.open_session(window=3)["session_id"] for _ in range(2))
            for sid in (swept, lazy):
                service.submit_frames(sid, pool_frames[:1]).future.result(timeout=60)
            handle = service.pool.handles[0]
            assert set(handle.sessions) == {swept, lazy}
            now[0] = 100.0
            with pytest.raises(UnknownSessionError):
                service.submit_frames(lazy, pool_frames[:1])  # lazy eviction
            assert service.evict_idle() == 1  # the sweeper takes the other
            assert service.metrics.counter("evictions_total") == 2
            assert handle.sessions == {}
            # The retirements reached the worker: it no longer knows either
            # session (the close messages precede this push on the pipe).
            for sid in (swept, lazy):
                with pytest.raises(UnknownSessionError):
                    handle.submit(sid, pool_frames[:1], 64).result(timeout=30)
        finally:
            service.stop()


# --------------------------------------------------------------------- #
class TestChaosRecovery:
    """ISSUE acceptance: a ChaosConfig-killed worker mid-stream is invisible
    to a retrying SessionStream client — the stream completes and its
    outputs are bit-identical to a fault-free offline replay."""

    def test_chaos_kill_is_invisible_to_session_stream(
        self, pool_engine, pool_frames
    ):
        from repro.serve import ChaosConfig, RetryPolicy, SessionStream

        window, chunk = 3, 4
        frames = pool_frames[:24]
        offline = _offline_stream(pool_engine, frames, window)
        config = ServeConfig(
            workers=2, max_batch=8, max_wait_ms=1.0,
            chaos=ChaosConfig(kill_after_frames=10, max_kills=1),
        )
        with start_server(pool_engine, config=config) as server:
            with ServeClient(
                server.host, server.port, timeout=60,
                retry=RetryPolicy(max_attempts=6, backoff_base_s=0.01, seed=0),
            ) as client:
                raw, voted = [], []
                with SessionStream(
                    client, window=window, recovery_backoff_s=0.01
                ) as stream:
                    for i in range(0, len(frames), chunk):
                        out = stream.push(frames[i : i + chunk])
                        raw.extend(r["raw"] for r in out)
                        voted.extend(r["voted"] for r in out)
            stats = server.service.pool_stats()
        assert stats["chaos_kills"] == 1
        assert stats["crashes_total"] >= 1
        assert stream.recoveries >= 1  # the crash was absorbed, not surfaced
        assert raw == offline["raw"]
        assert voted == offline["voted"]

    def test_chaos_reject_simulates_ring_backpressure(
        self, pool_engine, pool_frames
    ):
        from repro.serve import ChaosConfig, RetryPolicy

        config = ServeConfig(
            workers=1, max_batch=8, max_wait_ms=1.0,
            chaos=ChaosConfig(reject_every=2),
        )
        with start_server(pool_engine, config=config) as server:
            with ServeClient(
                server.host, server.port, timeout=60,
                retry=RetryPolicy(max_attempts=5, backoff_base_s=0.01, seed=0),
            ) as client:
                sid = client.open_session(window=3)["session_id"]
                # Every other submit 429s; the retry policy absorbs them all.
                for i in range(4):
                    out = client.push(sid, pool_frames[i : i + 1])
                    assert len(out["results"]) == 1
                client.close_session(sid)

    def test_chaos_off_keeps_pool_stats_clean(self, pool_engine, pool_frames):
        service = ServeService(
            pool_engine, ServeConfig(workers=1, max_batch=8, max_wait_ms=1.0)
        )
        service.start()
        try:
            sid = service.open_session(window=3)["session_id"]
            service.submit_frames(sid, pool_frames[:2]).future.result(timeout=60)
            stats = service.pool_stats()
            assert stats["chaos_kills"] == 0
            assert stats["crashes_total"] == 0
        finally:
            service.stop()
