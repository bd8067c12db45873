"""The serving subsystem: metrics, batcher, sessions, HTTP/WSGI front-ends,
and the acceptance-critical parity of served outputs vs offline streams."""

import json
import re
import sys
import threading
import time
from concurrent.futures import Future
from io import BytesIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.engine import BatchPrediction, ModelBundle, available_targets, get_target
from repro.postproc import majority_filter
from repro.serve import (
    MicroBatcher,
    OverloadedError,
    ServeClient,
    ServeConfig,
    ServeMetrics,
    ServeService,
    SessionClosedError,
    SessionManager,
    ShuttingDownError,
    UnknownSessionError,
    make_wsgi_app,
    quantile,
    start_server,
)


class FakeEngine:
    """Deterministic engine: prediction = frame[0,0,0] mod num_classes."""

    target = "fake"
    majority_window = 5
    num_classes = 4

    def __init__(self, delay_s: float = 0.0):
        self.delay_s = delay_s
        self.batch_sizes = []

    def predict_batch(self, frames):
        if self.delay_s:
            time.sleep(self.delay_s)
        frames = np.asarray(frames)
        self.batch_sizes.append(frames.shape[0])
        preds = frames[:, 0, 0, 0].astype(np.int64) % self.num_classes
        return BatchPrediction(predictions=preds)


def encode_frames(values):
    """Class sequence -> (N, 1, 2, 2) frames the FakeEngine decodes back."""
    values = np.asarray(values, dtype=np.float64)
    return np.tile(values[:, None, None, None], (1, 1, 2, 2))


class BlockingRunner:
    """predict_batch stand-in that parks inside the call until released."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.batches = []
        self._first_done = False

    def __call__(self, frames):
        self.batches.append(frames.shape[0])
        if not self._first_done:
            self._first_done = True
            self.entered.set()
            assert self.release.wait(timeout=10)
        preds = np.zeros(frames.shape[0], dtype=np.int64)
        return BatchPrediction(predictions=preds)


# --------------------------------------------------------------------- #
class TestQuantile:
    def test_nearest_rank(self):
        sample = [1.0, 2.0, 3.0, 4.0]
        assert quantile(sample, 0.5) == 2.0
        assert quantile(sample, 0.99) == 4.0
        assert quantile(sample, 0.0) == 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)


class TestServeMetrics:
    def test_counters_and_requests(self):
        m = ServeMetrics()
        m.inc("frames_total", 3)
        m.observe_request("frames", 200)
        m.observe_request("frames", 200)
        m.observe_request("frames", 429)
        assert m.counter("frames_total") == 3
        text = m.render()
        assert 'repro_serve_requests_total{endpoint="frames",status="200"} 2' in text
        assert 'repro_serve_requests_total{endpoint="frames",status="429"} 1' in text

    def test_batch_histogram_buckets_are_cumulative(self):
        m = ServeMetrics(batch_buckets=(1, 2, 4))
        for size in (1, 1, 2, 3, 9):
            m.observe_batch(size)
        hist = m.batch_histogram()
        assert hist["1"] == 2
        assert hist["2"] == 3
        assert hist["4"] == 4
        assert hist["+Inf"] == 5
        assert m.mean_batch_size() == pytest.approx(16 / 5)

    def test_latency_quantiles_and_gauges(self):
        m = ServeMetrics()
        for v in (0.001, 0.002, 0.100):
            m.observe_latency(v)
        q = m.latency_quantiles((0.5, 0.99))
        assert q[0.5] == pytest.approx(0.002)
        assert q[0.99] == pytest.approx(0.100)
        m.register_gauge("queue_depth", lambda: 7)
        assert "repro_serve_queue_depth 7" in m.render()
        assert 'quantile="0.5"' in m.render()


# --------------------------------------------------------------------- #
class TestSessionManager:
    def test_open_get_close(self):
        mgr = SessionManager(ttl_s=100, default_window=5)
        s = mgr.open(window=3)
        assert mgr.get(s.id) is s
        assert len(mgr) == 1
        closed = mgr.close(s.id)
        assert closed.closed
        assert len(mgr) == 0
        with pytest.raises(UnknownSessionError):
            mgr.get(s.id)
        with pytest.raises(UnknownSessionError):
            mgr.close(s.id)

    def test_ttl_eviction_uses_monotonic_clock(self):
        now = [0.0]
        mgr = SessionManager(ttl_s=10.0, clock=lambda: now[0])
        stale = mgr.open()
        now[0] = 8.0
        fresh = mgr.open()
        now[0] = 15.0
        evicted = mgr.evict_idle()
        assert [s.id for s in evicted] == [stale.id]
        assert stale.closed
        assert mgr.get(fresh.id) is fresh

    def test_get_evicts_lazily(self):
        now = [0.0]
        mgr = SessionManager(ttl_s=5.0, clock=lambda: now[0])
        s = mgr.open()
        now[0] = 100.0
        with pytest.raises(UnknownSessionError):
            mgr.get(s.id)
        assert s.closed and len(mgr) == 0

    def test_activity_refreshes_ttl(self):
        now = [0.0]
        mgr = SessionManager(ttl_s=5.0, clock=lambda: now[0])
        s = mgr.open()
        now[0] = 4.0
        s.last_active = now[0]
        now[0] = 8.0
        assert mgr.evict_idle() == []
        assert mgr.get(s.id) is s

    def test_close_all(self):
        mgr = SessionManager(ttl_s=100)
        sessions = [mgr.open() for _ in range(3)]
        mgr.close_all()
        assert len(mgr) == 0
        assert all(s.closed for s in sessions)


# --------------------------------------------------------------------- #
class TestMicroBatcher:
    def _drain_stop(self, batcher):
        batcher.stop(drain=True)

    def test_coalesces_across_sessions_up_to_max_batch(self):
        runner = BlockingRunner()
        batcher = MicroBatcher(runner, max_batch=16, max_wait_ms=50.0)
        mgr = SessionManager(ttl_s=100)
        a, b = mgr.open(), mgr.open()
        batcher.start()
        try:
            first = batcher.submit(a, encode_frames([0]))
            assert runner.entered.wait(timeout=10)
            # While the first batch is parked in the runner, five more frames
            # arrive from both sessions; they must fuse into ONE next batch.
            futures = [
                batcher.submit(a, encode_frames([0, 0])),
                batcher.submit(b, encode_frames([0, 0, 0])),
            ]
            runner.release.set()
            first.result(timeout=10)
            for f in futures:
                f.result(timeout=10)
            assert runner.batches == [1, 5]
        finally:
            self._drain_stop(batcher)

    def test_max_batch_splits_backlog(self):
        runner = BlockingRunner()
        batcher = MicroBatcher(runner, max_batch=4, max_wait_ms=0.0)
        mgr = SessionManager(ttl_s=100)
        a = mgr.open()
        batcher.start()
        try:
            first = batcher.submit(a, encode_frames([0]))
            assert runner.entered.wait(timeout=10)
            backlog = batcher.submit(a, encode_frames([0] * 9))
            runner.release.set()
            first.result(timeout=10)
            backlog.result(timeout=10)
            assert runner.batches == [1, 4, 4, 1]
        finally:
            self._drain_stop(batcher)

    def test_max_wait_dispatches_partial_batch(self):
        sizes = []

        def runner(frames):
            sizes.append(frames.shape[0])
            return BatchPrediction(predictions=np.zeros(frames.shape[0], dtype=np.int64))

        batcher = MicroBatcher(runner, max_batch=64, max_wait_ms=10.0)
        mgr = SessionManager(ttl_s=100)
        batcher.start()
        try:
            start = time.perf_counter()
            future = batcher.submit(mgr.open(), encode_frames([1]))
            future.result(timeout=10)
            elapsed = time.perf_counter() - start
            assert sizes == [1]
            assert elapsed < 5.0  # did not wait for a full batch that never comes
        finally:
            self._drain_stop(batcher)

    def test_global_queue_backpressure(self):
        runner = BlockingRunner()
        batcher = MicroBatcher(runner, max_batch=1, max_wait_ms=0.0, max_queue=2)
        mgr = SessionManager(ttl_s=100)
        a = mgr.open()
        batcher.start()
        try:
            first = batcher.submit(a, encode_frames([0]))
            assert runner.entered.wait(timeout=10)  # queue now empty again
            batcher.submit(a, encode_frames([0, 0]))  # fills the bound exactly
            with pytest.raises(OverloadedError):
                batcher.submit(a, encode_frames([0]))
            runner.release.set()
            first.result(timeout=10)
        finally:
            self._drain_stop(batcher)

    def test_per_session_backpressure_leaves_other_sessions_alone(self):
        runner = BlockingRunner()
        batcher = MicroBatcher(
            runner, max_batch=1, max_wait_ms=0.0, max_queue=100, max_session_queue=2
        )
        mgr = SessionManager(ttl_s=100)
        a, b = mgr.open(), mgr.open()
        batcher.start()
        try:
            # The per-session bound counts queued AND in-flight frames.
            first = batcher.submit(a, encode_frames([0]))
            assert runner.entered.wait(timeout=10)
            batcher.submit(a, encode_frames([0]))  # pending now == 2 == bound
            with pytest.raises(OverloadedError):
                batcher.submit(a, encode_frames([0]))
            ok = batcher.submit(b, encode_frames([0]))  # other session unaffected
            runner.release.set()
            first.result(timeout=10)
            ok.result(timeout=10)
        finally:
            self._drain_stop(batcher)

    def test_submit_to_closed_session_rejected(self):
        batcher = MicroBatcher(
            lambda frames: BatchPrediction(
                predictions=np.zeros(frames.shape[0], dtype=np.int64)
            ),
            max_batch=4,
        )
        mgr = SessionManager(ttl_s=100)
        s = mgr.open()
        mgr.close(s.id)
        batcher.start()
        try:
            with pytest.raises(SessionClosedError):
                batcher.submit(s, encode_frames([0]))
        finally:
            self._drain_stop(batcher)

    def test_session_closed_while_queued_fails_future(self):
        runner = BlockingRunner()
        batcher = MicroBatcher(runner, max_batch=1, max_wait_ms=0.0)
        mgr = SessionManager(ttl_s=100)
        a, doomed = mgr.open(), mgr.open()
        batcher.start()
        try:
            first = batcher.submit(a, encode_frames([0]))
            assert runner.entered.wait(timeout=10)
            queued = batcher.submit(doomed, encode_frames([1]))
            mgr.close(doomed.id)  # evicted mid-stream, frame still queued
            runner.release.set()
            first.result(timeout=10)
            with pytest.raises(SessionClosedError):
                queued.result(timeout=10)
        finally:
            self._drain_stop(batcher)

    def test_stop_drains_queue(self):
        runner = BlockingRunner()
        batcher = MicroBatcher(runner, max_batch=1, max_wait_ms=0.0)
        mgr = SessionManager(ttl_s=100)
        a = mgr.open()
        batcher.start()
        first = batcher.submit(a, encode_frames([0]))
        assert runner.entered.wait(timeout=10)
        queued = batcher.submit(a, encode_frames([0, 0, 0]))
        runner.release.set()
        batcher.stop(drain=True)  # must finish the queued frames first
        assert first.result(timeout=1) is not None
        assert len(queued.result(timeout=1)) == 3
        with pytest.raises(ShuttingDownError):
            batcher.submit(a, encode_frames([0]))

    def test_runner_exception_propagates_to_request(self):
        def runner(frames):
            raise RuntimeError("backend exploded")

        batcher = MicroBatcher(runner, max_batch=4)
        mgr = SessionManager(ttl_s=100)
        batcher.start()
        try:
            future = batcher.submit(mgr.open(), encode_frames([0]))
            with pytest.raises(RuntimeError, match="backend exploded"):
                future.result(timeout=10)
        finally:
            self._drain_stop(batcher)

    def test_cancel_racing_the_result_keeps_the_dispatch_thread(self, monkeypatch):
        # The asyncio front-end cancels a request's future on timeout or
        # client disconnect — possibly right between the batcher's done()
        # check and its set_result.  That must not kill the only dispatch
        # thread (the in-process server would hang).
        from repro.serve import batcher as batcher_module

        class CancelledAfterCheck(Future):
            def done(self):
                was_done = super().done()
                self.cancel()  # the front-end gives up right after the check
                return was_done

        engine = FakeEngine()
        batcher = MicroBatcher(engine.predict_batch, max_batch=1, max_wait_ms=0.0)
        session = SessionManager(ttl_s=100).open()
        batcher.start()
        try:
            monkeypatch.setattr(batcher_module, "Future", CancelledAfterCheck)
            raced = batcher.submit(session, encode_frames([1]))
            monkeypatch.undo()
            served = batcher.submit(session, encode_frames([2]))
            assert [r.raw for r in served.result(timeout=10)] == [2]
            assert raced.cancelled()
            assert session.pending == 0
        finally:
            self._drain_stop(batcher)

    def test_concurrent_pushes_to_one_session_lose_no_update(self):
        # Admission (front-end threads) and completion (the dispatch thread)
        # both update one session's counters; with a tiny switch interval a
        # lost update shows up as drifting counters or a duplicate seq.
        engine = FakeEngine()
        batcher = MicroBatcher(
            engine.predict_batch, max_batch=4, max_wait_ms=0.0, max_session_queue=8
        )
        session = SessionManager(ttl_s=100).open(window=1)
        served = []

        def pusher():
            for _ in range(40):
                try:
                    future = batcher.submit(session, encode_frames([1, 2]))
                except OverloadedError:
                    continue
                served.extend(future.result(timeout=30))

        batcher.start()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=pusher) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
            self._drain_stop(batcher)
        assert sorted(r.seq for r in served) == list(range(len(served)))
        assert session.next_seq == session.frames_done == len(served)
        assert session.pending == 0

    def test_per_session_order_is_preserved(self):
        engine = FakeEngine()
        batcher = MicroBatcher(engine.predict_batch, max_batch=8, max_wait_ms=1.0)
        mgr = SessionManager(ttl_s=100)
        a, b = mgr.open(window=1), mgr.open(window=1)
        batcher.start()
        try:
            futures = []
            for chunk in ([0, 1], [2], [3, 0, 1]):
                futures.append((a, batcher.submit(a, encode_frames(chunk))))
                futures.append((b, batcher.submit(b, encode_frames(chunk))))
            seen = {a.id: [], b.id: []}
            for session, future in futures:
                for r in future.result(timeout=10):
                    seen[session.id].append((r.seq, r.raw))
            expected = list(enumerate([0, 1, 2, 3, 0, 1]))
            assert seen[a.id] == expected
            assert seen[b.id] == expected
        finally:
            self._drain_stop(batcher)


# --------------------------------------------------------------------- #
def _serve_session_outputs(service, streams, chunk=2):
    """Push per-session streams through a started service, interleaving
    chunks round-robin WITHOUT waiting between submissions (so the batcher
    is free to coalesce across sessions); returns voted outputs per key."""
    sids = {key: service.open_session(window=window)["session_id"]
            for key, (window, _values) in streams.items()}
    cursors = {key: 0 for key in streams}
    pending = []
    while any(cursors[k] < len(streams[k][1]) for k in streams):
        for key in streams:
            window, values = streams[key]
            i = cursors[key]
            if i >= len(values):
                continue
            part = values[i : i + chunk]
            cursors[key] = i + len(part)
            pending.append((key, service.submit_frames(sids[key], part)))
    outputs = {key: {"raw": [], "voted": []} for key in streams}
    for key, p in pending:
        for r in p.future.result(timeout=30):
            outputs[key]["raw"].append((r.seq, r.raw))
            outputs[key]["voted"].append((r.seq, r.voted))
    for key in outputs:
        outputs[key]["raw"] = [v for _, v in sorted(outputs[key]["raw"])]
        outputs[key]["voted"] = [v for _, v in sorted(outputs[key]["voted"])]
    return outputs


class TestServedMatchesOfflineStream:
    """ISSUE acceptance: served per-session predictions are bit-identical to
    offline ``Engine.stream`` replays for EVERY registered target."""

    @pytest.fixture(scope="class")
    def target_frames(self, prepared_data):
        return prepared_data["test"].inputs

    def _engine_for(self, target, trained_small_model, quantized_model):
        bundle = (
            trained_small_model
            if target == "numpy-float"
            else ModelBundle(quantized_model)
        )
        return repro.compile(bundle, target=target)

    @pytest.mark.parametrize("target", sorted(["numpy-float", "int-golden", "stm32", "maupiti", "ibex"]))
    def test_parity_per_target(
        self, target, trained_small_model, quantized_model, target_frames
    ):
        assert target in available_targets()
        # Simulated targets are ~100ms/frame: keep their streams short.
        n = 5 if get_target(target).supports_sim_mode else 24
        window = 3
        engine = self._engine_for(target, trained_small_model, quantized_model)
        streams = {
            "a": (window, target_frames[:n]),
            "b": (window, target_frames[n : 2 * n]),
        }

        # Offline reference: one independent Engine.stream replay per session.
        offline = {}
        for key, (w, frames) in streams.items():
            with engine.stream(window=w) as session:
                for frame in frames:
                    session.push(frame)
                summary = session.summary()
            offline[key] = {
                "raw": summary.raw_predictions.tolist(),
                "voted": summary.voted_predictions.tolist(),
            }

        service = ServeService(engine, ServeConfig(max_batch=8, max_wait_ms=1.0))
        service.start()
        try:
            served = _serve_session_outputs(service, streams, chunk=2)
        finally:
            service.stop()
        for key in streams:
            assert served[key]["raw"] == offline[key]["raw"], f"{target}/{key} raw"
            assert served[key]["voted"] == offline[key]["voted"], f"{target}/{key} voted"

    def test_served_stats_match_offline_on_stats_target(
        self, quantized_model, target_frames
    ):
        """Cycles/energy served per frame equal the offline stream's."""
        engine = repro.compile(ModelBundle(quantized_model), target="stm32")
        frames = target_frames[:6]
        with engine.stream(window=5) as session:
            offline = [session.push(f) for f in frames]
        service = ServeService(engine, ServeConfig(max_batch=4, max_wait_ms=0.5))
        service.start()
        try:
            sid = service.open_session(window=5)["session_id"]
            results = service.submit_frames(sid, frames).future.result(timeout=30)
        finally:
            service.stop()
        assert [r.cycles for r in results] == [u.cycles for u in offline]
        assert [r.energy_uj for r in results] == pytest.approx(
            [u.energy_uj for u in offline]
        )


# --------------------------------------------------------------------- #
class TestHttpServer:
    @pytest.fixture()
    def running(self):
        engine = FakeEngine()
        with start_server(engine, max_batch=8, max_wait_ms=1.0, session_ttl_s=60.0) as server:
            yield server, engine

    def test_healthz_and_metrics(self, running):
        server, _ = running
        with ServeClient(server.host, server.port) as client:
            health = client.healthz()
            assert health["status"] == "ok"
            assert health["active_sessions"] == 0
            text = client.metrics()
            assert "repro_serve_requests_total" in text
            assert "repro_serve_batch_size_bucket" in text

    def test_session_lifecycle_and_voted_outputs(self, running):
        server, _ = running
        with ServeClient(server.host, server.port) as client:
            opened = client.open_session(window=3)
            assert opened["window"] == 3
            assert opened["config"]["max_batch"] == 8
            sid = opened["session_id"]
            values = [1, 1, 3, 1, 2, 2, 2]
            out = client.push(sid, encode_frames(values))
            raw = [r["raw"] for r in out["results"]]
            voted = [r["voted"] for r in out["results"]]
            assert raw == values
            assert voted == majority_filter(values, window=3).tolist()
            closed = client.close_session(sid)
            assert closed["frames_seen"] == len(values)
            with pytest.raises(UnknownSessionError):
                client.push(sid, encode_frames([0]))

    def test_single_frame_push_and_seq_numbers(self, running):
        server, _ = running
        with ServeClient(server.host, server.port) as client:
            sid = client.open_session()["session_id"]
            first = client.push(sid, encode_frames([2])[0])
            assert first["results"][0]["seq"] == 0
            second = client.push(sid, encode_frames([2, 2]))
            assert [r["seq"] for r in second["results"]] == [1, 2]

    def test_concurrent_sessions_parity_and_coalescing(self, running):
        server, engine = running
        rng = np.random.default_rng(0)
        streams = {k: rng.integers(0, 4, size=30).tolist() for k in range(4)}
        voted_out = {}

        def worker(key):
            with ServeClient(server.host, server.port) as client:
                sid = client.open_session(window=5)["session_id"]
                voted = []
                values = streams[key]
                for i in range(0, len(values), 3):
                    out = client.push(sid, encode_frames(values[i : i + 3]))
                    voted.extend(r["voted"] for r in out["results"])
                client.close_session(sid)
                voted_out[key] = voted

        threads = [threading.Thread(target=worker, args=(k,)) for k in streams]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        for key, values in streams.items():
            assert voted_out[key] == majority_filter(values, window=5).tolist(), key
        # Every frame went through the batcher exactly once.
        assert sum(engine.batch_sizes) == sum(len(v) for v in streams.values())

    def test_error_paths(self, running):
        server, _ = running
        with ServeClient(server.host, server.port) as client:
            from repro.serve import BadRequestError, ServeClientError

            with pytest.raises(UnknownSessionError):
                client.push("feedfacefeedface", encode_frames([0]))
            with pytest.raises(BadRequestError):
                client._request("POST", "/v1/sessions/abc0/frames", {"frames": "nope"})
            with pytest.raises(BadRequestError):
                client._request("POST", "/v1/sessions/abc0/frames", {"nothing": 1})
            with pytest.raises(ServeClientError):
                client._request("GET", "/v1/nope")
            with pytest.raises(ServeClientError):  # 405
                client._request("GET", "/v1/sessions")

    def test_metrics_endpoint_labels_are_a_fixed_set(self):
        # Error responses used to be labelled with the raw path: one series
        # per session id, and "v1/sessions" vs "sessions" for one route.
        service = ServeService(FakeEngine())
        service.start()
        try:
            for sid in ("aaaa1111", "bbbb2222"):
                assert service.handle("DELETE", f"/v1/sessions/{sid}", b"").status == 404
            assert service.handle("POST", "/v1/sessions", b"{not json").status == 400
            assert service.handle("POST", "/v1/sessions", b"").status == 201
            assert service.handle("GET", '/x"y', b"").status == 404
            assert service.handle("DELETE", "/healthz", b"").status == 405
            text = service.metrics.render()
        finally:
            service.stop()
        labels = set(re.findall(r'endpoint="([^"]*)"', text))
        assert labels == {"healthz", "sessions", "unknown"}
        p = "repro_serve_requests_total"
        assert f'{p}{{endpoint="sessions",status="404"}} 2' in text
        assert f'{p}{{endpoint="sessions",status="400"}} 1' in text
        assert f'{p}{{endpoint="sessions",status="201"}} 1' in text

    def test_lazy_ttl_eviction_is_counted(self):
        now = [0.0]
        service = ServeService(
            FakeEngine(), ServeConfig(session_ttl_s=10.0), clock=lambda: now[0]
        )
        service.start()
        try:
            sid = service.open_session()["session_id"]
            now[0] = 100.0
            with pytest.raises(UnknownSessionError):
                service.submit_frames(sid, encode_frames([0]))
            assert len(service.sessions) == 0
            assert service.metrics.counter("evictions_total") == 1
            assert "repro_serve_evictions_total 1" in service.metrics.render()
        finally:
            service.stop()

    def test_malformed_json_is_400(self, running):
        server, _ = running
        import http.client

        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        conn.request(
            "POST",
            "/v1/sessions",
            body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        assert response.status == 400
        assert json.loads(response.read())["error"] == "bad_request"
        conn.close()

    def test_backpressure_returns_429(self):
        engine = FakeEngine(delay_s=0.2)
        with start_server(
            engine, max_batch=1, max_wait_ms=0.0, max_queue=2
        ) as server:
            with ServeClient(server.host, server.port) as client:
                sid = client.open_session()["session_id"]
                errors = []
                results = []

                def pusher():
                    try:
                        with ServeClient(server.host, server.port) as c2:
                            results.append(c2.push(sid, encode_frames([0, 0])))
                    except OverloadedError as exc:
                        errors.append(exc)

                threads = [threading.Thread(target=pusher) for _ in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                # With a 2-deep queue and a slow engine, at least one of six
                # bursts must have been rejected — and it surfaced as 429.
                assert errors, "expected at least one 429 overload rejection"
                metrics = client.metrics()
                assert "repro_serve_rejected_total" in metrics

    def test_graceful_shutdown_completes_inflight_requests(self):
        engine = FakeEngine(delay_s=0.05)
        server = start_server(engine, max_batch=4, max_wait_ms=5.0)
        outputs = []
        barrier = threading.Barrier(4, timeout=30)

        def pusher():
            with ServeClient(server.host, server.port) as client:
                sid = client.open_session(window=1)["session_id"]
                barrier.wait()  # all sessions open before any frame is pushed
                outputs.append(client.push(sid, encode_frames([1, 2, 3])))

        threads = [threading.Thread(target=pusher) for _ in range(3)]
        for t in threads:
            t.start()
        barrier.wait()
        time.sleep(0.05)  # pushes are now mid-flight in the batcher/engine
        server.stop()
        for t in threads:
            t.join(timeout=30)
        # Every request that was admitted got a full response before the
        # server exited (drain semantics); none were dropped silently.
        assert len(outputs) == 3
        for out in outputs:
            assert [r["raw"] for r in out["results"]] == [1, 2, 3]

    def test_idle_session_evicted_by_sweeper(self):
        engine = FakeEngine()
        from repro.serve.server import ServeServer
        from repro.serve import RunningServer

        server = RunningServer(
            ServeServer(
                engine,
                config=ServeConfig(session_ttl_s=0.2),
                eviction_interval_s=0.05,
            )
        ).start()
        try:
            with ServeClient(server.host, server.port) as client:
                sid = client.open_session()["session_id"]
                client.push(sid, encode_frames([0]))
                deadline = time.time() + 10
                while time.time() < deadline:
                    if client.healthz()["active_sessions"] == 0:
                        break
                    time.sleep(0.05)
                assert client.healthz()["active_sessions"] == 0
                with pytest.raises(UnknownSessionError):
                    client.push(sid, encode_frames([0]))
                assert "repro_serve_evictions_total 1" in client.metrics()
        finally:
            server.stop()


# --------------------------------------------------------------------- #
class TestInterleavingProperties:
    """Satellite property: ANY interleaving of K sessions through the
    micro-batcher yields per-session outputs identical to K independent
    offline ``majority_filter`` replays — order-independence across chunk
    schedules, window lengths, batch windows and mid-stream closes."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_any_interleaving_matches_independent_offline_streams(self, data):
        k = data.draw(st.integers(2, 4), label="num_sessions")
        streams = {}
        chunk_plan = {}
        for i in range(k):
            values = data.draw(
                st.lists(st.integers(0, 3), min_size=1, max_size=16),
                label=f"stream_{i}",
            )
            window = data.draw(st.integers(1, 7), label=f"window_{i}")
            streams[i] = (window, values)
            sizes, remaining = [], len(values)
            while remaining:
                size = data.draw(
                    st.integers(1, min(4, remaining)), label=f"chunk_{i}"
                )
                sizes.append(size)
                remaining -= size
            chunk_plan[i] = sizes
        max_batch = data.draw(st.integers(1, 16), label="max_batch")
        max_wait_ms = data.draw(st.sampled_from([0.0, 1.0]), label="max_wait_ms")
        order = data.draw(
            st.permutations([i for i in streams for _ in chunk_plan[i]]),
            label="interleaving",
        )

        service = ServeService(
            FakeEngine(), ServeConfig(max_batch=max_batch, max_wait_ms=max_wait_ms)
        )
        service.start()
        try:
            sids = {
                i: service.open_session(window=streams[i][0])["session_id"]
                for i in streams
            }
            cursors = {i: 0 for i in streams}
            next_chunk = {i: 0 for i in streams}
            pending = []
            # Submit every chunk in the drawn interleaving WITHOUT waiting in
            # between, so the batcher freely coalesces across sessions.
            for i in order:
                size = chunk_plan[i][next_chunk[i]]
                next_chunk[i] += 1
                part = streams[i][1][cursors[i] : cursors[i] + size]
                cursors[i] += size
                pending.append((i, service.submit_frames(sids[i], encode_frames(part))))
            outputs = {i: [] for i in streams}
            for i, p in pending:
                for r in p.future.result(timeout=30):
                    outputs[i].append((r.seq, r.raw, r.voted))
        finally:
            service.stop()

        for i, (window, values) in streams.items():
            outputs[i].sort()
            assert [seq for seq, _, _ in outputs[i]] == list(range(len(values)))
            assert [raw for _, raw, _ in outputs[i]] == values
            assert [voted for _, _, voted in outputs[i]] == majority_filter(
                values, window=window
            ).tolist()

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_mid_stream_close_isolates_other_sessions(self, data):
        window = data.draw(st.integers(1, 5), label="window")
        survivor = data.draw(
            st.lists(st.integers(0, 3), min_size=1, max_size=12), label="survivor"
        )
        doomed = data.draw(
            st.lists(st.integers(0, 3), min_size=2, max_size=12), label="doomed"
        )
        cut = data.draw(st.integers(1, len(doomed) - 1), label="cut")
        max_batch = data.draw(st.integers(1, 8), label="max_batch")

        service = ServeService(
            FakeEngine(), ServeConfig(max_batch=max_batch, max_wait_ms=0.5)
        )
        service.start()
        try:
            sid_s = service.open_session(window=window)["session_id"]
            sid_d = service.open_session(window=window)["session_id"]
            # The doomed session streams its prefix to completion...
            prefix = service.submit_frames(
                sid_d, encode_frames(doomed[:cut])
            ).future.result(timeout=30)
            # ... then goes away mid-stream.
            service.close_session(sid_d)
            with pytest.raises(UnknownSessionError):
                service.submit_frames(sid_d, encode_frames(doomed[cut:]))
            # The survivor streams through, oblivious.
            results = service.submit_frames(
                sid_s, encode_frames(survivor)
            ).future.result(timeout=30)
        finally:
            service.stop()

        assert [r.voted for r in prefix] == majority_filter(
            doomed[:cut], window=window
        ).tolist()
        assert [r.voted for r in results] == majority_filter(
            survivor, window=window
        ).tolist()


# --------------------------------------------------------------------- #
class TestWsgiAdapter:
    def _call(self, app, method, path, payload=None):
        body = b"" if payload is None else json.dumps(payload).encode()
        environ = {
            "REQUEST_METHOD": method,
            "PATH_INFO": path,
            "CONTENT_LENGTH": str(len(body)),
            "wsgi.input": BytesIO(body),
        }
        captured = {}

        def start_response(status, headers):
            captured["status"] = int(status.split()[0])
            captured["headers"] = dict(headers)

        chunks = app(environ, start_response)
        raw = b"".join(chunks)
        if captured["headers"].get("Content-Type", "").startswith("application/json"):
            return captured["status"], json.loads(raw)
        return captured["status"], raw.decode()

    def test_full_lifecycle_through_wsgi(self):
        engine = FakeEngine()
        service = ServeService(engine, ServeConfig(max_batch=4, max_wait_ms=0.5))
        service.start()
        try:
            app = make_wsgi_app(service)
            status, health = self._call(app, "GET", "/healthz")
            assert status == 200 and health["status"] == "ok"
            status, opened = self._call(
                app, "POST", "/v1/sessions", {"window": 3}
            )
            assert status == 201
            sid = opened["session_id"]
            values = [0, 3, 3, 3, 1]
            status, out = self._call(
                app,
                "POST",
                f"/v1/sessions/{sid}/frames",
                {"frames": encode_frames(values).tolist()},
            )
            assert status == 200
            assert [r["voted"] for r in out["results"]] == majority_filter(
                values, window=3
            ).tolist()
            status, metrics = self._call(app, "GET", "/metrics")
            assert status == 200 and "repro_serve_frames_total 5" in metrics
            status, closed = self._call(app, "DELETE", f"/v1/sessions/{sid}")
            assert status == 200 and closed["frames_seen"] == 5
            status, err = self._call(
                app, "POST", f"/v1/sessions/{sid}/frames", {"frames": [[[0.0]]]}
            )
            assert status == 404 and err["error"] == "unknown_session"
        finally:
            service.stop()


# --------------------------------------------------------------------- #
class TestTtlEvictionRacingInflightFrames:
    """A session TTL-evicted between enqueue and dispatch must fail its
    queued frames cleanly (409) without crashing or stalling the batcher,
    and the next push for it must get a clean 404."""

    def test_eviction_mid_queue_fails_409_and_batcher_keeps_serving(self):
        now = [0.0]
        runner = BlockingRunner()
        mgr = SessionManager(ttl_s=10.0, clock=lambda: now[0])
        # max_wait_ms=0 with the frozen clock: the collect window expires
        # immediately instead of waiting for fake time that never advances.
        batcher = MicroBatcher(
            runner, max_batch=4, max_wait_ms=0.0, clock=lambda: now[0]
        )
        victim, survivor = mgr.open(), mgr.open()
        batcher.start()
        try:
            # Park the dispatch thread inside the runner on a throwaway frame.
            first = batcher.submit(survivor, encode_frames([0]))
            assert runner.entered.wait(timeout=10)
            # Enqueue the victim's frames, then TTL-evict it before dispatch.
            queued = batcher.submit(victim, encode_frames([0, 0]))
            now[0] = 95.0
            survivor.last_active = now[0]  # stays fresh; only the victim idles out
            now[0] = 100.0
            evicted = mgr.evict_idle()
            assert victim in evicted
            runner.release.set()
            first.result(timeout=10)
            with pytest.raises(SessionClosedError):
                queued.result(timeout=10)
            # The batcher is alive and serving: the survivor still works...
            ok = batcher.submit(survivor, encode_frames([1, 1]))
            assert len(ok.result(timeout=10)) == 2
            # ...and the evicted frames never reached the engine.
            assert sum(runner.batches) == 3
            # A new push for the evicted session is a clean 404.
            with pytest.raises(UnknownSessionError):
                mgr.get(victim.id)
        finally:
            batcher.stop(drain=True)

    def test_lazy_get_eviction_notifies_on_evict(self):
        now = [0.0]
        retired = []
        mgr = SessionManager(
            ttl_s=5.0, clock=lambda: now[0], on_evict=lambda s: retired.append(s.id)
        )
        s = mgr.open()
        now[0] = 100.0
        with pytest.raises(UnknownSessionError):
            mgr.get(s.id)
        assert retired == [s.id]


class TestDegenerateBatcherConfig:
    """``max_wait_ms=0`` + ``max_batch=1``: every frame dispatches alone,
    with one wakeup per frame and no spinning on the deadline clock."""

    def test_one_batch_per_frame(self):
        engine = FakeEngine()
        batcher = MicroBatcher(engine.predict_batch, max_batch=1, max_wait_ms=0.0)
        mgr = SessionManager(ttl_s=100)
        s = mgr.open()
        batcher.start()
        try:
            futures = [batcher.submit(s, encode_frames([i % 4])) for i in range(6)]
            results = [f.result(timeout=10) for f in futures]
        finally:
            batcher.stop(drain=True)
        assert engine.batch_sizes == [1] * 6
        assert [r[0].seq for r in results] == list(range(6))

    def test_no_dispatch_thread_spin(self):
        """The dispatcher must take O(1) clock reads per frame — a spinning
        collect loop would take unboundedly many."""
        clock_calls = [0]

        def counting_clock():
            clock_calls[0] += 1
            return time.monotonic()

        engine = FakeEngine()
        batcher = MicroBatcher(
            engine.predict_batch, max_batch=1, max_wait_ms=0.0, clock=counting_clock
        )
        mgr = SessionManager(ttl_s=100)
        s = mgr.open()
        batcher.start()
        try:
            n = 20
            for i in range(n):
                batcher.submit(s, encode_frames([0])).result(timeout=10)
        finally:
            batcher.stop(drain=True)
        # submit touches the clock once, _collect reads it once to set the
        # (immediately expired) deadline: a small constant per frame.
        assert clock_calls[0] <= 4 * n + 4, f"{clock_calls[0]} clock reads for {n} frames"
        assert engine.batch_sizes == [1] * n


# --------------------------------------------------------------------- #
class _FakeResponse:
    def __init__(self, status=200, payload=None, headers=None):
        self.status = status
        self._payload = json.dumps(payload or {}).encode()
        self._headers = {"Content-Type": "application/json", **(headers or {})}

    def read(self):
        return self._payload

    def getheader(self, name, default=None):
        return self._headers.get(name, default)


class _FakeConnection:
    """Scripted http.client stand-in: each entry is a response or an error."""

    def __init__(self, script):
        self.script = list(script)
        self.sock = object()  # pretend already connected
        self.requests = []

    def request(self, method, path, body=None, headers=None):
        self.requests.append((method, path))

    def getresponse(self):
        step = self.script.pop(0)
        if isinstance(step, Exception):
            raise step
        return step

    def close(self):
        self.sock = None


class TestClientTransport:
    """The double-submit fix: drops mid-exchange are never blindly replayed."""

    def _client_with(self, conns):
        from repro.serve import ServeClient

        client = ServeClient()
        conns = list(conns)
        client._connection = lambda: conns.pop(0)
        return client

    def test_post_drop_mid_exchange_is_not_resent(self):
        from repro.serve import ConnectionDroppedError

        conn = _FakeConnection([ConnectionResetError("stale keep-alive")])
        client = self._client_with([conn])
        with pytest.raises(ConnectionDroppedError) as info:
            client._request("POST", "/v1/sessions/abc/frames", {"frames": []})
        assert info.value.request_sent  # ambiguous: may have been processed
        assert len(conn.requests) == 1  # exactly one attempt — no blind replay

    def test_get_drop_is_replayed_once(self):
        dead = _FakeConnection([ConnectionResetError("stale keep-alive")])
        alive = _FakeConnection([_FakeResponse(payload={"status": "ok"})])
        client = self._client_with([dead, alive])
        assert client._request("GET", "/healthz") == {"status": "ok"}
        assert len(dead.requests) == 1 and len(alive.requests) == 1

    def test_connect_failure_is_verifiably_unsent(self):
        import socket

        from repro.serve import ConnectionDroppedError, ServeClient

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        with ServeClient("127.0.0.1", port, timeout=2.0) as client:
            with pytest.raises(ConnectionDroppedError) as info:
                client.healthz()
        assert not info.value.request_sent

    def test_retry_after_header_is_surfaced(self):
        from repro.serve import OverloadedError

        conn = _FakeConnection(
            [
                _FakeResponse(
                    status=429,
                    payload={"error": "overloaded", "detail": "full"},
                    headers={"Retry-After": "0.25"},
                )
            ]
        )
        client = self._client_with([conn])
        with pytest.raises(OverloadedError) as info:
            client._request("GET", "/healthz")
        assert info.value.retry_after == 0.25


class TestRetryPolicy:
    def test_retriable_classification(self):
        from repro.serve import (
            ConnectionDroppedError,
            RetryPolicy,
            WorkerCrashedError,
        )

        policy = RetryPolicy()
        assert policy.retriable(OverloadedError("full"))
        assert policy.retriable(WorkerCrashedError("gone"))
        assert policy.retriable(ConnectionDroppedError("x", request_sent=False))
        assert not policy.retriable(ConnectionDroppedError("x", request_sent=True))
        assert not policy.retriable(UnknownSessionError("gone"))

    def test_delay_exponential_and_capped(self):
        from repro.serve import RetryPolicy

        policy = RetryPolicy(backoff_base_s=0.1, backoff_max_s=0.5, jitter=0.0)
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(5) == pytest.approx(0.5)  # capped

    def test_retry_after_is_a_lower_bound(self):
        from repro.serve import RetryPolicy

        policy = RetryPolicy(backoff_base_s=0.01, backoff_max_s=1.0, jitter=0.0)
        assert policy.delay(0, retry_after=0.3) == pytest.approx(0.3)
        assert policy.delay(0, retry_after=5.0) == pytest.approx(1.0)  # capped

    def test_jitter_is_seeded_and_deterministic(self):
        from repro.serve import RetryPolicy

        a = [RetryPolicy(seed=3).delay(i) for i in range(4)]
        b = [RetryPolicy(seed=3).delay(i) for i in range(4)]
        assert a == b
        assert a != [RetryPolicy(seed=4).delay(i) for i in range(4)]

    def test_max_attempts_validated(self):
        from repro.serve import RetryPolicy

        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_client_absorbs_retriable_errors(self, monkeypatch):
        from repro.serve import RetryPolicy, ServeClient

        client = ServeClient(
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.001, seed=0)
        )
        calls = {"n": 0}

        def flaky(method, path, payload):
            calls["n"] += 1
            if calls["n"] < 3:
                raise OverloadedError("busy")
            return {"ok": True}

        monkeypatch.setattr(client, "_request_once", flaky)
        assert client._request("GET", "/healthz") == {"ok": True}
        assert calls["n"] == 3

    def test_client_without_policy_raises_first_error(self, monkeypatch):
        client = ServeClient()

        def always_busy(method, path, payload):
            raise OverloadedError("busy")

        monkeypatch.setattr(client, "_request_once", always_busy)
        with pytest.raises(OverloadedError):
            client._request("GET", "/healthz")


class TestServeInputGuard:
    """on_invalid policies and per-session health over the HTTP front-end."""

    def _server(self, **knobs):
        return start_server(FakeEngine(), config=ServeConfig(max_batch=8, **knobs))

    def test_reject_policy_maps_to_http_400(self):
        from repro.serve import InvalidFramesError

        with self._server(on_invalid="reject") as server:
            with ServeClient(server.host, server.port) as client:
                opened = client.open_session(window=3)
                assert opened["config"]["on_invalid"] == "reject"
                sid = opened["session_id"]
                frames = encode_frames([1, 2])
                frames[1, 0, 0, 0] = np.nan
                with pytest.raises(InvalidFramesError):
                    client.push(sid, frames)
                # Clean frames still flow after the rejection.
                out = client.push(sid, encode_frames([1]))
                assert out["results"][0]["raw"] == 1

    def test_clamp_policy_repairs_and_counts(self):
        with self._server(on_invalid="clamp") as server:
            with ServeClient(server.host, server.port) as client:
                sid = client.open_session(window=3)["session_id"]
                frames = encode_frames([2, 3])
                frames[0] = np.nan  # clamps to zeros -> class 0
                out = client.push(sid, frames)
                assert [r["raw"] for r in out["results"]] == [0, 3]
                text = client.metrics()
                assert f'repro_serve_session_invalid_fraction{{session="{sid}"}} 0.5' in text
                assert f'repro_serve_session_vote_margin{{session="{sid}"}}' in text
                closed = client.close_session(sid)
                assert closed["invalid_frames"] == 1
                assert closed["vote_margin"] == 0.0  # FIFO [0, 3]: a tie

    def test_default_config_stays_bit_identical(self):
        # No policy: the config payload gains no key and no per-session
        # gauges leak into /metrics beyond the (guard-less) fraction series.
        with self._server() as server:
            with ServeClient(server.host, server.port) as client:
                opened = client.open_session(window=3)
                assert "on_invalid" not in opened["config"]
                assert "invalid_frames" not in client.close_session(
                    opened["session_id"]
                )


class TestSessionStream:
    """Transparent session recovery over the single-process server."""

    def test_matches_offline_voting(self):
        from repro.serve import SessionStream

        values = [1, 1, 3, 1, 2, 2, 0, 2, 1, 1]
        with start_server(FakeEngine(), max_batch=8) as server:
            with ServeClient(server.host, server.port) as client:
                with SessionStream(client, window=3) as stream:
                    voted = []
                    for i in range(0, len(values), 2):
                        out = stream.push(encode_frames(values[i : i + 2]))
                        voted.extend(r["voted"] for r in out)
        assert voted == majority_filter(values, window=3).tolist()
        assert stream.frames_acked == len(values)
        assert stream.recoveries == 0

    def test_recovers_from_purged_session(self):
        from repro.serve import SessionStream

        values = [1, 1, 3, 1, 2, 2, 0, 2, 1, 1]
        with start_server(FakeEngine(), max_batch=8) as server:
            with ServeClient(server.host, server.port) as client:
                with SessionStream(client, window=3, recovery_backoff_s=0.0) as stream:
                    voted = []
                    for i in range(0, len(values), 2):
                        if i == 4:  # a TTL purge / worker crash, externally
                            with ServeClient(server.host, server.port) as saboteur:
                                saboteur.close_session(stream.session_id)
                        out = stream.push(encode_frames(values[i : i + 2]))
                        voted.extend(r["voted"] for r in out)
        # The warm tail replay rebuilt the majority FIFO, so the voted
        # stream is bit-identical to an uninterrupted offline filter.
        assert voted == majority_filter(values, window=3).tolist()
        assert stream.recoveries == 1

    def test_gives_up_after_max_recoveries(self):
        from repro.serve import SessionStream

        with start_server(FakeEngine(), max_batch=8) as server:
            with ServeClient(server.host, server.port) as client:
                stream = SessionStream(client, window=3, max_recoveries=2,
                                       recovery_backoff_s=0.0)
                stream.open()
                real_push = client.push

                def poisoned(sid, frames):
                    raise UnknownSessionError("always purged")

                client.push = poisoned
                try:
                    with pytest.raises(UnknownSessionError):
                        stream.push(encode_frames([1]))
                finally:
                    client.push = real_push

    def test_close_is_idempotent(self):
        from repro.serve import SessionStream

        with start_server(FakeEngine(), max_batch=8) as server:
            with ServeClient(server.host, server.port) as client:
                stream = SessionStream(client, window=3)
                stream.open()
                stream.push(encode_frames([1]))
                assert stream.close()["frames_seen"] == 1
                assert stream.close() == {}
