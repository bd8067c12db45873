"""Server process of the ``serve-*`` workloads.

Serves the workload's segments one after another.  Each segment is a cold
set-up -- build the model from the seed, ``repro.compile``, ``start_server``
(and spawn and prime the pool worker) -- after which the host reports
``ready`` with the monotonic time ``repro.compile`` was called.  The load
generator drives the segment and answers ``stop``; the host reports the
server-side counters and the shutdown checks (``stopped``), and sets up the
next segment.  After the last one it reports the traced spans (``result``)
and exits.

Run by ``perfbench/run.py``; speaks the line protocol of
:mod:`common`.
"""

from __future__ import annotations

import argparse
import multiprocessing
import re
import sys
import threading
import time
from collections import deque

import common
import tracing

_RING_OCCUPANCY = re.compile(r"^repro_serve_pool_ring_occupancy\{[^}]*\} ([0-9.eE+-]+)$", re.M)


def install_tracing(tracer: tracing.Tracer, pooled: bool) -> dict:
    """Wrap the serving layers' public entry points (server side)."""
    from repro.engine import Engine
    from repro.serve import MicroBatcher, PendingResponse, ServeService, Session
    from repro.serve.pool import PoolServeService, WorkerHandle

    service_cls = PoolServeService if pooled else ServeService
    tracer.wrap(
        service_cls, "handle", "service.handle",
        extra=lambda args, kwargs: 1 if "/frames" in args[2] else 0,
    )
    tracer.wrap(PendingResponse, "complete", "service.encode")
    tracer.wrap(Session, "record_vote", "postproc.vote", aggregate=True)

    # Queue wait: the batcher dispatches frames strictly FIFO on one thread,
    # so the n frames of a predict_batch call are the n oldest submitted.
    fifo: deque = deque()
    lock = threading.Lock()
    waits: list = []

    submit = MicroBatcher.submit

    def traced_submit(self, session, frames):
        entry = [time.monotonic(), len(frames)]
        with lock:
            fifo.append(entry)
        try:
            return submit(self, session, frames)
        except BaseException:
            entry[1] = 0  # refused before it was queued
            raise

    predict_batch = Engine.predict_batch
    engine_spans = tracer.spans["engine.predict_batch"]

    def traced_predict_batch(self, frames):
        start = time.monotonic()
        need = len(frames)
        with lock:
            while need and fifo:
                entry = fifo[0]
                take = min(need, entry[1])
                waits.extend([start - entry[0]] * take)
                entry[1] -= take
                need -= take
                if entry[1] == 0:
                    fifo.popleft()
        try:
            return predict_batch(self, frames)
        finally:
            engine_spans.append([start, time.monotonic(), len(frames)])

    tracer.patch(MicroBatcher, "submit", traced_submit)
    tracer.patch(Engine, "predict_batch", traced_predict_batch)

    # Pool round trip: WorkerHandle.submit -> the result future resolves.
    roundtrips = tracer.spans["pool.roundtrip"]
    worker_submit = WorkerHandle.submit

    def traced_worker_submit(self, session_id, frames, max_queue):
        start = time.monotonic()
        future = worker_submit(self, session_id, frames, max_queue)
        future.add_done_callback(
            lambda f: roundtrips.append([start, time.monotonic(), len(frames)])
        )
        return future

    tracer.patch(WorkerHandle, "submit", traced_worker_submit)
    return {"queue_waits": waits}


class OccupancySampler:
    """Scrapes the pool's ring-occupancy gauges from the ``/metrics`` text."""

    def __init__(self, service, interval_s: float = 0.05):
        self.peak = 0.0
        self._service = service
        self._interval = interval_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            text = self._service.metrics.render()
            for value in _RING_OCCUPANCY.findall(text):
                self.peak = max(self.peak, float(value))

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=10)


def shutdown(running, pooled: bool) -> dict:
    """Stop the server and check that no worker process or ring survives."""
    workers = [p.pid for p in multiprocessing.active_children()]
    rings = running.service.pool.ring_names() if pooled else []
    running.stop()
    return {
        "worker_pids": workers,
        "surviving_workers": [pid for pid in workers if common.pid_alive(pid)],
        "leaked_rings": [name for name in rings if common.shm_exists(name)],
    }


def measure_sim(engine, frames) -> dict:
    """In-process ``maupiti`` numbers on the served model and frames."""
    from repro.hw.sim import clear_trace_cache, get_template

    def timed(batch):
        start = time.perf_counter()
        out = engine.predict_batch(batch)
        return time.perf_counter() - start, out

    b1 = [timed(frames[i : i + 1])[0] for i in range(24)]
    b8 = [timed(frames[i : i + common.CHUNK])[0] for i in range(0, 96, common.CHUNK)]
    runs16 = [timed(frames[i : i + 16]) for i in range(0, 128, 16)]
    host_s = sum(t for t, _ in runs16)
    cycles = sum(int(out.cycles_per_frame.sum()) for _, out in runs16)
    backend = engine.backend
    templates = []
    for _ in range(3):
        clear_trace_cache()
        start = time.perf_counter()
        get_template(
            backend.compiled.program,
            backend.platform.core.cycle_model,
            backend.platform.core.enable_sdotp,
        )
        templates.append(time.perf_counter() - start)
    return {
        "sim.us_per_frame_b1": common.median(b1) * 1e6,
        "sim.us_per_frame_b16": common.median([t for t, _ in runs16]) / 16 * 1e6,
        "sim.host_ns_per_sim_cycle": host_s / cycles * 1e9,
        "sim.cycles_per_frame": cycles / (16 * len(runs16)),
        "sim.template_ms": common.median(templates) * 1e3,
        "chunk_ms_p50": common.median(b8) * 1e3,
    }


def server_stats(service, pooled: bool) -> dict:
    metrics = service.metrics
    stats = {
        "request_p50_s": metrics.latency_quantiles((0.5,))[0.5],
        "frames_total": metrics.counter("frames_total"),
        "rejected_total": metrics.counter("rejected_total"),
        "batches_total": metrics.counter("batches_total"),
        "mean_batch_size": metrics.mean_batch_size(),
    }
    if pooled:
        stats["pool"] = service.pool_stats()
    return stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(common.SERVE_WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    workload = common.SERVE_WORKLOADS[args.workload]
    pooled = workload.workers > 0

    import repro
    from repro.hw.sim import clear_trace_cache
    from repro.serve import ServeConfig, start_server

    tracer = tracing.Tracer() if args.trace else None
    traced = install_tracing(tracer, pooled) if tracer else {}
    occupancy = 0.0
    for _ in range(common.SEGMENTS):
        bundle, frames = common.build_serve_inputs(args.seed)
        clear_trace_cache()  # every set-up compiles its simulator template cold
        started = time.monotonic()
        engine = repro.compile(bundle, target=workload.target)
        running = start_server(engine, config=ServeConfig(workers=workload.workers))
        if pooled:
            running.service.prime(frames.shape[1:])
        common.send("ready", port=running.port, compile_at=started)
        sampler = OccupancySampler(running.service) if tracer and pooled else None
        command = sys.stdin.readline().strip()
        if command != "stop":
            raise SystemExit(f"expected 'stop', got {command!r}")
        if sampler is not None:
            sampler.close()
            occupancy = max(occupancy, sampler.peak)
        stats = server_stats(running.service, pooled)
        common.send("stopped", stats=stats, **shutdown(running, pooled))

    result = {}
    if tracer is not None:
        tracer.unpatch()
        result["trace"] = tracer.snapshot()
        result["queue_waits"] = traced["queue_waits"]
        result["ring_occupancy_max"] = occupancy
        if workload.target == "maupiti":
            result["sim"] = measure_sim(engine, frames)
    common.send("result", **result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
