#!/usr/bin/env python3
"""The repository benchmark: sensor-fleet serving and the paper's flow.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-golden --seed 1 --seconds 25 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``serve-golden``       -- 128 sensors at 10 Hz on an ``int-golden`` engine,
  in-process micro-batching (open loop), then back-to-back pushes (closed
  loop);
* ``serve-maupiti-pool`` -- 24 sensors at 10 Hz on a ``maupiti`` engine
  served by one spawned pool worker over the shared-memory rings;
* ``flow-paper``         -- PIT search -> mixed-precision QAT -> majority
  voting -> Table-I deploy on a process pool of 2, no result cache.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the workload
untraced and then traced, and prints the per-layer metrics plus the
tracing overhead.  Every run checks the program's outputs against an offline
reference; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import common
import tracing


def metric_units(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


#: a run whose generator woke this late (p95, with its connection idle) is
#: invalid: it measured the load generator, not the server
GENERATOR_LAG_LIMIT_S = 0.005
#: sessions per serve pass whose reference is also replayed through
#: ``Engine.stream`` (one single-frame engine call per frame, so not all)
STREAM_REPLAYS = 8
#: traced flow stage spans must cover flow_s to within this share
STAGE_COVERAGE_TOLERANCE = 0.05
#: a run that is still going after this long stops its processes and fails
RUN_DEADLINE_S = 170
WORKLOADS = sorted([*common.SERVE_WORKLOADS, "flow-paper"])


def log(message: str) -> None:
    print(message, flush=True)


@dataclass
class Outcome:
    """What one pass of a workload measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    invalid: List[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict)

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(problem)


# ====================================================================== #
# serve-* workloads
# ====================================================================== #
@dataclass
class Push:
    session: int
    chunk: int  # index of the chunk within its session's stream
    scheduled: float
    sent: float = 0.0
    done: float = 0.0
    idle_since: float = 0.0  # when this sender's connection became free
    results: Optional[list] = None
    error: Optional[str] = None


class Fleet:
    """The sensor sessions of one serve pass, spread over the sender threads."""

    def __init__(self, workload, seed: int, frames, port: int):
        from repro.serve import ServeClient

        self.frames = frames
        self.sessions = workload.sessions
        self.offsets = common.session_offsets(seed, self.sessions, len(frames))
        self.clients = [
            ServeClient("127.0.0.1", port, timeout=60) for _ in range(common.SENDER_THREADS)
        ]
        self.ids = [
            self.clients[i % common.SENDER_THREADS].open_session(window=common.WINDOW)[
                "session_id"
            ]
            for i in range(self.sessions)
        ]
        self.next_chunk = [0] * self.sessions
        self.pushes: List[Push] = []

    def chunk(self, session: int, k: int):
        return self.frames[common.chunk_indices(self.offsets[session], k, len(self.frames))]

    def _push(self, client, push: Push) -> None:
        push.sent = time.monotonic()
        try:
            reply = client.push(self.ids[push.session], self.chunk(push.session, push.chunk))
            push.results = reply["results"]
        except Exception as exc:  # counted as a failed push
            push.error = f"{type(exc).__name__}: {exc}"
        push.done = time.monotonic()

    def _run_threads(self, body) -> None:
        """Run ``body(client, thread)`` on every sender; re-raise its errors."""
        errors = []

        def sender(thread):
            try:
                body(self.clients[thread], thread)
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=sender, args=(t,), daemon=True)
            for t in range(common.SENDER_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]

    def open_loop(self, seconds: float) -> List[Push]:
        """Every session pushes a chunk every ``CHUNK / frame_rate`` seconds,
        phase-shifted evenly across the fleet, whatever the replies do."""
        period = common.CHUNK / common.frame_rate_hz()
        start = time.monotonic() + 0.1
        end = start + seconds
        plans: List[List[Push]] = [[] for _ in range(common.SENDER_THREADS)]
        for i in range(self.sessions):
            due = start + period * i / self.sessions
            while due < end:
                plans[i % common.SENDER_THREADS].append(
                    Push(i, self.next_chunk[i], due)
                )
                self.next_chunk[i] += 1
                due += period
        for plan in plans:
            plan.sort(key=lambda p: p.scheduled)

        def body(client, thread):
            idle = time.monotonic()
            for push in plans[thread]:
                wait = push.scheduled - time.monotonic()
                if wait > 0:
                    time.sleep(wait)
                push.idle_since = idle
                self._push(client, push)
                idle = push.done

        self._run_threads(body)
        pushes = common.flatten(plans)
        self.pushes.extend(pushes)
        return pushes

    def closed_loop(self, seconds: float) -> List[Push]:
        """Each sender pushes its sessions' next chunks back to back."""
        start = time.monotonic()
        end = start + seconds
        done: List[List[Push]] = [[] for _ in range(common.SENDER_THREADS)]

        def body(client, thread):
            mine = range(thread, self.sessions, common.SENDER_THREADS)
            while True:
                for i in mine:
                    if time.monotonic() >= end:
                        return
                    push = Push(i, self.next_chunk[i], time.monotonic())
                    self.next_chunk[i] += 1
                    self._push(client, push)
                    done[thread].append(push)

        self._run_threads(body)
        pushes = common.flatten(done)
        self.pushes.extend(pushes)
        return pushes

    def close(self) -> Dict[int, int]:
        """Close every session; returns the server's ``frames_seen`` each."""
        seen = {}
        for i, sid in enumerate(self.ids):
            seen[i] = self.clients[i % common.SENDER_THREADS].close_session(sid)["frames_seen"]
        for client in self.clients:
            client.close()
        return seen


def check_fleet(fleet: Fleet, reference, seen: Dict[int, int], cycles_ref) -> List[str]:
    """Served outputs of every session against an offline replay of the
    frames the server accepted.

    The replay is what ``Engine.stream`` computes: each frame's raw
    prediction (one offline ``predict_batch`` of the recording) fed through
    the session's ``MajorityVoter``.  The first ``STREAM_REPLAYS`` sessions
    are also replayed through ``Engine.stream`` itself, which must agree.
    Served cycles / energy are compared with ``cycles_ref``."""
    from repro.postproc.majority import MajorityVoter

    raw_of = [int(p) for p in reference.predict_batch(fleet.frames).predictions]
    failures = []
    by_session: Dict[int, List[Push]] = {}
    for push in fleet.pushes:
        by_session.setdefault(push.session, []).append(push)
    for i, pushes in sorted(by_session.items()):
        pushes.sort(key=lambda p: p.chunk)
        accepted = [p for p in pushes if p.error is None]
        indices = common.flatten(
            common.chunk_indices(fleet.offsets[i], p.chunk, len(fleet.frames))
            for p in accepted
        )
        voter = MajorityVoter(window=common.WINDOW, num_classes=reference.num_classes)
        replay = [(raw_of[j], voter.update(raw_of[j])) for j in indices]
        if i < STREAM_REPLAYS:
            with reference.stream(window=common.WINDOW) as stream:
                streamed = [stream.push(fleet.frames[j]) for j in indices]
            if [(u.raw, u.voted) for u in streamed] != replay:
                failures.append(f"session {i}: Engine.stream disagrees with the replay")
        if seen[i] != len(indices):
            failures.append(f"session {i}: server saw {seen[i]} frames, sent {len(indices)}")
        pos = 0
        for push in accepted:
            expect = replay[pos : pos + common.CHUNK]
            got = push.results
            ok = len(got) == len(expect) and all(
                r["seq"] == pos + j and (r["raw"], r["voted"]) == e
                for j, (r, e) in enumerate(zip(got, expect))
            )
            if ok and cycles_ref is not None:
                cycles, energy = cycles_ref
                ok = all(
                    r["cycles"] == cycles[idx] and r["energy_uj"] == energy[idx]
                    for r, idx in zip(got, indices[pos : pos + common.CHUNK])
                )
            if not ok:
                failures.append(f"session {i} chunk {push.chunk}: served outputs differ")
            pos += common.CHUNK
    return failures


def serve_segment(proc, workload, seed: int, seconds: float, frames, first_ref) -> dict:
    """Drive one segment: the set-up probe, the open loop, the closed loop."""
    from repro.serve import ServeClient

    ready = common.receive(proc.stdout)
    started = time.monotonic()
    first = frames[common.chunk_indices(0, 0, len(frames))]
    with ServeClient("127.0.0.1", ready["port"], timeout=60) as probe:
        sid = probe.open_session(window=common.WINDOW)["session_id"]
        reply = probe.push(sid, first)
        setup = time.monotonic() - ready["compile_at"]
        probe.close_session(sid)
    fleet = Fleet(workload, seed, frames, ready["port"])
    open_s = seconds * common.OPEN_LOOP_SHARE
    opened = fleet.open_loop(open_s)
    closed_start = time.monotonic()
    closed = fleet.closed_loop(seconds - open_s)
    seen = fleet.close()
    rss = common.PeakRss()
    rss.sample(proc.pid)  # the server and this segment's worker are alive
    window = (started, time.monotonic())
    proc.stdin.write("stop\n")
    proc.stdin.flush()
    return {
        "window": window,
        "setup": setup,
        "probe_ok": [r["raw"] for r in reply["results"]] == first_ref,
        "fleet": fleet,
        "seen": seen,
        "opened": opened,
        "closed": closed,
        "closed_s": seconds - open_s,
        "closed_frames": common.completed_in(
            [(p.done, len(p.results)) for p in closed if p.error is None],
            closed_start, closed_start + seconds - open_s,
        ),
        "rss_mb": rss.total_mb(),
        "processes": len(rss.pids),
        "server": common.receive(proc.stdout),
    }


def check_segment(segment: dict, reference, cycles_ref, out: Outcome) -> None:
    fleet = segment["fleet"]
    out.attempted += 1 + len(fleet.pushes)
    if not segment["probe_ok"]:
        out.fail("set-up probe push differs from offline")
    errors = [p for p in fleet.pushes if p.error is not None]
    if errors:
        out.fail(f"{len(errors)} pushes failed, first: {errors[0].error}", len(errors))
    mismatched = check_fleet(fleet, reference, segment["seen"], cycles_ref)
    if mismatched:
        out.fail(f"{len(mismatched)} outputs differ from offline, first: {mismatched[0]}",
                 len(mismatched))
    server = segment["server"]
    served = sum(len(p.results) for p in fleet.pushes if p.error is None)
    if server["stats"]["frames_total"] != served + common.CHUNK:
        out.fail(f"server counted {server['stats']['frames_total']} frames, clients "
                 f"were served {served} + {common.CHUNK} (set-up probe)")
    for pid in server["worker_pids"]:
        if common.pid_alive(pid):
            out.fail(f"worker process {pid} survived shutdown")
    for name in server["leaked_rings"]:
        out.fail(f"shared-memory ring {name} survived shutdown")


def serve_pass(workload, seed: int, seconds: float, traced: bool, frames, reference,
               cycles_ref) -> Outcome:
    """One server process serving ``SEGMENTS`` cold-set-up segments."""
    from repro.serve import ServeClient

    out = Outcome()
    first = frames[common.chunk_indices(0, 0, len(frames))]
    with reference.stream(window=common.WINDOW) as stream:
        first_ref = [stream.push(f).raw for f in first]
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.wrap(ServeClient, "push", "client.push")
    cmd = [sys.executable, str(common.BENCH_DIR / "serve_host.py"),
           "--workload", workload.name, "--seed", str(seed), "--trace", str(int(traced))]
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, env=common.child_env(), cwd=common.ROOT)
    try:
        segments = [
            serve_segment(proc, workload, seed, seconds / common.SEGMENTS, frames, first_ref)
            for _ in range(common.SEGMENTS)
        ]
        result = common.receive(proc.stdout)
        common.stop_process(proc)
    finally:
        if tracer is not None:
            tracer.unpatch()
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
    for segment in segments:  # the server process has exited
        check_segment(segment, reference, cycles_ref, out)

    # ---- end-to-end metrics (open loop from the scheduled send) ---------- #
    opened = common.flatten(s["opened"] for s in segments)
    closed = common.flatten(s["closed"] for s in segments)
    latencies = [p.done - p.scheduled for p in opened if p.error is None]
    late = [p.sent - p.scheduled for p in opened]
    lag = [p.sent - max(p.scheduled, p.idle_since) for p in opened]
    setups = [s["setup"] for s in segments]
    out.metrics = {
        "latency_p50_ms": common.quantile(latencies, 0.5) * 1e3,
        "capacity_fps": (
            sum(s["closed_frames"] for s in segments) / sum(s["closed_s"] for s in segments)
        ),
        "setup_s": common.median(setups),
        "peak_rss_mb": common.median([s["rss_mb"] for s in segments]),
    }
    if common.quantile(lag, 0.95) > GENERATOR_LAG_LIMIT_S:
        out.invalid.append(
            f"load generator fell behind: p95 wake-up lag "
            f"{common.quantile(lag, 0.95) * 1e3:.2f} ms > {GENERATOR_LAG_LIMIT_S * 1e3:.0f} ms"
        )
    out.detail = {
        "latency_p95_ms": common.quantile(latencies, 0.95) * 1e3,
        "late_p95_ms": common.quantile(late, 0.95) * 1e3,
        "lag_p95_ms": common.quantile(lag, 0.95) * 1e3,
        "open_samples": len(latencies),
        "phases": {
            name: {"sent": len(ps), "succeeded": sum(p.error is None for p in ps),
                   "failed": sum(p.error is not None for p in ps)}
            for name, ps in (("open", opened), ("closed", closed))
        },
        "setups": setups,
        "processes": segments[-1]["processes"],
        "stats": [s["server"]["stats"] for s in segments],
        "windows": [s["window"] for s in segments],
        "server": result,
        "client": tracer.snapshot() if tracer is not None else None,
    }
    return out


def serve_layer_metrics(out: Outcome) -> Dict[str, float]:
    """Per-layer numbers of a traced serve pass."""
    server = out.detail["server"]
    stats = out.detail["stats"]  # one per segment
    spans = server["trace"]["spans"]
    totals = server["trace"]["totals"]
    p50 = lambda xs: common.quantile(xs, 0.5) if xs else 0.0  # noqa: E731

    def mean_batch(get):  # over all segments' batches
        batches = [(get(st)["mean_batch_size"] or 0.0, get(st)["batches_total"]) for st in stats]
        return sum(m * n for m, n in batches) / max(1, sum(n for _, n in batches))

    # Client and server request times per segment, so both cover the same
    # requests; each is the median over segments.
    pushes = out.detail["client"]["spans"]["client.push"]
    push_p50s = [
        p50([e - s for s, e, _ in pushes if start <= s < end])
        for start, end in out.detail["windows"]
    ]
    request_p50s = [st["request_p50_s"] for st in stats]
    push_ms = common.median(push_p50s) * 1e3
    request_ms = common.median(request_p50s) * 1e3
    frames_requests = [s for s in spans.get("service.handle", []) if s[2] == 1]
    engine = spans.get("engine.predict_batch", [])
    engine_frames = sum(s[2] for s in engine)
    votes, vote_s = totals.get("postproc.vote", [0, 0.0])
    roundtrip_ms = p50(tracing.durations(spans.get("pool.roundtrip", []))) * 1e3
    sim = server.get("sim", {})
    metrics = {
        "client.push_ms_p50": push_ms,
        "client.overhead_ms_p50": push_ms - request_ms,
        "service.handle_us_p50": p50(tracing.durations(frames_requests)) * 1e6,
        "service.request_ms_p50": request_ms,
        "service.encode_us_p50": p50(tracing.durations(spans.get("service.encode", []))) * 1e6,
        "service.rejected_frac": (
            sum(st["rejected_total"] for st in stats) / max(1, len(frames_requests))
        ),
        "batcher.queue_wait_ms_p50": p50(server["queue_waits"]) * 1e3,
        "batcher.batch_size_mean": mean_batch(lambda st: st),
        "batcher.batches": sum(st["batches_total"] for st in stats),
        "engine.predict_batch_ms_p50": p50(tracing.durations(engine)) * 1e3,
        "engine.us_per_frame": (
            sum(tracing.durations(engine)) / engine_frames * 1e6 if engine_frames else 0.0
        ),
        "postproc.vote_us_per_frame": vote_s / votes * 1e6 if votes else 0.0,
        "pool.roundtrip_ms_p50": roundtrip_ms,
        "pool.ipc_ms_p50": roundtrip_ms - sim["chunk_ms_p50"] if sim else 0.0,
        "pool.worker_batch_mean": (
            mean_batch(lambda st: st["pool"]) if "pool" in stats[0] else 0.0
        ),
        "pool.ring_occupancy_max": server.get("ring_occupancy_max", 0.0),
    }
    metrics.update({k: v for k, v in sim.items() if k.startswith("sim.")})
    for k, (request, push) in enumerate(zip(request_p50s, push_p50s)):
        if request > push:
            out.fail(f"trace self-check, segment {k}: server request p50 "
                     f"{request * 1e3:.3f} ms exceeds client push p50 {push * 1e3:.3f} ms")
    return metrics


def run_serve(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    import repro

    workload = common.SERVE_WORKLOADS[name]
    bundle, frames = common.build_serve_inputs(seed)
    reference = repro.compile(bundle, target="int-golden")
    cycles_ref = None
    if workload.target == "maupiti":  # per-frame cycles / energy, offline
        offline = repro.compile(bundle, target="maupiti").predict_batch(frames)
        cycles_ref = (
            [int(c) for c in offline.cycles_per_frame],
            [float(e) for e in offline.energy_uj_per_frame],
        )
    plain = serve_pass(workload, seed, seconds, False, frames, reference, cycles_ref)
    report_serve(name, plain)
    if not trace:
        return plain
    traced = serve_pass(workload, seed, seconds, True, frames, reference, cycles_ref)
    report_serve(name + " (traced)", traced)
    metrics = serve_layer_metrics(traced)
    metrics["loadgen.latency_p95_ms"] = plain.detail["latency_p95_ms"]
    metrics["loadgen.late_p95_ms"] = plain.detail["late_p95_ms"]
    metrics["trace.overhead_frac"] = (
        traced.metrics["latency_p50_ms"] / plain.metrics["latency_p50_ms"] - 1.0
    )
    return Outcome(
        metrics=metrics,
        attempted=plain.attempted + traced.attempted,
        failed=plain.failed + traced.failed,
        problems=plain.problems + traced.problems,
        invalid=plain.invalid + traced.invalid,
    )


def report_serve(label: str, out: Outcome) -> None:
    d = out.detail
    for phase, counts in d["phases"].items():
        log(f"[{label}] {phase} loop: pushes sent {counts['sent']}, "
            f"succeeded {counts['succeeded']}, failed {counts['failed']}")
    log(f"[{label}] open-loop latency from schedule: p50 {out.metrics['latency_p50_ms']:.3f} ms, "
        f"p95 {d['latency_p95_ms']:.3f} ms over {d['open_samples']} pushes; "
        f"sends late p95 {d['late_p95_ms']:.3f} ms, generator lag p95 {d['lag_p95_ms']:.3f} ms")
    log(f"[{label}] closed-loop capacity {out.metrics['capacity_fps']:.1f} frames/s; "
        f"set-up {', '.join(f'{s:.3f}' for s in d['setups'])} s; "
        f"peak RSS {out.metrics['peak_rss_mb']:.1f} MB over {d['processes']} processes")


# ====================================================================== #
# flow-paper
# ====================================================================== #
def flow_child(seed: int, traced: bool, trace_dir) -> dict:
    """Run ``flow_host.py`` once; adds ``setup_s``, ``flow_s`` and peak RSS."""
    cmd = [sys.executable, str(common.BENCH_DIR / "flow_host.py"),
           "--seed", str(seed), "--trace", str(int(traced))]
    if traced:
        shutil.rmtree(trace_dir, ignore_errors=True)  # left by an aborted run
        trace_dir.mkdir(parents=True)
        cmd += ["--trace-dir", str(trace_dir)]
    rss = common.PeakRss()
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=common.child_env(), cwd=common.ROOT)
    stop = threading.Event()

    def sample():
        while not stop.wait(0.1):
            rss.sample(proc.pid)

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    try:
        result = common.receive(proc.stdout)
        common.stop_process(proc)
    finally:
        stop.set()
        sampler.join()
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
    if proc.returncode != 0:
        raise RuntimeError(f"flow process exited with {proc.returncode}")
    result["seed"] = seed
    result["setup_s"] = result["run_at"] - spawned
    result["flow_s"] = result["done"] - result["run_at"]
    result["peak_rss_mb"] = rss.total_mb()
    if traced:
        snaps = []
        for path in sorted(trace_dir.glob("trace-*.json")):
            snaps.append(json.loads(path.read_text()))
        result["trace"] = tracing.merge(snaps)
        result["trace_pids"] = len(snaps)
        shutil.rmtree(trace_dir)
    return result


def check_flows(flows: List[dict], out: Outcome) -> None:
    """Every flow of one seed produced the same outputs, fully deployed."""
    first = {}
    for k, f in enumerate(flows):
        if first.setdefault(f["seed"], f["digest"]) != f["digest"]:
            out.fail(f"flow {k} outputs differ from an earlier flow of seed {f['seed']}")
        elif f["deployed"] != ["-5%", "Mini", "Top"] or f["targets"] != ["IBEX", "MAUPITI", "STM32"]:
            out.fail(f"flow {k}: deploy stage incomplete: {f['deployed']} x {f['targets']}")
        elif f["flow_points"] < 1:
            out.fail(f"flow {k}: no flow points")


def flow_layer_metrics(flow: dict, out: Outcome) -> Dict[str, float]:
    """Per-layer numbers of one traced flow."""
    spans = flow["trace"]["spans"]
    totals = flow["trace"]["totals"]
    span_sum = lambda name: sum(tracing.durations(spans.get(name, [])))  # noqa: E731
    task_calls = spans.get("parallel.run_tasks", [])
    seed_s = sum(e - s for s, e, fn in task_calls if fn == "_seed_task")
    quant = spans.get("quant.explore_mixed_precision", [])
    deploy = spans.get("flow.deploy", [])
    postproc = (min(s for s, _, _ in deploy) - max(e for _, e, _ in quant)) if deploy and quant else 0.0
    tasks = [s for name, items in spans.items() if name.startswith("task.") for s in items]
    busy = sum(tracing.durations(tasks))
    stage_wall = sum(tracing.durations(task_calls))
    compiles = tracing.durations(spans.get("deploy.compile_network", []))
    stages = {
        "flow.seed_s": seed_s,
        "nas.run_search_s": span_sum("nas.run_search"),
        "quant.explore_mixed_precision_s": span_sum("quant.explore_mixed_precision"),
        "flow.postproc_s": postproc,
        "flow.deploy_s": span_sum("flow.deploy"),
    }
    coverage = sum(stages.values()) / flow["flow_s"]
    log(f"[flow-paper (traced)] stage spans cover {coverage:.1%} of flow_s "
        f"{flow['flow_s']:.2f} s; {len(tasks)} task units over {flow['trace_pids']} processes")
    if abs(1.0 - coverage) > STAGE_COVERAGE_TOLERANCE:
        out.fail(f"trace self-check: stage spans cover {coverage:.1%} of flow_s")
    if not deploy or any(verify != 1 for _, _, verify in deploy):
        out.fail("deploy ran without golden-model verification")
    return {
        **stages,
        "nn.train_model_s": totals.get("nn.train_model", [0, 0.0])[1],
        "nn.conv2d_forward_s": totals.get("nn.conv2d_forward", [0, 0.0])[1],
        "nn.conv2d_backward_s": totals.get("nn.conv2d_backward", [0, 0.0])[1],
        "parallel.task_units": len(tasks),
        "parallel.task_busy_s": busy,
        "parallel.utilization": busy / (common.FLOW_MAX_WORKERS * stage_wall),
        "deploy.compile_network_ms": common.median(compiles) * 1e3 if compiles else 0.0,
        "deploy.simulate_s": span_sum("deploy.simulate_batch"),
    }


def run_flow(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    started = time.monotonic()
    flows: List[dict] = []
    if trace:  # alternate, so drift on the host hits both sides alike
        for k, traced in enumerate((False, True, False, True)):
            flows.append(flow_child(seed, traced, common.RUN_DIR / f"flow-{seed}-{k}"))
    else:
        for flow_seed in common.flow_seeds(seed):
            flows.append(flow_child(flow_seed, False, None))
        while time.monotonic() - started < seconds:
            flows.append(flow_child(seed, False, None))
    for f in flows:
        log(f"[flow-paper] seed {f['seed']}: set-up {f['setup_s']:.3f} s, flow {f['flow_s']:.3f} s, "
            f"peak RSS {f['peak_rss_mb']:.1f} MB, {f['flow_points']} points, "
            f"digest {f['digest'][:16]}")
    out.attempted = len(flows)
    check_flows(flows, out)
    plain = [f for f in flows if "trace" not in f]
    top = flows[0]  # of --seed itself
    log(f"[flow-paper] seed {seed} Top point: BAS (majority) {top['bas_majority_top']:.4f}, "
        f"{top['model_bytes_top']:.0f} B; on maupiti {top['energy_uj_maupiti']:.4f} uJ/frame, "
        f"{top['code_bytes_maupiti']} B code (simulated)")
    if not trace:
        out.metrics = {
            "latency_p50_ms": common.median([f["flow_s"] for f in plain]) * 1e3,
            "capacity_fps": common.median([f["frames"] / f["flow_s"] for f in plain]),
            "setup_s": common.median([f["setup_s"] for f in plain]),
            "peak_rss_mb": common.median([f["peak_rss_mb"] for f in plain]),
        }
        return out
    traced = [f for f in flows if "trace" in f]
    per_flow = [flow_layer_metrics(f, out) for f in traced]
    out.metrics = {k: common.median([m[k] for m in per_flow]) for k in per_flow[0]}
    out.metrics.update({
        "out.bas_majority_top": top["bas_majority_top"],
        "out.model_bytes_top": top["model_bytes_top"],
        "out.energy_uj_maupiti": top["energy_uj_maupiti"],
        "out.code_bytes_maupiti": top["code_bytes_maupiti"],
        "trace.overhead_frac": (
            common.median([f["flow_s"] for f in traced])
            / common.median([f["flow_s"] for f in plain]) - 1.0
        ),
    })
    return out


# ====================================================================== #
def _deadline(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_DEADLINE_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (common.SRC_DIR / "repro").is_dir():
        raise SystemExit(f"the program is missing: no {common.SRC_DIR / 'repro'}")
    sys.path.insert(0, str(common.SRC_DIR))

    log(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
        f"trace {args.trace}")
    log("host " + json.dumps(common.describe_host()))
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(RUN_DEADLINE_S)
    if args.workload == "flow-paper":
        out = run_flow(args.seed, args.seconds, bool(args.trace))
    else:
        out = run_serve(args.workload, args.seed, args.seconds, bool(args.trace))

    names = metric_units("per_layer" if args.trace else "end_to_end")
    metrics = {name: out.metrics.get(name, 0.0) for name in names}
    unmeasured = sorted(name for name in names if name not in out.metrics)
    if unmeasured:
        log(f"not exercised by {args.workload} (reported as 0): {', '.join(unmeasured)}")
    for name, value in metrics.items():
        log(f"  {name:<34} {value:14.6g} {names[name]}")
    for problem in out.invalid:
        log(f"INVALID: {problem}")
    for problem in out.problems:
        log(f"FAILED: {problem}")
    log(f"failed_frac {out.failed / max(1, out.attempted):.6f} "
        f"({out.failed} of {out.attempted} operations)")
    print(json.dumps({
        "correct": out.failed == 0 and not out.invalid,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": names[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
