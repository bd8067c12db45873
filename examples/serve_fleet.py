"""A fleet of infrared sensors streaming into one serving process.

Where ``streaming_occupancy_monitor.py`` runs ONE sensor through an
in-process ``Engine.stream``, this example deploys the serving subsystem:
an in-process :mod:`repro.serve` HTTP server hosts a single compiled
engine, and N simulated sensor nodes (threads, each with its own
``ServeClient`` connection) concurrently replay held-out LINAIGE sessions
in small chunks.  The server keeps one majority-voting FIFO per session
and coalesces frames arriving from different sensors into single
``Engine.predict_batch`` calls — the cross-session micro-batching that
amortizes per-frame overhead across the fleet.

The example prints each sensor's smoothed occupancy estimate and the
server's final ``/metrics`` snapshot showing how well the fleet's frames
batched.  It replays every sensor's stream offline through
``Engine.stream`` and exits non-zero unless the served votes are identical.

Sensor 0 posts its chunks as JSON over a bare ``http.client`` connection
(what ``curl`` sends); the others use ``ServeClient``, which sends NumPy
``.npy`` bodies.  Both encodings must give the same votes.

With ``--workers N`` the server shards the fleet across N engine worker
processes (consistent-hash on the session id, frames inline on each
worker's pipe); the example then also prints which worker served each
sensor and the pool's aggregated batching counters.  Results are
bit-identical to the in-process run either way.

Run with:  PYTHONPATH=src python examples/serve_fleet.py [--workers N]
"""

import argparse
import json
import sys
import threading
from http.client import HTTPConnection

import numpy as np

import repro
from repro.datasets import generate_linaige
from repro.flow import Preprocessor, build_seed_cnn
from repro.nn import ArrayDataset, TrainConfig, train_model
from repro.nn.metrics import balanced_accuracy
from repro.serve import ServeClient, start_server

NUM_SENSORS = 6
FRAMES_PER_SENSOR = 70
CHUNK = 8  # frames per HTTP push (a sensor uplink buffer)
JSON_SENSOR = 0  # this sensor posts JSON bodies; the rest post .npy


def push_json(host: str, port: int, session_id: str, frames: np.ndarray) -> dict:
    """Push one chunk as a JSON body, the way ``curl -d`` does."""
    conn = HTTPConnection(host, port, timeout=30)
    try:
        conn.request(
            "POST",
            f"/v1/sessions/{session_id}/frames",
            body=json.dumps({"frames": frames.tolist()}),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        reply = json.loads(response.read())
    finally:
        conn.close()
    if response.status != 200:
        raise RuntimeError(f"JSON push answered {response.status}: {reply}")
    return reply


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="engine worker processes (0 = in-process serving, the default)",
    )
    args = parser.parse_args()

    rng = np.random.default_rng(1)
    dataset = generate_linaige(seed=3, scale=0.12)

    # Train on sessions 1-4; session 5 provides the fleet's "live" streams.
    fleet_session = dataset.session(5)
    train_frames = np.concatenate(
        [s.frames for s in dataset.sessions if s.session_id != 5]
    )
    train_labels = np.concatenate(
        [s.labels for s in dataset.sessions if s.session_id != 5]
    )
    pre = Preprocessor.fit(train_frames)
    model = build_seed_cnn(rng, conv_channels=(16, 16), hidden_features=32)
    train_model(
        model,
        ArrayDataset(pre(train_frames), train_labels),
        config=TrainConfig(epochs=10, batch_size=128),
        rng=rng,
    )
    engine = repro.compile(model, target="numpy-float", majority_window=5)

    # Slice session 5 into one stream per sensor node.
    frames = pre(fleet_session.frames)
    labels = fleet_session.labels
    streams = [
        (
            frames[i * FRAMES_PER_SENSOR : (i + 1) * FRAMES_PER_SENSOR],
            labels[i * FRAMES_PER_SENSOR : (i + 1) * FRAMES_PER_SENSOR],
        )
        for i in range(NUM_SENSORS)
    ]

    results = [None] * NUM_SENSORS
    shards = [None] * NUM_SENSORS  # worker index per sensor (pool mode only)

    def sensor_node(idx: int, host: str, port: int) -> None:
        stream, _ = streams[idx]
        with ServeClient(host, port) as client:
            opened = client.open_session(window=5)
            sid = opened["session_id"]
            shards[idx] = opened.get("worker")
            voted = []
            for start in range(0, len(stream), CHUNK):
                chunk = stream[start : start + CHUNK]
                if idx == JSON_SENSOR:
                    out = push_json(host, port, sid, chunk)
                else:
                    out = client.push(sid, chunk)
                voted.extend(r["voted"] for r in out["results"])
            closed = client.close_session(sid)
            results[idx] = (np.asarray(voted), closed["frames_seen"])

    pool_note = f", {args.workers} engine workers" if args.workers else ""
    print(f"=== {NUM_SENSORS} sensors -> one serving process{pool_note} ===")
    with start_server(engine, max_batch=32, workers=args.workers) as server:
        print(f"serving {engine.target} on {server.host}:{server.port}")
        nodes = [
            threading.Thread(target=sensor_node, args=(i, server.host, server.port))
            for i in range(NUM_SENSORS)
        ]
        for node in nodes:
            node.start()
        for node in nodes:
            node.join()
        failed = [idx for idx, result in enumerate(results) if result is None]
        if failed:
            print(f"FAIL: sensors {failed} did not finish their streams")
            return 1

        for idx, (voted, seen) in enumerate(results):
            truth = streams[idx][1]
            bas = balanced_accuracy(truth, voted)
            counts = ", ".join(
                f"{c}p:{(voted == c).sum():3d}" for c in range(4)
            )
            encoding = "json" if idx == JSON_SENSOR else ".npy"
            print(
                f"sensor {idx} ({encoding}): {seen} frames | "
                f"majority-vote BAS {bas:.3f} | "
                f"occupancy [{counts}]"
            )

        if args.workers:
            by_worker = {}
            for idx, worker in enumerate(shards):
                by_worker.setdefault(worker, []).append(f"sensor {idx}")
            print("\n=== shard map (sha256(session_id) mod workers) ===")
            for worker in sorted(by_worker):
                print(f"worker {worker}: {', '.join(by_worker[worker])}")
            stats = server.service.pool_stats()
            print(
                f"pool: {stats['frames_total']} frames in "
                f"{stats['batches_total']} batches | mean batch "
                f"{stats['mean_batch_size'] or 0:.2f} | "
                f"crashes {stats['crashes_total']} restarts {stats['restarts_total']}"
            )

        with ServeClient(server.host, server.port) as probe:
            print("\n=== final /metrics snapshot ===")
            print(probe.metrics(), end="")

    mismatched = []
    for idx, (voted, _) in enumerate(results):
        with engine.stream(window=5) as offline:
            replay = [offline.push(frame).voted for frame in streams[idx][0]]
        if voted.tolist() != replay:
            mismatched.append(idx)
    if mismatched:
        print(f"\nFAIL: served votes differ from the offline replay for sensors {mismatched}")
        return 1
    print("\nOK: every sensor's served votes equal its offline Engine.stream replay")
    return 0


if __name__ == "__main__":
    sys.exit(main())
