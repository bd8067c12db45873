#!/usr/bin/env python
"""Per-layer training-kernel benchmark at the paper flow's shapes.

Builds the seed CNN the ``flow-paper`` perfbench workload searches from
(conv channels (16, 16), 16 hidden features, 8x8 single-channel frames),
runs one batch of 128 through a full training step, and then times every
conv, BatchNorm, max-pool and linear layer on its own, forward and backward,
with the inputs and output gradients that step gave it, so the arrays have
the memory layouts training really produces.  The whole step (forward,
loss, backward) is timed too.

Each timing makes ``warmup`` untimed calls, then ``repeats`` samples of
``number`` calls each (``FULL`` / ``QUICK`` below); the JSON records each
timing's median and quartiles in microseconds per call, plus the host and
git SHA, so two commits' files can be compared.  CI runs ``--quick`` as a smoke run and
gates on nothing: timings on shared runners are too noisy.

Usage::

    PYTHONPATH=src python benchmarks/perf_nn.py [--quick] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import time

import numpy as np

from repro.flow import build_seed_cnn
from repro.nn import CrossEntropyLoss
from repro.nn.layers import BatchNorm2d, Conv2d, Linear, MaxPool2d
from repro.serve import describe_host

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

WORKLOAD = dict(batch=128, conv_channels=(16, 16), hidden_features=16, frame=(1, 8, 8))
FULL = dict(warmup=5, repeats=25, number=20)
QUICK = dict(warmup=1, repeats=5, number=3)
TIMED_KINDS = (Conv2d, BatchNorm2d, MaxPool2d, Linear)


def git_sha():
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def spread(samples_us):
    q1, median, q3 = np.percentile(samples_us, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "iqr": float(q3 - q1)}


def time_call(fn, cfg):
    """Median and quartiles of ``fn``'s wall time, in microseconds per call."""
    for _ in range(cfg["warmup"]):
        fn()
    samples = []
    for _ in range(cfg["repeats"]):
        start = time.perf_counter()
        for _ in range(cfg["number"]):
            fn()
        samples.append((time.perf_counter() - start) / cfg["number"] * 1e6)
    return spread(samples)


def capture_step(model, x, y):
    """One training step, recording each layer's input and output gradient."""
    layers = list(model)
    inputs, grads = [], []
    out = x
    for layer in layers:
        inputs.append(out)
        out = layer.forward(out)
    _, grad = CrossEntropyLoss()(out, y)
    for layer in reversed(layers):
        grads.append(grad)
        grad = layer.backward(grad)
    return inputs, grads[::-1]


def bench(cfg):
    rng = np.random.default_rng(0)
    model = build_seed_cnn(
        rng,
        conv_channels=WORKLOAD["conv_channels"],
        hidden_features=WORKLOAD["hidden_features"],
    )
    model.train()
    x = rng.standard_normal((WORKLOAD["batch"],) + WORKLOAD["frame"])
    y = rng.integers(0, 4, WORKLOAD["batch"])
    inputs, grads = capture_step(model, x, y)

    rows = []
    for index, layer in enumerate(model):
        if not isinstance(layer, TIMED_KINDS):
            continue
        layer_in, grad_out = inputs[index], grads[index]
        forward_us = time_call(lambda: layer.forward(layer_in), cfg)
        # backward only reads the cache the last forward left (and adds
        # into the parameter gradients), so it can repeat on its own
        backward_us = time_call(lambda: layer.backward(grad_out), cfg)
        rows.append({
            "layer": f"{index}:{type(layer).__name__}",
            "input_shape": list(layer_in.shape),
            "forward_us": forward_us,
            "backward_us": backward_us,
        })

    loss_fn = CrossEntropyLoss()

    def step():
        model.zero_grad()
        _, grad = loss_fn(model(x), y)
        model.backward(grad)

    return rows, time_call(step, cfg)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="few repeats, for CI smoke runs")
    parser.add_argument("--out", type=pathlib.Path,
                        default=REPO_ROOT / "BENCH_nn.json",
                        help="where to write the JSON results")
    args = parser.parse_args(argv)

    cfg = QUICK if args.quick else FULL
    rows, step_us = bench(cfg)
    for row in rows:
        print(f"{row['layer']:<16} in {str(tuple(row['input_shape'])):<18} "
              f"fwd {row['forward_us']['median']:8.1f} us  "
              f"bwd {row['backward_us']['median']:8.1f} us")
    print(f"{'train step':<16} {'':<21} {step_us['median']:8.1f} us "
          f"(IQR {step_us['iqr']:.1f})")

    results = {
        "workload": {**WORKLOAD, "quick": bool(args.quick), **cfg},
        "host": {**describe_host(), "numpy": np.__version__, "git_sha": git_sha()},
        "layers": rows,
        "train_step_us": step_us,
    }
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
