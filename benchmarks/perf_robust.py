#!/usr/bin/env python
"""Robustness benchmark: degradation curves under sensor faults.

Trains a small Table-I-class INT 8-4-4-8 CNN on synthetic LINAIGE data and
runs the :mod:`repro.robustness` harness over the fault x severity x target
grid: every fault model corrupts the *raw* held-out Celsius frames (before
pre-processing, where a real sensor fault lives), each corrupted stream runs
through every compiled target, and the report records raw and majority-voted
accuracy/BAS, degradation vs the clean baseline, how much of the raw
degradation the majority filter absorbs, and per-scenario cycles/energy on
targets that measure them.

Everything is seeded: the report is generated **twice** and the two JSON
payloads must be byte-identical before anything is written — the committed
``BENCH_robust.json`` is reproducible by rerunning this script.

Usage::

    PYTHONPATH=src python benchmarks/perf_robust.py [--quick] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

import numpy as np

from repro.datasets import generate_linaige
from repro.engine import ModelBundle
from repro.flow import Preprocessor, build_seed_cnn
from repro.nn import ArrayDataset, TrainConfig, train_model
from repro.quant import PrecisionScheme, quantize_model
from repro.robustness import evaluate
from repro.serve import describe_host

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

SCHEME = (8, 4, 4, 8)
WINDOW = 5  # majority-voting window

FULL = dict(
    conv_channels=(12, 16), hidden_features=24, scale=0.05, epochs=6,
    eval_frames=192,
    faults=("dead-pixels", "stuck-pixels", "gaussian-noise", "salt-pepper",
            "ambient-drift", "frame-drop"),
    severities=(0.1, 0.3, 0.6, 1.0),
    targets=("int-golden", "maupiti"),
)
QUICK = dict(
    conv_channels=(6, 7), hidden_features=10, scale=0.03, epochs=3,
    eval_frames=64,
    faults=("dead-pixels", "gaussian-noise", "ambient-drift", "frame-drop"),
    severities=(0.1, 0.3, 0.6),
    targets=("int-golden", "maupiti"),
)


def build_workload(cfg):
    """Train + quantize the CNN; return (bundle, preprocessor, frames, labels)."""
    rng = np.random.default_rng(0)
    dataset = generate_linaige(seed=0, scale=cfg["scale"])
    train_sessions = [s for s in dataset.sessions if s.session_id != 2]
    train_frames = np.concatenate([s.frames for s in train_sessions])
    train_labels = np.concatenate([s.labels for s in train_sessions])
    pre = Preprocessor.fit(train_frames)
    model = build_seed_cnn(
        rng,
        conv_channels=cfg["conv_channels"],
        hidden_features=cfg["hidden_features"],
    )
    held = dataset.session(2)
    train_model(
        model,
        ArrayDataset(pre(train_frames), train_labels),
        val_set=ArrayDataset(pre(held.frames), held.labels),
        config=TrainConfig(epochs=cfg["epochs"], verbose=False),
        rng=np.random.default_rng(1),
    )
    qmodel = quantize_model(
        model, PrecisionScheme(SCHEME), calibration_data=pre(train_frames)[:256]
    )
    n = min(cfg["eval_frames"], len(held.frames))
    bundle = ModelBundle(qmodel, label="perf-robust workload")
    return bundle, pre, held.frames[:n], held.labels[:n]


def run_grid(args, cfg):
    bundle, pre, frames, labels = build_workload(cfg)
    n_cells = len(cfg["faults"]) * len(cfg["severities"]) * len(cfg["targets"])
    print(f"grid: {len(cfg['faults'])} faults x {len(cfg['severities'])} "
          f"severities x {len(cfg['targets'])} targets = {n_cells} scenarios "
          f"over {len(frames)} held-out frames")

    def one_report():
        report = evaluate(
            bundle, frames, labels,
            preprocess=pre,
            faults=cfg["faults"],
            severities=cfg["severities"],
            targets=cfg["targets"],
            window=WINDOW,
            seed=0,
        )
        return report, json.dumps(report.as_json(), sort_keys=True)

    report, payload = one_report()
    _, payload2 = one_report()
    if payload != payload2:
        print("FAIL: robustness report is not deterministic across reruns",
              file=sys.stderr)
        return 1

    results = {
        "workload": {
            "dataset": "linaige-synthetic",
            "conv_channels": list(cfg["conv_channels"]),
            "hidden_features": cfg["hidden_features"],
            "scheme": list(SCHEME),
            "train_epochs": cfg["epochs"],
            "quick": bool(args.quick),
        },
        "host": describe_host(),
        "report": report.as_json(),
        "determinism": {"reruns": 2, "bit_identical": True},
    }
    args.out.write_text(json.dumps(results, indent=2) + "\n")

    for target in report.targets:
        base = report.baselines[target]
        worst = report.worst_case(target)
        cyc = f" | {base['mean_cycles']:.0f} cycles/frame" \
            if base["mean_cycles"] is not None else ""
        print(f"{target:<11} clean BAS raw {base['bas_raw']:.3f} "
              f"voted {base['bas_voted']:.3f}{cyc}")
        print(f"{'':<11} worst: {worst.fault}@{worst.severity:g} "
              f"voted BAS {worst.bas_voted:.3f} "
              f"(degradation {worst.degradation_voted:+.3f}, "
              f"voting absorbed {worst.voting_recovery:+.3f})")
    print(f"determinism: OK (2 runs bit-identical)")
    print(f"wrote {args.out}")

    # Full runs gate on the workload being meaningful, not on wall-clock:
    # the trained model must beat chance on the clean stream, and the grid
    # must be big enough to plot curves from.
    if not args.quick:
        for target in report.targets:
            if report.baselines[target]["bas_voted"] < 0.5:
                print(f"FAIL: clean voted BAS on {target} below 0.5 — the "
                      f"workload model did not train", file=sys.stderr)
                return 1
        if len(report.faults) < 4 or len(report.severities) < 3 \
                or len(report.targets) < 2:
            print("FAIL: grid smaller than 4 faults x 3 severities x 2 targets",
                  file=sys.stderr)
            return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small workload for CI smoke runs")
    parser.add_argument("--out", type=pathlib.Path,
                        default=REPO_ROOT / "BENCH_robust.json",
                        help="where to write the JSON results")
    args = parser.parse_args(argv)
    return run_grid(args, QUICK if args.quick else FULL)


if __name__ == "__main__":
    raise SystemExit(main())
