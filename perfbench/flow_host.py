"""Child process of the ``flow-paper`` workload: one run of the paper's flow.

Generates LINAIGE from the seed, builds the flow configuration, reports the
monotonic time just before ``OptimizationFlow.run`` is called (the end of
set-up), runs the flow and reports a digest of everything it produced.
With ``--trace 1`` the flow's stages, task units and the ``nn`` / ``deploy``
entry points are wrapped first; forked pool workers inherit the wrappers
and write their spans to ``--trace-dir`` after every task unit.

Run by ``perfbench/run.py``; speaks the line protocol of :mod:`common`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import time

import common
import tracing


def install_tracing(tracer: tracing.Tracer, trace_dir: str) -> None:
    import repro.parallel as parallel
    from repro.deploy import program, runtime
    from repro.flow import pipeline
    from repro.nas import search
    from repro.nn import functional, trainer
    from repro.quant import mixed

    parent = os.getpid()

    def dump_from_worker():
        if os.getpid() != parent:
            tracer.dump(trace_dir)

    # Stages, timed in the flow's own process.
    tracer.wrap(parallel, "run_tasks", "parallel.run_tasks",
                extra=lambda args, kwargs: args[0].__name__)
    tracer.wrap(pipeline, "run_search", "nas.run_search")
    tracer.wrap(pipeline, "explore_mixed_precision", "quant.explore_mixed_precision")
    tracer.wrap(pipeline.FlowResult, "deploy", "flow.deploy",
                extra=lambda args, kwargs: int(kwargs.get("verify", True)))
    # Task units, timed wherever the executor runs them.
    for owner, attr in (
        (pipeline, "_seed_task"),
        (search, "_search_task"),
        (mixed, "_qat_task"),
        (pipeline, "_deploy_task"),
    ):
        tracer.wrap(owner, attr, "task." + attr.lstrip("_"), after=dump_from_worker)
    tracer.wrap(trainer, "train_model", "nn.train_model", aggregate=True)
    tracer.wrap(functional, "conv2d_forward", "nn.conv2d_forward", aggregate=True)
    tracer.wrap(functional, "conv2d_backward", "nn.conv2d_backward", aggregate=True)
    tracer.wrap(program, "compile_network", "deploy.compile_network")
    tracer.wrap(runtime, "simulate_batch", "deploy.simulate_batch")


def _report_json(report) -> dict:
    return {
        name: {
            "code_bytes": entry.code_bytes,
            "data_bytes": entry.data_bytes,
            "cycles": entry.cycles,
            "energy_uj": entry.energy_uj,
        }
        for name, entry in sorted(report.entries.items())
    }


def describe_result(result) -> dict:
    """Everything the flow produced that must repeat exactly for a seed."""
    points = [
        [p.label, repr(p.bas), repr(p.bas_majority), repr(p.memory_bytes), p.macs]
        for p in result.flow_points
    ]
    deployed = {
        label: _report_json(report)
        for label, report in sorted(result.deployment_reports.items())
    }
    digest = hashlib.sha256(
        json.dumps({"points": points, "deployed": deployed}, sort_keys=True).encode()
    ).hexdigest()
    top = result.select_top()
    maupiti = result.deployment_reports["Top"].entries["MAUPITI"]
    return {
        "digest": digest,
        "flow_points": len(points),
        "deployed": sorted(result.deployment_reports),
        "targets": sorted(result.deployment_reports["Top"].entries),
        "bas_majority_top": top.bas_majority,
        "model_bytes_top": top.memory_bytes,
        "energy_uj_maupiti": maupiti.energy_uj,
        "code_bytes_maupiti": maupiti.code_bytes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)

    from repro.datasets import generate_linaige
    from repro.flow import OptimizationFlow

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        install_tracing(tracer, args.trace_dir)
    dataset = generate_linaige(seed=args.seed, scale=common.FLOW_SCALE)
    flow = OptimizationFlow(common.flow_config(args.seed))
    run_at = time.monotonic()
    result = flow.run(
        dataset,
        test_session_id=common.HELD_OUT_SESSION,
        seed_channels=common.FLOW_SEED_CHANNELS,
        seed_hidden=common.FLOW_SEED_HIDDEN,
    )
    done = time.monotonic()
    if tracer is not None:
        tracer.dump(args.trace_dir)
    common.send(
        "result",
        run_at=run_at,
        done=done,
        frames=sum(len(s.frames) for s in dataset.sessions),
        **describe_result(result),
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
