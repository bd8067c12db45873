"""Debug entry point for the simulator JIT tier.

``python -m repro.hw.sim --dump <model>`` compiles a representative
quantized CNN for ``<model>`` (``maupiti`` or ``ibex``), JIT-compiles its
program and prints the generated Python source of every basic block, plus
the block tallies, the kernel counts (what was recognized) and one frame's
dispatch counts (what actually fires) — the fastest way to inspect what the
codegen in :mod:`repro.hw.sim.jit` actually emits for a real workload.
"""

from __future__ import annotations

import argparse
import sys


def _build_compiled(target: str, quick: bool):
    """Compile a small demo CNN for the requested target; also returns one
    preprocessed frame to run it on."""
    import numpy as np

    from ...datasets import generate_linaige
    from ...deploy.program import compile_network
    from ...flow import Preprocessor, build_seed_cnn
    from ...quant import PrecisionScheme, convert_to_integer, quantize_model
    from ..platform import ibex_platform, maupiti_platform

    platform = {"maupiti": maupiti_platform, "ibex": ibex_platform}[target]()
    rng = np.random.default_rng(0)
    dataset = generate_linaige(seed=0, scale=0.03)
    train = np.concatenate(
        [s.frames for s in dataset.sessions if s.session_id != 2]
    )
    pre = Preprocessor.fit(train)
    cfg = (
        dict(conv_channels=(12, 16), hidden_features=24)
        if quick
        else dict(conv_channels=(24, 24), hidden_features=40)
    )
    model = build_seed_cnn(rng, **cfg)
    qmodel = quantize_model(
        model, PrecisionScheme((8, 4, 4, 8)), calibration_data=pre(train)[:256]
    )
    compiled = compile_network(
        convert_to_integer(qmodel),
        use_sdotp=platform.spec.supports_sdotp,
        code_overhead_bytes=platform.spec.code_overhead_bytes,
    )
    return platform, compiled, pre(train[:1])[0]


def _dispatch_counts(template, platform, compiled, frame):
    """Kernel dispatches and generic block executions of one frame."""
    from ...deploy.runtime import load_model, write_input
    from ..core import ExecutionStats

    load_model(platform, compiled)
    write_input(platform, compiled, frame)
    stats = ExecutionStats()
    bound = template.bind(compiled.program, platform.memory)
    state = bound.start([0] * 32, stats, 0, platform.core.max_instructions)
    bound.advance(state, stats)
    return template.dispatch_counts(state.cnt)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.hw.sim", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--dump",
        metavar="MODEL",
        choices=("maupiti", "ibex"),
        help="compile a demo CNN for MODEL and print the generated JIT source",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="use the smaller CI-sized demo network",
    )
    args = parser.parse_args(argv)
    if not args.dump:
        parser.print_help()
        return 2

    from .trace_cache import get_template

    platform, compiled, frame = _build_compiled(args.dump, args.quick)
    core = platform.core
    template = get_template(
        compiled.program, core.cycle_model, core.enable_sdotp
    )
    tallies = template.block_tallies()
    print(f"# target: {args.dump} ({len(compiled.program)} instructions)")
    print(f"# fingerprint: {template.fingerprint}")
    print(
        f"# blocks: {tallies['total']} total, {tallies['kernel']} kernel, "
        f"{tallies['jit']} jit-compiled"
    )
    print(f"# kernel counts: {template.kernel_counts()}")
    dispatches = _dispatch_counts(template, platform, compiled, frame)
    print(f"# dispatch counts (one frame): {dispatches}")
    print()
    print(template.source)
    return 0


if __name__ == "__main__":
    sys.exit(main())
