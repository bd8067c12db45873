"""Compiled simulation of IBEX / MAUPITI programs.

The subsystem behind ``IbexCore(mode="jit")``: programs are split once into
basic blocks, the structured loops emitted by :mod:`repro.deploy.codegen`
(memset loops and fc output-channel loops, which subsume their inner
SDOTP / INT8 / INT4 MAC loops, in :mod:`repro.hw.sim.kernels`; whole conv
and maxpool layers in :mod:`repro.hw.sim.nests`) are replaced by
vectorized numpy kernels, the remaining blocks run as generated Python
(:mod:`repro.hw.sim.jit`), and cycle / energy accounting is derived
analytically from the shared :class:`~repro.hw.cycles.CycleModel` —
bit-exact against the reference interpreter in registers, memory, cycle
counts and per-mnemonic statistics.  A batch of frames
(:mod:`repro.hw.sim.batch`) binds the generated code once and advances
every frame through it in lockstep.

Adding a new recognized kernel:

1. emit the loop from codegen with a label and register it with
   ``Assembler.hint_kernel(label, kind)``;
2. add a matcher + vectorized handler — loop-level in
   :mod:`repro.hw.sim.kernels`, layer-level in :mod:`repro.hw.sim.nests` —
   with a strict structural match.  The handler is the kernel's one
   executor factory, ``KernelLoop.make_run_many(mems)``: it binds a whole
   batch's memories once (a single frame is a batch of one) and returns
   ``run_many(regs_list, cnts, aux_base) -> (iters, extras)``.  It must
   reproduce exit registers (the last iteration's, in execution order),
   memory and statistics exactly, count every data-dependent side path
   through ``KernelLoop.aux`` hit slots (``extras`` are the instructions
   each frame ran on them), and decline with ``(0, None)`` when its
   outputs overlap its inputs or the frames' control registers differ;
3. attach it from :class:`~repro.hw.sim.jit.JitTemplate` after the kernels
   it wraps;
4. the parity suite (``tests/test_sim_parity.py``) asserts every hinted
   loop is vectorized by a kernel of the hinted kind and every vectorized
   result is bit-exact; add a randomized differential test next to
   ``tests/test_sim_nests.py`` that drives the codegen emitter directly
   through interp and both jit paths.
"""

from .blocks import BasicBlock, build_blocks
from .decode import Decoded, decode_meta
from .jit import JitProgram, JitTemplate
from .kernels import KernelLoop, recognize_loop
from .trace_cache import (
    TraceCache,
    cache_stats,
    clear_trace_cache,
    get_template,
    set_trace_cache_capacity,
)

__all__ = [
    "BasicBlock",
    "Decoded",
    "JitProgram",
    "JitTemplate",
    "KernelLoop",
    "TraceCache",
    "build_blocks",
    "cache_stats",
    "clear_trace_cache",
    "decode_meta",
    "get_template",
    "recognize_loop",
    "set_trace_cache_capacity",
]
