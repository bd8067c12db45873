"""Compiled simulation of IBEX / MAUPITI programs.

The subsystem behind ``IbexCore(mode="jit")``: programs are split once into
basic blocks, the structured inner loops emitted by
:mod:`repro.deploy.codegen` (SDOTP dot-product loops, scalar INT8/INT4 MAC
loops, memset loops, whole output-channel loops) are replaced by vectorized
numpy kernels, the remaining blocks run as generated Python
(:mod:`repro.hw.sim.jit`), and cycle / energy accounting is derived
analytically from the shared :class:`~repro.hw.cycles.CycleModel` —
bit-exact against the reference interpreter in registers, memory, cycle
counts and per-mnemonic statistics.

Adding a new recognized kernel:

1. emit the loop from codegen with a label and register it with
   ``Assembler.hint_kernel(label, kind)``;
2. add a matcher + vectorized handler in :mod:`repro.hw.sim.kernels`
   (strict structural match, handler must reproduce exit registers, memory,
   and statistics exactly);
3. the parity suite (``tests/test_sim_parity.py``) asserts every hinted
   loop is vectorized and every vectorized result is bit-exact.
"""

from .blocks import BasicBlock, build_blocks
from .decode import Decoded, decode_meta, decode_program
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
    "decode_program",
    "get_template",
    "recognize_loop",
    "set_trace_cache_capacity",
]
