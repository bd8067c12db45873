"""Cross-frame batched execution: one trace walk drives N frames.

The programs codegen emits are *control-flow uniform* across frames for
everything that matters for speed: loop trip counts (rows, columns,
channels, taps) are compile-time constants, so every frame visits the same
kernel blocks in the same order, only the data differs.  :func:`run_batch`
exploits that: it gives every frame its own memory clone, each backed by a
row of one ``(frames, dmem)`` matrix, writes each frame's payload, and hands
one run state per frame to the JIT's one lockstep loop,
:meth:`~repro.hw.sim.jit.JitProgram.run_lockstep`.  There all frames
advance in lockstep from kernel block to kernel block through their
generated JIT code, and each kernel dispatch executes **one multi-frame
numpy op** (``KernelLoop.make_run_many``) over the matrix instead of one
tiny numpy call per frame.

Everything frame-independent is done once per thread, per kernel
geometry or per batch, never per frame.  The calling thread's binding of
the template (one ``exec`` of its code object per thread, its memory
helpers following the frame being advanced) is looked up without
rebuilding the program's content key and pointed at the batch's memories
(:func:`~repro.hw.sim.trace_cache.bind_program`).  Each kernel keeps the
plan its control registers fix (spans, overlap verdict, im2col and output
views, final register values) across batches.  The ``(frames, dmem)``
matrix is wrapped in one :class:`~repro.hw.sim.kernels.FrameDmem` that
every kernel's multi-frame runner binds, every frame's statistics are
scaled from one ``(frames, slots)`` counter product, and the caller reads
every frame's outputs from that matrix (:attr:`BatchRun.dmem`).  Channel
kernels broadcast one set of weight lanes over the frames, kept across
calls while the weight bytes compare equal; when a byte compare finds
frames with different weights, they decline and each frame runs the
kernel alone.

Data-dependent branches (requantization clamps, maxpool compares, argmax)
do exist — the kernels count the ones inside them per frame, and the rest
are frame-local glue handled by each frame's generated block functions
between kernel parks.  Whenever the lockstep assumption is violated —
frames park at different kernels or halt in different rounds —
:class:`~repro.hw.sim.jit.BatchDivergence` propagates to the caller,
which re-runs the batch through the sequential path; so does a simulated
fault of any frame (its own exception, raised by that frame's memory).
That fallback is always safe: every frame executes against its own
**clone** of the platform memory, so a failed batched attempt leaves the
platform untouched.

Sequential-equivalence note: a sequential run carries memory state from
frame to frame, while the batch gives each frame a clone of the *initial*
(model-loaded) memory.  The two agree because compiled models write every
activation they read per frame (the pad ring is constant, weights are
read-only); the bit-exactness parity suite asserts this agreement on every
scheme and both deployment targets.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import List

import numpy as np

from ..core import ExecutionStats
from ..cycles import CycleModel
from ..isa import Instruction
from ..memory import Memory
from .kernels import FrameDmem
from .trace_cache import bind_program


@dataclass
class FrameOutcome:
    """Final architectural state of one frame of a successful batched run."""

    regs: List[int]
    final_pc: int
    stats: ExecutionStats
    memory: Memory
    #: the run's flat JIT counters (see ``JitTemplate.dispatch_counts``)
    counters: List[int]


class BatchRun(Sequence):
    """The frames of a successful batched run, in payload order.

    A sequence of :class:`FrameOutcome`; ``dmem`` holds every frame's final
    data memory as the rows of one matrix, so a caller reads the same
    result bytes of all frames in one slice (``dmem.gather``).
    """

    def __init__(self, frames: List[FrameOutcome], dmem: FrameDmem):
        self.frames = frames
        self.dmem = dmem

    def __len__(self) -> int:
        return len(self.frames)

    def __getitem__(self, index):
        return self.frames[index]


def run_batch(
    memory: Memory,
    program: List[Instruction],
    payloads: Sequence[bytes],
    buf_address: int,
    cycle_model: CycleModel,
    enable_sdotp: bool,
    max_instructions: int,
) -> BatchRun:
    """Run ``program`` once per payload, batching kernel calls across frames.

    ``memory`` is the platform memory with the model image already loaded;
    it is only cloned, never mutated.  Each frame starts from a fresh
    register file and its own memory clone with ``payloads[i]`` written to
    the input buffer, exactly like a sequential ``reset(); run()`` pair.

    Raises :class:`~repro.hw.sim.jit.BatchDivergence` (or whatever a frame
    raised) when the batch cannot complete in lockstep; nothing is
    committed in that case.
    """
    # One contiguous (frames, dmem_size) matrix backs every clone's dmem so
    # that batched kernel gathers are zero-copy column slices of it; every
    # kernel of the batch binds the same FrameDmem over it.
    region = memory.regions["dmem"]
    dmem_mat = np.empty((len(payloads), region.size), dtype=np.uint8)
    dm = FrameDmem(dmem_mat, region.base)
    mems: List[Memory] = []
    for idx, payload in enumerate(payloads):
        m = memory.clone(dmem_buffer=dmem_mat[idx].data)
        m.store_bytes(buf_address, payload)
        mems.append(m)
    jp = bind_program(program, cycle_model, enable_sdotp, mems)
    stats_list = [ExecutionStats() for _ in mems]
    states = [
        jp.start([0] * 32, stats, 0, max_instructions, frame=i)
        for i, stats in enumerate(stats_list)
    ]
    jp.run_lockstep(states, stats_list, dm)
    return BatchRun(
        [
            FrameOutcome(st.regs, st.final_pc, stats, m, st.cnt)
            for st, stats, m in zip(states, stats_list, mems)
        ],
        dm,
    )
