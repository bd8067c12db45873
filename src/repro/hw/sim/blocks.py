"""Basic-block decomposition of a pre-decoded program.

Control flow of the programs emitted by :mod:`repro.deploy.codegen` is fully
static (branches and ``jal`` with resolved immediates; ``jalr`` is never
emitted), so the program splits cleanly into basic blocks: maximal
straight-line runs entered only at their first instruction and left only at
their last.  Each block carries

* its decoded instructions and terminator,
* aggregated instruction/cycle/per-mnemonic counters for one execution, so
  statistics are accounted per *block execution* instead of per
  instruction (and scaled at the end of a run), and
* optionally an unbound :class:`~repro.hw.sim.kernels.KernelLoop` when the
  block is a self-loop that runs vectorized on its own (the memset loop;
  channel loops and layer nests are attached later by the JIT template).

Blocks are memory-independent and read-only once a template is built;
per-run execution counters live in the JIT's flat counter list
(:class:`repro.hw.sim.jit.JitTemplate`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .decode import BRANCH, Decoded, JAL, STRAIGHT
from .kernels import KernelLoop, recognize_loop


class BasicBlock:
    __slots__ = (
        "start",
        "pc",
        "end_pc",
        "decoded",
        "term",
        "n",
        "straight_cycles",
        "counts",
        "term_cost",
        "kernel",
    )

    def __init__(self, start: int, decoded: List[Decoded], cycle_model):
        self.start = start
        self.pc = 4 * start
        self.end_pc = 4 * (start + len(decoded))
        self.decoded = decoded
        last = decoded[-1]
        self.term: Optional[Decoded] = last if last.kind != STRAIGHT else None
        body = decoded if self.term is None else decoded[:-1]
        self.n = len(decoded)
        self.straight_cycles = sum(d.cost for d in body)
        counts: Dict[str, int] = {}
        for d in decoded:
            counts[d.mnemonic] = counts.get(d.mnemonic, 0) + 1
        self.counts = counts
        # Fixed cycle cost of a non-branch terminator (branch terminators
        # are charged taken/not-taken per execution in the simulator).
        self.term_cost = (
            self.term.cost
            if self.term is not None and self.term.kind != BRANCH
            else 0
        )
        self.kernel: Optional[KernelLoop] = None

    @property
    def label(self) -> Optional[str]:
        return self.decoded[0].instr.label


def build_blocks(decoded: List[Decoded], cycle_model) -> List[BasicBlock]:
    """Split ``decoded`` into basic blocks and attach kernel handlers.

    Kernels are recognized but left unbound; executors bind them to a
    batch's data memory through ``kernel.make_run_many``.
    """
    n = len(decoded)
    if n == 0:  # the simulator's fallback path reports the bad pc itself
        return []
    leaders = {0}
    for i, d in enumerate(decoded):
        if d.kind == STRAIGHT:
            continue
        if i + 1 < n:
            leaders.add(i + 1)
        if d.kind in (BRANCH, JAL):
            target = d.taken_pc
            if target % 4 == 0 and 0 <= target // 4 < n:
                leaders.add(target // 4)
    ordered = sorted(leaders)
    blocks: List[BasicBlock] = []
    for pos, start in enumerate(ordered):
        end = ordered[pos + 1] if pos + 1 < len(ordered) else n
        # A block ends at the first control transfer even when the next
        # leader lies further down.
        body = []
        for d in decoded[start:end]:
            body.append(d)
            if d.kind != STRAIGHT:
                break
        block = BasicBlock(start, body, cycle_model)
        term = block.term
        if (
            term is not None
            and term.kind == BRANCH
            and term.taken_pc == block.pc
        ):
            block.kernel = recognize_loop(
                [d.instr for d in block.decoded], start, cycle_model
            )
        blocks.append(block)
    return blocks
