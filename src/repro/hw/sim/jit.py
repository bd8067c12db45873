"""The JIT simulator: basic blocks compiled to Python source.

Interpreting a program one instruction at a time pays a mnemonic dispatch,
operand conversions and a statistics update for every instruction.  This
module instead *generates specialized straight-line Python source* for
each basic block (registers as locals, immediates and static pcs folded
into literals, memory accesses inlined against raw dmem views) and
``compile()``/``exec()``s it once, so a block execution is a single
function call.

The compiled artifact is split in two:

* :class:`JitTemplate` — **memory-independent**: decoded blocks, recognized
  kernel loops (unbound), the generated module source and its compiled code
  object, plus the per-block statistics metadata.  Templates are immutable
  after construction and safe to share across threads and engines; the
  process-wide :mod:`repro.hw.sim.trace_cache` stores exactly these.
* :class:`JitProgram` — a template **bound** to the memories of one run:
  a single :class:`~repro.hw.memory.Memory` on the core's path, every
  frame's memory clone on the batched path.  One ``exec`` of the code
  object binds the inlined load/store helpers to a *current-frame cell*
  (that frame's dmem row and ``Memory``), which :meth:`JitProgram.advance`
  switches to the frame of the run it resumes; a kernel loop a frame runs
  alone gets its runner from ``make_run_many([mem])`` on first use (a
  single frame is a batch of one).  Binding is cheap (one ``exec`` of an
  already-compiled module per run or batch, no re-decode).

Execution strategy, fastest first: recognized kernel loop (one numpy op
for the whole remaining trip count) → generated block function → for a pc
that is not a block leader (``jalr`` into a block interior, a misaligned
pc), one instruction through the interpreter's own
:func:`~repro.hw.core.step`, against the advancing frame's ``Memory``,
until control reaches a leader again.  Codegen covers every mnemonic, so
the generator and ``step`` are the only two implementations of the
instruction semantics.  Statistics are counted
per block execution in a flat per-run counter list (two slots per block:
executions and branches-taken; two more per kernel block: iterations and
vectorized calls) and scaled analytically once at the end of the run, so a
shared template is never mutated and concurrent runs cannot race.

How a block becomes generated code
----------------------------------

A block like ``lw a5, 0(a2); addi a2, a2, 4; add a4, a4, a5;
bne a2, a3, -12`` compiles to::

    def _b7(regs, cnt, _lwu=_lwu):
        r12 = regs[12]; r14 = regs[14]; r13 = regs[13]
        r15 = _lwu(r12)
        r12 = (r12 + 4) & 0xFFFFFFFF
        r14 = (r14 + r15) & 0xFFFFFFFF
        regs[12] = r12; regs[14] = r14; regs[15] = r15
        cnt[14] += 1
        if r12 != r13:
            cnt[15] += 1
            return 28
        return 40

Registers live in locals, the branch targets are literals, and the function
returns the next pc (``None`` for an ``ebreak`` halt — a pc can legally be
negative through ``jalr``, so no numeric sentinel is safe).  ``_lwu`` is a
bound fast-path accessor: a direct slice of the current frame's dmem when
the address lands in dmem, that frame's full bounds-checked
:meth:`~repro.hw.memory.Memory.load_word` otherwise — faults keep their
exact type and message.

Accepted divergence on mid-loop faults: when a program dies *mid-loop* —
an out-of-bounds access inside a vectorized kernel, a generated block or a
single-stepped instruction, or blowing the instruction limit — the JIT
raises the same exception type as the interpreter but may leave partial
architectural state and counters behind, because whole blocks and loops
are committed atomically.  Completed runs are bit-exact in registers,
memory, final pc, cycles and per-mnemonic statistics.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core import MASK, ExecutionStats, SimulationError, step
from ..cycles import CycleModel, DEFAULT_CYCLE_MODEL
from ..isa import Instruction
from ..memory import Memory
from ..sdotp import sdotp4, sdotp8
from .blocks import BasicBlock, build_blocks
from .kernels import attach_channel_superloops
from .nests import attach_layer_nests
from .decode import BRANCH, EBREAK, JAL, JALR, decode_meta


class JitCodegenError(Exception):
    """A block the source generator cannot express.

    The generator covers every mnemonic in :mod:`repro.hw.isa`, so this is a
    bug; it propagates out of :class:`JitTemplate` at build time.
    """


def _sx(value: int) -> int:
    """Signed view of an unsigned 32-bit register value."""
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


def _nosd(mnemonic: str):
    raise SimulationError(
        f"{mnemonic} executed on a core without the SDOTP extension"
    )


# --------------------------------------------------------------------------- #
# Source generation
# --------------------------------------------------------------------------- #
_BRANCH_OPS = {
    "beq": ("==", False),
    "bne": ("!=", False),
    "blt": ("<", True),
    "bge": (">=", True),
    "bltu": ("<", False),
    "bgeu": (">=", False),
}


def _generate_block(
    block: BasicBlock, name: str, eslot: int, enable_sdotp: bool
) -> str:
    """Emit the source of one block function ``name(regs, cnt)``.

    The function returns the next pc as an int, or ``None`` on ``ebreak``;
    execution/taken counters are bumped through the flat ``cnt`` list.
    """
    reads: List[int] = []
    seen = set()
    written = set()
    helpers = set()
    body_lines: List[str] = []

    def use(r: int) -> str:
        if r == 0:
            return "0"
        if r not in seen:
            seen.add(r)
            reads.append(r)
        return f"r{r}"

    def lhs(r: int) -> str:
        seen.add(r)
        written.add(r)
        return f"r{r}"

    def addr(a: int, imm: int) -> str:
        if a == 0:
            return str(imm)
        if imm == 0:
            return use(a)
        return f"{use(a)} + {imm}"

    def emit(d) -> None:
        instr = d.instr
        m = instr.mnemonic
        rd, a, b, imm = instr.rd, instr.rs1, instr.rs2, instr.imm
        uimm = imm & MASK
        if m in ("sdotp8", "sdotp4"):
            if not enable_sdotp:
                helpers.add("_nosd")
                body_lines.append(f"_nosd({m!r})")
                return
            if rd == 0:
                return
            h = "_sd8" if m == "sdotp8" else "_sd4"
            helpers.add(h)
            rhs = f"{h}({use(a)}, {use(b)}, {use(rd)})"
            body_lines.append(f"{lhs(rd)} = {rhs}")
            return
        loads = {"lw": "_lwu", "lh": "_lhs", "lhu": "_lhu", "lb": "_lbs", "lbu": "_lbu"}
        if m in loads:
            h = loads[m]
            helpers.add(h)
            rhs = f"{h}({addr(a, imm)})"
            # Loads keep their side effects (bounds checks) even for x0.
            body_lines.append(rhs if rd == 0 else f"{lhs(rd)} = {rhs}")
            return
        stores = {"sw": "_sw", "sh": "_sh", "sb": "_sb"}
        if m in stores:
            h = stores[m]
            helpers.add(h)
            body_lines.append(f"{h}({addr(a, imm)}, {use(b)})")
            return
        if rd == 0:  # remaining instructions only write a register
            return
        if m == "div":
            helpers.add("_sx")
            body_lines.append(f"_a = _sx({use(a)}); _b = _sx({use(b)})")
            body_lines.append(
                f"{lhs(rd)} = 0xFFFFFFFF if _b == 0 else int(_a / _b) & 0xFFFFFFFF"
            )
            return
        if m == "rem":
            helpers.add("_sx")
            body_lines.append(f"_a = _sx({use(a)}); _b = _sx({use(b)})")
            body_lines.append(
                f"{lhs(rd)} = _a & 0xFFFFFFFF if _b == 0 "
                "else (_a - int(_a / _b) * _b) & 0xFFFFFFFF"
            )
            return
        if m == "add":
            # Register values are invariantly masked, so x0 operands fold away.
            if a == 0:
                rhs = use(b)
            elif b == 0:
                rhs = use(a)
            else:
                rhs = f"({use(a)} + {use(b)}) & 0xFFFFFFFF"
        elif m == "sub":
            rhs = f"({use(a)} - {use(b)}) & 0xFFFFFFFF"
        elif m == "and":
            rhs = f"{use(a)} & {use(b)}"
        elif m == "or":
            rhs = f"{use(a)} | {use(b)}"
        elif m == "xor":
            rhs = f"{use(a)} ^ {use(b)}"
        elif m == "sll":
            rhs = f"({use(a)} << ({use(b)} & 31)) & 0xFFFFFFFF"
        elif m == "srl":
            rhs = f"{use(a)} >> ({use(b)} & 31)"
        elif m == "sra":
            helpers.add("_sx")
            rhs = f"(_sx({use(a)}) >> ({use(b)} & 31)) & 0xFFFFFFFF"
        elif m == "slt":
            helpers.add("_sx")
            rhs = f"int(_sx({use(a)}) < _sx({use(b)}))"
        elif m == "sltu":
            rhs = f"int({use(a)} < {use(b)})"
        elif m == "mul":
            rhs = f"({use(a)} * {use(b)}) & 0xFFFFFFFF"
        elif m == "mulh":
            helpers.add("_sx")
            rhs = f"((_sx({use(a)}) * _sx({use(b)})) >> 32) & 0xFFFFFFFF"
        elif m == "addi":
            rhs = str(uimm) if a == 0 else f"({use(a)} + {imm}) & 0xFFFFFFFF"
        elif m == "andi":
            rhs = f"{use(a)} & {uimm}"
        elif m == "ori":
            rhs = f"{use(a)} | {uimm}"
        elif m == "xori":
            rhs = f"{use(a)} ^ {uimm}"
        elif m == "slti":
            helpers.add("_sx")
            rhs = f"int(_sx({use(a)}) < {imm})"
        elif m == "sltiu":
            rhs = f"int({use(a)} < {uimm})"
        elif m == "slli":
            rhs = f"({use(a)} << {imm & 31}) & 0xFFFFFFFF"
        elif m == "srli":
            rhs = f"{use(a)} >> {imm & 31}"
        elif m == "srai":
            helpers.add("_sx")
            rhs = f"(_sx({use(a)}) >> {imm & 31}) & 0xFFFFFFFF"
        elif m == "lui":
            rhs = str(uimm)
        elif m == "auipc":
            rhs = str((d.pc + imm) & MASK)
        else:
            raise JitCodegenError(f"unsupported mnemonic {m}")
        body_lines.append(f"{lhs(rd)} = {rhs}")

    term = block.term
    body = block.decoded if term is None else block.decoded[:-1]
    for d in body:
        emit(d)

    tail: List[str] = []
    if term is None:
        tail.append(f"return {block.end_pc}")
    elif term.kind == BRANCH:
        op, signed = _BRANCH_OPS[term.mnemonic]
        a, b = term.instr.rs1, term.instr.rs2
        if signed:
            helpers.add("_sx")
            cond = f"_sx({use(a)}) {op} _sx({use(b)})"
        else:
            cond = f"{use(a)} {op} {use(b)}"
        tail.append(f"if {cond}:")
        tail.append(f"    cnt[{eslot + 1}] += 1")
        tail.append(f"    return {term.taken_pc}")
        tail.append(f"return {block.end_pc}")
    elif term.kind == JAL:
        if term.rd:
            tail.append(f"regs[{term.rd}] = {(term.pc + 4) & MASK}")
        tail.append(f"return {term.taken_pc}")
    elif term.kind == JALR:
        a = term.instr.rs1
        target = str(term.imm & -2) if a == 0 else f"({use(a)} + {term.imm}) & -2"
        tail.append(f"_t = {target}")
        if term.rd:
            tail.append(f"regs[{term.rd}] = {(term.pc + 4) & MASK}")
        tail.append("return _t")
    elif term.kind == EBREAK:
        tail.append("return None")
    else:  # pragma: no cover - decode emits no other kinds
        raise JitCodegenError(f"unsupported terminator kind {term.kind}")

    params = "".join(f", {h}={h}" for h in sorted(helpers))
    lines = [f"def {name}(regs, cnt{params}):"]
    if reads:
        lines.append("    " + "; ".join(f"r{r} = regs[{r}]" for r in reads))
    for ln in body_lines:
        lines.append("    " + ln)
    wb = sorted(written)
    if wb:
        # Terminators write links straight to ``regs`` *after* this point,
        # matching the interpreter's jalr ordering (target before link).
        lines.append("    " + "; ".join(f"regs[{r}] = r{r}" for r in wb))
    lines.append(f"    cnt[{eslot}] += 1")
    for ln in tail:
        lines.append("    " + ln)
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Memory helper binding
# --------------------------------------------------------------------------- #
def _bind_helpers(base: int, size: int, cur: list) -> Dict[str, Callable]:
    """Fast-path dmem accessors with slow bounds-checked fallbacks.

    ``cur`` is the current-frame cell ``[dmem bytes, Memory]``.  The fast
    path slices that frame's dmem directly; anything outside dmem (imem,
    otp, out-of-bounds) routes through the frame's own ``Memory``
    accessors so faults keep their exact type and message.
    """

    def _lwu(a, _c=cur, _b=base, _n=size - 3):
        o = a - _b
        if 0 <= o < _n:
            return int.from_bytes(_c[0][o:o + 4], "little")
        return _c[1].load_word(a, False)

    def _lhu(a, _c=cur, _b=base, _n=size - 1):
        o = a - _b
        if 0 <= o < _n:
            return int.from_bytes(_c[0][o:o + 2], "little")
        return _c[1].load_half(a, False)

    def _lhs(a, _c=cur, _b=base, _n=size - 1):
        o = a - _b
        if 0 <= o < _n:
            v = int.from_bytes(_c[0][o:o + 2], "little")
            return v | 0xFFFF0000 if v & 0x8000 else v
        return _c[1].load_half(a, True) & 0xFFFFFFFF

    def _lbu(a, _c=cur, _b=base, _n=size):
        o = a - _b
        if 0 <= o < _n:
            return _c[0][o]
        return _c[1].load_byte(a, False)

    def _lbs(a, _c=cur, _b=base, _n=size):
        o = a - _b
        if 0 <= o < _n:
            v = _c[0][o]
            return v | 0xFFFFFF00 if v & 0x80 else v
        return _c[1].load_byte(a, True) & 0xFFFFFFFF

    def _sw(a, v, _c=cur, _b=base, _n=size - 3):
        o = a - _b
        if 0 <= o < _n:
            _c[0][o:o + 4] = v.to_bytes(4, "little")
        else:
            _c[1].store_word(a, v)

    def _sh(a, v, _c=cur, _b=base, _n=size - 1):
        o = a - _b
        if 0 <= o < _n:
            _c[0][o:o + 2] = (v & 0xFFFF).to_bytes(2, "little")
        else:
            _c[1].store_half(a, v)

    def _sb(a, v, _c=cur, _b=base, _n=size):
        o = a - _b
        if 0 <= o < _n:
            _c[0][o] = v & 0xFF
        else:
            _c[1].store_byte(a, v)

    return {
        "_lwu": _lwu, "_lhu": _lhu, "_lhs": _lhs, "_lbu": _lbu, "_lbs": _lbs,
        "_sw": _sw, "_sh": _sh, "_sb": _sb,
        "_sx": _sx, "_sd8": sdotp8, "_sd4": sdotp4, "_nosd": _nosd,
    }


# --------------------------------------------------------------------------- #
# Template (shared, immutable) and bound program
# --------------------------------------------------------------------------- #
class JitTemplate:
    """A program compiled to generated block functions, memory-independent.

    Immutable after construction; safe to share across engines and threads.
    Per-run mutable state (execution counters) lives in a flat list owned by
    each run, never on the template.
    """

    def __init__(
        self,
        program: List[Instruction],
        cycle_model: Optional[CycleModel],
        enable_sdotp: bool,
    ):
        cycle_model = cycle_model or DEFAULT_CYCLE_MODEL
        self.cycle_model = cycle_model
        self.enable_sdotp = enable_sdotp
        self.n_instr = len(program)
        decoded = decode_meta(program, cycle_model)
        self.blocks = build_blocks(decoded, cycle_model)
        attach_channel_superloops(self.blocks, program, cycle_model)
        attach_layer_nests(self.blocks, program, cycle_model)
        # Flat counter-slot layout: [execs, taken] per block, plus
        # [iterations, vectorized calls] (and one hit counter per aux side
        # path) per kernel block.
        self.eslots: List[int] = []
        self.kslots: List[int] = []
        slot = 0
        for b in self.blocks:
            self.eslots.append(slot)
            slot += 2
            if b.kernel is not None:
                self.kslots.append(slot)
                slot += 2 + len(b.kernel.aux)
            else:
                self.kslots.append(-1)
        self.n_slots = slot
        self._build_stats_weights()
        # Memory-independent part of every bound entry (see JitProgram).
        self._entry_statics = []
        for i, b in enumerate(self.blocks):
            k = b.kernel
            self._entry_statics.append((
                b.pc, b.n, k,
                k.instrs_per_iter if k is not None else 0,
                k.exit_pc if k is not None and k.exit_pc is not None else b.end_pc,
                self.kslots[i],
                b.term.pc if b.term is not None and b.term.kind == EBREAK else -1,
            ))
        chunks = ["# Generated by repro.hw.sim.jit -- one function per basic block."]
        names = []
        for i, b in enumerate(self.blocks):
            name = f"_b{i}"
            names.append(name)
            chunks.append(_generate_block(b, name, self.eslots[i], enable_sdotp))
        chunks.append("_FNS = [" + ", ".join(names) + "]")
        self.source = "\n\n\n".join(chunks) + "\n"
        self.fingerprint = hashlib.sha256(self.source.encode()).hexdigest()[:12]
        self.code = compile(self.source, f"<repro-jit-{self.fingerprint}>", "exec")

    # ------------------------------------------------------------------ #
    def bind(self, program: List[Instruction], *mems: Memory) -> "JitProgram":
        """Bind once for a whole run: ``mems`` holds every frame's memory."""
        return JitProgram(self, program, mems)

    def vectorized_labels(self):
        return {b.label for b in self.blocks if b.kernel is not None and b.label}

    def kernel_counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for b in self.blocks:
            if b.kernel is not None:
                out[b.kernel.kind] = out.get(b.kernel.kind, 0) + 1
        return out

    def dispatch_counts(self, cnt: List[int]) -> Dict[str, int]:
        """What one run dispatched, read from its flat counters.

        Vectorized calls per kernel kind, plus ``"blocks"``: executions of
        generated block functions, declined kernel blocks included.
        """
        out: Dict[str, int] = {"blocks": 0}
        for b, es, ks in zip(self.blocks, self.eslots, self.kslots):
            out["blocks"] += cnt[es]
            if ks >= 0 and cnt[ks + 1]:
                kind = b.kernel.kind
                out[kind] = out.get(kind, 0) + cnt[ks + 1]
        return out

    def block_tallies(self) -> Dict[str, int]:
        """Block coverage for reports and diagnostics: every block is
        generated code (``jit``), and ``kernel`` of them are kernel loops."""
        return {
            "total": len(self.blocks),
            "kernel": sum(1 for b in self.blocks if b.kernel is not None),
            "jit": len(self.blocks),
        }

    # ------------------------------------------------------------------ #
    def _build_stats_weights(self) -> None:
        """Statistics are linear in a run's counters: build the matrix.

        Row ``slot`` of ``_weights`` holds what one count in that slot adds
        to ``[instructions, cycles, *per-mnemonic counts]``.  A block
        execution charges the block as if its branch fell through; the
        taken slot adds the taken-minus-not-taken difference.  A kernel
        iteration charges a taken back-branch; each vectorized call turns
        one of them into the final not-taken one (every call runs its loop
        to completion).  Aux slots charge their side paths.
        """
        cm = self.cycle_model
        bt, bnt = cm.branch_taken, cm.branch_not_taken
        mnemonics: Dict[str, int] = {}
        rows: List[tuple] = []  # (slot, instrs, cycles, counts)
        for i, b in enumerate(self.blocks):
            e = self.eslots[i]
            if b.term is not None and b.term.kind == BRANCH:
                rows.append((e, b.n, b.straight_cycles + bnt, b.counts))
                rows.append((e + 1, 0, bt - bnt, {}))
            else:
                rows.append((e, b.n, b.straight_cycles + b.term_cost, b.counts))
            k = b.kernel
            if k is not None:
                ks = self.kslots[i]
                rows.append((ks, k.instrs_per_iter,
                             k.straight_cycles_per_iter + bt, k.counts_per_iter))
                rows.append((ks + 1, 0, bnt - bt, {}))
                for j, (a_instrs, a_cycles, a_counts) in enumerate(k.aux):
                    rows.append((ks + 2 + j, a_instrs, a_cycles, a_counts))
        for _, _, _, counts in rows:
            for m in counts:
                mnemonics.setdefault(m, 2 + len(mnemonics))
        weights = np.zeros((self.n_slots, 2 + len(mnemonics)), dtype=np.int64)
        for slot, instrs, cycles, counts in rows:
            weights[slot, 0] += instrs
            weights[slot, 1] += cycles
            for m, c in counts.items():
                weights[slot, mnemonics[m]] += c
        self._weights = weights
        self._mnemonics = list(mnemonics)

    def commit(
        self, stats_list: Sequence[ExecutionStats], states: Sequence["_RunState"]
    ) -> None:
        """Scale runs' flat counters into exact aggregate statistics.

        Every run of a batch is scaled by one ``(runs, n_slots)`` matmul.
        """
        cnts = np.array([st.cnt for st in states], dtype=np.int64)
        for stats, st, totals in zip(
            stats_list, states, (cnts @ self._weights).tolist()
        ):
            merged: Dict[str, int] = dict(st.slow_counts)
            for m, c in zip(self._mnemonics, totals[2:]):
                if c:
                    merged[m] = merged.get(m, 0) + c
            stats.record_block(
                st.slow_instr + totals[0], st.slow_cycles + totals[1], merged
            )


class _RunState:
    """Mutable per-run execution state (one per frame in batched mode)."""

    __slots__ = (
        "frame",
        "regs",
        "cnt",
        "pc",
        "executed",
        "budget",
        "max_instructions",
        "slow_instr",
        "slow_cycles",
        "slow_counts",
        "final_pc",
    )


class JitProgram:
    """A :class:`JitTemplate` bound once to every frame's memory of a run.

    The generated block functions are bound once; their memory helpers read
    the current frame from a cell that :meth:`advance` and
    :meth:`kernel_step` switch to the frame of the run state they resume.
    The core's single-frame path is the same binding with one memory.
    """

    def __init__(
        self,
        template: JitTemplate,
        program: List[Instruction],
        mems: Sequence[Memory],
    ):
        self.template = template
        self.program = program
        self.mems = list(mems)
        self._dmem = [m._data["dmem"] for m in self.mems]
        region = self.mems[0].regions["dmem"]
        self._cur = [self._dmem[0], self.mems[0]]
        self._frame = 0
        g: Dict[str, object] = {"__name__": f"repro_jit_{template.fingerprint}"}
        g.update(_bind_helpers(region.base, region.size, self._cur))
        exec(template.code, g)
        fns = g["_FNS"]
        # Per frame, built on first use: the runners of kernels the frame
        # executes alone.
        self._runners: Dict[tuple, Callable] = {}
        entries: Dict[int, tuple] = {}
        for i, (pc, n, kernel, kipi, kexit, kslot, fpc) in enumerate(
            template._entry_statics
        ):
            entries[pc] = (fns[i], n, kernel, kipi, kexit, kslot, fpc, i)
        self.entries = entries

    def _select(self, frame: int) -> None:
        """Point the memory helpers at ``frame``'s dmem and ``Memory``."""
        if frame != self._frame:
            self._frame = frame
            self._cur[0] = self._dmem[frame]
            self._cur[1] = self.mems[frame]

    def _runner(self, frame: int, bi: int) -> Callable:
        """Block ``bi``'s kernel runner over ``frame``'s memory alone."""
        run = self._runners.get((frame, bi))
        if run is None:
            kernel = self.template.blocks[bi].kernel
            run = kernel.make_run_many([self.mems[frame]])
            self._runners[(frame, bi)] = run
        return run

    # ------------------------------------------------------------------ #
    def start(
        self,
        regs: List[int],
        stats: ExecutionStats,
        entry_pc: int,
        max_instructions: int,
        frame: int = 0,
    ) -> _RunState:
        st = _RunState()
        st.frame = frame
        st.regs = regs
        st.cnt = [0] * self.template.n_slots
        st.pc = entry_pc
        st.executed = 0
        st.budget = max_instructions - stats.instructions
        st.max_instructions = max_instructions
        st.slow_instr = 0
        st.slow_cycles = 0
        st.slow_counts = {}
        st.final_pc = None
        return st

    def finish(self, st: _RunState, stats: ExecutionStats) -> None:
        self.template.commit([stats], [st])

    def _limit_error(self, st: _RunState, stats: ExecutionStats) -> SimulationError:
        self.finish(st, stats)
        return SimulationError(
            f"instruction limit exceeded ({st.max_instructions}); "
            "runaway program?"
        )

    # ------------------------------------------------------------------ #
    def advance(
        self,
        st: _RunState,
        stats: ExecutionStats,
        stop_at_kernel: bool = False,
    ) -> str:
        """Run until halt (``"done"``) or, with ``stop_at_kernel``, until the
        pc lands on a kernel block without executing it (``"kernel"``)."""
        self._select(st.frame)
        t = self.template
        entries = self.entries
        regs = st.regs
        cnt = st.cnt
        pc = st.pc
        executed = st.executed
        budget = st.budget
        n_instr = t.n_instr

        while True:
            e = entries.get(pc)
            if e is None:
                # ------ not a block leader: single-step the interpreter ------ #
                index = pc // 4
                if not 0 <= index < n_instr:
                    st.pc, st.executed = pc, executed
                    self.finish(st, stats)
                    raise SimulationError(f"PC 0x{pc:08x} outside the program")
                instr = self.program[index]
                npc, cycles = step(
                    instr, pc, regs, self._cur[1], t.enable_sdotp, t.cycle_model
                )
                m = instr.mnemonic
                st.slow_counts[m] = st.slow_counts.get(m, 0) + 1
                st.slow_cycles += cycles
                st.slow_instr += 1
                executed += 1
                if executed > budget:
                    st.pc, st.executed = pc, executed
                    raise self._limit_error(st, stats)
                if npc is None:
                    st.pc, st.executed, st.final_pc = pc, executed, pc
                    return "done"
                pc = npc
                continue

            fn, n, kernel, kipi, kexit, kslot, fpc, bi = e
            if kernel is not None:
                if stop_at_kernel:
                    st.pc, st.executed = pc, executed
                    return "kernel"
                iters, extras = self._runner(st.frame, bi)([regs], [cnt], kslot + 2)
                if iters:
                    cnt[kslot] += iters
                    cnt[kslot + 1] += 1
                    executed += kipi * iters + extras[0]
                    if executed > budget:
                        st.pc, st.executed = pc, executed
                        raise self._limit_error(st, stats)
                    pc = kexit
                    continue
            npc = fn(regs, cnt)
            executed += n
            if executed > budget:
                st.pc, st.executed = pc, executed
                raise self._limit_error(st, stats)
            if npc is None:
                st.pc = fpc
                st.executed = executed
                st.final_pc = fpc
                return "done"
            pc = npc

    def kernel_step(self, st: _RunState, stats: ExecutionStats) -> None:
        """One execution of the kernel block at ``st.pc`` (batched decline path)."""
        self._select(st.frame)
        fn, n, _, kipi, kexit, kslot, fpc, bi = self.entries[st.pc]
        regs = st.regs
        cnt = st.cnt
        iters, extras = self._runner(st.frame, bi)([regs], [cnt], kslot + 2)
        if iters:
            cnt[kslot] += iters
            cnt[kslot + 1] += 1
            st.executed += kipi * iters + extras[0]
            st.pc = kexit
        else:
            npc = fn(regs, cnt)
            st.executed += n
            if npc is None:
                st.final_pc = fpc
                st.pc = fpc
            else:
                st.pc = npc
        if st.executed > st.budget:
            raise self._limit_error(st, stats)

    # ------------------------------------------------------------------ #
    def run(
        self,
        regs: List[int],
        stats: ExecutionStats,
        entry_pc: int = 0,
        max_instructions: int = 50_000_000,
    ) -> int:
        """Execute until ``ebreak``; returns the final pc (the ``ebreak``).

        ``regs`` is mutated in place; executed instructions/cycles/counts
        are *added* to ``stats``, matching the accumulating behaviour of
        the interpreter.
        """
        st = self.start(regs, stats, entry_pc, max_instructions)
        self.advance(st, stats)
        self.finish(st, stats)
        return st.final_pc
