"""Vectorized replacements for the structured loops emitted by codegen.

:mod:`repro.deploy.codegen` emits a small set of *structured* loops: the
buffer-clearing memset loop, and one output-channel loop per output pixel
(conv) or output vector (fc) around an inner SDOTP, scalar INT8 or
packed-INT4 multiply-accumulate loop.  These loops execute the
overwhelming majority of all simulated instructions, so the trace compiler
pattern-matches them and replaces the per-instruction interpretation of
the *whole remaining trip count* with one numpy computation plus
analytical cycle accounting.  (Whole conv and maxpool layers are matched
one level up, in :mod:`repro.hw.sim.nests`.)  The inner MAC loops are
recognized only as part of a channel loop, which takes their register
roles and per-iteration tallies; when a channel loop declines they run as
generic blocks.

Correctness contract: a handler must leave **registers, memory, cycle count
and per-mnemonic statistics** exactly as the reference interpreter would
after running the loop to completion.  Matching is therefore deliberately
strict — exact opcode sequence, exact immediates, all-distinct non-zero
registers — and a handler declines (returns 0 iterations) whenever the
runtime counter does not describe a plain countdown loop; the simulator
then falls back to generic block execution, which is always bit-exact.

Recognition is structural, on the assembled instructions themselves, and
**memory-independent**, so a recognized :class:`KernelLoop` belongs to a
reusable template (the process-wide JIT trace cache stores these).  Its one
executor factory, ``make_run_many(dm)``, binds a whole batch's data memory
(one :class:`FrameDmem`) once at execution time; a single frame is a batch
of one.  What a kernel's control registers fix — the dmem spans and the
overlap verdict, im2col and output views, the final values of the
registers that do not depend on the data — is computed once per register
tuple and kept as the kernel's plan (:class:`_Plans`), so a dispatch only
touches the data.

The code generator additionally *annotates* every loop it emits
(:class:`repro.deploy.codegen.KernelHint`); the annotations are used by
tests and diagnostics to prove that every emitted loop actually hits a
vectorized handler of the hinted kind (``JitTemplate.vectorized_labels``),
so codegen and the recognizers cannot silently drift apart.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..isa import Instruction
from ..memory import Memory

MASK = 0xFFFFFFFF


class KernelLoop:
    """A recognized loop with a vectorized executor.

    ``make_run_many(dm)`` binds the :class:`FrameDmem` of a batch (a single
    frame is a one-row matrix) and returns
    ``run_many(regs_list, cnts, aux_base)``.  The runner executes the
    remaining trip count ``n`` (read from the counter register) for every
    frame at once — one numpy op over the stacked
    ``(frames, bytes)`` matrix of ``dm`` — adds each frame's
    side-path hits to its ``cnts[f][aux_base + j]`` slots and returns
    ``(n, extras)``, where ``extras[f]`` counts the instructions frame
    ``f`` ran on those side paths.  It returns ``(0, None)`` to decline —
    the control registers differ across frames, a span leaves dmem, or
    the outputs overlap the inputs — and each frame of a batch then runs
    it alone, or the block as generated code where that declines too.
    After a successful run the simulator resumes at ``exit_pc`` (the
    loop's fall-through pc when ``None``).
    Recognizers used only as building blocks of a larger kernel leave
    ``make_run_many`` as ``None``.

    ``instrs_per_iter`` / ``straight_cycles_per_iter`` / ``counts_per_iter``
    feed the analytical statistics: a full run of ``n`` iterations costs
    ``n * straight + (n - 1) * branch_taken + branch_not_taken`` cycles,
    where the two branch terms account for the loop's own back-branch.
    Multi-level loops (the output-channel loop, the layer nests of
    :mod:`repro.hw.sim.nests`) fold the cycles and counts of their inner
    loops into the per-iteration figures.
    """

    __slots__ = (
        "kind",
        "label",
        "make_run_many",
        "instrs_per_iter",
        "straight_cycles_per_iter",
        "counts_per_iter",
        "exit_pc",
        "meta",
        "aux",
    )

    def __init__(
        self,
        kind: str,
        label: Optional[str],
        instrs_per_iter: int,
        straight_cycles_per_iter: int,
        counts_per_iter: dict,
        exit_pc: Optional[int] = None,
    ):
        self.kind = kind
        self.label = label
        self.make_run_many: Optional[Callable] = None
        self.instrs_per_iter = instrs_per_iter
        self.straight_cycles_per_iter = straight_cycles_per_iter
        self.counts_per_iter = counts_per_iter
        self.exit_pc = exit_pc
        self.meta: dict = {}
        # Data-dependent side paths (requant clamps, INT4 packing paths,
        # maxpool "new max" moves): tuples of (instrs, cycle_delta,
        # mnemonic_counts) whose per-run hit counters live in extra flat
        # slots right after [iters, calls]; see JitTemplate.commit.
        self.aux: tuple = ()

    @classmethod
    def from_body(cls, kind: str, label: Optional[str],
                  body: List[Instruction], cycle_model) -> "KernelLoop":
        counts = {}
        for i in body:
            counts[i.mnemonic] = counts.get(i.mnemonic, 0) + 1
        return cls(
            kind,
            label,
            instrs_per_iter=len(body),
            straight_cycles_per_iter=sum(cycle_model.cost(i) for i in body[:-1]),
            counts_per_iter=counts,
        )


def _counter(regs: List[int], idx: int) -> int:
    """Trip count if the register holds a positive signed value, else 0."""
    n = regs[idx]
    return n if 0 < n < 0x8000_0000 else 0


def _signed_nibbles(hi: np.ndarray) -> np.ndarray:
    """Sign-extend 4-bit lane values held in an int64 array."""
    return hi - ((hi & 8) << 1)


# --------------------------------------------------------------------------- #
# Cross-frame helpers.  The batched executor clones the platform memory once
# per frame; reads go through raw uint8 views over each clone's dmem (see
# FrameDmem) so one kernel dispatch touches numpy exactly once for all frames.
# --------------------------------------------------------------------------- #
def _extent(shape: Tuple[int, ...], strides: Tuple[int, ...]) -> int:
    """Bytes spanned by a strided view with non-negative strides."""
    if 0 in shape:
        return 0
    return 1 + sum((n - 1) * s for n, s in zip(shape, strides))


class FrameDmem:
    """Every frame's dmem as the rows of one ``(frames, size)`` uint8 matrix.

    The batched executor backs each frame's memory clone with a row of one
    contiguous matrix (see :meth:`~repro.hw.memory.Memory.clone`) and wraps
    that matrix once per batch; a core's run wraps its own dmem as a
    one-row matrix (:meth:`of`).  So every read of a kernel is a
    **zero-copy** view across all frames and every write one numpy
    assignment.  Kernels check their spans once per plan
    (:func:`_dmem_offset`) and then build views with :meth:`view`.
    """

    __slots__ = ("mat", "base", "size")

    def __init__(self, mat: np.ndarray, base: int):
        self.mat = mat
        self.base = base
        self.size = mat.shape[1]

    @classmethod
    def of(cls, memory: Memory) -> "FrameDmem":
        """One memory's dmem as a one-row matrix."""
        row = np.frombuffer(memory._data["dmem"], dtype=np.uint8)
        return cls(row.reshape(1, -1), memory.regions["dmem"].base)

    def gather(self, addr: int, count: int) -> Optional[np.ndarray]:
        """``(frames, count)`` view of the bytes at ``addr`` (``None`` when
        the span is not fully inside dmem)."""
        off = _dmem_offset(self.base, self.size, addr, count)
        return None if off is None else self.mat[:, off : off + count]

    def view(self, offset: int, shape: tuple, strides: tuple,
             dtype=np.uint8) -> np.ndarray:
        """Writable ``(frames, *shape)`` view at dmem byte ``offset``.

        The span must already be checked; the ``np.ndarray`` constructor
        costs a fraction of ``as_strided``.
        """
        m = self.mat
        return np.ndarray(
            (m.shape[0],) + shape, dtype, m, offset, (m.strides[0],) + strides
        )


def _dmem_offset(base: int, size: int, addr: int, length: int) -> Optional[int]:
    """Offset of ``length`` bytes at ``addr`` in a dmem of ``size`` bytes at
    ``base``, or ``None`` when the span is not fully inside it."""
    off = addr - base
    if off < 0 or off + length > size:
        return None
    return off


def _offsets(shape: Tuple[int, ...], strides: Tuple[int, ...]) -> np.ndarray:
    """Byte offset of every element of a strided view, as an index array."""
    out = np.zeros(shape, dtype=np.intp)
    for axis, (n, st) in enumerate(zip(shape, strides)):
        ix = [None] * len(shape)
        ix[axis] = slice(None)
        out += (np.arange(n, dtype=np.intp) * st)[tuple(ix)]
    return out


class _Plans:
    """One kernel's cached plan: what its control registers fix.

    ``get(key, build)`` returns ``build(*key)`` for a register tuple,
    rebuilding only when the tuple changes.  The entry is one tuple replaced
    in a single assignment, like :attr:`ChannelSpec._lanes`, so threads
    sharing a template never see a torn entry.  A plan is read-only once
    built; ``None`` is a cached decline.
    """

    __slots__ = ("_entry",)

    def __init__(self):
        self._entry: Optional[tuple] = None

    def get(self, key: tuple, build: Callable):
        entry = self._entry
        if entry is not None and entry[0] == key:
            return entry[1]
        plan = build(*key)
        self._entry = (key, plan)
        return plan


def _resolve(ups) -> Tuple[tuple, tuple]:
    """Split ``(reg, value)`` updates listed in execution order (the last
    update of a register wins) into constant writes and per-frame writes,
    whose values are names of per-frame lists (``str``)."""
    final = dict(ups)
    return (
        tuple((r, v) for r, v in final.items() if not isinstance(v, str)),
        tuple((r, v) for r, v in final.items() if isinstance(v, str)),
    )


def _write_regs(regs_list, consts, per_frame=(), values=None) -> None:
    """Apply resolved updates: constants, then named per-frame values."""
    for f, regs in enumerate(regs_list):
        for reg, v in consts:
            regs[reg] = v
        for reg, name in per_frame:
            regs[reg] = values[name][f]


def _uniform(regs_list, idxs) -> bool:
    r0 = regs_list[0]
    for regs in regs_list[1:]:
        for i in idxs:
            if regs[i] != r0[i]:
                return False
    return True


# --------------------------------------------------------------------------- #
# Pattern matchers.  Each takes the block body (terminator included) and the
# block's start index; returns a KernelLoop or None.
# --------------------------------------------------------------------------- #
def _is(i: Instruction, mnemonic: str, **fields) -> bool:
    if i.mnemonic != mnemonic:
        return False
    return all(getattr(i, k) == v for k, v in fields.items())


def _match_sdotp(body, cycle_model) -> Optional[KernelLoop]:
    """``lw; lw; sdotp{8,4}; addi +4; addi +4; addi -1; bne`` (7 instrs)."""
    if len(body) != 7:
        return None
    l1, l2, dot, p1, p2, dec, br = body
    if dot.mnemonic not in ("sdotp8", "sdotp4"):
        return None
    P, Q, A, B, ACC, N = l1.rs1, l2.rs1, l1.rd, l2.rd, dot.rd, dec.rd
    if not (
        _is(l1, "lw", imm=0)
        and _is(l2, "lw", imm=0)
        and dot.rs1 == A
        and dot.rs2 == B
        and _is(p1, "addi", rd=P, rs1=P, imm=4)
        and _is(p2, "addi", rd=Q, rs1=Q, imm=4)
        and _is(dec, "addi", rd=N, rs1=N, imm=-1)
        and _is(br, "bne", rs1=N, rs2=0)
    ):
        return None
    if len({P, Q, A, B, ACC, N}) != 6 or 0 in (P, Q, A, B, ACC, N):
        return None
    loop = KernelLoop.from_body("sdotp", body[0].label, body, cycle_model)
    loop.meta = {
        "P": P, "Q": Q, "A": A, "B": B, "ACC": ACC, "N": N,
        "eight_bit": dot.mnemonic == "sdotp8",
    }
    return loop


def _match_mac8(body, cycle_model) -> Optional[KernelLoop]:
    """``lb; lb; mul; add; addi +1; addi +1; addi -1; bne`` (8 instrs)."""
    if len(body) != 8:
        return None
    l1, l2, mul, acc_add, p1, p2, dec, br = body
    P, Q, A, B, N = l1.rs1, l2.rs1, l1.rd, l2.rd, dec.rd
    ACC = acc_add.rd
    if not (
        _is(l1, "lb", imm=0)
        and _is(l2, "lb", imm=0)
        and _is(mul, "mul", rd=A, rs1=A, rs2=B)
        and _is(acc_add, "add", rd=ACC, rs1=ACC, rs2=A)
        and _is(p1, "addi", rd=P, rs1=P, imm=1)
        and _is(p2, "addi", rd=Q, rs1=Q, imm=1)
        and _is(dec, "addi", rd=N, rs1=N, imm=-1)
        and _is(br, "bne", rs1=N, rs2=0)
    ):
        return None
    if len({P, Q, A, B, ACC, N}) != 6 or 0 in (P, Q, A, B, ACC, N):
        return None
    loop = KernelLoop.from_body("mac8", body[0].label, body, cycle_model)
    loop.meta = {"P": P, "Q": Q, "A": A, "B": B, "ACC": ACC, "N": N}
    return loop


def _match_mac4(body, cycle_model) -> Optional[KernelLoop]:
    """The packed-INT4 scalar MAC loop (16 instrs, two nibble products)."""
    if len(body) != 16:
        return None
    (l1, l2, lo_and, lo_sll, lo_sra, lo_mul, lo_acc,
     hi_srl, hi_sll, hi_sra, hi_mul, hi_acc, p1, p2, dec, br) = body
    P, Q, A, B, N = l1.rs1, l2.rs1, l1.rd, l2.rd, dec.rd
    C, D, ACC = lo_and.rd, lo_sll.rd, lo_acc.rd
    if not (
        _is(l1, "lbu", imm=0)
        and _is(l2, "lbu", imm=0)
        and _is(lo_and, "andi", rd=C, rs1=A, imm=0xF)
        and _is(lo_sll, "slli", rd=D, rs1=B, imm=28)
        and _is(lo_sra, "srai", rd=D, rs1=D, imm=28)
        and _is(lo_mul, "mul", rd=D, rs1=D, rs2=C)
        and _is(lo_acc, "add", rd=ACC, rs1=ACC, rs2=D)
        and _is(hi_srl, "srli", rd=C, rs1=A, imm=4)
        and _is(hi_sll, "slli", rd=D, rs1=B, imm=24)
        and _is(hi_sra, "srai", rd=D, rs1=D, imm=28)
        and _is(hi_mul, "mul", rd=D, rs1=D, rs2=C)
        and _is(hi_acc, "add", rd=ACC, rs1=ACC, rs2=D)
        and _is(p1, "addi", rd=P, rs1=P, imm=1)
        and _is(p2, "addi", rd=Q, rs1=Q, imm=1)
        and _is(dec, "addi", rd=N, rs1=N, imm=-1)
        and _is(br, "bne", rs1=N, rs2=0)
    ):
        return None
    if len({P, Q, A, B, C, D, ACC, N}) != 8 or 0 in (P, Q, A, B, C, D, ACC, N):
        return None
    loop = KernelLoop.from_body("mac4", body[0].label, body, cycle_model)
    loop.meta = {"P": P, "Q": Q, "A": A, "B": B, "C": C, "D": D, "ACC": ACC, "N": N}
    return loop


def _match_memset(body, cycle_model) -> Optional[KernelLoop]:
    """``sw value; addi ptr += 4; bne ptr, end`` word-fill loop (3 instrs)."""
    if len(body) != 3:
        return None
    st, p1, br = body
    P, Z, E = st.rs1, st.rs2, br.rs2
    if not (
        _is(st, "sw", imm=0)
        and _is(p1, "addi", rd=P, rs1=P, imm=4)
        and _is(br, "bne", rs1=P)
    ):
        return None
    # The stored register must stay constant across iterations (x0 always is).
    if P == 0 or P == E or (Z == P and Z != 0):
        return None

    def plan(base, size, start, end):
        """``(words, dmem offset)`` of a fill of ``[start, end)``, or ``None``."""
        span = end - start
        if span <= 0 or span % 4:
            return None
        off = _dmem_offset(base, size, start, span)
        return None if off is None else (span // 4, off)

    plans = _Plans()

    def make_run_many(dm):
        def run_many(regs_list, cnts, aux_base):
            r0 = regs_list[0]
            if not _uniform(regs_list, (P, E)):
                return 0, None
            fill = plans.get((dm.base, dm.size, r0[P], r0[E]), plan)
            if fill is None:
                return 0, None
            n, off = fill
            words = np.array([regs[Z] for regs in regs_list], dtype="<u4")
            dm.view(off, (n,), (4,), "<u4")[...] = words[:, None]
            end = r0[E]
            for regs in regs_list:
                regs[P] = end
            return n, [0] * len(regs_list)

        return run_many

    loop = KernelLoop.from_body("memset", body[0].label, body, cycle_model)
    loop.make_run_many = make_run_many
    return loop


def recognize_loop(
    body: List[Instruction], start_index: int, cycle_model
) -> Optional[KernelLoop]:
    """Match a self-looping basic block against the standalone loop shapes.

    ``body`` must be a block whose terminator is a ``bne`` back to its own
    first instruction (the caller checks the branch target).  Only the
    memset loop runs standalone: the inner MAC loops codegen emits always
    sit inside a channel loop, whose kernel subsumes them.  The result is
    unbound: execution binds it through ``make_run_many``.
    """
    if body[-1].mnemonic != "bne":
        return None
    return _match_memset(body, cycle_model)


# --------------------------------------------------------------------------- #
# Second-level recognition: the whole per-output-channel loop.
#
# For every output pixel (conv) or output vector (fc) codegen emits one
# rigid, fully-determined loop over the output channels:
#
#     oc:   lw   ACC, 0(BP)     ; bias
#           addi BP, BP, 4
#           ...per-tap inner products (kh*kw taps, conv) ...
#           mul/add/srai + two clamp diamonds        (requantization)
#           sw/sb/nibble-packing store
#           addi WP, WP, oc_stride
#           addi CNT, CNT, -1
#           bne  CNT, zero, oc
#
# Trip counts (kh, kw, words-per-tap) and strides are compile-time
# immediates, so the entire loop body is a matrix product ``(frames,
# channels) = act @ weights`` plus a vectorized requantization — one numpy
# dispatch per output *pixel* instead of one per channel per tap.  The only
# data-dependent control flow (the two clamp branches, the odd/even nibble
# path) is counted per frame through the kernel's ``aux`` slots so cycle
# and per-mnemonic statistics stay bit-exact.  The matched loop is kept as
# a :class:`ChannelSpec`, which the layer-wide ``conv-nest`` kernel of
# :mod:`repro.hw.sim.nests` reuses to run every pixel of a layer at once.
# --------------------------------------------------------------------------- #
class _NoMatch(Exception):
    pass


class _Walk:
    """Cursor over the raw instruction stream with exact-shape asserts."""

    __slots__ = ("instrs", "i")

    def __init__(self, instrs: List[Instruction], i: int):
        self.instrs = instrs
        self.i = i

    def peek(self, k: int = 0) -> Optional[Instruction]:
        j = self.i + k
        return self.instrs[j] if 0 <= j < len(self.instrs) else None

    def take(self, mnemonic: str, **fields) -> Instruction:
        ins = self.peek()
        if ins is None or not _is(ins, mnemonic, **fields):
            raise _NoMatch
        self.i += 1
        return ins


class _Tally:
    """Instructions, cycles and per-mnemonic counts of one fixed code path."""

    __slots__ = ("instrs", "cycles", "counts", "_cost")

    def __init__(self, cycle_model):
        self.instrs = 0
        self.cycles = 0
        self.counts: Dict[str, int] = {}
        self._cost = cycle_model.cost

    def add(self, ins: Instruction, mult: int = 1, charge: bool = True) -> None:
        """Count ``ins`` ``mult`` times.  ``charge=False`` leaves its cycles
        to the caller (branches, whose cost depends on the outcome)."""
        self.counts[ins.mnemonic] = self.counts.get(ins.mnemonic, 0) + mult
        self.instrs += mult
        if charge:
            self.cycles += mult * self._cost(ins)

    def add_all(self, instrs: Sequence[Instruction], mult: int = 1) -> None:
        for ins in instrs:
            self.add(ins, mult)

    def add_path(self, instrs: int, cycles: int, counts: dict, mult: int = 1) -> None:
        """Add ``mult`` executions of an already-tallied path."""
        if not mult:
            return
        self.instrs += mult * instrs
        self.cycles += mult * cycles
        for m, c in counts.items():
            self.counts[m] = self.counts.get(m, 0) + mult * c

    def add_loop(self, loop: KernelLoop, iters: int, bt: int, bnt: int,
                 runs: int = 1) -> None:
        """Add ``runs`` runs of ``loop`` to completion, ``iters`` iterations
        each; the back-branch is taken on all but the last iteration."""
        self.add_path(
            loop.instrs_per_iter, loop.straight_cycles_per_iter,
            loop.counts_per_iter, runs * iters,
        )
        self.cycles += runs * ((iters - 1) * bt + bnt)

    def kernel(self, kind: str, label: Optional[str], exit_pc: int) -> KernelLoop:
        return KernelLoop(kind, label, self.instrs, self.cycles, self.counts, exit_pc)


def _take_li(w: _Walk) -> Tuple[int, int, Tuple[Instruction, ...]]:
    """Consume an ``Assembler.li`` expansion; returns ``(rd, value, instrs)``."""
    ins = w.peek()
    if ins is not None and ins.mnemonic == "addi" and ins.rs1 == 0:
        w.i += 1
        return ins.rd, ins.imm & MASK, (ins,)
    if ins is None or ins.mnemonic != "lui":
        raise _NoMatch
    w.i += 1
    value = ins.imm
    p = w.peek()
    if p is not None and _is(p, "addi", rd=ins.rd, rs1=ins.rd):
        w.i += 1
        return ins.rd, (value + p.imm) & MASK, (ins, p)
    return ins.rd, value & MASK, (ins,)


def _take_addi_big(w: _Walk, rd: int):
    """Consume an ``Assembler.addi_big`` expansion updating register ``rd``.

    Returns ``(stride, t6_update, instrs)`` where ``t6_update`` is
    ``(scratch_reg, final_value)`` when the large-immediate ``li t6; add``
    form was used, else ``None``.
    """
    ins = w.peek()
    if ins is None:
        raise _NoMatch
    if ins.mnemonic == "addi" and ins.rd == rd and ins.rs1 == rd:
        w.i += 1
        return ins.imm, None, (ins,)
    if ins.rd == rd:
        raise _NoMatch
    scratch, value, instrs = _take_li(w)
    add = w.take("add", rd=rd, rs1=rd, rs2=scratch)
    if value & 0x8000_0000:
        value -= 1 << 32
    return value, (scratch, value & MASK), instrs + (add,)


def _opt_addi_big(w: _Walk, rd: int):
    """:func:`_take_addi_big` for an update codegen omits when it is zero."""
    at = w.i
    try:
        return _take_addi_big(w, rd)
    except _NoMatch:
        w.i = at
        return 0, None, ()


def _lane_table(lo, hi=None) -> np.ndarray:
    v = np.arange(256)
    cols = [lo(v)] if hi is None else [lo(v), hi(v)]
    return np.stack(cols, axis=1).astype(np.float64)


# Byte value -> multiply lanes.  Products are summed in float64, exact for
# every layer that fits the 16 kB dmem (partial sums stay far below 2**53).
_LANES = {
    "int8": _lane_table(lambda v: v - ((v & 0x80) << 1)),
    "snib": _lane_table(
        lambda v: _signed_nibbles(v & 0xF), lambda v: _signed_nibbles(v >> 4)
    ),
    "unib": _lane_table(lambda v: v & 0xF, lambda v: v >> 4),
}
# Inner-loop mode -> (activation lanes, weight lanes).  mac4 consumes
# activation nibbles unsigned (PACT outputs) and weight nibbles signed.
_MODE_LANES = {
    "sd8": ("int8", "int8"),
    "mac8": ("int8", "int8"),
    "sd4": ("snib", "snib"),
    "mac4": ("unib", "snib"),
}


def count_clamps(cnts, aux_base: int, clamps) -> List[int]:
    """Add per-frame requant clamp hits to the first two aux slots.

    ``clamps`` holds per-frame ``(negative, saturated)`` lists, or is empty
    without requantization.  Returns the extra instructions each frame
    executed on those paths.
    """
    if not clamps:
        return [0] * len(cnts)
    extras = []
    for c, neg, hi in zip(cnts, *clamps):
        c[aux_base] += neg
        c[aux_base + 1] += hi
        extras.append(neg + hi)
    return extras


_ONE_PIXEL = (1, 1, 0, 0, 0, 0)


class _ChannelPlan:
    """What one register tuple fixes for :meth:`ChannelSpec.evaluate`.

    Column slices of the bias, activation and weight bytes in the
    ``(frames, dmem)`` matrix, the im2col index of the activations
    (``(pixels, bytes)``) and of the weights, relative to their slices, the
    output view ``(offset, shape, strides, dtype)``, the columns of the last
    channel's final operand bytes, and the last pixel's register updates
    resolved to constants and named per-frame values.
    """

    __slots__ = ("bias", "act", "wts", "im2col", "w_index", "pixels", "out",
                 "n_pairs", "out_len", "tail", "consts", "per_frame")


class ChannelSpec:
    """Register roles and constants of one matched output-channel loop.

    Filled in by :func:`try_channel_superloop`; :meth:`evaluate` runs the
    loop for one output vector (the ``fc-chan`` kernel) or for a whole grid
    of pixels (the ``conv-nest`` kernel).  ``control`` are
    the registers the loop reads or keeps live, ``scratch`` the registers
    it only clobbers.
    """

    def __init__(self):
        #: ``(weight bytes, weight lanes)`` of the last :meth:`evaluate`.
        #: The lanes are reused only after a byte compare against the
        #: current frames' weights, so engines that share the template with
        #: different weights never see each other's lanes.  One tuple,
        #: replaced in one assignment: a concurrent reader never sees a torn
        #: entry.
        self._lanes: Optional[tuple] = None
        self._plans = _Plans()

    def evaluate(self, dm: FrameDmem, regs_list, n: int, bp: int, wp: int,
                 pb: int, outp: int, p0: int = 0, grid=_ONE_PIXEL,
                 flush: bool = False):
        """Run ``n`` channels for every pixel of ``grid`` in every frame.

        ``grid = (rows, cols, sy, sx, oy, ox)`` places pixel ``(r, c)`` at
        input patch ``pb + r*sy + c*sx`` (the fc input vector for fc loops)
        and output ``outp + r*oy + c*ox``; every pixel starts at bias base
        ``bp``, weight base ``wp`` and INT4 store parity ``p0``.  ``flush``
        stores each pixel's odd trailing nibble (the conv layer's flush
        block).  Writes every output and the registers the loop leaves
        behind after the *last* pixel, and returns per-frame
        ``(negative, saturated)`` requant clamp-hit lists (empty without
        requantization).  Returns ``None`` without writing when a span
        leaves dmem, the output overlaps an input (the interpreter
        interleaves stores and loads, which only agrees with
        compute-all-then-store-all when the spans are disjoint), or the
        frames hold different weight bytes (each frame then runs alone).
        Everything but the data comes from the plan of these arguments.
        """
        plan = self._plans.get(
            (dm.base, dm.size, n, bp, wp, pb, outp, p0, grid, flush), self._plan
        )
        if plan is None:
            return None
        mat = dm.mat
        F = mat.shape[0]
        wts = mat[:, plan.wts]
        if F > 1 and not (wts == wts[0]).all():
            # Frames hold different weight bytes: decline, and each frame
            # runs this kernel alone (where F == 1).
            return None

        # Every frame holds the same weight bytes (proven above, not
        # assumed): expand them to lanes once and broadcast them over the
        # frames.  One stacked (F*pixels, K) product would be larger than
        # the per-frame ones and can cross the BLAS's multithreading
        # threshold, whose thread wake-up costs milliseconds.
        a_lanes, w_lanes = _MODE_LANES[self.mode]
        # Lanes of the small activation span, then its im2col view.
        va = _LANES[a_lanes].take(mat[:, plan.act], axis=0).take(plan.im2col, axis=1)
        # The byte count fixes n (oc_stride > 0), so equal bytes mean equal
        # lanes.
        key = wts[0].tobytes()
        cached = self._lanes
        if cached is not None and cached[0] == key:
            vw = cached[1]
        else:
            vw = _LANES[w_lanes].take(wts[0].take(plan.w_index), axis=0)
            vw = vw.reshape(n, -1)
            vw.flags.writeable = False
            self._lanes = (key, vw)
        acc = np.matmul(va.reshape(F, plan.pixels, -1), vw.T).astype(np.int64)
        acc += np.ascontiguousarray(mat[:, plan.bias]).view("<i4")[:, None, :]
        acc32 = acc.astype(np.uint32)  # the register: the low 32 bits

        clamps = ()
        if self.requant:
            r0 = regs_list[0]
            lev_raw = r0[self.LEV]
            lev_s = lev_raw - (1 << 32) if lev_raw & 0x8000_0000 else lev_raw
            # uint32 arithmetic wraps like the 32-bit mul and add.
            t = acc32 * r0[self.MUL]
            t += r0[self.RND]
            s = t.view(np.int32)
            if self.shift:
                s >>= self.shift
            neg = s < 0
            if lev_s >= 0:
                hi_clamp = s > lev_s
                vals = np.minimum(np.maximum(s, 0, out=s), lev_s, out=s)
            else:  # every clamped value saturates to the level register
                hi_clamp = np.ones_like(neg)
                vals = np.full(s.shape, lev_raw, dtype=np.int64)
            clamps = (neg.sum(axis=(1, 2)).tolist(),
                      hi_clamp.sum(axis=(1, 2)).tolist())
        else:
            vals = acc32

        # ----- pack + store (the stores truncate to the output width) ----- #
        values = {"ACC": acc32[:, -1, -1].tolist()}
        if self.requant:
            values["RES"] = vals[:, -1, -1].tolist()
        if self.out_bits == 4:
            if p0:
                pend0 = np.array([regs[self.PEND] for regs in regs_list])
                head = np.broadcast_to(pend0[:, None, None], (F, plan.pixels, 1))
                vals = np.concatenate([head, vals], axis=2)
            last = vals[:, -1, :].tolist()
            at = 2 * ((p0 + n - 1) // 2)
            values["PEND"] = [row[at] for row in last]
            n_pairs = plan.n_pairs
            if n_pairs:
                values["T5"] = [((row[2 * n_pairs - 1] << 4) & MASK)
                                | row[2 * n_pairs - 2] for row in last]
        if plan.out is not None:
            out = dm.view(*plan.out)
            if self.out_bits != 4:
                out[...] = vals.reshape(out.shape)
            else:
                out[..., :n_pairs] = (
                    (vals[:, :, 1 : 2 * n_pairs : 2] << 4)
                    | vals[:, :, 0 : 2 * n_pairs : 2]
                ).reshape(out.shape[:3] + (n_pairs,))
                if plan.out_len > n_pairs:
                    out[..., n_pairs] = vals[:, :, -1].reshape(out.shape[:3])

        # ----- final architectural state of the last pixel ----- #
        tail = mat.take(plan.tail, axis=1).tolist()
        if self.mode in ("sd8", "sd4"):
            values["A"] = [r[0] | r[1] << 8 | r[2] << 16 | r[3] << 24 for r in tail]
            values["B"] = [r[4] | r[5] << 8 | r[6] << 16 | r[7] << 24 for r in tail]
        elif self.mode == "mac8":
            lbs = [r[1] - ((r[1] & 0x80) << 1) for r in tail]
            values["A"] = [((r[0] - ((r[0] & 0x80) << 1)) * lb) & MASK
                           for r, lb in zip(tail, lbs)]
            values["B"] = [lb & MASK for lb in lbs]
        else:
            values["A"] = [r[0] for r in tail]
            values["B"] = [r[1] for r in tail]
            values["C"] = [r[0] >> 4 for r in tail]
            values["D"] = [((((r[1] >> 4) ^ 8) - 8) * (r[0] >> 4)) & MASK
                           for r in tail]
        _write_regs(regs_list, plan.consts, plan.per_frame, values)
        return clamps

    def _plan(self, base, size, n, bp, wp, pb, outp, p0, grid, flush):
        """Build the :class:`_ChannelPlan` of one argument tuple of
        :meth:`evaluate`, or ``None`` when it must decline."""
        rows, cols, sy, sx, oy, ox = grid
        T, span, out_bits = self.taps, self.span, self.out_bits
        a_geom = ((rows, cols, self.kh, self.kw, span),
                  (sy, sx, self.row_stride, self.pixel_stride, 1))
        w_geom = ((n, T, span), (self.oc_stride, self.tap_adv, 1))
        spans = ((bp, 4 * n), (pb, _extent(*a_geom)), (wp, _extent(*w_geom)))
        b_off, a_off, w_off = offs = [
            _dmem_offset(base, size, addr, length) for addr, length in spans
        ]
        if None in offs:
            return None
        plan = _ChannelPlan()
        plan.n_pairs = n_pairs = (p0 + n) // 2
        if out_bits == 32:
            out_len = 4 * n
        elif out_bits == 8:
            out_len = n
        else:
            out_len = n_pairs + (1 if flush and (p0 + n) & 1 else 0)
        plan.out_len = out_len
        plan.out = None
        if out_len:
            o_extent = _extent((rows, cols, out_len), (oy, ox, 1))
            if any(outp < lo + ln and lo < outp + o_extent for lo, ln in spans):
                return None
            o_off = _dmem_offset(base, size, outp, o_extent)
            if o_off is None:
                return None
            if out_bits == 32:
                plan.out = (o_off, (rows, cols, n), (oy, ox, 4), "<u4")
            else:
                plan.out = (o_off, (rows, cols, out_len), (oy, ox, 1), np.uint8)
        plan.bias = slice(b_off, b_off + 4 * n)
        plan.act = slice(a_off, a_off + spans[1][1])
        plan.wts = slice(w_off, w_off + spans[2][1])
        plan.pixels = rows * cols
        plan.im2col = _offsets(*a_geom).reshape(rows * cols, -1)
        plan.w_index = _offsets(*w_geom).reshape(n, -1)
        k = 4 if self.mode in ("sd8", "sd4") else 1
        a_end, w_end = a_off + spans[1][1], plan.wts.stop
        plan.tail = np.concatenate(
            (np.arange(a_end - k, a_end), np.arange(w_end - k, w_end))
        )

        # Register updates of the last pixel in execution order; strings
        # name per-frame values computed by evaluate.
        pb_last = pb + (rows - 1) * sy + (cols - 1) * sx
        t2_final = (wp + (n - 1) * self.oc_stride + T * self.tap_adv) & MASK
        ups = [(self.T2, t2_final), (self.N, 0), (self.A, "A"), (self.B, "B")]
        if self.mode == "mac4":
            ups += [(self.C, "C"), (self.D, "D")]
        ups.append((self.ACC, "ACC"))
        if self.conv:
            row_last = pb_last + (self.kh - 1) * self.row_stride
            ups.append((self.T1, (row_last + (self.kw - 1) * self.pixel_stride
                                  + self.tap_adv) & MASK))
            ups.append((self.WTAP, t2_final))
            ups.append((self.TAPP, (row_last + self.kw * self.pixel_stride) & MASK))
            if self.t6_kx is not None:
                ups.append(self.t6_kx)
            ups.append((self.KW, 0))
            ups.append((self.ROWP, (pb_last + self.kh * self.row_stride) & MASK))
            if self.t6_ky is not None:
                ups.append(self.t6_ky)
            ups.append((self.KH, 0))
        else:
            ups.append((self.T1, (pb + self.tap_adv) & MASK))
        if self.requant:
            ups.append((self.RES, "RES"))
        if out_bits == 4:
            ups.append((self.PEND, "PEND"))
            ups.append((self.PAR, (p0 + n) & 1))
            if n_pairs:
                # When the last channel takes the even path, the last odd
                # store ran before its inner loop, which may reuse T5.
                if (p0 + n) & 1:
                    ups.insert(0, (self.T5, "T5"))
                else:
                    ups.append((self.T5, "T5"))
        outp_last = outp + (rows - 1) * oy + (cols - 1) * ox
        # A flushed trailing nibble is the caller's to account for.
        chan_len = n_pairs if out_bits == 4 else out_len
        ups.append((self.OUTP, (outp_last + chan_len) & MASK))
        ups.append((self.BP, (bp + 4 * n) & MASK))
        if self.t6_tail is not None:
            ups.append(self.t6_tail)
        ups.append((self.WP, (wp + n * self.oc_stride) & MASK))
        ups.append((self.CNTR, 0))
        plan.consts, plan.per_frame = _resolve(ups)
        return plan


def try_channel_superloop(
    program: List[Instruction], head: int, cycle_model
) -> Optional[KernelLoop]:
    """Match the full conv/fc output-channel loop starting at index ``head``.

    Returns a :class:`KernelLoop` (kind ``conv-chan`` / ``fc-chan``) with
    ``aux`` side-path counters and its :class:`ChannelSpec` in
    ``meta["spec"]``, or ``None``.  Only ``fc-chan`` loops get an
    executor; a ``conv-chan`` loop is the building block of a
    ``conv-nest``.  Matching is strict: any deviation from the exact
    codegen shape declines and the simulator falls back to generic block
    execution, which is always bit-exact.
    """
    try:
        return _match_channel_loop(program, head, cycle_model)
    except _NoMatch:
        return None


def _match_channel_loop(program, head, cycle_model):
    bt, bnt = cycle_model.branch_taken, cycle_model.branch_not_taken
    cost = cycle_model.cost
    tally = _Tally(cycle_model)
    add = tally.add

    w = _Walk(program, head)
    lw_b = w.take("lw", imm=0)
    ACC, BP = lw_b.rd, lw_b.rs1
    bp_adv = w.take("addi", rd=BP, rs1=BP, imm=4)
    add(lw_b)
    add(bp_adv)

    nxt = w.peek()
    if nxt is None:
        raise _NoMatch
    conv = nxt.mnemonic == "add" and nxt.rs2 == 0
    ROWP = WTAP = TAPP = KH = KW = PB = -1
    kh = kw = 1
    act_addr = 0
    if conv:
        mv_row = w.take("add", rs2=0)
        ROWP, PB = mv_row.rd, mv_row.rs1
        mv_wt = w.take("add", rs2=0)
        WTAP, WP = mv_wt.rd, mv_wt.rs1
        li_kh = w.take("addi", rs1=0)
        KH, kh = li_kh.rd, li_kh.imm
        if kh <= 0:
            raise _NoMatch
        add(mv_row)
        add(mv_wt)
        add(li_kh)
        ky_head = w.i
        mv_tap = w.take("add", rs2=0, rs1=ROWP)
        TAPP = mv_tap.rd
        li_kw = w.take("addi", rs1=0)
        KW, kw = li_kw.rd, li_kw.imm
        if kw <= 0:
            raise _NoMatch
        add(mv_tap, kh)
        add(li_kw, kh)
        kx_head = w.i
        mv_t1 = w.take("add", rs2=0, rs1=TAPP)
        T1 = mv_t1.rd
        mv_t2 = w.take("add", rs2=0, rs1=WTAP)
        T2 = mv_t2.rd
        T = kh * kw
        add(mv_t1, T)
        add(mv_t2, T)
    else:
        T1, act_addr, li_act = _take_li(w)
        tally.add_all(li_act)
        mv_t2 = w.take("add", rs2=0)
        T2, WP = mv_t2.rd, mv_t2.rs1
        add(mv_t2)
        T = 1

    # ----- inner product: li N, <count>; <sdotp|mac8|mac4 self-loop> ----- #
    li_n = w.take("addi", rs1=0)
    N, words = li_n.rd, li_n.imm
    if words <= 0:
        raise _NoMatch
    add(li_n, T)
    first = w.peek()
    if first is None:
        raise _NoMatch
    if first.mnemonic == "lw":
        body_len, matcher = 7, _match_sdotp
    elif first.mnemonic == "lb":
        body_len, matcher = 8, _match_mac8
    elif first.mnemonic == "lbu":
        body_len, matcher = 16, _match_mac4
    else:
        raise _NoMatch
    loop_head = w.i
    body = program[loop_head : loop_head + body_len]
    if len(body) != body_len:
        raise _NoMatch
    inner = matcher(body, cycle_model)
    if inner is None:
        raise _NoMatch
    m = inner.meta
    if not (m["P"] == T1 and m["Q"] == T2 and m["ACC"] == ACC and m["N"] == N):
        raise _NoMatch
    br_idx = loop_head + body_len - 1
    if br_idx + body[-1].imm // 4 != loop_head:
        raise _NoMatch
    w.i = loop_head + body_len
    tally.add_loop(inner, words, bt, bnt, runs=T)  # once per tap
    # Trailing alignment pads (mac modes advance both pointers past the pad).
    pad = 0
    p = w.peek()
    if (
        inner.kind != "sdotp"
        and p is not None
        and _is(p, "addi", rd=T1, rs1=T1)
        and 0 < p.imm < 4
    ):
        p2 = w.peek(1)
        if p2 is None or not _is(p2, "addi", rd=T2, rs1=T2, imm=p.imm):
            raise _NoMatch
        pad = p.imm
        add(p, T)
        add(p2, T)
        w.i += 2
    span_read = 4 * words if inner.kind == "sdotp" else words
    tap_adv = span_read + pad

    t6_kx = t6_ky = t6_tail = None
    pixel_stride = row_stride = 0
    if conv:
        mv_back = w.take("add", rd=WTAP, rs1=T2, rs2=0)
        add(mv_back, T)
        pixel_stride, t6_kx, pix_instrs = _take_addi_big(w, TAPP)
        tally.add_all(pix_instrs, T)
        dec_kw = w.take("addi", rd=KW, rs1=KW, imm=-1)
        add(dec_kw, T)
        br_kx = w.take("bne", rs1=KW, rs2=0)
        if (w.i - 1) + br_kx.imm // 4 != kx_head:
            raise _NoMatch
        add(br_kx, T, charge=False)
        tally.cycles += kh * ((kw - 1) * bt + bnt)
        row_stride, t6_ky, row_instrs = _take_addi_big(w, ROWP)
        tally.add_all(row_instrs, kh)
        dec_kh = w.take("addi", rd=KH, rs1=KH, imm=-1)
        add(dec_kh, kh)
        br_ky = w.take("bne", rs1=KH, rs2=0)
        if (w.i - 1) + br_ky.imm // 4 != ky_head:
            raise _NoMatch
        add(br_ky, kh, charge=False)
        tally.cycles += (kh - 1) * bt + bnt
        if pixel_stride <= 0 or row_stride <= 0:
            raise _NoMatch

    # ----- requantization (optional) ----- #
    aux: List[tuple] = []
    nxt = w.peek()
    if nxt is None:
        raise _NoMatch
    requant = nxt.mnemonic == "mul"
    RES = MUL = RND = LEV = -1
    shift = 0
    if requant:
        mul_i = w.take("mul", rs1=ACC)
        RES, MUL = mul_i.rd, mul_i.rs2
        rnd_i = w.take("add", rd=RES, rs1=RES)
        RND = rnd_i.rs2
        add(mul_i)
        add(rnd_i)
        p = w.peek()
        if p is not None and _is(p, "srai", rd=RES, rs1=RES):
            shift = p.imm
            w.i += 1
            add(p)
        bge1 = w.take("bge", rs1=RES, rs2=0, imm=8)
        clamp0 = w.take("add", rd=RES, rs1=0, rs2=0)
        bge2 = w.take("bge", rs2=RES, imm=8)
        LEV = bge2.rs1
        clamp1 = w.take("add", rd=RES, rs1=LEV, rs2=0)
        add(bge1, charge=False)
        add(bge2, charge=False)
        tally.cycles += 2 * bt  # common path: both clamps skipped (branch taken)
        aux.append((1, (bnt - bt) + cost(clamp0), {"add": 1}))
        aux.append((1, (bnt - bt) + cost(clamp1), {"add": 1}))
        store_val = RES
    else:
        store_val = ACC

    # ----- store ----- #
    PAR = PEND = T5 = -1
    nxt = w.peek()
    if nxt is None:
        raise _NoMatch
    if nxt.mnemonic == "sw":
        st = w.take("sw", rs2=store_val, imm=0)
        OUTP = st.rs1
        out_adv = w.take("addi", rd=OUTP, rs1=OUTP, imm=4)
        add(st)
        add(out_adv)
        out_bits = 32
    elif nxt.mnemonic == "sb":
        st = w.take("sb", rs2=store_val, imm=0)
        OUTP = st.rs1
        out_adv = w.take("addi", rd=OUTP, rs1=OUTP, imm=1)
        add(st)
        add(out_adv)
        out_bits = 8
    elif nxt.mnemonic == "bne":
        br_par = w.take("bne", rs2=0, imm=16)
        PAR = br_par.rs1
        mv_pend = w.take("add", rs1=store_val, rs2=0)
        PEND = mv_pend.rd
        li_one = w.take("addi", rd=PAR, rs1=0, imm=1)
        jal = w.take("jal", rd=0, imm=24)
        sll = w.take("slli", rs1=store_val, imm=4)
        T5 = sll.rd
        orr = w.take("or", rd=T5, rs1=T5, rs2=PEND)
        st = w.take("sb", rs2=T5, imm=0)
        OUTP = st.rs1
        out_adv = w.take("addi", rd=OUTP, rs1=OUTP, imm=1)
        li_zero = w.take("addi", rd=PAR, rs1=0, imm=0)
        add(br_par, charge=False)
        tally.cycles += bnt  # common-path convention: charge the even fall-through
        aux.append(
            (3, cost(mv_pend) + cost(li_one) + cost(jal),
             {"add": 1, "addi": 1, "jal": 1})
        )
        aux.append(
            (5,
             (bt - bnt) + cost(sll) + cost(orr) + cost(st)
             + cost(out_adv) + cost(li_zero),
             {"slli": 1, "or": 1, "sb": 1, "addi": 2})
        )
        out_bits = 4
    else:
        raise _NoMatch

    # ----- tail: advance weight base, decrement, loop ----- #
    oc_stride, t6_tail, oc_instrs = _take_addi_big(w, WP)
    if oc_stride <= 0:
        raise _NoMatch
    tally.add_all(oc_instrs)
    dec = w.take("addi", imm=-1)
    CNTR = dec.rd
    if dec.rs1 != CNTR:
        raise _NoMatch
    add(dec)
    backedge = w.take("bne", rs1=CNTR, rs2=0)
    if (w.i - 1) + backedge.imm // 4 != head:
        raise _NoMatch
    add(backedge, charge=False)  # commit charges the back-branch analytically

    # ----- register-role sanity: control regs pairwise distinct, scratch
    # regs disjoint from them (requant result may alias the inner scratch
    # registers; ordered final-state updates handle that). ----- #
    control = [CNTR, BP, WP, OUTP, ACC, T1, T2, N]
    if conv:
        control += [PB, ROWP, WTAP, TAPP, KH, KW]
    if requant:
        control += [MUL, RND, LEV]
    if out_bits == 4:
        control += [PAR, PEND]
    if len(set(control)) != len(control) or 0 in control:
        raise _NoMatch
    scratch = {m["A"], m["B"]}
    if inner.kind == "mac4":
        scratch |= {m["C"], m["D"]}
    if requant:
        scratch.add(RES)
    if out_bits == 4:
        scratch.add(T5)
    for tt in (t6_kx, t6_ky, t6_tail):
        if tt is not None:
            scratch.add(tt[0])
    if scratch & set(control) or 0 in scratch:
        raise _NoMatch

    spec = ChannelSpec()
    spec.mode = (
        ("sd8" if m.get("eight_bit") else "sd4")
        if inner.kind == "sdotp"
        else inner.kind
    )
    spec.conv, spec.requant, spec.out_bits, spec.shift = conv, requant, out_bits, shift
    spec.kh, spec.kw, spec.taps, spec.span, spec.tap_adv = kh, kw, T, span_read, tap_adv
    spec.oc_stride, spec.pixel_stride, spec.row_stride = oc_stride, pixel_stride, row_stride
    spec.CNTR, spec.BP, spec.WP, spec.OUTP, spec.ACC = CNTR, BP, WP, OUTP, ACC
    spec.T1, spec.T2, spec.N, spec.PB = T1, T2, N, PB
    spec.ROWP, spec.WTAP, spec.TAPP, spec.KH, spec.KW = ROWP, WTAP, TAPP, KH, KW
    spec.MUL, spec.RND, spec.LEV, spec.RES = MUL, RND, LEV, RES
    spec.PAR, spec.PEND, spec.T5 = PAR, PEND, T5
    spec.A, spec.B, spec.C, spec.D = m["A"], m["B"], m.get("C", -1), m.get("D", -1)
    spec.t6_kx, spec.t6_ky, spec.t6_tail = t6_kx, t6_ky, t6_tail
    spec.control, spec.scratch = set(control), scratch
    spec.clamp_aux = tuple(aux[:2]) if requant else ()
    spec.parity_aux = tuple(aux[-2:]) if out_bits == 4 else ()
    loop = tally.kernel(
        "conv-chan" if conv else "fc-chan", program[head].label, 4 * w.i
    )
    loop.aux = tuple(aux)
    loop.meta = {"spec": spec}
    if conv:
        # A conv channel loop is a building block of ``conv-nest`` only:
        # it runs per pixel as generic blocks whenever its nest declines.
        return loop
    uniform_regs = [CNTR, BP, WP, OUTP]
    if requant:
        uniform_regs += [MUL, RND, LEV]
    if out_bits == 4:
        uniform_regs.append(PAR)
    parity_base = 2 if requant else 0

    def make_run_many(dm):
        def run_many(regs_list, cnts, aux_base):
            r0 = regs_list[0]
            n = _counter(r0, CNTR)
            if n == 0 or not _uniform(regs_list, uniform_regs):
                return 0, None
            p0 = 1 if out_bits == 4 and r0[PAR] else 0
            clamps = spec.evaluate(
                dm, regs_list, n, r0[BP], r0[WP], act_addr, r0[OUTP], p0
            )
            if clamps is None:
                return 0, None
            extras = count_clamps(cnts, aux_base, clamps)
            if out_bits == 4:
                n_odd = (p0 + n) // 2
                n_even = n - n_odd
                for f, c in enumerate(cnts):
                    c[aux_base + parity_base] += n_even
                    c[aux_base + parity_base + 1] += n_odd
                    extras[f] += 3 * n_even + 5 * n_odd
            return n, extras

        return run_many

    loop.make_run_many = make_run_many
    return loop


def attach_channel_superloops(blocks, program: List[Instruction], cycle_model):
    """Attach channel superloops to the head blocks of matching oc loops.

    Called by the JIT template build after :func:`build_blocks`.
    Candidates are backward ``bne`` targets whose block opens with the bias
    ``lw``; the strict matcher declines everything else.  Only ``fc-chan``
    loops are attached: a ``conv-chan`` loop runs inside the ``conv-nest``
    that matches it (:mod:`repro.hw.sim.nests`) or as generic blocks.
    """
    by_pc = {b.pc: b for b in blocks}
    seen = set()
    for block in blocks:
        term = block.term
        if term is None or term.instr.mnemonic != "bne":
            continue
        target = term.taken_pc
        if target >= term.pc or target in seen:
            continue
        seen.add(target)
        head = by_pc.get(target)
        if (
            head is None
            or head.kernel is not None
            or head.decoded[0].instr.mnemonic != "lw"
        ):
            continue
        loop = try_channel_superloop(program, head.start, cycle_model)
        if loop is not None and loop.kind == "fc-chan":
            head.kernel = loop
