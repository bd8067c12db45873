"""Vectorized replacements for the structured loops emitted by codegen.

:mod:`repro.deploy.codegen` emits a small set of *structured* inner loops —
the SDOTP SIMD dot-product loop, the scalar INT8 and packed-INT4
multiply-accumulate loops, and the buffer-clearing memset loop.  These loops
execute the overwhelming majority of all simulated instructions, so the
trace compiler pattern-matches their basic blocks and replaces the
per-instruction interpretation of the *whole remaining trip count* with one
numpy computation plus analytical cycle accounting.

Correctness contract: a handler must leave **registers, memory, cycle count
and per-mnemonic statistics** exactly as the reference interpreter would
after running the loop to completion.  Matching is therefore deliberately
strict — exact opcode sequence, exact immediates, all-distinct non-zero
registers — and a handler declines (returns 0 iterations) whenever the
runtime counter does not describe a plain countdown loop; the simulator
then falls back to generic block execution, which is always bit-exact.

Recognition is structural, on the assembled instructions themselves, and
**memory-independent**, so a recognized :class:`KernelLoop` belongs to a
reusable template (the process-wide JIT trace cache stores these).  It
exposes ``make_run(mem)`` / ``make_run_many(mems)`` factories that bind a
concrete :class:`~repro.hw.memory.Memory` (or one memory per frame for the
cross-frame batched executor) at execution time.

The code generator additionally *annotates* every loop it emits
(:class:`repro.deploy.codegen.KernelHint`); the annotations are used by
tests and diagnostics to prove that every emitted loop actually hits a
vectorized handler (``JitTemplate.vectorized_labels``), so codegen and the
recognizers cannot silently drift apart.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..isa import Instruction
from ..memory import Memory

MASK = 0xFFFFFFFF


class KernelLoop:
    """A recognized loop with a vectorized executor.

    ``make_run(mem)`` returns ``run(regs)``, which executes the remaining
    trip count ``n`` (read from the counter register) in one shot and
    returns ``n``; returning 0 means the handler declined and the block must
    be executed generically.  After a successful run the simulator resumes
    at ``exit_pc`` (the loop's fall-through pc when ``None``).

    ``make_run_many(mems)`` returns ``run_many(regs_list)`` executing the
    same loop for several frames at once — one numpy op over a stacked
    ``(frames, bytes)`` matrix — provided the loop's pointer/counter
    registers are identical across frames; it declines (returns 0)
    otherwise, and the caller falls back to per-frame execution.

    ``instrs_per_iter`` / ``straight_cycles_per_iter`` / ``counts_per_iter``
    feed the analytical statistics: a full run of ``n`` iterations costs
    ``n * straight + (n - 1) * branch_taken + branch_not_taken`` cycles,
    where the two branch terms account for the loop's own back-branch.
    Multi-level loops (e.g. the conv tap loop) fold the cycles and counts
    of their inner loop into the per-iteration figures.
    """

    __slots__ = (
        "kind",
        "label",
        "make_run",
        "make_run_many",
        "instrs_per_iter",
        "straight_cycles_per_iter",
        "counts_per_iter",
        "exit_pc",
        "meta",
        "aux",
        "wants_cnt",
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
        self.make_run: Optional[Callable] = None
        self.make_run_many: Optional[Callable] = None
        self.instrs_per_iter = instrs_per_iter
        self.straight_cycles_per_iter = straight_cycles_per_iter
        self.counts_per_iter = counts_per_iter
        self.exit_pc = exit_pc
        self.meta: dict = {}
        # Data-dependent side paths (requant clamps, INT4 packing paths):
        # tuples of (instrs, cycle_delta, mnemonic_counts) whose per-run hit
        # counters live in extra flat slots right after [iters, calls]; see
        # JitTemplate.commit.  The executors for kernels with a non-empty
        # ``aux`` take ``(regs, cnt, aux_base)`` and return
        # ``(iters, extra_instrs)``.
        self.aux: tuple = ()
        # True when the executors use the (regs, cnt, aux_base) protocol
        # even with an empty ``aux`` (e.g. a non-requantizing channel loop).
        self.wants_cnt = False

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
# per frame; reads go through raw uint8 views over each clone's dmem so one
# kernel dispatch touches numpy exactly once for all frames.
# --------------------------------------------------------------------------- #
def _make_gather(mems: Sequence[Memory]):
    """Build ``(gather, scatter)`` closures over every frame's dmem.

    ``gather(addr, count)`` returns an ``(F, count)`` uint8 array or
    ``None``; ``scatter(addr, rows)`` writes an ``(F, count)`` array back
    and returns ``False`` when out of bounds.  When every frame's dmem
    lives at a uniform address stride — the batched executor backs them
    with rows of one ``(F, dmem_size)`` numpy matrix (see
    :meth:`~repro.hw.memory.Memory.clone`) — the closures reassemble that
    matrix once and every gather is a **zero-copy column slice**.
    Otherwise they fall back to per-frame row copies.  A ``None`` /
    ``False`` result means the span is not fully inside dmem; the caller
    then declines and the per-frame path (full bounds checking, exact
    faults) takes over.
    """
    region = mems[0].regions["dmem"]
    base, size = region.base, region.size
    views = [np.frombuffer(m._data["dmem"], dtype=np.uint8) for m in mems]
    mat = None
    if all(v.size == size for v in views):
        if len(views) == 1:
            mat = views[0].reshape(1, size)
        else:
            addrs = [v.__array_interface__["data"][0] for v in views]
            step = addrs[1] - addrs[0]
            if step >= size and all(
                b - a == step for a, b in zip(addrs, addrs[1:])
            ):
                # Rows of one shared allocation: stitch the parent matrix
                # back together.  Only the [addr, addr+size) row spans are
                # ever dereferenced, all of which are valid frame views.
                mat = np.lib.stride_tricks.as_strided(
                    views[0], shape=(len(views), size), strides=(step, 1)
                )
    if mat is not None:
        def gather(addr: int, count: int) -> Optional[np.ndarray]:
            off = addr - base
            if off < 0 or off + count > size:
                return None
            return mat[:, off : off + count]

        def scatter(addr: int, rows: np.ndarray) -> bool:
            off = addr - base
            count = rows.shape[1]
            if off < 0 or off + count > size:
                return False
            mat[:, off : off + count] = rows
            return True
    else:
        def gather(addr: int, count: int) -> Optional[np.ndarray]:
            off = addr - base
            if off < 0 or off + count > size:
                return None
            return np.stack([v[off : off + count] for v in views])

        def scatter(addr: int, rows: np.ndarray) -> bool:
            off = addr - base
            count = rows.shape[1]
            if off < 0 or off + count > size:
                return False
            for v, row in zip(views, rows):
                v[off : off + count] = row
            return True
    return gather, scatter


def _uniform(regs_list, idxs) -> bool:
    r0 = regs_list[0]
    for regs in regs_list[1:]:
        for i in idxs:
            if regs[i] != r0[i]:
                return False
    return True


def _dot_rows_i8(ma: np.ndarray, mb: np.ndarray) -> np.ndarray:
    """Row-wise int8 dot products of two ``(F, n)`` uint8 matrices."""
    va = ma.view(np.int8).astype(np.int64)
    vb = mb.view(np.int8).astype(np.int64)
    return np.einsum("ij,ij->i", va, vb)


def _dot_rows_nib(ma: np.ndarray, mb: np.ndarray) -> np.ndarray:
    """Row-wise packed signed-nibble dot products (sdotp4 semantics)."""
    va = ma.astype(np.int64)
    vb = mb.astype(np.int64)
    lo = np.einsum("ij,ij->i", _signed_nibbles(va & 0xF), _signed_nibbles(vb & 0xF))
    hi = np.einsum("ij,ij->i", _signed_nibbles(va >> 4), _signed_nibbles(vb >> 4))
    return lo + hi


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
    eight_bit = dot.mnemonic == "sdotp8"

    def make_run(mem):
        load_bytes = mem.load_bytes

        def run(regs):
            n = _counter(regs, N)
            if n == 0:
                return 0
            raw_a = load_bytes(regs[P], 4 * n)
            raw_b = load_bytes(regs[Q], 4 * n)
            if eight_bit:
                va = np.frombuffer(raw_a, dtype=np.int8).astype(np.int64)
                vb = np.frombuffer(raw_b, dtype=np.int8).astype(np.int64)
                total = int(va @ vb)
            else:
                va = np.frombuffer(raw_a, dtype=np.uint8).astype(np.int64)
                vb = np.frombuffer(raw_b, dtype=np.uint8).astype(np.int64)
                total = int(
                    _signed_nibbles(va & 0xF) @ _signed_nibbles(vb & 0xF)
                    + _signed_nibbles(va >> 4) @ _signed_nibbles(vb >> 4)
                )
            # Lane sums wrap at 32 bits every iteration; summing everything and
            # masking once is congruent mod 2**32, hence bit-exact.
            regs[ACC] = (regs[ACC] + total) & MASK
            regs[A] = int.from_bytes(raw_a[-4:], "little")
            regs[B] = int.from_bytes(raw_b[-4:], "little")
            regs[P] = (regs[P] + 4 * n) & MASK
            regs[Q] = (regs[Q] + 4 * n) & MASK
            regs[N] = 0
            return n

        return run

    def make_run_many(mems):
        gather, _ = _make_gather(mems)

        def run_many(regs_list):
            r0 = regs_list[0]
            n = _counter(r0, N)
            if n == 0 or not _uniform(regs_list, (P, Q, N)):
                return 0
            nb = 4 * n
            ma = gather(r0[P], nb)
            mb = gather(r0[Q], nb)
            if ma is None or mb is None:
                return 0
            totals = _dot_rows_i8(ma, mb) if eight_bit else _dot_rows_nib(ma, mb)
            p_next = (r0[P] + nb) & MASK
            q_next = (r0[Q] + nb) & MASK
            for i, regs in enumerate(regs_list):
                regs[ACC] = (regs[ACC] + int(totals[i])) & MASK
                regs[A] = int.from_bytes(ma[i, -4:].tobytes(), "little")
                regs[B] = int.from_bytes(mb[i, -4:].tobytes(), "little")
                regs[P] = p_next
                regs[Q] = q_next
                regs[N] = 0
            return n

        return run_many

    loop = KernelLoop.from_body("sdotp", body[0].label, body, cycle_model)
    loop.make_run = make_run
    loop.make_run_many = make_run_many
    loop.meta = {
        "P": P, "Q": Q, "A": A, "B": B, "ACC": ACC, "N": N,
        "eight_bit": eight_bit,
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

    def make_run(mem):
        load_bytes = mem.load_bytes

        def run(regs):
            n = _counter(regs, N)
            if n == 0:
                return 0
            va = np.frombuffer(load_bytes(regs[P], n), dtype=np.int8).astype(np.int64)
            vb = np.frombuffer(load_bytes(regs[Q], n), dtype=np.int8).astype(np.int64)
            regs[ACC] = (regs[ACC] + int(va @ vb)) & MASK
            last_a, last_b = int(va[-1]), int(vb[-1])
            regs[A] = (last_a * last_b) & MASK
            regs[B] = last_b & MASK
            regs[P] = (regs[P] + n) & MASK
            regs[Q] = (regs[Q] + n) & MASK
            regs[N] = 0
            return n

        return run

    def make_run_many(mems):
        gather, _ = _make_gather(mems)

        def run_many(regs_list):
            r0 = regs_list[0]
            n = _counter(r0, N)
            if n == 0 or not _uniform(regs_list, (P, Q, N)):
                return 0
            ma = gather(r0[P], n)
            mb = gather(r0[Q], n)
            if ma is None or mb is None:
                return 0
            totals = _dot_rows_i8(ma, mb)
            sa = ma[:, -1].astype(np.int8)
            sb = mb[:, -1].astype(np.int8)
            p_next = (r0[P] + n) & MASK
            q_next = (r0[Q] + n) & MASK
            for i, regs in enumerate(regs_list):
                last_a, last_b = int(sa[i]), int(sb[i])
                regs[ACC] = (regs[ACC] + int(totals[i])) & MASK
                regs[A] = (last_a * last_b) & MASK
                regs[B] = last_b & MASK
                regs[P] = p_next
                regs[Q] = q_next
                regs[N] = 0
            return n

        return run_many

    loop = KernelLoop.from_body("mac8", body[0].label, body, cycle_model)
    loop.make_run = make_run
    loop.make_run_many = make_run_many
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

    def make_run(mem):
        load_bytes = mem.load_bytes

        def run(regs):
            n = _counter(regs, N)
            if n == 0:
                return 0
            va = np.frombuffer(load_bytes(regs[P], n), dtype=np.uint8).astype(np.int64)
            vb = np.frombuffer(load_bytes(regs[Q], n), dtype=np.uint8).astype(np.int64)
            # Activation nibbles are consumed unsigned (PACT outputs); weight
            # nibbles are sign-extended through the shift pairs.
            lo_w = _signed_nibbles(vb & 0xF)
            hi_w = _signed_nibbles(vb >> 4)
            total = int((va & 0xF) @ lo_w) + int((va >> 4) @ hi_w)
            regs[ACC] = (regs[ACC] + total) & MASK
            last_a, last_b = int(va[-1]), int(vb[-1])
            hi_a = last_a >> 4
            regs[A] = last_a
            regs[B] = last_b
            regs[C] = hi_a
            regs[D] = ((((last_b >> 4) ^ 8) - 8) * hi_a) & MASK
            regs[P] = (regs[P] + n) & MASK
            regs[Q] = (regs[Q] + n) & MASK
            regs[N] = 0
            return n

        return run

    def make_run_many(mems):
        gather, _ = _make_gather(mems)

        def run_many(regs_list):
            r0 = regs_list[0]
            n = _counter(r0, N)
            if n == 0 or not _uniform(regs_list, (P, Q, N)):
                return 0
            ma = gather(r0[P], n)
            mb = gather(r0[Q], n)
            if ma is None or mb is None:
                return 0
            va = ma.astype(np.int64)
            vb = mb.astype(np.int64)
            lo = np.einsum("ij,ij->i", va & 0xF, _signed_nibbles(vb & 0xF))
            hi = np.einsum("ij,ij->i", va >> 4, _signed_nibbles(vb >> 4))
            totals = lo + hi
            p_next = (r0[P] + n) & MASK
            q_next = (r0[Q] + n) & MASK
            for i, regs in enumerate(regs_list):
                last_a, last_b = int(ma[i, -1]), int(mb[i, -1])
                hi_a = last_a >> 4
                regs[ACC] = (regs[ACC] + int(totals[i])) & MASK
                regs[A] = last_a
                regs[B] = last_b
                regs[C] = hi_a
                regs[D] = ((((last_b >> 4) ^ 8) - 8) * hi_a) & MASK
                regs[P] = p_next
                regs[Q] = q_next
                regs[N] = 0
            return n

        return run_many

    loop = KernelLoop.from_body("mac4", body[0].label, body, cycle_model)
    loop.make_run = make_run
    loop.make_run_many = make_run_many
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

    def make_run(mem):
        store_bytes = mem.store_bytes

        def run(regs):
            span = regs[E] - regs[P]
            if span <= 0 or span % 4:
                return 0
            n = span // 4
            store_bytes(regs[P], regs[Z].to_bytes(4, "little") * n)
            regs[P] = regs[E]
            return n

        return run

    def make_run_many(mems):
        stores = [m.store_bytes for m in mems]

        def run_many(regs_list):
            r0 = regs_list[0]
            if not _uniform(regs_list, (P, E)):
                return 0
            span = r0[E] - r0[P]
            if span <= 0 or span % 4:
                return 0
            n = span // 4
            start, end = r0[P], r0[E]
            for store, regs in zip(stores, regs_list):
                store(start, regs[Z].to_bytes(4, "little") * n)
                regs[P] = end
            return n

        return run_many

    loop = KernelLoop.from_body("memset", body[0].label, body, cycle_model)
    loop.make_run = make_run
    loop.make_run_many = make_run_many
    loop.meta = {"P": P, "Z": Z, "E": E}
    return loop


_MATCHERS = (_match_sdotp, _match_mac8, _match_mac4, _match_memset)


def recognize_loop(
    body: List[Instruction], start_index: int, cycle_model
) -> Optional[KernelLoop]:
    """Try to match a basic block against the known loop shapes.

    ``body`` must be a block whose terminator is a ``bne`` back to its own
    first instruction (the caller checks the branch target).  The result is
    unbound: execution binds it through ``make_run`` / ``make_run_many``.
    """
    if body[-1].mnemonic != "bne":
        return None
    for matcher in _MATCHERS:
        loop = matcher(body, cycle_model)
        if loop is not None:
            return loop
    return None


# --------------------------------------------------------------------------- #
# Second-level recognition: the convolution tap loop.
#
# The conv kernel wraps the SDOTP inner product in a "kx" loop over the
# kernel's horizontal taps:
#
#     kx:   mv   P,  AP        ; patch pixel pointer
#           mv   Q,  WP        ; weight tap pointer
#           li   N,  W         ; constant words-per-tap
#     simd: <sdotp inner loop>                    (self-loop block)
#           mv   WP, Q         ; weights are consumed contiguously
#           addi AP, AP, S     ; advance one pixel
#           addi KW, KW, -1
#           bne  KW, zero, kx
#
# Weights are contiguous across taps and the activation rows are strided by
# a compile-time constant, so the *entire* tap loop is one dot product of
# ``KW * W`` words — worth recognizing because per-tap trip counts are tiny
# (``W = ceil(c_in * bits / 32)``) and block dispatch would dominate.
# --------------------------------------------------------------------------- #
def try_tap_superloop(
    entry_body: List[Instruction],
    inner: KernelLoop,
    exit_body: List[Instruction],
    entry_pc: int,
    exit_fallthrough_pc: int,
    cycle_model,
) -> Optional[KernelLoop]:
    """Fuse ``entry block -> sdotp inner loop -> exit block`` into one kernel.

    ``entry_body`` is the fall-through block ending at the inner loop,
    ``exit_body`` the block after it, whose ``bne`` targets ``entry_pc``.
    Returns a :class:`KernelLoop` to attach to the entry block (with
    ``exit_pc`` set past the exit block), or ``None``.
    """
    if inner.kind != "sdotp" or len(entry_body) != 3 or len(exit_body) != 4:
        return None
    m = inner.meta
    P, Q, A, B, ACC, N = m["P"], m["Q"], m["A"], m["B"], m["ACC"], m["N"]
    mv_p, mv_q, li_n = entry_body
    mv_wp, adv_ap, dec, br = exit_body
    AP, WP, KW = mv_p.rs1, mv_wp.rd, dec.rd
    if not (
        _is(mv_p, "add", rd=P, rs2=0)
        and _is(mv_q, "add", rd=Q, rs1=WP, rs2=0)
        and _is(li_n, "addi", rd=N, rs1=0)
        and li_n.imm > 0
        and _is(mv_wp, "add", rs1=Q, rs2=0)
        and _is(adv_ap, "addi", rd=AP, rs1=AP)
        and _is(dec, "addi", rd=KW, rs1=KW, imm=-1)
        and _is(br, "bne", rs1=KW, rs2=0)
    ):
        return None
    inner_regs = {P, Q, A, B, ACC, N}
    outer_regs = (AP, WP, KW)
    if (
        len(set(outer_regs)) != 3
        or 0 in outer_regs
        or inner_regs & set(outer_regs)
    ):
        return None
    W = li_n.imm
    S = adv_ap.imm
    eight_bit = m["eight_bit"]
    tap_bytes = 4 * W

    def make_run(mem):
        load_bytes = mem.load_bytes

        def run(regs):
            kw = _counter(regs, KW)
            if kw == 0:
                return 0
            ap = regs[AP]
            raw_b = load_bytes(regs[WP], tap_bytes * kw)
            if S == tap_bytes:
                raw_a = load_bytes(ap, tap_bytes * kw)
            else:
                raw_a = b"".join(
                    load_bytes((ap + j * S) & MASK, tap_bytes) for j in range(kw)
                )
            if eight_bit:
                va = np.frombuffer(raw_a, dtype=np.int8).astype(np.int64)
                vb = np.frombuffer(raw_b, dtype=np.int8).astype(np.int64)
                total = int(va @ vb)
            else:
                va = np.frombuffer(raw_a, dtype=np.uint8).astype(np.int64)
                vb = np.frombuffer(raw_b, dtype=np.uint8).astype(np.int64)
                total = int(
                    _signed_nibbles(va & 0xF) @ _signed_nibbles(vb & 0xF)
                    + _signed_nibbles(va >> 4) @ _signed_nibbles(vb >> 4)
                )
            regs[ACC] = (regs[ACC] + total) & MASK
            regs[A] = int.from_bytes(raw_a[-4:], "little")
            regs[B] = int.from_bytes(raw_b[-4:], "little")
            q_final = (regs[WP] + tap_bytes * kw) & MASK
            regs[P] = (ap + (kw - 1) * S + tap_bytes) & MASK
            regs[Q] = q_final
            regs[WP] = q_final
            regs[AP] = (ap + kw * S) & MASK
            regs[N] = 0
            regs[KW] = 0
            return kw

        return run

    def make_run_many(mems):
        gather, _ = _make_gather(mems)

        def run_many(regs_list):
            r0 = regs_list[0]
            kw = _counter(r0, KW)
            if kw == 0 or not _uniform(regs_list, (AP, WP, KW)):
                return 0
            ap = r0[AP]
            total_bytes = tap_bytes * kw
            mb = gather(r0[WP], total_bytes)
            if mb is None:
                return 0
            if S == tap_bytes:
                ma = gather(ap, total_bytes)
                if ma is None:
                    return 0
            else:
                parts = []
                for j in range(kw):
                    part = gather((ap + j * S) & MASK, tap_bytes)
                    if part is None:
                        return 0
                    parts.append(part)
                ma = np.concatenate(parts, axis=1)
            totals = _dot_rows_i8(ma, mb) if eight_bit else _dot_rows_nib(ma, mb)
            q_final = (r0[WP] + total_bytes) & MASK
            p_final = (ap + (kw - 1) * S + tap_bytes) & MASK
            ap_final = (ap + kw * S) & MASK
            for i, regs in enumerate(regs_list):
                regs[ACC] = (regs[ACC] + int(totals[i])) & MASK
                regs[A] = int.from_bytes(ma[i, -4:].tobytes(), "little")
                regs[B] = int.from_bytes(mb[i, -4:].tobytes(), "little")
                regs[P] = p_final
                regs[Q] = q_final
                regs[WP] = q_final
                regs[AP] = ap_final
                regs[N] = 0
                regs[KW] = 0
            return kw

        return run_many

    counts = {"add": 3, "addi": 3 + 3 * W, "bne": 1 + W, "lw": 2 * W}
    counts["sdotp8" if eight_bit else "sdotp4"] = W
    bt, bnt = cycle_model.branch_taken, cycle_model.branch_not_taken
    straight = (
        sum(cycle_model.cost(i) for i in entry_body)
        + W * inner.straight_cycles_per_iter
        + (W - 1) * bt
        + bnt
        + sum(cycle_model.cost(i) for i in exit_body[:-1])
    )
    loop = KernelLoop(
        "sdotp-taps",
        entry_body[0].label,
        instrs_per_iter=len(entry_body) + W * inner.instrs_per_iter + len(exit_body),
        straight_cycles_per_iter=straight,
        counts_per_iter=counts,
        exit_pc=exit_fallthrough_pc,
    )
    loop.make_run = make_run
    loop.make_run_many = make_run_many
    loop.meta = {
        "P": P, "Q": Q, "A": A, "B": B, "ACC": ACC, "N": N,
        "AP": AP, "WP": WP, "KW": KW, "W": W, "S": S, "eight_bit": eight_bit,
    }
    return loop


# --------------------------------------------------------------------------- #
# Third-level recognition: the whole per-output-channel loop.
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
# and per-mnemonic statistics stay bit-exact.
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
    instrs = []
    if ins.mnemonic == "addi" and ins.rs1 == 0 and ins.rd != rd:
        scratch, value = ins.rd, ins.imm
        instrs.append(ins)
        w.i += 1
    elif ins.mnemonic == "lui" and ins.rd != rd:
        scratch, value = ins.rd, ins.imm
        instrs.append(ins)
        w.i += 1
        p = w.peek()
        if p is not None and _is(p, "addi", rd=scratch, rs1=scratch):
            value += p.imm
            instrs.append(p)
            w.i += 1
    else:
        raise _NoMatch
    add = w.take("add", rd=rd, rs1=rd, rs2=scratch)
    instrs.append(add)
    return value, (scratch, value & MASK), tuple(instrs)


def try_channel_superloop(
    program: List[Instruction], head: int, cycle_model
) -> Optional[KernelLoop]:
    """Match the full conv/fc output-channel loop starting at index ``head``.

    Returns a :class:`KernelLoop` (kind ``conv-chan`` / ``fc-chan``) with
    ``aux`` side-path counters, or ``None``.  Matching is strict: any
    deviation from the exact codegen shape declines and the simulator falls
    back to the per-tap kernels, which are always bit-exact.
    """
    try:
        return _match_channel_loop(program, head, cycle_model)
    except _NoMatch:
        return None


def _match_channel_loop(program, head, cycle_model):
    bt, bnt = cycle_model.branch_taken, cycle_model.branch_not_taken
    cost = cycle_model.cost
    counts: Dict[str, int] = {}
    ipi = 0
    straight = 0

    def add(ins, mult=1, charge=True):
        nonlocal ipi, straight
        counts[ins.mnemonic] = counts.get(ins.mnemonic, 0) + mult
        ipi += mult
        if charge:
            straight += mult * cost(ins)

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
    ROWP = WTAP = TAPP = KH = KW_ = PB = -1
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
        KW_, kw = li_kw.rd, li_kw.imm
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
        ins = w.peek()
        if ins is not None and ins.mnemonic == "addi" and ins.rs1 == 0:
            w.i += 1
            T1, act_addr = ins.rd, ins.imm & MASK
            add(ins)
        elif ins is not None and ins.mnemonic == "lui":
            w.i += 1
            T1, act_addr = ins.rd, ins.imm & MASK
            add(ins)
            p = w.peek()
            if p is not None and _is(p, "addi", rd=T1, rs1=T1):
                w.i += 1
                act_addr = (act_addr + p.imm) & MASK
                add(p)
        else:
            raise _NoMatch
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
    for ins in body[:-1]:
        add(ins, T * words)
    add(body[-1], T * words, charge=False)
    straight += T * ((words - 1) * bt + bnt)
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
        for ins in pix_instrs:
            add(ins, T)
        dec_kw = w.take("addi", rd=KW_, rs1=KW_, imm=-1)
        add(dec_kw, T)
        br_kx = w.take("bne", rs1=KW_, rs2=0)
        if (w.i - 1) + br_kx.imm // 4 != kx_head:
            raise _NoMatch
        add(br_kx, T, charge=False)
        straight += kh * ((kw - 1) * bt + bnt)
        row_stride, t6_ky, row_instrs = _take_addi_big(w, ROWP)
        for ins in row_instrs:
            add(ins, kh)
        dec_kh = w.take("addi", rd=KH, rs1=KH, imm=-1)
        add(dec_kh, kh)
        br_ky = w.take("bne", rs1=KH, rs2=0)
        if (w.i - 1) + br_ky.imm // 4 != ky_head:
            raise _NoMatch
        add(br_ky, kh, charge=False)
        straight += (kh - 1) * bt + bnt
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
        straight += 2 * bt  # common path: both clamps skipped (branch taken)
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
        straight += bnt  # common-path convention: charge the even fall-through
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
    for ins in oc_instrs:
        add(ins)
    dec = w.take("addi", imm=-1)
    CNTR = dec.rd
    if dec.rs1 != CNTR:
        raise _NoMatch
    add(dec)
    backedge = w.take("bne", rs1=CNTR, rs2=0)
    if (w.i - 1) + backedge.imm // 4 != head:
        raise _NoMatch
    add(backedge, charge=False)  # commit charges the back-branch analytically
    exit_pc = 4 * w.i

    # ----- register-role sanity: control regs pairwise distinct, scratch
    # regs disjoint from them (requant result may alias the inner scratch
    # registers; ordered final-state updates below handle that). ----- #
    control = [CNTR, BP, WP, OUTP, ACC, T1, T2, N]
    if conv:
        control += [PB, ROWP, WTAP, TAPP, KH, KW_]
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

    kind_mode = (
        ("sd8" if m.get("eight_bit") else "sd4")
        if inner.kind == "sdotp"
        else inner.kind
    )
    uniform_regs = [CNTR, BP, WP, OUTP]
    if conv:
        uniform_regs.append(PB)
    if requant:
        uniform_regs += [MUL, RND, LEV]
    if out_bits == 4:
        uniform_regs.append(PAR)
    A, B = m["A"], m["B"]
    C = m.get("C", -1)
    D = m.get("D", -1)
    mac4 = inner.kind == "mac4"

    def make_run_many(mems):
        gather, scatter = _make_gather(mems)
        F = len(mems)
        lev_bit = 0x8000_0000

        def run_many(regs_list, cnts, aux_base):
            r0 = regs_list[0]
            n = _counter(r0, CNTR)
            if n == 0 or not _uniform(regs_list, uniform_regs):
                return 0, None
            bp, wp, outp = r0[BP], r0[WP], r0[OUTP]
            bias_g = gather(bp, 4 * n)
            if bias_g is None:
                return 0, None
            spans = [(bp, bp + 4 * n)]
            if conv:
                pb = r0[PB]
                taps = []
                for ky in range(kh):
                    row = (pb + ky * row_stride) & MASK
                    for kx in range(kw):
                        a = (row + kx * pixel_stride) & MASK
                        g = gather(a, span_read)
                        if g is None:
                            return 0, None
                        spans.append((a, a + span_read))
                        taps.append(g)
                act = np.concatenate(taps, axis=1) if T > 1 else taps[0]
            else:
                act = gather(act_addr, span_read)
                if act is None:
                    return 0, None
                spans.append((act_addr, act_addr + span_read))
            wext = (n - 1) * oc_stride + (T - 1) * tap_adv + span_read
            wg = gather(wp, wext)
            if wg is None:
                return 0, None
            spans.append((wp, wp + wext))
            if out_bits == 32:
                out_len = 4 * n
            elif out_bits == 8:
                out_len = n
            else:
                p0 = 1 if r0[PAR] else 0
                out_len = (p0 + n) // 2
            # The interleaved store-then-read of the interpreter is only
            # congruent with compute-all-then-store-all when the output
            # span is disjoint from every gathered input span.
            for lo, hi in spans:
                if outp < hi and lo < outp + out_len:
                    return 0, None

            w4 = np.lib.stride_tricks.as_strided(
                wg,
                shape=(F, n, T, span_read),
                strides=(wg.strides[0], oc_stride, tap_adv, 1),
            )
            act3 = act.reshape(F, T, span_read)
            if kind_mode in ("sd8", "mac8"):
                va = act3.view(np.int8).astype(np.int64)
                vw = w4.view(np.int8).astype(np.int64)
                dots = np.einsum("fts,fnts->fn", va, vw)
            elif kind_mode == "sd4":
                va = act3.astype(np.int64)
                vw = w4.astype(np.int64)
                dots = np.einsum(
                    "fts,fnts->fn",
                    _signed_nibbles(va & 0xF), _signed_nibbles(vw & 0xF),
                ) + np.einsum(
                    "fts,fnts->fn",
                    _signed_nibbles(va >> 4), _signed_nibbles(vw >> 4),
                )
            else:  # mac4: unsigned activation nibbles, signed weight nibbles
                va = act3.astype(np.int64)
                vw = w4.astype(np.int64)
                dots = np.einsum(
                    "fts,fnts->fn", va & 0xF, _signed_nibbles(vw & 0xF)
                ) + np.einsum(
                    "fts,fnts->fn", va >> 4, _signed_nibbles(vw >> 4)
                )
            bias = np.ascontiguousarray(bias_g).view("<i4").astype(np.int64)
            acc32 = (bias + dots) & MASK

            extras = [0] * F
            if requant:
                mult, rnd, lev_raw = r0[MUL], r0[RND], r0[LEV]
                lev_s = lev_raw - (1 << 32) if lev_raw & lev_bit else lev_raw
                t = (acc32 * mult + rnd) & MASK
                s = t - ((t & lev_bit) << 1)
                if shift:
                    s = s >> shift
                neg = s < 0
                s = np.where(neg, 0, s)
                hi_clamp = s > lev_s
                vals = np.where(hi_clamp, lev_raw, s)
                n_neg = neg.sum(axis=1)
                n_hi = hi_clamp.sum(axis=1)
            else:
                vals = acc32

            # ----- pack + store ----- #
            if out_bits == 32:
                byts = vals.astype("<u4").view(np.uint8)
            elif out_bits == 8:
                byts = (vals & 0xFF).astype(np.uint8)
            else:
                if p0:
                    pend0 = np.array(
                        [regs[PEND] for regs in regs_list], dtype=np.int64
                    )
                    extended = np.concatenate([pend0[:, None], vals], axis=1)
                else:
                    extended = vals
                if out_len:
                    pairs = extended[:, : 2 * out_len]
                    lob = pairs[:, 0::2]
                    hib = pairs[:, 1::2]
                    byts = (((hib << 4) | lob) & 0xFF).astype(np.uint8)
            if out_len and not scatter(outp, byts):
                return 0, None

            # ----- aux hit counters / extra executed instructions ----- #
            ax = 0
            if requant:
                for f in range(F):
                    a_, b_ = int(n_neg[f]), int(n_hi[f])
                    c = cnts[f]
                    c[aux_base] += a_
                    c[aux_base + 1] += b_
                    extras[f] = a_ + b_
                ax = 2
            if out_bits == 4:
                n_odd = out_len
                n_even = n - n_odd
                extra4 = 3 * n_even + 5 * n_odd
                for f in range(F):
                    c = cnts[f]
                    c[aux_base + ax] += n_even
                    c[aux_base + ax + 1] += n_odd
                    extras[f] += extra4

            # ----- final architectural state, in execution order ----- #
            last_act = act3[:, -1, :]
            last_w = w4[:, -1, -1, :]
            if kind_mode in ("sd8", "sd4"):
                a_fin = np.ascontiguousarray(last_act[:, -4:]).view("<u4").ravel()
                b_fin = np.ascontiguousarray(last_w[:, -4:]).view("<u4").ravel()
            elif kind_mode == "mac8":
                la = last_act[:, -1].astype(np.int8).astype(np.int64)
                lb = last_w[:, -1].astype(np.int8).astype(np.int64)
                a_fin = (la * lb) & MASK
                b_fin = lb & MASK
            else:
                la = last_act[:, -1].astype(np.int64)
                lb = last_w[:, -1].astype(np.int64)
                a_fin = la
                b_fin = lb
                c_fin = la >> 4
                d_fin = ((((lb >> 4) ^ 8) - 8) * (la >> 4)) & MASK
            t2_final = (wp + (n - 1) * oc_stride + T * tap_adv) & MASK
            ups = [(T2, t2_final), (N, 0), (A, a_fin), (B, b_fin)]
            if mac4:
                ups += [(C, c_fin), (D, d_fin)]
            ups.append((ACC, acc32[:, -1]))
            if conv:
                row_last = (pb + (kh - 1) * row_stride) & MASK
                ups.append((T1, (row_last + (kw - 1) * pixel_stride
                                 + tap_adv) & MASK))
                ups.append((WTAP, t2_final))
                ups.append((TAPP, (row_last + kw * pixel_stride) & MASK))
                if t6_kx is not None:
                    ups.append(t6_kx)
                ups.append((KW_, 0))
                ups.append((ROWP, (pb + kh * row_stride) & MASK))
                if t6_ky is not None:
                    ups.append(t6_ky)
                ups.append((KH, 0))
            else:
                ups.append((T1, (act_addr + tap_adv) & MASK))
            if requant:
                ups.append((RES, vals[:, -1]))
            if out_bits == 4:
                pend_last = 2 * ((p0 + n - 1) // 2)
                ups.append((PEND, extended[:, pend_last]))
                ups.append((PAR, (p0 + n) & 1))
                if out_len:
                    ups.append(
                        (T5, (((hib[:, -1] << 4) & MASK) | lob[:, -1]))
                    )
            ups.append((OUTP, (outp + out_len) & MASK))
            ups.append((BP, (bp + 4 * n) & MASK))
            if t6_tail is not None:
                ups.append(t6_tail)
            ups.append((WP, (wp + n * oc_stride) & MASK))
            ups.append((CNTR, 0))
            for f, regs in enumerate(regs_list):
                for reg, v in ups:
                    regs[reg] = int(v[f]) if isinstance(v, np.ndarray) else v
            return n, extras

        return run_many

    def make_run(mem):
        rm = make_run_many([mem])

        def run(regs, cnt, aux_base):
            iters, extras = rm([regs], [cnt], aux_base)
            return iters, (extras[0] if iters else 0)

        return run

    loop = KernelLoop(
        "conv-chan" if conv else "fc-chan",
        program[head].label,
        instrs_per_iter=ipi,
        straight_cycles_per_iter=straight,
        counts_per_iter=counts,
        exit_pc=exit_pc,
    )
    loop.make_run = make_run
    loop.make_run_many = make_run_many
    loop.aux = tuple(aux)
    loop.wants_cnt = True
    loop.meta = {
        "mode": kind_mode, "kh": kh, "kw": kw, "words": words,
        "span": span_read, "tap_adv": tap_adv, "out_bits": out_bits,
        "requant": requant, "shift": shift, "oc_stride": oc_stride,
        "pixel_stride": pixel_stride, "row_stride": row_stride,
    }
    return loop


def attach_channel_superloops(blocks, program: List[Instruction], cycle_model):
    """Attach channel superloops to the head blocks of matching oc loops.

    Called by the JIT template build after :func:`build_blocks` has
    attached the per-tap kernels.  Candidates are
    backward ``bne`` targets whose block opens with the bias ``lw``; the
    strict matcher declines everything else.
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
        if loop is not None:
            head.kernel = loop
