"""Layer-nest kernels: a whole conv or maxpool layer per dispatch.

A conv layer's channel loop (matched by :mod:`repro.hw.sim.kernels`)
covers every output channel of one output *pixel*, and the 2x2 maxpool
byte loop (data-dependent compare diamonds) one output pixel's bytes.
Codegen wraps both in the
same rigid row/column nest (:func:`repro.deploy.codegen.emit_conv_layer`,
:func:`~repro.deploy.codegen.emit_maxpool_layer`)::

    oy:   mv   PB, ROWBASE          ; patch base of the row's first pixel
          li   OXC, out_w
    ox:   <per-pixel set-up>        ; conv: li weights/bias/count (+ INT4 init)
          <per-pixel body>          ; conv: channel loop + INT4 flush
                                    ; pool: byte loop over four window loads
          <advance OUTP, PB>
          addi OXC, OXC, -1
          bne  OXC, zero, ox
          [addi OUTP, OUTP, row_slack]
          addi ROWBASE, ROWBASE, sy
          addi OYC, OYC, -1
          bne  OYC, zero, oy

Every trip count and stride is an immediate, so the kernels attached to
the ``oy`` block run all remaining rows of the layer, for every frame of a
lockstep batch, as a few numpy ops over the ``(frames, dmem)`` matrix: an
im2col gather over ``(oy, ox, ky, kx)`` for ``conv-nest`` (evaluated by the
layer's :class:`~repro.hw.sim.kernels.ChannelSpec`) and one gather of the
four window loads for ``pool-nest``.  The gather indices, output views and
final register values come from each kernel's plan, built once per
register tuple.

Statistics stay bit-exact: one nest iteration is one output row, whose fixed
instructions, cycles and mnemonics are tallied at match time; the
data-dependent paths — requant clamps summed over pixels, and every
maxpool "new max" (a not-taken ``bge`` plus a ``mv``) — go through the
kernel's ``aux`` hit slots.  The INT4 store parity restarts at every pixel,
so its odd/even paths and the flush are fixed per pixel.  Final registers
are those of the last pixel, in execution order.  A nest declines (the
generic blocks take over; the layer's channel loop is never a standalone
kernel) when its control registers differ across frames, a span leaves
dmem, or the layer's output overlaps any input, weight or bias span it
reads.  Frames that hold different weight bytes make it decline too; each
frame then runs the nest alone.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..isa import Instruction
from .kernels import (
    MASK,
    KernelLoop,
    _counter,
    _dmem_offset,
    _extent,
    _NoMatch,
    _offsets,
    _opt_addi_big,
    _Plans,
    _resolve,
    _take_addi_big,
    _take_li,
    _Tally,
    _uniform,
    _Walk,
    _write_regs,
    count_clamps,
    try_channel_superloop,
)


def _take_row_head(w: _Walk, tally: _Tally):
    """``mv PB, ROWBASE; li OXC, cols`` -> ``(PB, ROWBASE, OXC, cols)``."""
    mv_pb = w.take("add", rs2=0)
    li_ox = w.take("addi", rs1=0)
    if li_ox.imm <= 0:
        raise _NoMatch
    tally.add(mv_pb)
    tally.add(li_ox)
    return mv_pb.rd, mv_pb.rs1, li_ox.rd, li_ox.imm


def _take_back_branch(w: _Walk, tally: _Tally, counter: int, target: int) -> None:
    """``addi CNT, CNT, -1; bne CNT, zero, target`` (branch cycles left out)."""
    tally.add(w.take("addi", rd=counter, rs1=counter, imm=-1))
    br = w.take("bne", rs1=counter, rs2=0)
    if (w.i - 1) + br.imm // 4 != target:
        raise _NoMatch
    tally.add(br, charge=False)


def _take_row_tail(w: _Walk, tally: _Tally, OUTP: int, ROWBASE: int, head: int):
    """Row tail after the ox loop; returns ``(row_slack, sy, OYC, t6s)``."""
    row_slack, t6_slack, slack_instrs = _opt_addi_big(w, OUTP)
    sy, t6_sy, sy_instrs = _take_addi_big(w, ROWBASE)
    tally.add_all(slack_instrs + sy_instrs)
    OYC = w.peek().rd if w.peek() is not None else 0
    _take_back_branch(w, tally, OYC, head)
    return row_slack, sy, OYC, [t for t in (t6_slack, t6_sy) if t is not None]


def _finish(tally: _Tally, px: _Tally, cols: int, bt: int, bnt: int) -> None:
    """Fold ``cols`` pixels and the ox back-branch into the row tally."""
    tally.add_path(px.instrs, px.cycles, px.counts, cols)
    tally.cycles += (cols - 1) * bt + bnt


class _Grid:
    """The oy/ox nest around a layer's per-pixel body: registers, strides
    and the register updates of its own pixel and row tails."""

    def __init__(self, PB, ROWBASE, OXC, OYC, OUTP, cols, sx, sy, ox, oy,
                 t6_px, t6_row):
        self.PB, self.ROWBASE, self.OXC, self.OYC, self.OUTP = PB, ROWBASE, OXC, OYC, OUTP
        self.cols, self.sx, self.sy, self.ox, self.oy = cols, sx, sy, ox, oy
        self.t6_px, self.t6_row = t6_px, t6_row  # large-stride scratch updates

    def geometry(self, rows: int):
        """``(rows, cols, sy, sx, oy, ox)`` for :meth:`ChannelSpec.evaluate`."""
        return rows, self.cols, self.sy, self.sx, self.oy, self.ox

    def tail_updates(self, rows: int, rowbase: int, outp: int) -> list:
        """Updates of the tails after the last pixel, in execution order."""
        return self.t6_px + [(self.OXC, 0)] + self.t6_row + [
            (self.OUTP, (outp + rows * self.oy) & MASK),
            (self.PB, (rowbase + (rows - 1) * self.sy + self.cols * self.sx) & MASK),
            (self.ROWBASE, (rowbase + rows * self.sy) & MASK),
            (self.OYC, 0),
        ]


def _distinct(regs, scratch=()) -> None:
    if len(set(regs)) != len(regs) or 0 in regs or set(scratch) & set(regs):
        raise _NoMatch


def _match_conv_nest(program: List[Instruction], head: int, by_pc: dict,
                     cycle_model) -> KernelLoop:
    bt, bnt = cycle_model.branch_taken, cycle_model.branch_not_taken
    w = _Walk(program, head)
    row = _Tally(cycle_model)
    PB, ROWBASE, OXC, cols = _take_row_head(w, row)
    ox_head = w.i
    px = _Tally(cycle_model)
    WP, wp, wp_instrs = _take_li(w)
    BP, bp, bp_instrs = _take_li(w)
    CNTR, n, n_instrs = _take_li(w)
    px.add_all(wp_instrs + bp_instrs + n_instrs)
    if not 0 < n < 0x8000_0000:
        raise _NoMatch
    init = ()
    if 4 * w.i not in by_pc:  # INT4 output: ``li PEND, 0; li PAR, 0`` first
        init = (w.take("addi", rs1=0, imm=0), w.take("addi", rs1=0, imm=0))
    chan = try_channel_superloop(program, w.i, cycle_model)
    if chan is None or chan.kind != "conv-chan":
        raise _NoMatch
    spec = chan.meta["spec"]
    if (spec.CNTR, spec.BP, spec.WP, spec.PB) != (CNTR, BP, WP, PB):
        raise _NoMatch
    if spec.out_bits == 4:
        if [i.rd for i in init] != [spec.PEND, spec.PAR]:
            raise _NoMatch
    elif init:
        raise _NoMatch
    px.add_all(init)
    w.i = chan.exit_pc // 4

    px.add_loop(chan, n, bt, bnt)
    flush = False
    if spec.out_bits == 4:
        # Parity restarts at zero every pixel: the odd/even store paths and
        # the flush are fixed per pixel, not data-dependent.
        n_odd = n // 2
        px.add_path(*spec.parity_aux[0], n - n_odd)
        px.add_path(*spec.parity_aux[1], n_odd)
        beq = w.take("beq", rs1=spec.PAR, rs2=0, imm=16)
        flush_path = (
            w.take("sb", rs1=spec.OUTP, rs2=spec.PEND, imm=0),
            w.take("addi", rd=spec.OUTP, rs1=spec.OUTP, imm=1),
            w.take("addi", rd=spec.PAR, rs1=0, imm=0),
        )
        px.add(beq, charge=False)
        flush = n % 2 == 1
        if flush:
            px.cycles += bnt
            px.add_all(flush_path)
        else:
            px.cycles += bt
    pixel_slack, t6_slack, slack_instrs = _opt_addi_big(w, spec.OUTP)
    sx, t6_sx, sx_instrs = _take_addi_big(w, PB)
    px.add_all(slack_instrs + sx_instrs)
    _take_back_branch(w, px, OXC, ox_head)
    _finish(row, px, cols, bt, bnt)
    row_slack, sy, OYC, t6_row = _take_row_tail(w, row, spec.OUTP, ROWBASE, head)

    nest_regs = [ROWBASE, OXC, OYC]
    t6_px = [t for t in (t6_slack, t6_sx) if t is not None]
    t6_regs = {t[0] for t in t6_px + t6_row}
    _distinct(sorted(spec.control) + nest_regs, spec.scratch | t6_regs)
    if min(pixel_slack, row_slack) < 0 or sx <= 0 or sy <= 0:
        raise _NoMatch

    if spec.out_bits == 32:
        out_len = 4 * n
    elif spec.out_bits == 8:
        out_len = n
    else:
        out_len = (n + 1) // 2
    ox = out_len + pixel_slack
    grid = _Grid(PB, ROWBASE, OXC, OYC, spec.OUTP, cols, sx, sy, ox,
                 cols * ox + row_slack, t6_px, t6_row)
    uniform = [OYC, ROWBASE, spec.OUTP]
    if spec.requant:
        uniform += [spec.MUL, spec.RND, spec.LEV]

    def tail_plan(rows, rowbase, outp):
        """The nest's own register updates after the channel loop's."""
        ups = [(spec.PAR, 0)] if flush else []
        return _resolve(ups + grid.tail_updates(rows, rowbase, outp))[0]

    tails = _Plans()

    def make_run_many(dm):
        def run_many(regs_list, cnts, aux_base):
            r0 = regs_list[0]
            rows = _counter(r0, OYC)
            if rows == 0 or not _uniform(regs_list, uniform):
                return 0, None
            rowbase, outp = r0[ROWBASE], r0[spec.OUTP]
            clamps = spec.evaluate(
                dm, regs_list, n, bp, wp, rowbase, outp,
                grid=grid.geometry(rows), flush=flush,
            )
            if clamps is None:
                return 0, None
            # Applied after the channel loop's updates, so the last update
            # of a register still wins.
            _write_regs(regs_list, tails.get((rows, rowbase, outp), tail_plan))
            return rows, count_clamps(cnts, aux_base, clamps)

        return run_many

    loop = row.kernel("conv-nest", program[head].label, 4 * w.i)
    loop.make_run_many = make_run_many
    loop.aux = spec.clamp_aux
    return loop


def _match_pool_nest(program: List[Instruction], head: int, by_pc: dict,
                     cycle_model) -> KernelLoop:
    bt, bnt = cycle_model.branch_taken, cycle_model.branch_not_taken
    w = _Walk(program, head)
    row = _Tally(cycle_model)
    PB, ROWBASE, OXC, cols = _take_row_head(w, row)
    ox_head = w.i
    px = _Tally(cycle_model)
    li_cnt = w.take("addi", rs1=0)
    CNT, nbytes = li_cnt.rd, li_cnt.imm
    mv_ip = w.take("add", rs1=PB, rs2=0)
    mv_op = w.take("add", rs2=0)
    IP, OP, OUTP = mv_ip.rd, mv_op.rd, mv_op.rs1
    px.add_all((li_cnt, mv_ip, mv_op))
    if nbytes <= 0:
        raise _NoMatch

    # ----- byte loop: four window loads, compare diamonds, one store ----- #
    ch_head = w.i
    byte = _Tally(cycle_model)
    load = w.peek().mnemonic if w.peek() is not None else ""
    if load not in ("lb", "lbu"):
        raise _NoMatch
    loads = [w.take(load, rs1=IP) for _ in range(4)]
    R = [ld.rd for ld in loads]
    offsets = [ld.imm for ld in loads]
    byte.add_all(loads)
    compares = 0

    def take_max(acc: int, other: int) -> Instruction:
        """``bge acc, other, +8; mv acc, other`` -> the ``mv``."""
        nonlocal compares
        byte.add(w.take("bge", rs1=acc, rs2=other, imm=8), charge=False)
        compares += 1
        return w.take("add", rd=acc, rs1=other, rs2=0)

    if load == "lb":  # INT8: signed running max in R[0]
        mvs = [take_max(R[0], r) for r in R[1:]]
        st = w.take("sb", rs1=OP, rs2=R[0], imm=0)
        byte.add(st)
        data = list(R)
        LO = HI = TMP = -1
    else:  # INT4: low and high nibble maxima, repacked
        first = w.take("andi", rs1=R[0], imm=0xF)
        LO = first.rd
        byte.add(first)
        mvs = []
        TMP = w.peek().rd if w.peek() is not None else 0
        for r in R[1:]:
            byte.add(w.take("andi", rd=TMP, rs1=r, imm=0xF))
            mvs.append(take_max(LO, TMP))
        first = w.take("srli", rs1=R[0], imm=4)
        HI = first.rd
        byte.add(first)
        for r in R[1:]:
            byte.add(w.take("srli", rd=TMP, rs1=r, imm=4))
            mvs.append(take_max(HI, TMP))
        byte.add_all((
            w.take("slli", rd=HI, rs1=HI, imm=4),
            w.take("or", rd=LO, rs1=LO, rs2=HI),
            w.take("sb", rs1=OP, rs2=LO, imm=0),
        ))
        data = R + [LO, HI, TMP]
    byte.cycles += compares * bt  # common path: every compare keeps the max
    byte.add_all((
        w.take("addi", rd=IP, rs1=IP, imm=1),
        w.take("addi", rd=OP, rs1=OP, imm=1),
    ))
    _take_back_branch(w, byte, CNT, ch_head)
    px.add_path(byte.instrs, byte.cycles, byte.counts, nbytes)
    px.cycles += (nbytes - 1) * bt + bnt

    out_ps, t6_ops, ops_instrs = _take_addi_big(w, OUTP)
    sx, t6_sx, sx_instrs = _take_addi_big(w, PB)
    px.add_all(ops_instrs + sx_instrs)
    _take_back_branch(w, px, OXC, ox_head)
    _finish(row, px, cols, bt, bnt)
    row_slack, sy, OYC, t6_row = _take_row_tail(w, row, OUTP, ROWBASE, head)

    control = [PB, ROWBASE, OXC, OYC, CNT, IP, OP, OUTP]
    t6_px = [t for t in (t6_ops, t6_sx) if t is not None]
    _distinct(control, data + [t[0] for t in t6_px + t6_row])
    _distinct(data)
    if out_ps < nbytes or row_slack < 0 or sx <= 0 or sy <= 0 or min(offsets) < 0:
        raise _NoMatch
    oy = cols * out_ps + row_slack
    grid = _Grid(PB, ROWBASE, OXC, OYC, OUTP, cols, sx, sy, out_ps, oy,
                 t6_px, t6_row)
    signed = load == "lb"
    mv_cost = cycle_model.cost(mvs[0])

    def plan(base, size, rows, rowbase, outp):
        """``(window index, output view, updates)`` of one nest entry:
        the ``(4, rows, cols, nbytes)`` dmem columns of the four window
        loads, and the last byte's register updates with per-frame names."""
        geom = ((rows, cols, nbytes), (sy, sx, 1))
        o_geom = ((rows, cols, nbytes), (oy, out_ps, 1))
        lo = rowbase + min(offsets)
        hi = rowbase + max(offsets) + _extent(*geom)
        o_extent = _extent(*o_geom)
        if outp < hi and lo < outp + o_extent:
            return None
        offs = [_dmem_offset(base, size, rowbase + o, _extent(*geom))
                for o in offsets]
        o_off = _dmem_offset(base, size, outp, o_extent)
        if o_off is None or None in offs:
            return None
        index = np.array(offs)[:, None, None, None] + _offsets(*geom)

        # ----- last byte of the last pixel, in execution order ----- #
        ups = [(r, f"R{k}") for k, r in enumerate(R)]
        if signed:
            ups.append((R[0], "BEST"))
        else:
            ups += [(TMP, "TMP"), (HI, "HI"), (LO, "LO")]
        pb_last = rowbase + (rows - 1) * sy + (cols - 1) * sx
        outp_last = outp + (rows - 1) * oy + (cols - 1) * out_ps
        ups += [
            (IP, (pb_last + nbytes) & MASK),
            (OP, (outp_last + nbytes) & MASK),
            (CNT, 0),
        ]
        ups += grid.tail_updates(rows, rowbase, outp)
        return (index, (o_off,) + o_geom) + _resolve(ups)

    plans = _Plans()

    def make_run_many(dm):
        def run_many(regs_list, cnts, aux_base):
            r0 = regs_list[0]
            rows = _counter(r0, OYC)
            if rows == 0 or not _uniform(regs_list, (OYC, ROWBASE, OUTP)):
                return 0, None
            entry = plans.get((dm.base, dm.size, rows, r0[ROWBASE], r0[OUTP]), plan)
            if entry is None:
                return 0, None
            index, out, consts, per_frame = entry
            # (frames, window load, rows, cols, bytes), INT4 bytes split
            # into (low, high) nibble lanes.
            wins = dm.mat.take(index, axis=1)
            if signed:
                best, extras = _running_max(wins.view(np.int8))
                dm.view(*out)[...] = best
            else:
                best, extras = _running_max(_NIBBLES.take(wins, axis=0))
                dm.view(*out)[...] = (best[..., 1] << 4) | best[..., 0]
            for c, e in zip(cnts, extras):
                c[aux_base] += e

            last = wins[:, :, -1, -1, -1].tolist()
            values = {}
            if signed:
                last = [[b - ((b & 0x80) << 1) for b in bs] for bs in last]
                values["BEST"] = [max(bs) & MASK for bs in last]
                for k in range(4):
                    values[f"R{k}"] = [bs[k] & MASK for bs in last]
            else:
                for k in range(4):
                    values[f"R{k}"] = [bs[k] for bs in last]
                values["TMP"] = [bs[3] >> 4 for bs in last]
                his = [max(b >> 4 for b in bs) << 4 for bs in last]
                values["HI"] = his
                values["LO"] = [h | max(b & 0xF for b in bs)
                                for h, bs in zip(his, last)]
            _write_regs(regs_list, consts, per_frame, values)
            return rows, extras

        return run_many

    loop = row.kernel("pool-nest", program[head].label, 4 * w.i)
    loop.make_run_many = make_run_many
    # A "new max": the bge falls through and the mv runs.
    loop.aux = ((1, (bnt - bt) + mv_cost, {"add": 1}),)
    return loop


# Byte value -> its (low, high) nibbles.
_NIBBLES = np.stack((np.arange(256) & 0xF, np.arange(256) >> 4), axis=1).astype(np.uint8)


def _running_max(vals):
    """Running maximum over the four window loads (axis 1) of
    ``(frames, 4, ...)`` values, and per frame how often it moved (a load
    greater than the maximum so far: one "new max")."""
    moved = np.empty((len(vals), 3) + vals.shape[2:], dtype=bool)
    best = vals[:, 0]
    for k in (1, 2, 3):
        np.greater(vals[:, k], best, out=moved[:, k - 1])
        best = np.maximum(best, vals[:, k])
    return best, moved.reshape(len(vals), -1).sum(axis=1).tolist()


_NEST_MATCHERS = (_match_conv_nest, _match_pool_nest)


def attach_layer_nests(blocks, program: List[Instruction], cycle_model) -> None:
    """Attach ``conv-nest`` / ``pool-nest`` kernels to layer ``oy`` blocks.

    Called by the JIT template build.  A conv nest matches its
    ``conv-chan`` loop itself; that loop never dispatches on its own.
    Candidates are backward ``bne`` targets whose block opens with a
    register move; the strict matchers decline everything else.
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
        if head is None or head.kernel is not None:
            continue
        first = head.decoded[0].instr
        if first.mnemonic != "add" or first.rs2 != 0:
            continue
        for matcher in _NEST_MATCHERS:
            try:
                head.kernel = matcher(program, head.start, by_pc, cycle_model)
                break
            except _NoMatch:
                continue
