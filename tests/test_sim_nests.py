"""Differential tests for the layer-nest kernels (``conv-nest``, ``pool-nest``).

Random conv and maxpool layers are emitted straight from the codegen
emitters (as ``test_inner_product_loops_bit_exact`` does for inner loops)
and run for several frames with distinct inputs through the reference
interpreter, the JIT's single-frame path and its batched lockstep path.
Every frame must match the interpreter on registers, data memory, final
pc, instructions, cycles and per-mnemonic statistics, and a valid layer
must actually run as one nest dispatch.  Layers whose output overlaps
their input must make the nest decline and still match.  Frames that each
bring their own weights must be computed with their own weights by the
batched ``conv-nest`` and ``fc-chan`` kernels.

The example budget follows the active hypothesis profile: the default in
tier-1, ``sim-large`` (registered in ``conftest.py``) in CI.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deploy.codegen import (
    ActBuffer,
    Assembler,
    ConvKernelConfig,
    FcKernelConfig,
    PoolKernelConfig,
    emit_conv_layer,
    emit_fc_layer,
    emit_maxpool_layer,
)
from repro.deploy.packing import padded_run_bytes, padded_run_length
from repro.deploy.program import _Allocator
from repro.hw import (
    DEFAULT_CYCLE_MODEL,
    DMEM_BASE,
    DMEM_SIZE,
    ExecutionStats,
    IbexCore,
    Instruction,
    Memory,
    reg,
)
from repro.hw.sim import get_template
from repro.hw.sim.batch import run_batch
from repro.hw.sim.kernels import FrameDmem

MAX_INSTRUCTIONS = 5_000_000


def _buffer(address, height, width, channels, bits, pad):
    """An HWC activation buffer laid out like ``compile_network`` does."""
    if bits == 32:
        pixel_stride = 4 * channels
    else:
        pixel_stride = padded_run_bytes(channels, bits)
    h, w = height + 2 * pad, width + 2 * pad
    return ActBuffer(
        address=address, height=h, width=w, channels=channels, bits=bits,
        pad=pad, pixel_stride=pixel_stride, row_stride=w * pixel_stride,
        size_bytes=h * w * pixel_stride,
    )


def _run_all(program, in_buf, seed, n_frames, use_sdotp, payload_bytes=None):
    """Run every frame in interp, single-frame jit and batched jit.

    Each frame's random payload covers ``payload_bytes`` from the input
    buffer (default: the input buffer alone).  Asserts full-state parity of
    both jit paths against the interpreter and returns the batched outcomes.
    """
    rng = np.random.default_rng(seed)
    base = Memory()
    base.store_bytes(DMEM_BASE, rng.integers(0, 256, DMEM_SIZE, dtype=np.uint8).tobytes())
    payloads = [
        rng.integers(0, 256, payload_bytes or in_buf.size_bytes, dtype=np.uint8).tobytes()
        for _ in range(n_frames)
    ]
    cores = {}
    for mode in ("interp", "jit"):
        cores[mode] = []
        for payload in payloads:
            core = IbexCore(memory=base.clone(), enable_sdotp=use_sdotp, mode=mode)
            core.memory.store_bytes(in_buf.address, payload)
            core.run(program)
            cores[mode].append(core)
    outcomes = run_batch(
        base, program, payloads, in_buf.address, DEFAULT_CYCLE_MODEL,
        use_sdotp, MAX_INSTRUCTIONS,
    )
    for ref, jit, out in zip(cores["interp"], cores["jit"], outcomes):
        ref_mem = ref.memory.load_bytes(DMEM_BASE, DMEM_SIZE)
        for regs, pc, stats, mem in (
            (jit.registers, jit.pc, jit.stats, jit.memory),
            (out.regs, out.final_pc, out.stats, out.memory),
        ):
            assert regs == ref.registers
            assert pc == ref.pc
            assert stats.instructions == ref.stats.instructions
            assert stats.cycles == ref.stats.cycles
            assert stats.per_mnemonic == ref.stats.per_mnemonic
            assert mem.load_bytes(DMEM_BASE, DMEM_SIZE) == ref_mem
    return outcomes


def _nest_rows(program, outcomes, use_sdotp, kind):
    """Per frame: ``(nest dispatches, output rows the nest ran)``."""
    template = get_template(program, DEFAULT_CYCLE_MODEL, use_sdotp)
    assert template.kernel_counts().get(kind) == 1
    bi = next(i for i, b in enumerate(template.blocks)
              if b.kernel is not None and b.kernel.kind == kind)
    return [
        (template.dispatch_counts(o.counters).get(kind, 0),
         o.counters[template.kslots[bi]])
        for o in outcomes
    ]


# --------------------------------------------------------------------------- #
# conv-nest
# --------------------------------------------------------------------------- #
@st.composite
def conv_layers(draw):
    kh, kw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pad = draw(st.integers(0, 1))
    return dict(
        bits=draw(st.sampled_from([4, 8])),
        c_in=draw(st.integers(1, 9)),
        c_out=draw(st.integers(1, 9)),
        kernel=(kh, kw),
        stride=(draw(st.integers(1, 2)), draw(st.integers(1, 2))),
        pad=pad,
        height=draw(st.integers(max(1, kh - 2 * pad), 5)),
        width=draw(st.integers(max(1, kw - 2 * pad), 5)),
        out_pad=draw(st.integers(0, 1)),
        out_bits=draw(st.sampled_from([4, 8, 32])),
        requantize=draw(st.booleans()),
        use_sdotp=draw(st.booleans()),
        multiplier=draw(st.integers(1, 2**31 - 1)),
        shift=draw(st.integers(0, 30)),
        out_levels=draw(st.integers(0, 255)),
        frames=draw(st.integers(2, 3)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _conv_program(p, overlap=False):
    kh, kw = p["kernel"]
    sh, sw = p["stride"]
    out_h = (p["height"] + 2 * p["pad"] - kh) // sh + 1
    out_w = (p["width"] + 2 * p["pad"] - kw) // sw + 1
    lay = _Allocator()
    in_buf = _buffer(0, p["height"], p["width"], p["c_in"], p["bits"], p["pad"])
    in_buf.address = lay.alloc(in_buf.size_bytes)
    tap = padded_run_bytes(p["c_in"], p["bits"])
    weights = lay.alloc(p["c_out"] * kh * kw * tap)
    bias = lay.alloc(4 * p["c_out"])
    # The adversarial layout writes the output over the input it reads: the
    # first output pixel lands on the first byte the first patch reads.
    out_pad = 0 if overlap else p["out_pad"]
    out_buf = _buffer(0, out_h, out_w, p["c_out"], p["out_bits"], out_pad)
    out_buf.address = in_buf.address if overlap else lay.alloc(out_buf.size_bytes)
    cfg = ConvKernelConfig(
        name="conv", in_buf=in_buf, out_buf=out_buf, weights_address=weights,
        bias_address=bias, c_in=p["c_in"], c_out=p["c_out"], kernel=(kh, kw),
        stride=(sh, sw), out_h=out_h, out_w=out_w, bits=p["bits"],
        out_bits=p["out_bits"], multiplier=p["multiplier"], shift=p["shift"],
        out_levels=p["out_levels"], requantize=p["requantize"],
        use_sdotp=p["use_sdotp"], weight_oc_stride=kh * kw * tap,
        weight_tap_stride=tap,
    )
    asm = Assembler()
    emit_conv_layer(asm, cfg)
    asm.emit("ebreak")
    return asm.assemble(), in_buf, out_h


@settings(deadline=None)
@given(conv_layers())
def test_conv_nest_matches_interpreter(p):
    program, in_buf, out_h = _conv_program(p)
    outcomes = _run_all(program, in_buf, p["seed"], p["frames"], p["use_sdotp"])
    # The whole layer in one dispatch.
    assert _nest_rows(program, outcomes, p["use_sdotp"], "conv-nest") == [(1, out_h)] * p["frames"]


@settings(deadline=None)
@given(conv_layers())
def test_conv_nest_declines_on_output_overlapping_input(p):
    program, in_buf, out_h = _conv_program(p, overlap=True)
    outcomes = _run_all(program, in_buf, p["seed"], p["frames"], p["use_sdotp"])
    # The nest declines at the first row; it may take over for trailing
    # rows whose output no longer overlaps what is left to read.
    for _, rows in _nest_rows(program, outcomes, p["use_sdotp"], "conv-nest"):
        assert rows < out_h


# --------------------------------------------------------------------------- #
# pool-nest
# --------------------------------------------------------------------------- #
@st.composite
def pool_layers(draw):
    out_h, out_w = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return dict(
        bits=draw(st.sampled_from([4, 8])),
        channels=draw(st.integers(1, 9)),
        out_h=out_h,
        out_w=out_w,
        # An odd input size leaves a row / column the pooling never reads.
        height=2 * out_h + draw(st.integers(0, 1)),
        width=2 * out_w + draw(st.integers(0, 1)),
        pad=draw(st.integers(0, 1)),
        out_pad=draw(st.integers(0, 1)),
        use_sdotp=draw(st.booleans()),
        frames=draw(st.integers(2, 3)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _pool_program(p, overlap=False):
    lay = _Allocator()
    in_buf = _buffer(0, p["height"], p["width"], p["channels"], p["bits"], p["pad"])
    in_buf.address = lay.alloc(in_buf.size_bytes)
    out_pad = 0 if overlap else p["out_pad"]
    out_buf = _buffer(0, p["out_h"], p["out_w"], p["channels"], p["bits"], out_pad)
    out_buf.address = in_buf.address if overlap else lay.alloc(out_buf.size_bytes)
    cfg = PoolKernelConfig(
        name="pool", in_buf=in_buf, out_buf=out_buf, channels=p["channels"],
        bits=p["bits"], out_h=p["out_h"], out_w=p["out_w"],
    )
    asm = Assembler()
    emit_maxpool_layer(asm, cfg)
    asm.emit("ebreak")
    return asm.assemble(), in_buf, p["out_h"]


@settings(deadline=None)
@given(pool_layers())
def test_pool_nest_matches_interpreter(p):
    program, in_buf, out_h = _pool_program(p)
    outcomes = _run_all(program, in_buf, p["seed"], p["frames"], p["use_sdotp"])
    # The whole layer in one dispatch.
    assert _nest_rows(program, outcomes, p["use_sdotp"], "pool-nest") == [(1, out_h)] * p["frames"]


@settings(deadline=None)
@given(pool_layers())
def test_pool_nest_declines_on_output_overlapping_input(p):
    program, in_buf, out_h = _pool_program(p, overlap=True)
    outcomes = _run_all(program, in_buf, p["seed"], p["frames"], p["use_sdotp"])
    # The nest declines at the first row; it may take over for trailing
    # rows whose output no longer overlaps what is left to read.
    for _, rows in _nest_rows(program, outcomes, p["use_sdotp"], "pool-nest"):
        assert rows < out_h


# --------------------------------------------------------------------------- #
# Frames with different weights
# --------------------------------------------------------------------------- #
@st.composite
def fc_layers(draw):
    return dict(
        bits=draw(st.sampled_from([4, 8])),
        in_values=draw(st.integers(1, 40)),
        c_out=draw(st.integers(1, 12)),
        out_bits=draw(st.sampled_from([4, 8, 32])),
        requantize=draw(st.booleans()),
        use_sdotp=draw(st.booleans()),
        multiplier=draw(st.integers(1, 2**31 - 1)),
        shift=draw(st.integers(0, 30)),
        out_levels=draw(st.integers(0, 255)),
        frames=draw(st.integers(2, 3)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _fc_program(p):
    lay = _Allocator()
    padded = padded_run_length(p["in_values"], p["bits"])
    in_buf = _buffer(0, 1, 1, p["in_values"], p["bits"], 0)
    in_buf.address = lay.alloc(in_buf.size_bytes)
    row = padded_run_bytes(p["in_values"], p["bits"])
    weights = lay.alloc(p["c_out"] * row)
    bias = lay.alloc(4 * p["c_out"])
    cfg = FcKernelConfig(
        name="fc", in_address=in_buf.address, in_values=padded,
        out_buf_address=lay.alloc(4 * p["c_out"]), weights_address=weights,
        bias_address=bias, c_out=p["c_out"], bits=p["bits"],
        out_bits=p["out_bits"], multiplier=p["multiplier"], shift=p["shift"],
        out_levels=p["out_levels"], requantize=p["requantize"],
        use_sdotp=p["use_sdotp"], weight_row_stride=row,
    )
    asm = Assembler()
    emit_fc_layer(asm, cfg)
    asm.emit("ebreak")
    return asm.assemble(), in_buf


@settings(deadline=None)
@given(conv_layers(), fc_layers())
def test_frames_with_own_weights_match_interpreter(conv, fc):
    """Every frame brings its own random dmem -- weights and biases
    included -- so the batched conv-nest and fc-chan kernels must compute
    each frame with that frame's weights, never share one frame's."""
    program, in_buf, out_h = _conv_program(conv)
    whole_dmem = DMEM_BASE + DMEM_SIZE - in_buf.address
    outcomes = _run_all(program, in_buf, conv["seed"], conv["frames"],
                        conv["use_sdotp"], payload_bytes=whole_dmem)
    assert _nest_rows(program, outcomes, conv["use_sdotp"], "conv-nest") == [(1, out_h)] * conv["frames"]

    program, in_buf = _fc_program(fc)
    whole_dmem = DMEM_BASE + DMEM_SIZE - in_buf.address
    outcomes = _run_all(program, in_buf, fc["seed"], fc["frames"],
                        fc["use_sdotp"], payload_bytes=whole_dmem)
    template = get_template(program, DEFAULT_CYCLE_MODEL, fc["use_sdotp"])
    for o in outcomes:
        assert template.dispatch_counts(o.counters).get("fc-chan") == 1


# --------------------------------------------------------------------------- #
# Control registers that differ across frames
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", ["conv-nest", "pool-nest"])
def test_nest_declines_on_non_uniform_control_registers(kind, monkeypatch):
    """A nest runs all frames at once only when their control registers
    agree; otherwise it declines and leaves every frame untouched, and the
    lockstep loop then runs the nest for each frame alone."""
    if kind == "conv-nest":
        p = dict(bits=8, c_in=3, c_out=5, kernel=(3, 3), stride=(1, 1), pad=1,
                 height=3, width=3, out_pad=0, out_bits=8, requantize=True,
                 use_sdotp=True, multiplier=12345, shift=12, out_levels=255)
        program, _, _ = _conv_program(p)
        rows = 3
    else:
        p = dict(bits=4, channels=5, out_h=2, out_w=2, height=4, width=4,
                 pad=0, out_pad=0, use_sdotp=True)
        program, _, _ = _pool_program(p)
        rows = 2
    template = get_template(program, DEFAULT_CYCLE_MODEL, True)
    nest = next(b for b in template.blocks
                if b.kernel is not None and b.kernel.kind == kind)
    # The registers at the nest (the layer's first kernel), from the
    # interpreter; frame 1 has one row fewer left.
    setup = IbexCore(mode="interp")
    setup.run(program[: nest.pc // 4] + [Instruction("ebreak")])
    entry_regs = [list(setup.registers), list(setup.registers)]
    entry_regs[1][reg("s4")] -= 1

    calls = []  # (frames, rows run, registers untouched)
    make_run_many = nest.kernel.make_run_many

    def spy(dm):
        run_many = make_run_many(dm)

        def run(regs_list, cnts, aux_base):
            before = [list(r) for r in regs_list]
            iters, extras = run_many(regs_list, cnts, aux_base)
            calls.append((len(regs_list), iters, regs_list == before))
            return iters, extras

        return run

    monkeypatch.setattr(nest.kernel, "make_run_many", spy)
    # Two frames backed by rows of one matrix, as in the batched executor.
    mat = np.zeros((2, DMEM_SIZE), dtype=np.uint8)
    mems = [Memory().clone(dmem_buffer=mat[i].data) for i in range(2)]
    jp = template.bound(program, mems)
    stats = [ExecutionStats(), ExecutionStats()]
    states = [
        jp.start(list(regs), s, nest.pc, MAX_INSTRUCTIONS, frame=i)
        for i, (regs, s) in enumerate(zip(entry_regs, stats))
    ]
    jp.run_lockstep(states, stats, FrameDmem(mat, DMEM_BASE))
    assert calls == [(2, 0, True), (1, rows, False), (1, rows - 1, False)]
    for regs, state, s, mem in zip(entry_regs, states, stats, mems):
        ref = IbexCore(memory=Memory(), mode="interp")
        ref.registers = list(regs)
        ref.run(program, entry_pc=nest.pc)
        assert state.regs == ref.registers
        assert state.final_pc == ref.pc
        assert s == ref.stats
        assert mem.load_bytes(DMEM_BASE, DMEM_SIZE) == (
            ref.memory.load_bytes(DMEM_BASE, DMEM_SIZE)
        )
