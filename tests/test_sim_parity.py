"""Simulator parity: "jit" must be bit-exact vs the interpreter.

The contract of :mod:`repro.hw.sim`: for any program that runs to
completion, the exec-compiled JIT simulator ("jit") leaves **registers,
data memory, final pc, instruction count, cycle count and per-mnemonic
statistics** exactly as the reference interpreter ("interp") would.  This
suite checks the contract

* on every Table-I deployment configuration (INT8 / mixed / INT4, scalar
  and SDOTP kernels),
* on the inner MAC loops and the memset loop in isolation (driven through
  the real codegen emitters; ``test_sim_nests.py`` does the same for whole
  random conv and maxpool layers),
* on randomized straight-line / branchy programs that exercise the
  single-step fallback and the closure semantics of every instruction,
* and on adversarial near-miss loops that must fall back gracefully.
"""

import numpy as np
import pytest

import repro
from repro.deploy import compile_network, simulate_batch, verify_against_golden
from repro.deploy.codegen import (
    Assembler,
    FcKernelConfig,
    _emit_inner_product,
    emit_fc_layer,
)
from repro.deploy.packing import pack_padded_run, padded_run_length
from repro.hw import (
    DMEM_BASE,
    DMEM_SIZE,
    IbexCore,
    Instruction,
    ibex_platform,
    maupiti_platform,
    reg,
)
from repro.hw.sim import JitTemplate
from repro.quant import PrecisionScheme, convert_to_integer, quantize_model


# --------------------------------------------------------------------------- #
# Harness
# --------------------------------------------------------------------------- #
def assert_cores_equal(interp: IbexCore, jit: IbexCore) -> None:
    assert jit.registers == interp.registers
    assert jit.pc == interp.pc
    assert jit.halted == interp.halted
    assert jit.stats.instructions == interp.stats.instructions
    assert jit.stats.cycles == interp.stats.cycles
    assert jit.stats.per_mnemonic == interp.stats.per_mnemonic
    assert jit.memory.load_bytes(DMEM_BASE, DMEM_SIZE) == interp.memory.load_bytes(
        DMEM_BASE, DMEM_SIZE
    )


SIM_MODES = ("interp", "jit")


def run_both(program, setup=None, enable_sdotp=True):
    """Run ``program`` in both modes, assert full-state parity vs interp."""
    cores = []
    for mode in SIM_MODES:
        core = IbexCore(enable_sdotp=enable_sdotp, mode=mode)
        if setup is not None:
            setup(core)
        core.run(program)
        cores.append(core)
    interp, jit = cores
    assert_cores_equal(interp, jit)
    return interp, jit


# --------------------------------------------------------------------------- #
# Table-I deployment configurations
# --------------------------------------------------------------------------- #
# First layer stays 8-bit: the input buffer always holds 8-bit activations.
TABLE1_SCHEMES = [(8, 8, 8, 8), (8, 4, 4, 8), (8, 4, 8, 4)]


@pytest.fixture(scope="module", params=TABLE1_SCHEMES, ids=lambda s: "-".join(map(str, s)))
def table1_network(request, trained_small_model, prepared_data):
    qmodel = quantize_model(
        trained_small_model,
        PrecisionScheme(request.param),
        calibration_data=prepared_data["train"].inputs[:200],
    )
    return convert_to_integer(qmodel)


@pytest.mark.parametrize("use_sdotp", [False, True], ids=["scalar", "sdotp"])
def test_table1_config_bit_exact(table1_network, prepared_data, use_sdotp):
    """Registers, memory, cycles, energy: jit == interp on real models."""
    frames = prepared_data["preprocessor"](prepared_data["test_session"].frames[:2])
    compiled = compile_network(table1_network, use_sdotp=use_sdotp)
    factory = maupiti_platform if use_sdotp else ibex_platform
    platforms = {mode: factory(sim_mode=mode) for mode in SIM_MODES}
    bi, bj = (
        simulate_batch(platforms[mode], compiled, frames, keep_results=True)
        for mode in SIM_MODES
    )
    # Every frame's statistics, not only the last frame left on the core.
    for ri, rj in zip(bi.results, bj.results):
        assert rj.stats.instructions == ri.stats.instructions
        assert rj.stats.per_mnemonic == ri.stats.per_mnemonic
    np.testing.assert_array_equal(bj.predictions, bi.predictions)
    np.testing.assert_array_equal(bj.logits, bi.logits)
    np.testing.assert_array_equal(bj.cycles_per_frame, bi.cycles_per_frame)
    spec = platforms["jit"].spec
    for ci, cj in zip(bi.cycles_per_frame, bj.cycles_per_frame):
        assert spec.energy_per_inference_uj(
            int(cj)
        ) == spec.energy_per_inference_uj(int(ci))
    assert_cores_equal(platforms["interp"].core, platforms["jit"].core)
    # And both agree with the vectorized integer golden model.
    verify_against_golden(factory(sim_mode="jit"), compiled, table1_network, frames)


def test_every_codegen_hint_is_vectorized(table1_network):
    """Every loop codegen annotates gets a kernel of the annotated kind, and
    no kernel is attached without an annotation (the channel loops inside
    conv nests are building blocks, never standalone kernels)."""
    for use_sdotp in (False, True):
        compiled = compile_network(table1_network, use_sdotp=use_sdotp)
        template = JitTemplate(compiled.program, None, use_sdotp)
        assert compiled.kernel_hints, "codegen should annotate its loops"
        attached = {
            b.label: b.kernel.kind for b in template.blocks if b.kernel is not None
        }
        hinted = {h.label: h.kind for h in compiled.kernel_hints}
        wrong = {
            label: (kind, attached.get(label))
            for label, kind in hinted.items()
            if attached.get(label) != kind
        }
        assert not wrong, f"hinted kind vs attached kernel: {wrong}"
        unhinted = {attached[label] for label in attached.keys() - hinted.keys()}
        assert not unhinted
        layers = [s.kind for s in compiled.layer_summaries]
        kinds = [h.kind for h in compiled.kernel_hints]
        assert kinds.count("fc-chan") == layers.count("linear")
        assert kinds.count("conv-nest") == layers.count("conv")
        assert kinds.count("pool-nest") == layers.count("maxpool")


# --------------------------------------------------------------------------- #
# Kernel loops in isolation (through the real codegen emitters)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("bits", [4, 8])
@pytest.mark.parametrize("use_sdotp", [False, True], ids=["scalar", "sdotp"])
@pytest.mark.parametrize("run_values", [1, 3, 17, 64])
def test_inner_product_loops_bit_exact(bits, use_sdotp, run_values):
    rng = np.random.default_rng(run_values * 10 + bits + use_sdotp)
    lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    acts = rng.integers(0, hi + 1, size=run_values)  # PACT: non-negative
    weights = rng.integers(lo, hi + 1, size=run_values)
    act_addr = DMEM_BASE
    padded = padded_run_length(run_values, bits)
    wt_addr = DMEM_BASE + 2048

    asm = Assembler()
    asm.li("t1", act_addr)
    asm.li("t2", wt_addr)
    asm.li("s7", 12345)  # accumulator seed
    _emit_inner_product(asm, "ip", bits, use_sdotp, run_values)
    asm.emit("ebreak")
    program = asm.assemble()

    def setup(core):
        core.memory.store_bytes(act_addr, pack_padded_run(acts, bits))
        core.memory.store_bytes(wt_addr, pack_padded_run(weights, bits))

    interp, _jit = run_both(program, setup=setup)
    expected = (12345 + int(acts @ weights)) & 0xFFFFFFFF
    assert interp.registers[reg("s7")] == expected


@pytest.mark.parametrize("size_words", [1, 7, 33])
def test_memset_loop_bit_exact(size_words):
    from repro.deploy.codegen import emit_memset

    asm = Assembler()
    emit_memset(asm, "clr", DMEM_BASE + 64, size_words * 4)
    asm.emit("ebreak")
    program = asm.assemble()

    def setup(core):
        core.memory.store_bytes(DMEM_BASE, bytes(range(1, 200)))

    interp, _jit = run_both(program, setup=setup)
    assert interp.memory.load_bytes(DMEM_BASE + 64, size_words * 4) == bytes(
        4 * size_words
    )


def test_memset_nonzero_value_vectorized():
    """A word-fill of a non-zero register still matches the interpreter."""
    asm = Assembler()
    asm.li("a5", 0x1234ABCD)
    asm.li("t1", DMEM_BASE)
    asm.li("t2", DMEM_BASE + 32)
    asm.label("fill")
    asm.emit("sw", rs1="t1", rs2="a5", imm=0)
    asm.emit("addi", rd="t1", rs1="t1", imm=4)
    asm.emit("bne", rs1="t1", rs2="t2", target="fill")
    asm.emit("ebreak")
    interp, _ = run_both(asm.assemble())
    assert interp.memory.load_word(DMEM_BASE + 28, signed=False) == 0x1234ABCD


def test_layer_nests_recognized(table1_network):
    """Every conv and maxpool layer gets a whole-layer nest kernel."""
    for use_sdotp in (False, True):
        compiled = compile_network(table1_network, use_sdotp=use_sdotp)
        kinds = [s.kind for s in compiled.layer_summaries]
        counts = JitTemplate(compiled.program, None, use_sdotp).kernel_counts()
        assert counts.get("conv-nest") == kinds.count("conv")
        assert counts.get("pool-nest") == kinds.count("maxpool")


def test_codegen_labels_deterministic(table1_network):
    """Two compiles of one network emit the same labels and program."""
    a = compile_network(table1_network, use_sdotp=True)
    b = compile_network(table1_network, use_sdotp=True)  # both kept alive
    assert [i.label for i in a.program] == [i.label for i in b.program]
    assert a.kernel_hints == b.kernel_hints
    assert a.fingerprint == b.fingerprint
    ta = JitTemplate(a.program, None, True)
    tb = JitTemplate(b.program, None, True)
    assert ta.vectorized_labels() == tb.vectorized_labels()


# --------------------------------------------------------------------------- #
# Adversarial near-misses: must fall back, not mis-vectorize
# --------------------------------------------------------------------------- #
def _spliced_fc_program(splice):
    """A one-layer INT8 SDOTP fc program with ``splice`` applied to the
    instructions of its inner ``lw; lw; sdotp8`` loop head."""
    cfg = FcKernelConfig(
        name="fc", in_address=DMEM_BASE, in_values=16,
        out_buf_address=DMEM_BASE + 512, weights_address=DMEM_BASE + 1024,
        bias_address=DMEM_BASE + 2048, c_out=3, bits=8, out_bits=32,
        requantize=False, use_sdotp=True, weight_row_stride=16,
    )
    asm = Assembler()
    emit_fc_layer(asm, cfg)
    asm.emit("ebreak")
    program = asm.assemble()
    assert JitTemplate(program, None, True).kernel_counts() == {"fc-chan": 1}
    head = next(i for i, ins in enumerate(program) if ins.mnemonic == "sdotp8") - 2
    splice(*program[head : head + 3])
    return program, cfg


def test_aliased_sdotp_loop_falls_back():
    """An fc layer whose sdotp accumulator aliases the activation pointer
    must not be vectorized (and must still match the interpreter)."""

    def acc_is_act_pointer(ld_act, ld_wt, dot):
        dot.rd = ld_act.rs1

    program, cfg = _spliced_fc_program(acc_is_act_pointer)
    assert "fc-chan" not in JitTemplate(program, None, True).kernel_counts()

    def setup(c):
        # Every word's dot product is 0, so the aliased pointer stays valid.
        c.memory.store_bytes(cfg.in_address, bytes(b for b in range(1, 5) for _ in range(4)))
        c.memory.store_bytes(cfg.weights_address, bytes([1, 255] * 24))
        c.memory.store_bytes(cfg.bias_address, bytes(range(7, 19)))

    run_both(program, setup=setup)


def test_sdotp_operands_in_one_register_fall_back():
    """Both loads of the sdotp loop writing one register is invisible to the
    channel loop's role checks; only the inner matcher's distinctness check
    keeps the fc kernel from computing the wrong dot product."""

    def one_operand_register(ld_act, ld_wt, dot):
        ld_wt.rd = ld_act.rd
        dot.rs2 = ld_act.rd

    program, _ = _spliced_fc_program(one_operand_register)
    assert "fc-chan" not in JitTemplate(program, None, True).kernel_counts()
    data = np.random.default_rng(0).integers(0, 256, 4096, dtype=np.uint8).tobytes()

    def setup(c):
        c.memory.store_bytes(DMEM_BASE, data)

    run_both(program, setup=setup)


def test_jump_into_block_interior_single_steps():
    """A jalr landing mid-block exercises the single-step fallback."""
    asm = Assembler()
    asm.li("t0", 16)  # address of the 5th instruction slot (li a2 below)
    asm.emit("jalr", rd="ra", rs1="t0", imm=0)
    asm.li("a0", 111)  # skipped
    asm.li("a1", 222)  # skipped
    # Interior landing point: these three form one straight block with the
    # two above, entered at its middle.
    asm.li("a2", 333)
    asm.li("a3", 444)
    asm.emit("ebreak")
    program = asm.assemble()
    interp, _jit = run_both(program)
    assert interp.registers[reg("a2")] == 333
    assert interp.registers[reg("a0")] == 0


def test_auipc_at_misaligned_pc_matches_interpreter():
    """jalr only clears bit 0, so auipc can execute at pc % 4 != 0; the
    fallback must use the live pc, not the closure's static address."""
    program = [
        Instruction("addi", rd=reg("t0"), rs1=0, imm=10),
        Instruction("jalr", rd=reg("ra"), rs1=reg("t0"), imm=0),
        Instruction("auipc", rd=reg("a0"), imm=0),  # runs at pc=10
        Instruction("addi", rd=reg("a1"), rs1=0, imm=5),
        Instruction("ebreak"),
    ]
    interp, _jit = run_both(program)
    assert interp.registers[reg("a0")] == 10


# --------------------------------------------------------------------------- #
# Randomized programs
# --------------------------------------------------------------------------- #
R_OPS = ["add", "sub", "and", "or", "xor", "sll", "srl", "sra", "slt", "sltu",
         "mul", "mulh", "div", "rem", "sdotp8", "sdotp4"]
I_OPS = ["addi", "andi", "ori", "xori", "slti", "sltiu"]
SHIFT_OPS = ["slli", "srli", "srai"]


def _random_program(rng: np.random.Generator, length: int = 80):
    """A random halting program: ALU soup + aligned dmem traffic + forward
    branches.  Register x5 holds the dmem base and is never overwritten."""
    base = reg("t0")  # x5
    program = [
        Instruction("lui", rd=base, imm=DMEM_BASE),
    ]
    regs_pool = [r for r in range(1, 32) if r != base]
    for i in range(length):
        kind = rng.random()
        rd = int(rng.choice(regs_pool))
        rs1 = int(rng.integers(0, 32))
        rs2 = int(rng.integers(0, 32))
        if kind < 0.55:
            program.append(
                Instruction(str(rng.choice(R_OPS)), rd=rd, rs1=rs1, rs2=rs2)
            )
        elif kind < 0.75:
            imm = int(rng.integers(-2048, 2048))
            program.append(Instruction(str(rng.choice(I_OPS)), rd=rd, rs1=rs1, imm=imm))
        elif kind < 0.82:
            program.append(
                Instruction(str(rng.choice(SHIFT_OPS)), rd=rd, rs1=rs1,
                            imm=int(rng.integers(0, 32)))
            )
        elif kind < 0.90:
            offset = int(rng.integers(0, 510)) * 4
            mnemonic = str(rng.choice(["lw", "lh", "lhu", "lb", "lbu"]))
            program.append(Instruction(mnemonic, rd=rd, rs1=base, imm=offset))
        elif kind < 0.96:
            offset = int(rng.integers(0, 510)) * 4
            mnemonic = str(rng.choice(["sw", "sh", "sb"]))
            program.append(Instruction(mnemonic, rs1=base, rs2=rs2, imm=offset))
        else:
            # Forward branch: always terminates.
            mnemonic = str(rng.choice(sorted(["beq", "bne", "blt", "bge", "bltu", "bgeu"])))
            skip = int(rng.integers(1, 6))
            program.append(
                Instruction(mnemonic, rs1=rs1, rs2=rs2, imm=4 * (skip + 1))
            )
    program.append(Instruction("ebreak"))
    # Forward branches may overshoot the ebreak; pad with harmless targets.
    program.extend(Instruction("addi", rd=1, rs1=1, imm=1) for _ in range(8))
    program.append(Instruction("ebreak"))
    return program


@pytest.mark.parametrize("seed", range(12))
def test_randomized_programs_bit_exact(seed):
    rng = np.random.default_rng(seed)
    program = _random_program(rng)
    init_regs = [0] + [int(v) for v in rng.integers(0, 2**32, size=31, dtype=np.uint64)]
    dmem_fill = rng.integers(0, 256, size=4096, dtype=np.uint64).astype("uint8").tobytes()

    def setup(core):
        core.registers = list(init_regs)
        core.memory.store_bytes(DMEM_BASE, dmem_fill)

    run_both(program, setup=setup)


def test_empty_program_raises_simulation_error_in_all_modes():
    from repro.hw import SimulationError

    for mode in SIM_MODES:
        core = IbexCore(mode=mode)
        with pytest.raises(SimulationError, match="outside the program"):
            core.run([])


def test_runaway_program_raises_in_all_modes():
    from repro.hw import SimulationError

    infinite = [Instruction("jal", rd=0, imm=0)]
    for mode in SIM_MODES:
        core = IbexCore(max_instructions=1000, mode=mode)
        with pytest.raises(SimulationError, match="instruction limit"):
            core.run(infinite)


@pytest.mark.parametrize("mode", ["jit"])
def test_trace_cache_invalidated_on_in_place_edit(mode):
    """Mutating a program list between runs must recompile the trace."""
    program = [
        Instruction("addi", rd=reg("t0"), rs1=0, imm=7),
        Instruction("ebreak"),
    ]
    core = IbexCore(mode=mode)
    core.run(program)
    assert core.registers[reg("t0")] == 7
    program[0] = Instruction("addi", rd=reg("t0"), rs1=0, imm=99)
    core.reset()
    core.run(program)
    assert core.registers[reg("t0")] == 99


@pytest.mark.parametrize("mode", ["jit"])
def test_sdotp_rejected_on_vanilla_core(mode):
    from repro.hw import SimulationError

    program = [Instruction("sdotp8", rd=1, rs1=2, rs2=3), Instruction("ebreak")]
    core = IbexCore(enable_sdotp=False, mode=mode)
    with pytest.raises(SimulationError, match="SDOTP"):
        core.run(program)


@pytest.mark.parametrize(
    "build",
    [
        lambda net: IbexCore(mode="fast"),
        lambda net: maupiti_platform(sim_mode="fast"),
        lambda net: repro.compile(net, target="maupiti", sim_mode="fast"),
    ],
    ids=["core", "platform", "engine"],
)
def test_unknown_sim_mode_rejected(build, integer_network):
    """Only the two simulation modes exist; the error names both."""
    with pytest.raises(ValueError, match=r"\('interp', 'jit'\)"):
        build(integer_network)


# --------------------------------------------------------------------------- #
# Batched execution
# --------------------------------------------------------------------------- #
class TestSimulateBatch:
    @pytest.mark.parametrize("mode", ["jit"])
    def test_matches_per_frame_runs(self, integer_network, prepared_data, mode):
        from repro.deploy.runtime import load_model, run_frame

        frames = prepared_data["preprocessor"](
            prepared_data["test_session"].frames[:4]
        )
        compiled = compile_network(integer_network, use_sdotp=True)
        batch_platform = maupiti_platform(sim_mode=mode)
        batch = simulate_batch(batch_platform, compiled, frames)

        single_platform = maupiti_platform(sim_mode=mode)
        load_model(single_platform, compiled)
        singles = [run_frame(single_platform, compiled, f) for f in frames]
        np.testing.assert_array_equal(
            batch.predictions, [r.prediction for r in singles]
        )
        np.testing.assert_array_equal(
            batch.cycles_per_frame, [r.cycles for r in singles]
        )
        np.testing.assert_array_equal(batch.logits, np.stack([r.logits for r in singles]))

    def test_engine_predict_batch_modes_agree(self, integer_network, prepared_data):
        import repro

        frames = prepared_data["preprocessor"](
            prepared_data["test_session"].frames[:3]
        )
        interp = repro.compile(integer_network, target="maupiti", sim_mode="interp")
        bi = interp.predict_batch(frames)
        jit = repro.compile(integer_network, target="maupiti", sim_mode="jit")
        bj = jit.predict_batch(frames)
        np.testing.assert_array_equal(bj.predictions, bi.predictions)
        np.testing.assert_array_equal(bj.logits, bi.logits)
        np.testing.assert_array_equal(bj.cycles_per_frame, bi.cycles_per_frame)
        np.testing.assert_array_equal(bj.energy_uj_per_frame, bi.energy_uj_per_frame)

    def test_empty_batch(self, integer_network):
        compiled = compile_network(integer_network, use_sdotp=True)
        for empty in (np.empty((0, 1, 8, 8)), [], np.asarray([])):
            batch = simulate_batch(maupiti_platform(), compiled, empty)
            assert len(batch.predictions) == 0
            assert batch.logits.shape == (0, compiled.num_classes)
        verify_against_golden(
            maupiti_platform(), compiled, integer_network, np.asarray([])
        )

    def test_empty_batch_through_engine(self, integer_network):
        import repro

        batch = repro.compile(integer_network, target="maupiti").predict_batch([])
        assert len(batch) == 0

    def test_conflicting_platform_and_sim_mode_rejected(self, integer_network):
        import repro
        from repro.engine import EngineError

        platform = maupiti_platform(sim_mode="jit")
        with pytest.raises(EngineError, match="conflicting"):
            repro.compile(
                integer_network, target="maupiti",
                platform=platform, sim_mode="interp",
            )
        # Matching or omitted sim_mode is fine.
        engine = repro.compile(
            integer_network, target="maupiti", platform=platform, sim_mode="jit"
        )
        assert engine.backend.sim_mode == "jit"

    def test_keep_results_carries_stats(self, integer_network, prepared_data):
        frames = prepared_data["preprocessor"](
            prepared_data["test_session"].frames[:2]
        )
        compiled = compile_network(integer_network, use_sdotp=True)
        batch = simulate_batch(maupiti_platform(), compiled, frames, keep_results=True)
        assert len(batch.results) == 2
        assert all(r.stats.instructions > 0 for r in batch.results)
