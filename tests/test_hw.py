"""MAUPITI hardware substrate: ISA, SDOTP unit, memory, core, sensor, energy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import (
    CycleModel,
    DMEM_BASE,
    IBEX_SPEC,
    IbexCore,
    Instruction,
    MAUPITI_SPEC,
    Memory,
    MemoryError_,
    STM32_SPEC,
    SimulationError,
    TmosArray,
    TmosArrayConfig,
    area_overhead_fraction,
    decode,
    encode,
    pack_lanes,
    power_overhead_fraction,
    reg,
    sdotp4,
    sdotp8,
    sensor_energy_per_frame_j,
    to_signed,
    unpack_lanes,
)
from repro.hw.isa import ALL_MNEMONICS, B_TYPE, I_TYPE, R_TYPE, S_TYPE


class TestRegistersAndEncoding:
    def test_reg_resolution(self):
        assert reg("zero") == 0
        assert reg("ra") == 1
        assert reg("a0") == 10
        assert reg("x31") == 31
        assert reg(5) == 5
        with pytest.raises(ValueError):
            reg("q7")
        with pytest.raises(ValueError):
            reg(32)

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(ValueError):
            Instruction("fadd")

    @given(
        st.sampled_from(sorted(R_TYPE)),
        st.integers(min_value=0, max_value=31),
        st.integers(min_value=0, max_value=31),
        st.integers(min_value=0, max_value=31),
    )
    @settings(max_examples=80, deadline=None)
    def test_rtype_roundtrip(self, mnemonic, rd, rs1, rs2):
        instr = Instruction(mnemonic, rd=rd, rs1=rs1, rs2=rs2)
        back = decode(encode(instr))
        assert (back.mnemonic, back.rd, back.rs1, back.rs2) == (mnemonic, rd, rs1, rs2)

    @given(
        st.sampled_from(["addi", "andi", "ori", "xori", "lw", "lb", "lbu", "jalr"]),
        st.integers(min_value=0, max_value=31),
        st.integers(min_value=0, max_value=31),
        st.integers(min_value=-2048, max_value=2047),
    )
    @settings(max_examples=80, deadline=None)
    def test_itype_roundtrip(self, mnemonic, rd, rs1, imm):
        instr = Instruction(mnemonic, rd=rd, rs1=rs1, imm=imm)
        back = decode(encode(instr))
        assert (back.mnemonic, back.rd, back.rs1, back.imm) == (mnemonic, rd, rs1, imm)

    @given(
        st.sampled_from(sorted(S_TYPE)),
        st.integers(min_value=0, max_value=31),
        st.integers(min_value=0, max_value=31),
        st.integers(min_value=-2048, max_value=2047),
    )
    @settings(max_examples=60, deadline=None)
    def test_stype_roundtrip(self, mnemonic, rs1, rs2, imm):
        back = decode(encode(Instruction(mnemonic, rs1=rs1, rs2=rs2, imm=imm)))
        assert (back.mnemonic, back.rs1, back.rs2, back.imm) == (mnemonic, rs1, rs2, imm)

    @given(
        st.sampled_from(sorted(B_TYPE)),
        st.integers(min_value=-2048, max_value=2047),
    )
    @settings(max_examples=60, deadline=None)
    def test_btype_roundtrip(self, mnemonic, half_imm):
        imm = half_imm * 2  # branch offsets are even
        back = decode(encode(Instruction(mnemonic, rs1=3, rs2=4, imm=imm)))
        assert back.mnemonic == mnemonic and back.imm == imm

    def test_shift_immediates(self):
        for m in ("slli", "srli", "srai"):
            back = decode(encode(Instruction(m, rd=1, rs1=2, imm=7)))
            assert back.mnemonic == m and back.imm == 7

    def test_custom_sdotp_encodings_distinct(self):
        w8 = encode(Instruction("sdotp8", rd=1, rs1=2, rs2=3))
        w4 = encode(Instruction("sdotp4", rd=1, rs1=2, rs2=3))
        assert w8 != w4
        assert decode(w8).mnemonic == "sdotp8"
        assert decode(w4).mnemonic == "sdotp4"
        assert w8 & 0x7F == 0x0B  # custom-0 opcode

    def test_compressibility_heuristic(self):
        assert Instruction("add", rd=1, rs1=1, rs2=2).size_bytes() == 2
        assert Instruction("sdotp8", rd=1, rs1=2, rs2=3).size_bytes() == 4
        assert Instruction("addi", rd=1, rs1=1, imm=1000).size_bytes() == 4


class TestSdotpSemantics:
    @given(
        st.lists(st.integers(min_value=-128, max_value=127), min_size=4, max_size=4),
        st.lists(st.integers(min_value=-128, max_value=127), min_size=4, max_size=4),
        st.integers(min_value=-(2**20), max_value=2**20),
    )
    @settings(max_examples=100, deadline=None)
    def test_sdotp8_matches_numpy(self, a, b, acc):
        word_a = pack_lanes(a, 8)
        word_b = pack_lanes(b, 8)
        result = to_signed(sdotp8(word_a, word_b, acc & 0xFFFFFFFF), 32)
        expected = acc + int(np.dot(a, b))
        assert result == expected

    @given(
        st.lists(st.integers(min_value=-8, max_value=7), min_size=8, max_size=8),
        st.lists(st.integers(min_value=-8, max_value=7), min_size=8, max_size=8),
        st.integers(min_value=-(2**20), max_value=2**20),
    )
    @settings(max_examples=100, deadline=None)
    def test_sdotp4_matches_numpy(self, a, b, acc):
        word_a = pack_lanes(a, 4)
        word_b = pack_lanes(b, 4)
        result = to_signed(sdotp4(word_a, word_b, acc & 0xFFFFFFFF), 32)
        assert result == acc + int(np.dot(a, b))

    @given(st.lists(st.integers(min_value=-8, max_value=7), min_size=8, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_pack_unpack_roundtrip(self, lanes):
        assert unpack_lanes(pack_lanes(lanes, 4), 4) == lanes

    def test_pack_range_validation(self):
        with pytest.raises(ValueError):
            pack_lanes([200, 0, 0, 0], 8)
        with pytest.raises(ValueError):
            pack_lanes([0, 0], 8)


class TestMemory:
    def test_word_roundtrip(self):
        mem = Memory()
        mem.store_word(DMEM_BASE, -123456)
        assert mem.load_word(DMEM_BASE) == -123456

    def test_byte_and_half(self):
        mem = Memory()
        mem.store_byte(DMEM_BASE, -5)
        assert mem.load_byte(DMEM_BASE) == -5
        assert mem.load_byte(DMEM_BASE, signed=False) == 251
        mem.store_half(DMEM_BASE + 8, -300)
        assert mem.load_half(DMEM_BASE + 8) == -300

    def test_little_endian(self):
        mem = Memory()
        mem.store_word(DMEM_BASE, 0x11223344)
        assert mem.load_byte(DMEM_BASE, signed=False) == 0x44

    def test_out_of_bounds(self):
        mem = Memory()
        with pytest.raises(MemoryError_):
            mem.load_word(0x9999_0000)
        with pytest.raises(MemoryError_):
            mem.store_word(DMEM_BASE + 16 * 1024, 1)

    def test_otp_read_only(self):
        mem = Memory()
        with pytest.raises(MemoryError_):
            mem.store_word(0x0020_0000, 1)
        mem.store_bytes(0x0020_0000, b"\x01", force=True)
        assert mem.load_byte(0x0020_0000) == 1

    def test_clone_into_supplied_dmem_buffer(self):
        mem = Memory()
        mem.store_word(DMEM_BASE, 0x11223344)
        mem.store_word(DMEM_BASE + 16 * 1024 - 4, -7)
        row = np.zeros((2, 16 * 1024), dtype=np.uint8)
        buffer = row[1].data
        clone = mem.clone(dmem_buffer=buffer)
        assert clone._data["dmem"] is buffer
        assert bytes(row[1]) == bytes(mem._data["dmem"])
        clone.store_word(DMEM_BASE, 5)
        assert row[1, 0] == 5  # the clone writes through to the buffer
        assert mem.load_word(DMEM_BASE) == 0x11223344
        assert not row[0].any()


def run_program(instrs, enable_sdotp=True):
    core = IbexCore(enable_sdotp=enable_sdotp)
    stats = core.run(instrs + [Instruction("ebreak")])
    return core, stats


class TestCore:
    def test_arithmetic_program(self):
        core, _ = run_program(
            [
                Instruction("addi", rd=reg("a0"), rs1=0, imm=21),
                Instruction("addi", rd=reg("a1"), rs1=0, imm=2),
                Instruction("mul", rd=reg("a2"), rs1=reg("a0"), rs2=reg("a1")),
            ]
        )
        assert core.registers[reg("a2")] == 42

    def test_branch_loop_sums(self):
        # Sum 1..5 with a loop.
        program = [
            Instruction("addi", rd=reg("a0"), rs1=0, imm=5),  # counter
            Instruction("addi", rd=reg("a1"), rs1=0, imm=0),  # total
            Instruction("add", rd=reg("a1"), rs1=reg("a1"), rs2=reg("a0")),
            Instruction("addi", rd=reg("a0"), rs1=reg("a0"), imm=-1),
            Instruction("bne", rs1=reg("a0"), rs2=0, imm=-8),
        ]
        core, stats = run_program(program)
        assert core.registers[reg("a1")] == 15
        assert stats.instructions > 10

    def test_memory_program(self):
        program = [
            Instruction("lui", rd=reg("a0"), imm=DMEM_BASE),
            Instruction("addi", rd=reg("a1"), rs1=0, imm=-7),
            Instruction("sw", rs1=reg("a0"), rs2=reg("a1"), imm=0),
            Instruction("lw", rd=reg("a2"), rs1=reg("a0"), imm=0),
        ]
        core, _ = run_program(program)
        assert to_signed(core.registers[reg("a2")], 32) == -7

    def test_sdotp_instruction_on_maupiti(self):
        a = pack_lanes([1, 2, 3, 4], 8)
        b = pack_lanes([5, 6, 7, 8], 8)
        program = [
            Instruction("lui", rd=reg("a0"), imm=a & 0xFFFFF000),
            Instruction("addi", rd=reg("a0"), rs1=reg("a0"), imm=to_signed(a & 0xFFF, 12)),
            Instruction("lui", rd=reg("a1"), imm=b & 0xFFFFF000),
            Instruction("addi", rd=reg("a1"), rs1=reg("a1"), imm=to_signed(b & 0xFFF, 12)),
            Instruction("addi", rd=reg("a2"), rs1=0, imm=100),
            Instruction("sdotp8", rd=reg("a2"), rs1=reg("a0"), rs2=reg("a1")),
        ]
        core, stats = run_program(program)
        assert to_signed(core.registers[reg("a2")], 32) == 100 + (5 + 12 + 21 + 32)
        assert stats.sdotp_count == 1

    def test_sdotp_rejected_on_vanilla_ibex(self):
        with pytest.raises(SimulationError):
            run_program([Instruction("sdotp8", rd=1, rs1=2, rs2=3)], enable_sdotp=False)

    def test_x0_stays_zero(self):
        core, _ = run_program([Instruction("addi", rd=0, rs1=0, imm=55)])
        assert core.registers[0] == 0

    def test_runaway_detection(self):
        core = IbexCore(max_instructions=100)
        infinite = [Instruction("jal", rd=0, imm=0)]
        with pytest.raises(SimulationError):
            core.run(infinite)

    def test_cycle_model_costs(self):
        model = CycleModel()
        assert model.cost(Instruction("lw", rd=1, rs1=2)) == 2
        assert model.cost(Instruction("add", rd=1)) == 1
        assert model.cost(Instruction("sdotp4", rd=1)) == 1
        assert model.cost(Instruction("beq"), taken=True) > model.cost(
            Instruction("beq"), taken=False
        )

    def test_division_semantics(self):
        core, _ = run_program(
            [
                Instruction("addi", rd=reg("a0"), rs1=0, imm=-7),
                Instruction("addi", rd=reg("a1"), rs1=0, imm=2),
                Instruction("div", rd=reg("a2"), rs1=reg("a0"), rs2=reg("a1")),
                Instruction("rem", rd=reg("a3"), rs1=reg("a0"), rs2=reg("a1")),
            ]
        )
        assert to_signed(core.registers[reg("a2")], 32) == -3  # trunc toward zero
        assert to_signed(core.registers[reg("a3")], 32) == -1


class TestSensorAndEnergy:
    def test_sensor_power_matches_paper(self):
        config = TmosArrayConfig()
        assert config.power_w == pytest.approx(0.62e-3, rel=0.02)
        assert config.acquisition_steps == 2
        assert config.pixels == 256

    def test_sensor_acquisition(self):
        sensor = TmosArray(rng=np.random.default_rng(0))
        scene = np.full((16, 16), 22.0)
        scene[4:6, 4:6] = 30.0
        frame = sensor.acquire(scene)
        assert frame.shape == (16, 16)
        assert frame[4, 4] > frame[0, 0]
        assert sensor.frames_acquired == 1
        small = sensor.downsample_to_8x8(frame)
        assert small.shape == (8, 8)

    def test_sensor_scene_shape_validation(self):
        with pytest.raises(ValueError):
            TmosArray().acquire(np.zeros((8, 8)))

    def test_platform_specs_match_paper(self):
        assert MAUPITI_SPEC.frequency_hz == 20e6
        assert STM32_SPEC.frequency_hz == 120e6
        assert area_overhead_fraction() == pytest.approx(0.07, abs=0.001)
        assert power_overhead_fraction() == pytest.approx(0.022, abs=0.002)
        # STM32 draws ~13.2x the MAUPITI power.
        assert STM32_SPEC.active_power_w / MAUPITI_SPEC.active_power_w == pytest.approx(
            13.2, rel=0.01
        )

    def test_energy_per_inference(self):
        # 100k cycles at 20 MHz and 0.9 mW -> 4.5 uJ.
        assert MAUPITI_SPEC.energy_per_inference_uj(100_000) == pytest.approx(4.5)
        assert IBEX_SPEC.energy_per_inference_uj(100_000) < MAUPITI_SPEC.energy_per_inference_uj(
            102_300
        )

    def test_sensor_energy_per_frame(self):
        assert sensor_energy_per_frame_j() == pytest.approx(0.62e-3 / 10.0)
