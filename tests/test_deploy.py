"""Deployment toolchain: packing, assembler, compilation, bit-exact execution."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.deploy import (
    Assembler,
    AssemblerError,
    Stm32DeploymentModel,
    compile_network,
    full_deployment_report,
    pack_padded_run,
    pack_values,
    padded_run_bytes,
    padded_run_length,
    simulate_batch,
    unpack_values,
    verify_against_golden,
)
from repro.hw import DMEM_BASE, IbexCore, ibex_platform, maupiti_platform, reg, to_signed
from repro.quant import PrecisionScheme, convert_to_integer, quantize_model


class TestPacking:
    @given(
        st.lists(st.integers(min_value=-128, max_value=127), min_size=1, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_int8_roundtrip(self, values):
        raw = pack_values(values, 8)
        assert unpack_values(raw, len(values), 8) == values

    @given(
        st.lists(st.integers(min_value=-8, max_value=7), min_size=2, max_size=40).filter(
            lambda v: len(v) % 2 == 0
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_int4_roundtrip(self, values):
        raw = pack_values(values, 4)
        assert len(raw) == len(values) // 2
        assert unpack_values(raw, len(values), 4) == values

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pack_values([200], 8)
        with pytest.raises(ValueError):
            pack_values([9, 0], 4)

    def test_padded_run_lengths(self):
        assert padded_run_length(1, 8) == 4
        assert padded_run_length(4, 8) == 4
        assert padded_run_length(5, 8) == 8
        assert padded_run_length(7, 4) == 8
        assert padded_run_length(9, 4) == 16
        assert padded_run_bytes(1, 8) == 4
        assert padded_run_bytes(7, 4) == 4

    @given(
        st.lists(st.integers(min_value=-8, max_value=7), min_size=1, max_size=30),
        st.sampled_from([4, 8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_padded_run_restores_values_and_zero_pad(self, values, bits):
        raw = pack_padded_run(np.array(values), bits)
        assert len(raw) % 4 == 0
        restored = unpack_values(raw, padded_run_length(len(values), bits), bits)
        assert restored[: len(values)] == values
        assert all(v == 0 for v in restored[len(values):])


class TestAssembler:
    def test_li_small_and_large(self):
        asm = Assembler()
        asm.li("a0", 42)
        asm.li("a1", DMEM_BASE + 123)
        asm.emit("ebreak")
        core = IbexCore()
        core.run(asm.assemble())
        assert core.registers[reg("a0")] == 42
        assert core.registers[reg("a1")] == DMEM_BASE + 123

    def test_li_negative(self):
        asm = Assembler()
        asm.li("a0", -100000)
        asm.emit("ebreak")
        core = IbexCore()
        core.run(asm.assemble())
        assert to_signed(core.registers[reg("a0")], 32) == -100000

    def test_label_resolution_backward_and_forward(self):
        asm = Assembler()
        asm.li("a0", 3)
        asm.li("a1", 0)
        asm.label("loop")
        asm.emit("add", rd="a1", rs1="a1", rs2="a0")
        asm.emit("addi", rd="a0", rs1="a0", imm=-1)
        asm.emit("bne", rs1="a0", rs2="zero", target="loop")
        asm.emit("jal", rd="zero", target="end")
        asm.emit("addi", rd="a1", rs1="a1", imm=100)  # skipped
        asm.label("end")
        asm.emit("ebreak")
        core = IbexCore()
        core.run(asm.assemble())
        assert core.registers[reg("a1")] == 6

    def test_undefined_label_raises(self):
        asm = Assembler()
        asm.emit("jal", rd="zero", target="missing")
        with pytest.raises(AssemblerError):
            asm.assemble()

    def test_duplicate_label_raises(self):
        asm = Assembler()
        asm.label("x")
        asm.emit("addi", rd=1, rs1=0, imm=0)
        with pytest.raises(AssemblerError):
            asm.label("x")

    def test_code_size_accounting(self):
        asm = Assembler()
        asm.emit("add", rd=1, rs1=1, rs2=2)  # compressible -> 2 bytes
        asm.emit("sdotp8", rd=1, rs1=2, rs2=3)  # never compressed -> 4 bytes
        assert asm.code_size_bytes(compressed=True) == 6
        assert asm.code_size_bytes(compressed=False) == 8


@pytest.fixture(scope="module")
def compiled_pair(integer_network):
    scalar = compile_network(integer_network, use_sdotp=False)
    simd = compile_network(integer_network, use_sdotp=True)
    return scalar, simd


class TestCompilation:
    def test_fits_on_chip(self, compiled_pair):
        for compiled in compiled_pair:
            assert compiled.code_size_bytes < 16 * 1024
            assert compiled.data_size_bytes < 16 * 1024

    def test_data_accounting_consistent(self, compiled_pair):
        for compiled in compiled_pair:
            assert compiled.data_size_bytes == pytest.approx(
                compiled.weights_size_bytes + compiled.activations_size_bytes
            )
            chunk_total = sum(c.size for c in compiled.data_chunks)
            assert chunk_total == compiled.weights_size_bytes

    def test_mixed_precision_shrinks_weights(self, quantized_model, trained_small_model, prepared_data):
        q8 = quantize_model(
            trained_small_model,
            PrecisionScheme((8, 8, 8, 8)),
            calibration_data=prepared_data["train"].inputs[:100],
        )
        net8 = convert_to_integer(q8)
        net_mixed = convert_to_integer(quantized_model)
        c8 = compile_network(net8, use_sdotp=True)
        cm = compile_network(net_mixed, use_sdotp=True)
        assert cm.weights_size_bytes < c8.weights_size_bytes

    def test_layer_summaries(self, compiled_pair):
        scalar, _ = compiled_pair
        kinds = [s.kind for s in scalar.layer_summaries]
        assert kinds == ["conv", "maxpool", "conv", "linear", "linear"]
        assert all(s.macs >= 0 for s in scalar.layer_summaries)

    def test_simd_program_uses_sdotp(self, compiled_pair):
        scalar, simd = compiled_pair
        scalar_mnemonics = {i.mnemonic for i in scalar.program}
        simd_mnemonics = {i.mnemonic for i in simd.program}
        assert not scalar_mnemonics & {"sdotp8", "sdotp4"}
        assert simd_mnemonics & {"sdotp8", "sdotp4"}


class TestWriteInput:
    def test_payload_byte_identical_to_reference_loop(
        self, compiled_pair, prepared_data
    ):
        """The vectorized pad-and-scatter must produce exactly the bytes the
        original per-pixel Python loop produced."""
        from repro.deploy.runtime import quantize_frame, write_input
        from repro.hw import ibex_platform

        scalar, _ = compiled_pair
        frames = prepared_data["preprocessor"](
            prepared_data["test_session"].frames[:3]
        )
        platform = ibex_platform()
        buf = scalar.input_buffer
        for frame in frames:
            write_input(platform, scalar, frame)
            payload = platform.memory.load_bytes(buf.address, buf.size_bytes)

            # Reference: the original scalar loop, kept verbatim in the test.
            frame_int = quantize_frame(scalar, frame)
            c, h, w = frame_int.shape
            expected = bytearray(buf.size_bytes)
            zp = scalar.input_zero_point & 0xFF
            for py in range(buf.height):
                for px in range(buf.width):
                    base = py * buf.row_stride + px * buf.pixel_stride
                    inside = (
                        buf.pad <= py < buf.pad + h and buf.pad <= px < buf.pad + w
                    )
                    for ci in range(c):
                        if inside:
                            value = int(frame_int[ci, py - buf.pad, px - buf.pad]) & 0xFF
                        else:
                            value = zp
                        expected[base + ci] = value
            assert payload == bytes(expected)


class TestExecution:
    def test_bit_exact_on_both_platforms(self, compiled_pair, integer_network, prepared_data):
        frames = prepared_data["preprocessor"](prepared_data["test_session"].frames[:3])
        scalar, simd = compiled_pair
        verify_against_golden(ibex_platform(), scalar, integer_network, frames)
        verify_against_golden(maupiti_platform(), simd, integer_network, frames)

    def test_sdotp_reduces_cycles(self, compiled_pair, prepared_data):
        frames = prepared_data["preprocessor"](prepared_data["test_session"].frames[:2])
        scalar, simd = compiled_pair
        scalar_batch = simulate_batch(ibex_platform(), scalar, frames)
        simd_batch = simulate_batch(maupiti_platform(), simd, frames)
        assert simd_batch.mean_cycles < scalar_batch.mean_cycles

    def test_sdotp_model_rejected_on_ibex(self, compiled_pair, prepared_data):
        frames = prepared_data["preprocessor"](prepared_data["test_session"].frames[:1])
        _, simd = compiled_pair
        with pytest.raises(ValueError):
            simulate_batch(ibex_platform(), simd, frames)

    def test_predictions_match_golden_accuracy(self, compiled_pair, integer_network, prepared_data):
        frames = prepared_data["preprocessor"](prepared_data["test_session"].frames[:4])
        scalar, _ = compiled_pair
        batch = simulate_batch(ibex_platform(), scalar, frames)
        golden = integer_network.predict(frames)
        np.testing.assert_array_equal(batch.predictions, golden)


class TestStm32AndReports:
    def test_stm32_model_shape(self, integer_network):
        model = Stm32DeploymentModel()
        code = model.code_size_bytes(integer_network)
        data = model.data_size_bytes(integer_network)
        assert code > 20_000  # dominated by the X-CUBE-AI runtime
        assert data > integer_network.weights_bytes() * 0.5
        assert model.inference_cycles(integer_network) > model.fixed_cycles

    def test_full_report(self, integer_network, prepared_data):
        frames = prepared_data["preprocessor"](prepared_data["test_session"].frames[:2])
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            report = full_deployment_report(integer_network, frames, model_label="test")
        assert set(report.entries) == {"STM32", "IBEX", "MAUPITI"}
        # Key qualitative claims of Table I: large code-size reduction vs the
        # STM32 runtime, and MAUPITI more energy-efficient than vanilla IBEX.
        assert report.improvement("code_bytes") > 5.0
        assert report.entries["MAUPITI"].energy_uj < report.entries["IBEX"].energy_uj
        assert report.entries["STM32"].latency_ms < report.entries["MAUPITI"].latency_ms
        assert len(report.rows()) == 3

    def test_full_deployment_report_does_not_warn(self, integer_network, prepared_data):
        """full_deployment_report is the supported entry point: it stays silent."""
        frames = prepared_data["preprocessor"](prepared_data["test_session"].frames[:2])
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            report = full_deployment_report(integer_network, frames)
        assert set(report.entries) == {"STM32", "IBEX", "MAUPITI"}

    def test_stm32_report_standalone(self, integer_network):
        entry = repro.compile(integer_network, target="stm32").report()
        assert entry.platform == "STM32"
        assert entry.energy_uj > 0
