"""Inference runtime: run a compiled model on the simulated smart sensor.

The runtime plays the role of the boot/IO firmware that is not part of the
benchmarked kernels: it loads the program image and the constant data into
the on-chip memories, writes each (quantized) input frame into the input
activation buffer — as the sensor read-out DMA would — starts the core, and
reads back the predicted class.

It also provides :func:`simulate_batch` — whole-split simulation that
amortizes model load, input quantization/packing and (in ``jit`` mode)
the simulator's compiled template across frames — and :func:`verify_against_golden`, which
checks in one batched call that the ISA simulation reproduces the numpy
integer golden model bit-exactly.

This module is the low-level layer under the :mod:`repro.engine` façade;
application code should normally go through
``repro.compile(model, target="maupiti")`` instead of calling
:func:`run_frame` / :func:`simulate_batch` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..hw.core import ExecutionStats, SimulationError
from ..hw.memory import MemoryError_
from ..hw.platform import SmartSensorPlatform
from ..quant.integer import IntegerNetwork
from .program import CompiledModel


@dataclass
class InferenceResult:
    """Outcome of running one frame on the simulated platform."""

    prediction: int
    logits: np.ndarray
    stats: ExecutionStats

    @property
    def cycles(self) -> int:
        return self.stats.cycles


@dataclass
class BatchInferenceResult:
    """Aggregated results over a sequence of frames."""

    predictions: np.ndarray
    cycles_per_frame: np.ndarray
    results: List[InferenceResult] = field(default_factory=list)
    logits: Optional[np.ndarray] = None  # (N, num_classes) INT32-valued

    @property
    def mean_cycles(self) -> float:
        return float(self.cycles_per_frame.mean()) if self.cycles_per_frame.size else 0.0


def load_model(platform: SmartSensorPlatform, compiled: CompiledModel) -> None:
    """Load constant data (weights, biases) into the platform's data memory
    and check the image against the memory budget."""
    platform.check_fits(compiled.code_size_bytes, compiled.data_size_bytes)
    if compiled.use_sdotp and not platform.spec.supports_sdotp:
        raise ValueError(
            f"model compiled with SDOTP kernels cannot run on {platform.spec.name}"
        )
    for chunk in compiled.data_chunks:
        platform.memory.store_bytes(chunk.address, chunk.payload)


def quantize_frame(compiled: CompiledModel, frame: np.ndarray) -> np.ndarray:
    """Quantize one float frame to the signed input grid of the first layer."""
    bits_max = 2 ** (8 - 1) - 1
    bits_min = -(2 ** (8 - 1))
    q = np.round(np.asarray(frame, dtype=np.float64) / compiled.input_scale)
    return np.clip(q + compiled.input_zero_point, bits_min, bits_max).astype(np.int64)


def pack_input_frames(compiled: CompiledModel, frames: np.ndarray) -> np.ndarray:
    """Quantize and pack a ``(N, C, H, W)`` batch into input-buffer payloads.

    The input buffer is laid out as ``[row][pixel][padded channel run]``;
    each payload is built as one ``(H, W, pixel_stride)`` uint8 array —
    zero-point fill for the pad ring, frame values scattered into the
    interior.  Packing the whole batch in one numpy pass is what
    :func:`simulate_batch` amortizes across frames; the bytes produced are
    identical to per-frame :func:`write_input` calls.

    Returns a ``(N, buf.size_bytes)`` uint8 array.
    """
    buf = compiled.input_buffer
    frames = np.asarray(frames)
    if frames.ndim != 4:
        raise ValueError(f"expected a (N, C, H, W) batch, got shape {frames.shape}")
    n, c, h, w = frames.shape
    if c != buf.channels or h + 2 * buf.pad != buf.height or w + 2 * buf.pad != buf.width:
        raise ValueError("frame shape does not match the compiled input buffer")
    if buf.bits != 8:
        raise ValueError(f"the input buffer stores {buf.bits}-bit values; only 8-bit input is supported")
    if buf.row_stride != buf.width * buf.pixel_stride:
        raise ValueError(
            "input buffers with row-alignment padding are not supported: "
            f"row_stride {buf.row_stride} != width*pixel_stride {buf.width * buf.pixel_stride}"
        )

    frames_int = quantize_frame(compiled, frames)
    zp = compiled.input_zero_point & 0xFF
    payload = np.zeros((n, buf.height, buf.width, buf.pixel_stride), dtype=np.uint8)
    payload[:, :, :, :c] = zp  # pad ring; the run's alignment padding stays 0
    payload[:, buf.pad : buf.pad + h, buf.pad : buf.pad + w, :c] = (
        (frames_int & 0xFF).astype(np.uint8).transpose(0, 2, 3, 1)
    )
    return payload.reshape(n, buf.size_bytes)


def write_input(platform: SmartSensorPlatform, compiled: CompiledModel, frame: np.ndarray) -> None:
    """Write one quantized input frame into the (spatially padded) input
    buffer with a single DMA-like write."""
    frame = np.asarray(frame)
    if frame.ndim != 3:  # (C, H, W)
        raise ValueError(f"expected a (C, H, W) frame, got shape {frame.shape}")
    payload = pack_input_frames(compiled, frame[None])[0]
    platform.memory.store_bytes(compiled.input_buffer.address, payload.tobytes())


def _read_outputs_from(memory, compiled: CompiledModel) -> tuple:
    """Read back (prediction, logits) from a memory after a program run."""
    prediction = int(memory.load_word(compiled.result_address))
    raw = memory.load_bytes(compiled.logits_address, 4 * compiled.num_classes)
    logits = np.frombuffer(raw, dtype="<i4").astype(np.int64)
    return prediction, logits


def run_frame(
    platform: SmartSensorPlatform, compiled: CompiledModel, frame: np.ndarray
) -> InferenceResult:
    """Run a single frame through the compiled model on the simulator."""
    write_input(platform, compiled, frame)
    stats = platform.run_program(compiled.program)
    prediction, logits = _read_outputs_from(platform.memory, compiled)
    return InferenceResult(prediction=prediction, logits=logits, stats=stats)


def simulate_batch(
    platform: SmartSensorPlatform,
    compiled: CompiledModel,
    frames: np.ndarray,
    keep_results: bool = False,
) -> BatchInferenceResult:
    """Simulate a whole ``(N, C, H, W)`` batch of frames in one call.

    Everything frame-independent is amortized across the batch: the model
    image is loaded once, every frame is quantized and packed into its
    input-buffer payload in one vectorized pass
    (:func:`pack_input_frames`), and — on a ``sim_mode="jit"`` platform —
    the program is compiled once and the frames run through it together,
    batched across frames wherever the kernels allow.  Results are
    identical to running the frames one by one.
    """
    frames = np.asarray(frames)
    load_model(platform, compiled)
    if frames.size == 0:  # empty splits are fine, whatever their shape
        return BatchInferenceResult(
            predictions=np.empty(0, dtype=np.int64),
            cycles_per_frame=np.empty(0, dtype=np.int64),
            logits=np.empty((0, compiled.num_classes), dtype=np.int64),
        )
    payloads = pack_input_frames(compiled, frames)
    if platform.sim_mode == "jit" and len(payloads) > 1:
        # Cross-frame batched walk: every frame runs against its own memory
        # clone, so a failed attempt leaves the platform untouched and the
        # sequential loop below reproduces the exact result (or fault).
        # Only lockstep divergence and simulated faults fall back; anything
        # else is a simulator bug and propagates.
        from ..hw.sim.jit import BatchDivergence  # deferred: jit only

        try:
            return _simulate_batch_jit(platform, compiled, payloads, keep_results)
        except (BatchDivergence, SimulationError, MemoryError_):
            pass
    buf_address = compiled.input_buffer.address
    store_bytes = platform.memory.store_bytes
    predictions: List[int] = []
    cycles: List[int] = []
    logits_rows: List[np.ndarray] = []
    results: List[InferenceResult] = []
    for payload in payloads:
        store_bytes(buf_address, payload.tobytes())
        stats = platform.run_program(compiled.program)
        prediction, logits = _read_outputs_from(platform.memory, compiled)
        predictions.append(prediction)
        cycles.append(stats.cycles)
        logits_rows.append(logits)
        if keep_results:
            results.append(
                InferenceResult(prediction=prediction, logits=logits, stats=stats)
            )
    return BatchInferenceResult(
        predictions=np.asarray(predictions, dtype=np.int64),
        cycles_per_frame=np.asarray(cycles, dtype=np.int64),
        results=results,
        logits=np.stack(logits_rows)
        if logits_rows
        else np.empty((0, compiled.num_classes), dtype=np.int64),
    )


def _simulate_batch_jit(
    platform: SmartSensorPlatform,
    compiled: CompiledModel,
    payloads: np.ndarray,
    keep_results: bool,
) -> BatchInferenceResult:
    """Batched JIT path of :func:`simulate_batch`.

    One lockstep trace walk drives every frame (see
    :mod:`repro.hw.sim.batch`), batching kernel calls into multi-frame numpy
    ops; every frame's prediction and logits are then read in one slice of
    the batch's ``(frames, dmem)`` matrix.  The platform ends in the same
    architectural state as after a sequential run: the last frame's memory,
    registers, pc and stats.  Raises on any divergence (and
    :class:`MemoryError_` if a result buffer lies outside dmem); the caller
    falls back to the sequential loop.
    """
    from ..hw.sim.batch import run_batch

    core = platform.core
    outcomes = run_batch(
        platform.memory,
        compiled.program,
        [p.tobytes() for p in payloads],
        compiled.input_buffer.address,
        core.cycle_model,
        core.enable_sdotp,
        core.max_instructions,
    )
    result = outcomes.dmem.gather(compiled.result_address, 4)
    raw = outcomes.dmem.gather(compiled.logits_address, 4 * compiled.num_classes)
    if result is None or raw is None:
        raise MemoryError_("result buffers outside dmem")
    predictions = np.ascontiguousarray(result).view("<i4")[:, 0].astype(np.int64)
    logits = np.ascontiguousarray(raw).view("<i4").astype(np.int64)
    cycles = np.array([o.stats.cycles for o in outcomes], dtype=np.int64)
    results: List[InferenceResult] = []
    if keep_results:
        results = [
            InferenceResult(prediction=int(p), logits=lg, stats=o.stats)
            for p, lg, o in zip(predictions, logits, outcomes)
        ]
    last = outcomes[-1]
    platform.memory.copy_from(last.memory)
    core.registers = list(last.regs)
    core.pc = last.final_pc
    core.stats = last.stats
    core.halted = True
    return BatchInferenceResult(
        predictions=predictions,
        cycles_per_frame=cycles,
        results=results,
        logits=logits,
    )


def verify_against_golden(
    platform: SmartSensorPlatform,
    compiled: CompiledModel,
    golden: IntegerNetwork,
    frames: np.ndarray,
    check_logits: bool = True,
) -> BatchInferenceResult:
    """Run frames on the ISA simulator and assert bit-exact agreement with the
    numpy integer golden model (logits and predictions).

    The whole split is simulated in one :func:`simulate_batch` call and the
    golden model runs one vectorized forward pass over the batch, so the
    verification costs one simulation per frame and a single numpy forward.
    """
    frames = np.asarray(frames)
    batch = simulate_batch(platform, compiled, frames)
    if frames.size == 0:
        return batch
    golden_logits = golden.forward(frames)
    golden_preds = np.argmax(golden_logits, axis=1)
    if check_logits and not np.array_equal(batch.logits, golden_logits):
        index = int(
            np.nonzero(~np.all(batch.logits == golden_logits, axis=1))[0][0]
        )
        raise AssertionError(
            f"frame {index}: simulator logits {batch.logits[index].tolist()} "
            f"differ from golden {golden_logits[index].tolist()}"
        )
    if not np.array_equal(batch.predictions, golden_preds):
        index = int(np.nonzero(batch.predictions != golden_preds)[0][0])
        raise AssertionError(
            f"frame {index}: simulator predicted {int(batch.predictions[index])}, "
            f"golden predicted {int(golden_preds[index])}"
        )
    return batch
