"""The built-in execution targets.

Five targets ship with the reproduction, mirroring the paper's evaluation
matrix:

* ``numpy-float`` — the training-time float (or fake-quant QAT) forward,
* ``int-golden`` — the bit-true numpy integer golden model,
* ``ibex``       — scalar kernels on the ISA-simulated vanilla IBEX core,
* ``maupiti``    — SDOTP SIMD kernels on the ISA-simulated MAUPITI core,
* ``stm32``      — the analytical STM32L4R5 + X-CUBE-AI baseline.

New targets register themselves with
:func:`~repro.engine.registry.register_target`; nothing else in the engine
needs to change.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..deploy.program import CompiledModel, compile_network
from ..deploy.report import PlatformReport
from ..deploy.runtime import (
    load_model,
    run_frame,
    simulate_batch,
    verify_against_golden,
)
from ..deploy.stm32 import Stm32DeploymentModel
from ..hw.platform import SmartSensorPlatform, ibex_platform, maupiti_platform
from .registry import EngineError, get_target, register_target
from .results import BatchPrediction, Prediction


class EngineBackend:
    """Common machinery of every target backend.

    Subclasses implement :meth:`predict_batch` (and usually
    :meth:`predict_frame`); :meth:`report` and :meth:`prepare` are optional.
    """

    spec = None  # set by @register_target

    def __init__(self, bundle):
        self.bundle = bundle

    def prepare(self) -> None:
        """One-time setup before a batch or stream (e.g. loading weights)."""

    def predict_frame(self, frame: np.ndarray) -> Prediction:
        batch = self.predict_batch(frame[None])
        return Prediction(
            prediction=int(batch.predictions[0]),
            logits=None if batch.logits is None else batch.logits[0],
            cycles=None
            if batch.cycles_per_frame is None
            else int(batch.cycles_per_frame[0]),
            energy_uj=None
            if batch.energy_uj_per_frame is None
            else float(batch.energy_uj_per_frame[0]),
        )

    def predict_batch(self, frames: np.ndarray) -> BatchPrediction:
        raise NotImplementedError

    def report(
        self, frames: Optional[np.ndarray] = None, *, measured=None
    ) -> PlatformReport:
        raise EngineError(
            f"target {self.spec.name!r} does not produce deployment reports"
        )


# --------------------------------------------------------------------- #
def compile_and_report(
    model,
    target: str,
    frames: np.ndarray,
    *,
    sim_mode: str = "jit",
    verify: bool = True,
) -> PlatformReport:
    """Compile ``model`` for ``target`` and produce its Table-I report.

    One deployment = one compile + (where supported) one batched bit-exact
    verification against the integer golden model, whose cycle measurements
    are reused by the report so each frame is simulated exactly once.

    Module-level on purpose: flow stage 4 submits per-target deployments as
    :mod:`repro.parallel` task units, and process executors need a picklable
    entry point (pass an ``IntegerNetwork`` so the integer lowering is done
    once in the parent rather than per worker).
    """
    from .api import compile as compile_engine

    opts = {"sim_mode": sim_mode} if get_target(target).supports_sim_mode else {}
    engine = compile_engine(model, target=target, **opts)
    measured = None
    if verify and engine.can_verify:
        measured = engine.verify(frames)
    return engine.report(frames, measured=measured)


# --------------------------------------------------------------------- #
@register_target(
    "numpy-float",
    description="Float / fake-quant numpy forward (training-time reference)",
    supports_stats=False,
    aliases=("numpy", "float"),
)
class NumpyFloatBackend(EngineBackend):
    """Chunked numpy forward pass through a float or QAT model."""

    def __init__(self, bundle, batch_size: int = 256):
        super().__init__(bundle)
        self.model = bundle.require_callable()
        self.batch_size = batch_size

    def predict_batch(self, frames: np.ndarray) -> BatchPrediction:
        self.model.eval()
        chunks = []
        for start in range(0, frames.shape[0], self.batch_size):
            chunks.append(np.asarray(self.model(frames[start : start + self.batch_size])))
        logits = (
            np.concatenate(chunks) if chunks else np.empty((0, 0), dtype=np.float64)
        )
        predictions = (
            np.argmax(logits, axis=1).astype(np.int64)
            if logits.size
            else np.empty(0, dtype=np.int64)
        )
        return BatchPrediction(predictions=predictions, logits=logits)

    def prepare(self) -> None:
        self.model.eval()


# --------------------------------------------------------------------- #
@register_target(
    "int-golden",
    description="Bit-true numpy integer golden model (INT32 logits)",
    supports_stats=False,
    aliases=("golden", "int"),
)
class IntGoldenBackend(EngineBackend):
    """Vectorized integer inference; the reference the simulators must match."""

    def __init__(self, bundle):
        super().__init__(bundle)
        self.network = bundle.require_integer()

    def predict_batch(self, frames: np.ndarray) -> BatchPrediction:
        logits = self.network.forward(frames)
        return BatchPrediction(
            predictions=np.argmax(logits, axis=1).astype(np.int64), logits=logits
        )


# --------------------------------------------------------------------- #
class _SimulatedBackend(EngineBackend):
    """Shared implementation of the two ISA-simulated targets.

    ``sim_mode`` selects the simulation engine: ``"jit"`` (default) runs
    exec-compiled block code with cross-frame batching and the process-wide
    trace cache (:mod:`repro.hw.sim.jit`), ``"interp"`` the per-instruction
    reference interpreter.  Both are bit-exact in predictions, logits, cycle
    counts and energy; batches go through
    :func:`repro.deploy.runtime.simulate_batch`, which amortizes model
    load, input packing and trace compilation across frames.
    """

    _platform_factory = None  # set by subclasses

    def __init__(
        self,
        bundle,
        platform: Optional[SmartSensorPlatform] = None,
        compiled: Optional[CompiledModel] = None,
        num_classes: int = 4,
        sim_mode: Optional[str] = None,
    ):
        super().__init__(bundle)
        self.network = bundle.require_integer()
        if platform is not None:
            if sim_mode is not None and platform.sim_mode != sim_mode:
                raise EngineError(
                    f"conflicting options: the supplied platform simulates in "
                    f"{platform.sim_mode!r} mode but sim_mode={sim_mode!r} was "
                    "requested; build the platform with the desired sim_mode "
                    "or drop one of the two options"
                )
            self.platform = platform
        else:
            self.platform = type(self)._platform_factory(sim_mode=sim_mode or "jit")
        self.compiled = compiled or compile_network(
            self.network,
            use_sdotp=self.platform.spec.supports_sdotp,
            num_classes=num_classes,
            code_overhead_bytes=self.platform.spec.code_overhead_bytes,
        )
        self._loaded = False

    # ------------------------------------------------------------------ #
    @property
    def sim_mode(self) -> str:
        return self.platform.sim_mode

    def prepare(self) -> None:
        load_model(self.platform, self.compiled)
        self._loaded = True

    def predict_frame(self, frame: np.ndarray) -> Prediction:
        if not self._loaded:
            self.prepare()
        result = run_frame(self.platform, self.compiled, frame)
        spec = self.platform.spec
        return Prediction(
            prediction=result.prediction,
            logits=result.logits,
            cycles=result.cycles,
            energy_uj=spec.energy_per_inference_uj(result.cycles),
            latency_s=spec.cycles_to_seconds(result.cycles),
        )

    def predict_batch(self, frames: np.ndarray) -> BatchPrediction:
        batch = simulate_batch(self.platform, self.compiled, frames)
        self._loaded = True
        spec = self.platform.spec
        energy = np.array(
            [spec.energy_per_inference_uj(int(c)) for c in batch.cycles_per_frame],
            dtype=np.float64,
        )
        return BatchPrediction(
            predictions=batch.predictions,
            logits=batch.logits,
            cycles_per_frame=batch.cycles_per_frame,
            energy_uj_per_frame=energy,
        )

    def verify(self, frames: np.ndarray):
        """Bit-exact check of the simulated program vs the golden model."""
        return verify_against_golden(
            self.platform, self.compiled, self.network, frames
        )

    def sim_info(self) -> dict:
        """Simulator introspection: mode, kernel counts and block tallies.

        For ``"jit"`` mode, reports the vectorized-kernel counts per kind
        plus the block tallies (``total``, ``kernel``, and ``jit``, the
        blocks run as generated code); for ``"interp"`` mode, just the mode.
        """
        core = self.platform.core
        info: dict = {"mode": self.sim_mode}
        if self.sim_mode == "jit":
            from ..hw.sim.trace_cache import get_template

            template = get_template(
                self.compiled.program, core.cycle_model, core.enable_sdotp
            )
            info["kernel_counts"] = template.kernel_counts()
            info["blocks"] = template.block_tallies()
        return info

    def report(
        self, frames: Optional[np.ndarray] = None, *, measured=None
    ) -> PlatformReport:
        if measured is not None and measured.mean_cycles:
            cycles = float(measured.mean_cycles)
        elif frames is None or len(frames) == 0:
            raise EngineError(
                f"target {self.spec.name!r} measures cycles on the simulator; "
                "report() needs at least one calibration frame (or a "
                "'measured' batch from an earlier run)"
            )
        else:
            cycles = self.predict_batch(frames).mean_cycles
        spec = self.platform.spec
        return PlatformReport(
            platform=spec.name,
            code_bytes=self.compiled.code_size_bytes,
            data_bytes=self.compiled.data_size_bytes,
            cycles=cycles,
            latency_ms=spec.cycles_to_seconds(int(cycles)) * 1e3,
            energy_uj=spec.energy_per_inference_uj(int(cycles)),
            sim=self.sim_info(),
        )


@register_target(
    "ibex",
    description="Vanilla IBEX core, scalar kernels on the ISA simulator",
    supports_stats=True,
    supports_sim_mode=True,
)
class IbexBackend(_SimulatedBackend):
    _platform_factory = staticmethod(ibex_platform)


@register_target(
    "maupiti",
    description="MAUPITI core, SDOTP SIMD kernels on the ISA simulator",
    supports_stats=True,
    supports_sim_mode=True,
)
class MaupitiBackend(_SimulatedBackend):
    _platform_factory = staticmethod(maupiti_platform)


# --------------------------------------------------------------------- #
@register_target(
    "stm32",
    description="Analytical STM32L4R5 + X-CUBE-AI baseline (8-bit only)",
    supports_stats=True,
)
class Stm32Backend(EngineBackend):
    """STM32 + X-CUBE-AI baseline.

    The X-CUBE-AI runtime is closed source, so cycle/energy figures come
    from the calibrated analytical model; functional predictions execute the
    same integer golden network the MCU would run.
    """

    def __init__(self, bundle, deployment_model: Optional[Stm32DeploymentModel] = None):
        super().__init__(bundle)
        self.network = bundle.require_integer()
        self.model = deployment_model or Stm32DeploymentModel()
        self._cycles = self.model.inference_cycles(self.network)
        self._energy_uj = self.model.energy_uj(self.network)
        self._latency_s = self.model.latency_s(self.network)

    def predict_batch(self, frames: np.ndarray) -> BatchPrediction:
        logits = self.network.forward(frames)
        n = logits.shape[0]
        return BatchPrediction(
            predictions=np.argmax(logits, axis=1).astype(np.int64),
            logits=logits,
            cycles_per_frame=np.full(n, self._cycles, dtype=np.int64),
            energy_uj_per_frame=np.full(n, self._energy_uj, dtype=np.float64),
        )

    def predict_frame(self, frame: np.ndarray) -> Prediction:
        prediction = super().predict_frame(frame)
        prediction.latency_s = self._latency_s
        return prediction

    def report(
        self, frames: Optional[np.ndarray] = None, *, measured=None
    ) -> PlatformReport:
        return PlatformReport(
            platform=self.model.spec.name,
            code_bytes=self.model.code_size_bytes(self.network),
            data_bytes=self.model.data_size_bytes(self.network),
            cycles=self._cycles,
            latency_ms=self._latency_s * 1e3,
            energy_uj=self._energy_uj,
        )
