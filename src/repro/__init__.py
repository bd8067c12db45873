"""repro — reproduction of "HW-SW Optimization of DNNs for Privacy-Preserving
People Counting on Low-Resolution Infrared Arrays" (DATE 2024).

The quickest way in is the engine façade: define or train a model once, then
``repro.compile(model, target=...)`` it for any execution target —

>>> engine = repro.compile(model, target="maupiti")
>>> engine.predict_batch(frames).predictions

Sub-packages
------------
``repro.engine``
    The unified execution API: ``repro.compile(model, target=...)`` returns
    an ``Engine`` with ``predict`` / ``predict_batch`` / ``stream`` /
    ``report`` over a registry of targets (``numpy-float``, ``int-golden``,
    ``ibex``, ``maupiti``, ``stm32`` — extensible via ``register_target``).
``repro.nn``
    Numpy-based DNN training framework (layers, losses, optimizers, metrics).
``repro.datasets``
    Synthetic LINAIGE-compatible 8x8 infrared dataset and transforms.
``repro.nas``
    PIT mask-based differentiable architecture search.
``repro.quant``
    INT4/INT8 mixed-precision quantization-aware training and integer lowering.
``repro.postproc``
    Sliding-window majority-voting post-processing.
``repro.hw``
    MAUPITI smart-sensor platform: RV32IM+SDOTP ISA simulator, memories,
    sensor and energy models.
``repro.deploy``
    Deployment toolchain: kernels/code generation, runtime, STM32 baseline,
    Table-I reports.
``repro.flow``
    End-to-end flow orchestration, Pareto utilities and the manual baseline.
``repro.parallel``
    Executor-based trial parallelism (serial / process pools) and the
    content-addressed result cache behind ``FlowConfig(executor=...)``.
``repro.serve``
    Multi-session streaming inference service: asyncio HTTP/1.1 (or WSGI)
    front-end, per-session majority FIFOs, cross-session micro-batching
    through ``Engine.predict_batch``, backpressure, TTL eviction, metrics.
"""

from . import datasets, deploy, engine, flow, hw, nas, nn, parallel
from . import postproc, quant, serve
from .engine import Engine, StreamSession, available_targets, compile, register_target

__version__ = "1.4.0"

__all__ = [
    "compile",
    "Engine",
    "StreamSession",
    "available_targets",
    "register_target",
    "engine",
    "nn",
    "datasets",
    "nas",
    "quant",
    "postproc",
    "hw",
    "deploy",
    "flow",
    "parallel",
    "serve",
    "__version__",
]
