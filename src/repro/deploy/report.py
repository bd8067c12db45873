"""Deployment reports (Table I of the paper).

For a given quantized model the report gathers, for each of the three
platforms (STM32 + X-CUBE-AI, vanilla IBEX, MAUPITI):

* Code [B] — firmware code size,
* Data [B] — weights + biases + activation buffers,
* Energy [uJ] — digital energy per inference (cycles x power / frequency),
* latency and cycle counts as supporting detail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..quant.integer import IntegerNetwork


@dataclass
class PlatformReport:
    """Deployment metrics of one model on one platform."""

    platform: str
    code_bytes: int
    data_bytes: int
    cycles: float
    latency_ms: float
    energy_uj: float
    # Simulator introspection (ISA-simulated targets only): simulation mode,
    # vectorized kernel counts per kind, and JIT block tallies.
    sim: Optional[Dict] = None

    def row(self) -> str:
        return (
            f"{self.platform:<8} code={self.code_bytes:>6} B  data={self.data_bytes:>6} B  "
            f"cycles={self.cycles:>10.0f}  latency={self.latency_ms:7.3f} ms  "
            f"energy={self.energy_uj:7.3f} uJ"
        )


@dataclass
class DeploymentReport:
    """Table-I-style report for one model across the three platforms."""

    model_label: str
    entries: Dict[str, PlatformReport] = field(default_factory=dict)

    def add(self, entry: PlatformReport) -> None:
        self.entries[entry.platform] = entry

    def improvement(self, metric: str, baseline: str = "STM32", target: str = "MAUPITI") -> float:
        """Reduction factor of ``metric`` going from ``baseline`` to ``target``."""
        base = getattr(self.entries[baseline], metric)
        new = getattr(self.entries[target], metric)
        if new == 0:
            raise ZeroDivisionError(f"{target} has zero {metric}")
        return base / new

    def rows(self) -> List[str]:
        order = ["STM32", "IBEX", "MAUPITI"]
        return [self.entries[p].row() for p in order if p in self.entries]


def full_deployment_report(
    network: IntegerNetwork,
    calibration_frames: np.ndarray,
    model_label: str = "model",
) -> DeploymentReport:
    """Build the complete Table-I row set (STM32 / IBEX / MAUPITI) for one model."""
    from ..engine import compile as _compile

    report = DeploymentReport(model_label=model_label)
    report.add(_compile(network, target="stm32").report())
    report.add(_compile(network, target="ibex").report(calibration_frames))
    report.add(_compile(network, target="maupiti").report(calibration_frames))
    return report
