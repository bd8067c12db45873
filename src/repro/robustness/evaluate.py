"""Fault x severity x target robustness grid over compiled engines.

:func:`evaluate` answers the deployment question the accuracy tables leave
open: *how gracefully does the people-counting pipeline degrade when the
sensor misbehaves?*  For every fault model in the grid it corrupts the raw
(Celsius) frame stream at several severities — BEFORE pre-processing, where
a real sensor fault lives — runs the corrupted stream through each compiled
execution target, and reports raw and majority-voted accuracy/BAS next to
the clean-stream baseline, plus the target's cycle/energy figures where the
target measures them.

Everything is deterministic: scenario ``(fault_idx, severity_idx)`` derives
its RNG from ``np.random.SeedSequence([seed, fault_idx, severity_idx])``,
so two runs with the same seed produce bit-identical reports (enforced by
``TestEvaluate.test_deterministic_across_reruns`` and by
``benchmarks/perf_robust.py``).  Faulted frames are generated once per
``(fault, severity)`` cell and shared across targets, so adding a target
costs inference only, not regeneration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..engine import Engine
from ..engine import compile as compile_engine
from ..faults import build_fault
from ..nn.metrics import accuracy, balanced_accuracy
from ..postproc import majority_filter


@dataclass
class ScenarioResult:
    """One cell of the robustness grid: (fault, severity) on one target."""

    fault: str
    severity: float
    target: str
    accuracy_raw: float
    accuracy_voted: float
    bas_raw: float
    bas_voted: float
    degradation_raw: float  # baseline BAS (raw) minus this cell's
    degradation_voted: float  # baseline BAS (voted) minus this cell's
    voting_recovery: float  # degradation absorbed by the majority filter
    mean_cycles: Optional[float] = None
    total_energy_uj: Optional[float] = None

    def as_json(self) -> dict:
        return {
            "fault": self.fault,
            "severity": self.severity,
            "target": self.target,
            "accuracy_raw": self.accuracy_raw,
            "accuracy_voted": self.accuracy_voted,
            "bas_raw": self.bas_raw,
            "bas_voted": self.bas_voted,
            "degradation_raw": self.degradation_raw,
            "degradation_voted": self.degradation_voted,
            "voting_recovery": self.voting_recovery,
            "mean_cycles": self.mean_cycles,
            "total_energy_uj": self.total_energy_uj,
        }


@dataclass
class RobustnessReport:
    """Clean baselines plus the full fault grid, with degradation curves."""

    faults: Tuple[str, ...]
    severities: Tuple[float, ...]
    targets: Tuple[str, ...]
    window: int
    num_classes: int
    seed: int
    frames: int
    baselines: Dict[str, dict] = field(default_factory=dict)
    scenarios: List[ScenarioResult] = field(default_factory=list)

    def curve(self, target: str, fault: str) -> dict:
        """Severity-ordered degradation curve for one (target, fault) pair."""
        cells = sorted(
            (s for s in self.scenarios if s.target == target and s.fault == fault),
            key=lambda s: s.severity,
        )
        return {
            "severities": [s.severity for s in cells],
            "bas_raw": [s.bas_raw for s in cells],
            "bas_voted": [s.bas_voted for s in cells],
            "degradation_voted": [s.degradation_voted for s in cells],
        }

    def curves(self) -> Dict[str, Dict[str, dict]]:
        return {
            target: {fault: self.curve(target, fault) for fault in self.faults}
            for target in self.targets
        }

    def worst_case(self, target: str) -> Optional[ScenarioResult]:
        cells = [s for s in self.scenarios if s.target == target]
        if not cells:
            return None
        return max(cells, key=lambda s: s.degradation_voted)

    def as_json(self) -> dict:
        return {
            "config": {
                "faults": list(self.faults),
                "severities": list(self.severities),
                "targets": list(self.targets),
                "majority_window": self.window,
                "num_classes": self.num_classes,
                "seed": self.seed,
                "frames": self.frames,
            },
            "baselines": self.baselines,
            "scenarios": [s.as_json() for s in self.scenarios],
            "curves": self.curves(),
        }


def _run_cell(
    engine: Engine, inputs: np.ndarray, labels: np.ndarray, window: int, num_classes: int
) -> dict:
    batch = engine.predict_batch(inputs)
    raw = np.asarray(batch.predictions, dtype=np.int64)
    voted = majority_filter(raw, window=window, num_classes=num_classes)
    return {
        "accuracy_raw": accuracy(labels, raw),
        "accuracy_voted": accuracy(labels, voted),
        "bas_raw": balanced_accuracy(labels, raw, num_classes),
        "bas_voted": balanced_accuracy(labels, voted, num_classes),
        "mean_cycles": batch.mean_cycles,
        "total_energy_uj": batch.total_energy_uj,
    }


def evaluate(
    model,
    frames: np.ndarray,
    labels: Sequence[int],
    *,
    preprocess=None,
    faults: Sequence[str] = ("dead-pixels", "gaussian-noise", "ambient-drift", "frame-drop"),
    severities: Sequence[float] = (0.1, 0.3, 0.6),
    targets: Union[Sequence[str], Dict[str, Engine]] = ("int-golden",),
    window: int = 5,
    num_classes: int = 4,
    seed: int = 0,
) -> RobustnessReport:
    """Run the fault x severity x target grid and return the report.

    Parameters
    ----------
    model:
        Anything :func:`repro.compile` accepts (ignored when ``targets`` is
        already a mapping of compiled engines).
    frames:
        RAW sensor frames, ``(N, H, W)`` or ``(N, 1, H, W)``, in the units
        the sensor emits — faults are injected here, before ``preprocess``.
    labels:
        Per-frame ground-truth occupancy labels, temporally ordered (the
        majority filter is causal).
    preprocess:
        Optional callable applied after fault injection (the deployment
        pre-processing, e.g. a fitted :class:`repro.flow.Preprocessor`).
    targets:
        Target names to compile ``model`` for, or an explicit mapping of
        ``{name: Engine}`` to reuse already-compiled engines.
    """
    frames = np.asarray(frames, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = frames.shape[0]
    if labels.shape[0] != n:
        raise ValueError(f"{n} frames but {labels.shape[0]} labels")
    fault_names = tuple(faults)
    sev_grid = tuple(float(s) for s in severities)
    if isinstance(targets, dict):
        engines = dict(targets)
    else:
        engines = {name: compile_engine(model, target=name) for name in targets}

    report = RobustnessReport(
        faults=fault_names,
        severities=sev_grid,
        targets=tuple(engines),
        window=window,
        num_classes=num_classes,
        seed=seed,
        frames=n,
    )

    def prepared(raw: np.ndarray) -> np.ndarray:
        return preprocess(raw) if preprocess is not None else raw

    clean = prepared(frames)
    for name, engine in engines.items():
        report.baselines[name] = _run_cell(engine, clean, labels, window, num_classes)

    for fi, fault_name in enumerate(fault_names):
        for si, severity in enumerate(sev_grid):
            fault = build_fault(fault_name, severity=severity)
            # One deterministic stream per cell, shared by every target.
            faulted = fault.apply(
                frames, seed=np.random.SeedSequence([seed, fi, si])
            )
            inputs = prepared(faulted)
            for name, engine in engines.items():
                cell = _run_cell(engine, inputs, labels, window, num_classes)
                base = report.baselines[name]
                degradation_raw = base["bas_raw"] - cell["bas_raw"]
                degradation_voted = base["bas_voted"] - cell["bas_voted"]
                report.scenarios.append(
                    ScenarioResult(
                        fault=fault_name,
                        severity=severity,
                        target=name,
                        accuracy_raw=cell["accuracy_raw"],
                        accuracy_voted=cell["accuracy_voted"],
                        bas_raw=cell["bas_raw"],
                        bas_voted=cell["bas_voted"],
                        degradation_raw=degradation_raw,
                        degradation_voted=degradation_voted,
                        voting_recovery=degradation_raw - degradation_voted,
                        mean_cycles=cell["mean_cycles"],
                        total_energy_uj=cell["total_energy_uj"],
                    )
                )
    return report
