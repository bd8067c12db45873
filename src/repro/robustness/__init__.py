"""`repro.robustness` — graceful-degradation reporting under sensor faults.

Sweeps the :mod:`repro.faults` registry over severities and execution
targets and reports accuracy/BAS degradation curves (raw and
majority-voted) plus per-scenario cycle/energy cost::

    from repro.robustness import evaluate

    report = evaluate(
        qmodel, raw_frames, labels,
        preprocess=pre,
        faults=("dead-pixels", "gaussian-noise", "ambient-drift", "frame-drop"),
        severities=(0.1, 0.3, 0.6),
        targets=("int-golden", "maupiti"),
        seed=0,
    )
    report.curve("int-golden", "dead-pixels")   # severity-ordered curve
    report.as_json()                            # BENCH_robust.json payload

``benchmarks/perf_robust.py`` drives this harness end to end and writes
``BENCH_robust.json``; ``TestEvaluate.test_deterministic_across_reruns``
(``tests/test_robustness.py``) checks that reruns are byte-identical.
"""

from .evaluate import RobustnessReport, ScenarioResult, evaluate

__all__ = ["RobustnessReport", "ScenarioResult", "evaluate"]
