"""The repro.robustness harness: grid shape, determinism, degradation curves."""

import json

import numpy as np
import pytest

import repro
from repro.robustness import RobustnessReport, evaluate

FAULTS = ("dead-pixels", "gaussian-noise")
SEVERITIES = (0.2, 0.8)


@pytest.fixture(scope="module")
def report(quantized_model, prepared_data, tiny_dataset):
    held = tiny_dataset.session(2)
    return evaluate(
        quantized_model,
        held.frames[:24],
        held.labels[:24],
        preprocess=prepared_data["preprocessor"],
        faults=FAULTS,
        severities=SEVERITIES,
        targets=("int-golden",),
        window=3,
        seed=0,
    )


class TestEvaluate:
    def test_grid_is_complete(self, report):
        assert len(report.scenarios) == len(FAULTS) * len(SEVERITIES)
        seen = {(s.fault, s.severity, s.target) for s in report.scenarios}
        assert len(seen) == len(report.scenarios)
        assert report.frames == 24

    def test_baseline_per_target(self, report):
        base = report.baselines["int-golden"]
        for key in ("accuracy_raw", "accuracy_voted", "bas_raw", "bas_voted"):
            assert 0.0 <= base[key] <= 1.0

    def test_degradation_is_relative_to_baseline(self, report):
        base = report.baselines["int-golden"]
        for s in report.scenarios:
            assert s.degradation_voted == pytest.approx(
                base["bas_voted"] - s.bas_voted
            )
            assert s.voting_recovery == pytest.approx(
                s.degradation_raw - s.degradation_voted
            )

    def test_curve_is_severity_ordered(self, report):
        curve = report.curve("int-golden", "gaussian-noise")
        assert curve["severities"] == sorted(SEVERITIES)
        assert len(curve["bas_voted"]) == len(SEVERITIES)

    def test_curves_cover_the_grid(self, report):
        curves = report.curves()
        assert set(curves) == {"int-golden"}
        assert set(curves["int-golden"]) == set(FAULTS)

    def test_worst_case_maximizes_voted_degradation(self, report):
        worst = report.worst_case("int-golden")
        assert worst.degradation_voted == max(
            s.degradation_voted for s in report.scenarios
        )
        assert report.worst_case("missing-target") is None

    def test_as_json_is_serializable_and_complete(self, report):
        payload = json.loads(json.dumps(report.as_json()))
        assert payload["config"]["faults"] == list(FAULTS)
        assert len(payload["scenarios"]) == len(report.scenarios)
        assert "curves" in payload and "baselines" in payload

    def test_deterministic_across_reruns(
        self, quantized_model, prepared_data, tiny_dataset
    ):
        """Two independent runs — each compiling its own engines, on the
        functional golden model and the ISA simulator, with a temporal
        (stream-shortening) fault in the grid — give byte-identical
        reports."""
        held = tiny_dataset.session(2)

        def payload():
            report = evaluate(
                quantized_model,
                held.frames[:24],
                held.labels[:24],
                preprocess=prepared_data["preprocessor"],
                faults=("gaussian-noise", "frame-drop"),
                severities=SEVERITIES,
                targets=("int-golden", "maupiti"),
                window=3,
                seed=0,
            )
            assert report.baselines["maupiti"]["mean_cycles"] > 0
            return json.dumps(report.as_json(), sort_keys=True)

        assert payload() == payload()

    def test_accepts_prebuilt_engines(
        self, quantized_model, prepared_data, tiny_dataset
    ):
        held = tiny_dataset.session(2)
        engines = {"golden": repro.compile(quantized_model, target="int-golden")}
        rep = evaluate(
            None,  # model unused when engines are supplied
            held.frames[:12],
            held.labels[:12],
            preprocess=prepared_data["preprocessor"],
            faults=("dead-pixels",),
            severities=(0.5,),
            targets=engines,
            window=3,
            seed=1,
        )
        assert rep.targets == ("golden",)
        assert len(rep.scenarios) == 1

    def test_label_count_mismatch_rejected(
        self, quantized_model, tiny_dataset
    ):
        held = tiny_dataset.session(2)
        with pytest.raises(ValueError, match="labels"):
            evaluate(quantized_model, held.frames[:10], held.labels[:8])

    def test_severity_zero_cell_matches_baseline(
        self, quantized_model, prepared_data, tiny_dataset
    ):
        held = tiny_dataset.session(2)
        rep = evaluate(
            quantized_model,
            held.frames[:16],
            held.labels[:16],
            preprocess=prepared_data["preprocessor"],
            faults=("gaussian-noise",),
            severities=(0.0,),
            targets=("int-golden",),
            window=3,
            seed=0,
        )
        cell = rep.scenarios[0]
        base = rep.baselines["int-golden"]
        assert cell.bas_raw == base["bas_raw"]
        assert cell.bas_voted == base["bas_voted"]
        assert cell.degradation_voted == 0.0
