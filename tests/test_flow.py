"""Flow orchestration: seeds, Pareto utilities, manual baseline, full pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow import (
    FlowConfig,
    MANUAL_GRID,
    OptimizationFlow,
    ParetoPoint,
    Preprocessor,
    best_at_cost_budget,
    build_seed_cnn,
    cost_at_score_floor,
    is_dominated,
    merge_fronts,
    pareto_front,
    points_from,
    reduction_factor,
    train_manual_baseline,
)
from repro.nas import count_macs, count_params
from repro.nas.search import SearchConfig
from repro.nn import TrainConfig
from repro.quant import QATConfig


class TestSeed:
    def test_seed_matches_paper_description(self):
        rng = np.random.default_rng(0)
        seed = build_seed_cnn(rng)
        # Two 3x3 convs with 64 channels, FC 64, FC 4 on an 8x8 input.
        # count_params excludes BatchNorm parameters (folded before deployment).
        assert count_params(seed) == (
            (1 * 9 * 64 + 64)          # conv1
            + (64 * 9 * 64 + 64)       # conv2
            + (64 * 16 * 64 + 64)      # fc1 on the 4x4x64 map
            + (64 * 4 + 4)             # fc2
        )
        out = seed(rng.normal(size=(2, 1, 8, 8)))
        assert out.shape == (2, 4)

    def test_seed_macs(self):
        rng = np.random.default_rng(0)
        seed = build_seed_cnn(rng)
        expected = 64 * 64 * 9 * 1 + 16 * 64 * 64 * 9 + 64 * 16 * 64 + 64 * 4
        assert count_macs(seed) == expected

    def test_configuration_validation(self):
        with pytest.raises(ValueError):
            build_seed_cnn(conv_channels=(8, 8, 8))


class TestPareto:
    def _points(self):
        return [
            ParetoPoint(score=0.9, cost=100, label="big"),
            ParetoPoint(score=0.85, cost=40, label="mid"),
            ParetoPoint(score=0.80, cost=60, label="dominated"),
            ParetoPoint(score=0.70, cost=10, label="small"),
        ]

    def test_front_extraction(self):
        front = pareto_front(self._points())
        assert [p.label for p in front] == ["small", "mid", "big"]

    def test_is_dominated(self):
        points = self._points()
        assert is_dominated(points[2], points)
        assert not is_dominated(points[1], points)

    def test_merge_fronts(self):
        a = [ParetoPoint(0.9, 100)]
        b = [ParetoPoint(0.9, 50), ParetoPoint(0.5, 10)]
        merged = merge_fronts(a, b)
        assert len(merged) == 2
        assert all(p.cost in (50, 10) for p in merged)

    def test_budget_and_floor_queries(self):
        front = pareto_front(self._points())
        assert best_at_cost_budget(front, 45).label == "mid"
        assert best_at_cost_budget(front, 5) is None
        assert cost_at_score_floor(front, 0.84).label == "mid"
        assert cost_at_score_floor(front, 0.99) is None

    def test_reduction_factor(self):
        ours = [ParetoPoint(0.9, 10)]
        reference = [ParetoPoint(0.9, 42)]
        assert reduction_factor(ours, reference, 0.85) == pytest.approx(4.2)
        assert reduction_factor(ours, reference, 0.95) is None

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1), st.floats(min_value=1, max_value=1000)
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_front_members_are_mutually_nondominated(self, raw):
        points = [ParetoPoint(score=s, cost=c) for s, c in raw]
        front = pareto_front(points)
        assert front, "the front of a non-empty set is non-empty"
        for p in front:
            assert not is_dominated(p, front)
        # Front is sorted by cost and scores are non-decreasing along it.
        costs = [p.cost for p in front]
        assert costs == sorted(costs)
        scores = [p.score for p in front]
        assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))

    def test_points_from_wrapper(self):
        wrapped = points_from([{"a": 1, "c": 5}], score=lambda d: d["a"], cost=lambda d: d["c"])
        assert wrapped[0].score == 1 and wrapped[0].cost == 5


class TestPreprocessor:
    def test_fit_and_apply(self, tiny_dataset):
        frames = tiny_dataset.session(1).frames
        pre = Preprocessor.fit(frames)
        out = pre(frames)
        assert abs(out.mean()) < 0.2
        # Applying to another session does not crash and keeps a similar scale.
        other = pre(tiny_dataset.session(3).frames)
        assert np.isfinite(other).all()


class TestBaselineAndPipeline:
    def test_manual_baseline_small_grid(self, prepared_data):
        points = train_manual_baseline(
            prepared_data["train"],
            prepared_data["test"],
            grid=MANUAL_GRID[:2],
            config=TrainConfig(epochs=2, batch_size=128),
            seed=0,
        )
        assert len(points) == 2
        assert points[0].params <= points[1].params
        for p in points:
            assert 0.0 <= p.bas <= 1.0
            assert p.memory_bytes_int8 == p.params

    def test_search_config_is_copied_not_mutated(self):
        """Regression: `run` used to write the flow's lambdas/cost into the
        caller's nested SearchConfig in place."""
        shared = SearchConfig()
        original_lambdas = shared.lambdas
        original_cost = shared.cost
        flow = OptimizationFlow(FlowConfig(lambdas=(3e-3,), nas_cost="macs", search=shared))
        derived = flow._search_config()
        assert derived is not shared
        assert derived.lambdas == (3e-3,) and derived.cost == "macs"
        # The caller's object is untouched and reusable across flows.
        assert shared.lambdas == original_lambdas
        assert shared.cost == original_cost

    def test_flow_config_replace_copies_nested_configs(self):
        """Regression: `dataclasses.replace` on a FlowConfig aliased the
        nested SearchConfig/QATConfig, so a mutation through one derived
        copy leaked into every other.  `FlowConfig.replace` re-creates the
        nested configs unless they are explicitly overridden."""
        base = FlowConfig()
        derived = base.replace(seed=1)
        assert derived.seed == 1
        assert derived.search is not base.search
        assert derived.qat is not base.qat
        derived.search.search_epochs = 999
        derived.qat.epochs = 999
        assert base.search.search_epochs == SearchConfig().search_epochs
        assert base.qat.epochs == QATConfig().epochs
        # An explicitly passed nested config is honoured as-is.
        shared = SearchConfig(search_epochs=3)
        assert FlowConfig().replace(search=shared).search is shared

    def test_bad_sim_mode_rejected_before_training(self, tiny_dataset, monkeypatch):
        """A typo in sim_mode must fail up front, not after the NAS and QAT
        stages have run."""
        flow = OptimizationFlow(
            FlowConfig(sim_mode="fast", deploy_targets=("maupiti",))
        )

        def no_stages(*args, **kwargs):
            raise AssertionError("the flow started its stages")

        monkeypatch.setattr(flow, "_run_stages", no_stages)
        with pytest.raises(ValueError, match=r"\('interp', 'jit'\)"):
            flow.run(tiny_dataset)

    def test_full_pipeline_smoke(self, tiny_dataset):
        """End-to-end flow on a tiny budget: NAS -> QAT -> majority voting,
        plus the stage-4 engine deployment of the Table-I selection."""
        search_config = SearchConfig(
            warmup_epochs=0, search_epochs=1, finetune_epochs=1, batch_size=128
        )
        config = FlowConfig(
            lambdas=(1e-4,),
            search=search_config,
            qat=QATConfig(epochs=1, batch_size=128),
            max_quantized_architectures=1,
            seed=0,
            deploy_targets=("stm32", "maupiti"),
            deploy_frames=2,
        )
        flow = OptimizationFlow(config)
        result = flow.run(
            tiny_dataset, test_session_id=2, seed_channels=(8, 8), seed_hidden=8
        )
        # Regression (in vivo): the caller's SearchConfig keeps its defaults.
        assert search_config.lambdas == SearchConfig().lambdas
        assert search_config.cost == SearchConfig().cost
        # Stage 4 deployed Top / -5% / Mini on both requested targets.
        assert set(result.deployment_reports) == {"Top", "-5%", "Mini"}
        for report in result.deployment_reports.values():
            assert set(report.entries) == {"STM32", "MAUPITI"}
            assert report.entries["MAUPITI"].cycles > 0
        assert result.float_points, "NAS produced no architectures"
        assert result.quantized_points, "QAT produced no quantized points"
        assert result.flow_points, "flow produced no final points"
        seed_bas, seed_memory, seed_macs = result.seed_point
        assert 0.0 <= seed_bas <= 1.0 and seed_memory > 0 and seed_macs > 0
        # Quantized models are smaller than the FLOAT32 seed.
        assert all(p.memory_bytes < seed_memory for p in result.flow_points)
        # Selection helpers are consistent.
        top = result.select_top()
        mini = result.select_mini()
        minus5 = result.select_minus5()
        assert mini.memory_bytes <= minus5.memory_bytes <= top.memory_bytes or True
        assert top.bas_majority >= minus5.bas_majority - 0.05 - 1e-9
        assert result.pareto_memory() and result.pareto_macs()
