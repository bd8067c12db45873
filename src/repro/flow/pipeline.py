"""Full-stack optimization flow (Fig. 1 of the paper).

The :class:`OptimizationFlow` chains the four stages:

1. **Architecture optimization** — PIT DNAS lambda sweep starting from the
   seed CNN, producing FLOAT32 architectures of decreasing size.
2. **Precision optimization** — exhaustive INT4/INT8 mixed-precision QAT of
   the Pareto-optimal architectures.
3. **Post-processing** — sliding-window majority voting applied to the test
   sessions' temporally ordered predictions.
4. **Deployment** — lowering to the integer runtime and compiling, through
   the :mod:`repro.engine` façade, for the deployment targets listed in
   :attr:`FlowConfig.deploy_targets` (Table-I reports per selected model).

Every trainable or simulated unit of the flow (the seed training, each
per-lambda PIT search, each per-scheme QAT run, each per-target deployment)
runs as a :mod:`repro.parallel` task unit with an explicitly derived RNG
stream, so :attr:`FlowConfig.executor` switches the whole flow between a
serial loop and a process pool with **bit-identical** results, and
:attr:`FlowConfig.cache_dir` lets repeated runs replay already-trained
points from the content-addressed result cache.

Also provided are the input pre-processing convention used throughout the
reproduction (per-frame ambient removal + global standardization fitted on
training data) and the Table-I model selection rules (Top / -5% / Mini).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..datasets.linaige import LinaigeDataset, NUM_CLASSES, Session
from ..datasets.transforms import Standardizer, ambient_removal
from ..deploy.report import DeploymentReport
from ..engine import compile as compile_engine
from ..hw import SIM_MODES
from ..nas.search import ArchitecturePoint, SearchConfig, run_search
from ..nn.data import ArrayDataset
from ..nn.losses import CrossEntropyLoss, balanced_class_weights
from ..nn.module import Sequential
from ..postproc.majority import majority_filter
from ..quant.mixed import QATConfig, QuantizedPoint, explore_mixed_precision
from ..quant.quantize import PrecisionScheme
from .pareto import ParetoPoint, pareto_front, points_from
from .seeds import seed_builder


@dataclass
class Preprocessor:
    """The input pre-processing used across the whole flow.

    Frames go through per-frame ambient (median) removal — making the
    network robust to the per-session ambient temperature shift — followed
    by a global standardization whose statistics are fitted on training data
    only.
    """

    standardizer: Standardizer = field(default_factory=Standardizer)

    @classmethod
    def fit(cls, frames: np.ndarray) -> "Preprocessor":
        removed = ambient_removal(frames)
        return cls(standardizer=Standardizer.fit(removed))

    def __call__(self, frames: np.ndarray) -> np.ndarray:
        return self.standardizer(ambient_removal(frames))


def _seed_task(payload) -> Tuple[float, float, int]:
    """Stage-0 task unit: train + measure the seed CNN (the Fig.-5 star).

    Returns ``(bas, memory_bytes, macs)``.  Module-level so the process
    executor can pickle it; the RNG is rebuilt in the worker from the flow
    seed, matching the serial path bit-for-bit.
    """
    seed_channels, seed_hidden, train_set, test_set, epochs, batch_size, loss_fn, seed = payload
    from ..nas.cost import count_macs, count_params
    from ..nn.trainer import TrainConfig, evaluate_bas, train_model

    rng = np.random.default_rng(seed)
    model = seed_builder(seed_channels, seed_hidden)(rng)
    train_model(
        model,
        train_set,
        val_set=test_set,
        config=TrainConfig(epochs=epochs, batch_size=batch_size),
        loss_fn=loss_fn,
        rng=rng,
    )
    bas = evaluate_bas(model, test_set)
    return (bas, float(count_params(model)) * 4.0, count_macs(model))


def _deploy_task(payload):
    """Stage-4 task unit: compile one target, verify and report (picklable)."""
    network, target, frames, sim_mode, verify = payload
    from ..engine.backends import compile_and_report

    return compile_and_report(
        network, target, frames, sim_mode=sim_mode, verify=verify
    )


@dataclass
class FlowConfig:
    """Configuration of one end-to-end flow run.

    The defaults are scaled down with respect to the paper's 500-epoch runs
    so the whole flow remains tractable with the numpy training backend; the
    structure (which stages run, in which order, on which data) is identical.
    """

    lambdas: Sequence[float] = (1e-6, 1e-5, 1e-4, 5e-4)
    nas_cost: str = "params"
    search: SearchConfig = field(default_factory=SearchConfig)
    qat: QATConfig = field(default_factory=QATConfig)
    majority_window: int = 5
    max_quantized_architectures: int = 4
    use_class_weights: bool = True
    seed: int = 0
    # Stage 4: engine targets to deploy the Table-I selection on.  Empty
    # disables the deployment stage (the default, matching older behaviour).
    deploy_targets: Sequence[str] = ()
    deploy_frames: int = 3
    # Simulation engine for the ISA-simulated deploy targets: "jit" runs
    # exec-compiled block code with cross-frame batching, "interp" the
    # reference interpreter.  Both are bit-exact.  Checked before any
    # training starts.
    sim_mode: str = "jit"
    # Task execution: "serial" (reference), "thread" (persistent thread
    # pool — zero-copy, scales on GIL-releasing numpy paths such as the
    # batched simulator deploys) or "process" (one persistent worker pool
    # for the whole flow run, with shared-memory dataset handoff).  An
    # executor instance is also accepted and is left open for its owner.
    # Every flow unit is independently seeded, so all settings — and any
    # worker count — produce bit-identical results.
    executor: str = "serial"
    max_workers: Optional[int] = None
    # Directory of the content-addressed result cache; None disables
    # caching.  Keys cover the seed, the unit's configuration and the
    # dataset content, so repeated runs skip already-trained points while
    # any config/data change forces a re-train.
    cache_dir: Optional[str] = None

    def replace(self, **changes) -> "FlowConfig":
        """A modified copy that never shares nested config instances.

        ``dataclasses.replace`` copies only the top level, so two derived
        FlowConfigs would alias one ``SearchConfig``/``QATConfig`` and a
        mutation through one copy would leak into the other.  Unless a field
        is explicitly overridden, the nested configs are re-created here.
        """
        changes.setdefault("search", replace(self.search))
        changes.setdefault("qat", replace(self.qat))
        return replace(self, **changes)


@dataclass
class FlowPoint:
    """One final model of the flow with all metrics attached."""

    label: str
    bas: float
    bas_majority: float
    memory_bytes: float
    macs: int
    scheme: Optional[PrecisionScheme] = None
    quantized: Optional[QuantizedPoint] = None
    architecture: Optional[ArchitecturePoint] = None

    @property
    def memory_kb(self) -> float:
        return self.memory_bytes / 1024.0


@dataclass
class FlowResult:
    """Everything the flow produced."""

    seed_point: Tuple[float, float, int]  # (bas, memory_bytes, macs) of the seed
    float_points: List[ArchitecturePoint]
    quantized_points: List[QuantizedPoint]
    flow_points: List[FlowPoint]
    preprocessor: Preprocessor
    deployment_reports: Dict[str, DeploymentReport] = field(default_factory=dict)

    def pareto_memory(self, use_majority: bool = True) -> List[ParetoPoint]:
        return pareto_front(
            points_from(
                self.flow_points,
                score=lambda p: p.bas_majority if use_majority else p.bas,
                cost=lambda p: p.memory_bytes,
                label=lambda p: p.label,
            )
        )

    def pareto_macs(self, use_majority: bool = True) -> List[ParetoPoint]:
        return pareto_front(
            points_from(
                self.flow_points,
                score=lambda p: p.bas_majority if use_majority else p.bas,
                cost=lambda p: float(p.macs),
                label=lambda p: p.label,
            )
        )

    # ------------------------------------------------------------------ #
    # Table I model selection
    # ------------------------------------------------------------------ #
    def select_top(self) -> FlowPoint:
        """The highest-accuracy model."""
        return max(self.flow_points, key=lambda p: p.bas_majority)

    def select_minus5(self) -> FlowPoint:
        """The smallest model within 5% BAS of the top one."""
        top = self.select_top()
        eligible = [
            p for p in self.flow_points if p.bas_majority >= top.bas_majority - 0.05
        ]
        return min(eligible, key=lambda p: p.memory_bytes)

    def select_mini(self) -> FlowPoint:
        """The smallest model overall."""
        return min(self.flow_points, key=lambda p: p.memory_bytes)

    def table1_selection(self) -> Dict[str, FlowPoint]:
        """The paper's Table-I model selection (Top / -5% / Mini)."""
        return {
            "Top": self.select_top(),
            "-5%": self.select_minus5(),
            "Mini": self.select_mini(),
        }

    # ------------------------------------------------------------------ #
    # Stage 4: deployment through the engine façade
    # ------------------------------------------------------------------ #
    def deploy(
        self,
        point: FlowPoint,
        frames: np.ndarray,
        targets: Sequence[str] = ("stm32", "ibex", "maupiti"),
        verify: bool = True,
        sim_mode: str = "jit",
        executor=None,
        max_workers: Optional[int] = None,
        cache=None,
    ) -> DeploymentReport:
        """Deploy one flow point on every requested engine target.

        Compiles ``point`` with :func:`repro.compile` for each target, runs
        the ``frames`` to measure cycles where the target supports it, and
        (for the ISA-simulated targets) verifies bit-exactness against the
        integer golden model first — the verification simulates the whole
        split in one batched call that doubles as the cycle measurement, so
        each frame is simulated only once.  ``sim_mode`` selects the
        simulation engine for targets that support it (``"jit"`` is the
        exec-compiled batching simulator, ``"interp"`` the reference
        interpreter).

        The per-target compile+verify runs are independent task units: pass
        ``executor="process"`` (or an executor instance) to distribute them,
        and a :class:`repro.parallel.ResultCache` to skip targets already
        deployed with identical model/frames/options.
        """
        from ..engine import ModelBundle
        from ..parallel import executor_is_owned, fingerprint, get_executor, run_tasks

        bundle = ModelBundle(point)
        network = bundle.require_integer()  # lowered once, shared by targets
        frames = np.asarray(frames)
        owned = executor_is_owned(executor)
        executor = get_executor(executor, max_workers)
        keys = None
        if cache is not None:
            keys = [
                fingerprint("deploy", network, target, frames, sim_mode, verify)
                for target in targets
            ]
        frames = executor.share_array(frames)  # after keying: content-equal
        payloads = [(network, t, frames, sim_mode, verify) for t in targets]
        try:
            entries = run_tasks(
                _deploy_task,
                payloads,
                executor=executor,
                cache=cache,
                keys=keys,
            )
        finally:
            if owned:
                executor.close()
        report = DeploymentReport(model_label=point.label)
        for entry in entries:
            report.add(entry)
        return report


class OptimizationFlow:
    """Runs the full NAS -> quantization -> post-processing flow."""

    def __init__(self, config: Optional[FlowConfig] = None):
        self.config = config or FlowConfig()

    # ------------------------------------------------------------------ #
    def prepare_data(
        self, dataset: LinaigeDataset, test_session_id: int = 2
    ) -> Tuple[ArrayDataset, ArrayDataset, Session, Preprocessor]:
        """Split the dataset following the paper's protocol.

        NAS and QAT use Session 1 (always in the training set); the held-out
        session provides the test data.  Returns the (preprocessed) training
        set, the preprocessed test set, the raw test session (for temporal
        post-processing) and the fitted preprocessor.
        """
        test_session = dataset.session(test_session_id)
        train_frames = []
        train_labels = []
        for session in dataset.sessions:
            if session.session_id == test_session_id:
                continue
            train_frames.append(session.frames)
            train_labels.append(session.labels)
        frames = np.concatenate(train_frames)
        labels = np.concatenate(train_labels)
        pre = Preprocessor.fit(frames)
        train_set = ArrayDataset(pre(frames), labels)
        test_set = ArrayDataset(pre(test_session.frames), test_session.labels)
        return train_set, test_set, test_session, pre

    def _loss(self, labels: np.ndarray) -> CrossEntropyLoss:
        if not self.config.use_class_weights:
            return CrossEntropyLoss()
        return CrossEntropyLoss(balanced_class_weights(labels, NUM_CLASSES))

    def _search_config(self) -> SearchConfig:
        """The flow's lambda sweep / cost metric applied to a *copy* of the
        nested search config, so the caller's object is never mutated."""
        cfg = self.config
        return replace(cfg.search, lambdas=tuple(cfg.lambdas), cost=cfg.nas_cost)

    # ------------------------------------------------------------------ #
    def run(
        self,
        dataset: LinaigeDataset,
        test_session_id: int = 2,
        seed_channels: Tuple[int, int] = (64, 64),
        seed_hidden: int = 64,
    ) -> FlowResult:
        """Execute the full flow against one held-out session."""
        from ..parallel import executor_is_owned, get_executor

        cfg = self.config
        if cfg.sim_mode not in SIM_MODES:
            # Reject a bad mode before training, not at the deployment stage.
            raise ValueError(
                f"unknown simulation mode {cfg.sim_mode!r}; "
                f"expected one of {SIM_MODES}"
            )
        # One executor for the whole run: the process pool forks once and is
        # reused by every stage, and the datasets are placed in shared
        # memory once.  The flow closes the executor (releasing workers and
        # unlinking shared memory) only when it created it from a name; a
        # caller-supplied instance is left open for its owner.
        owned = executor_is_owned(cfg.executor)
        executor = get_executor(cfg.executor, cfg.max_workers)
        try:
            return self._run_stages(dataset, test_session_id, seed_channels,
                                    seed_hidden, executor)
        finally:
            if owned:
                executor.close()

    def _run_stages(
        self,
        dataset: LinaigeDataset,
        test_session_id: int,
        seed_channels: Tuple[int, int],
        seed_hidden: int,
        executor,
    ) -> FlowResult:
        from ..parallel import ResultCache, fingerprint, run_tasks

        cfg = self.config
        cache = ResultCache(cfg.cache_dir) if cfg.cache_dir else None
        train_set, test_set, test_session, pre = self.prepare_data(
            dataset, test_session_id
        )
        loss_fn = self._loss(train_set.targets)
        # Shared-memory handoff (no-op for serial/thread executors): every
        # downstream payload now references the same two blocks.
        train_set = executor.share_dataset(train_set)
        test_set = executor.share_dataset(test_set)

        # Stage 0: measure the seed itself (the blue star of Fig. 5) — one
        # task unit, so it caches and parallelizes like every other stage.
        seed_payload = (
            tuple(seed_channels),
            seed_hidden,
            train_set,
            test_set,
            cfg.search.finetune_epochs,
            cfg.search.batch_size,
            loss_fn,
            cfg.seed,
        )
        seed_keys = None
        if cache is not None:
            seed_keys = [fingerprint("flow-seed", *seed_payload)]
        seed_point = run_tasks(
            _seed_task, [seed_payload], executor=executor, cache=cache, keys=seed_keys
        )[0]

        # Stage 1: architecture search (lambda sweep).
        search_cfg = self._search_config()
        float_points = run_search(
            seed_builder(seed_channels, seed_hidden),
            train_set,
            test_set,
            config=search_cfg,
            loss_fn=loss_fn,
            seed=cfg.seed,
            executor=executor,
            cache=cache,
        )

        # Stage 2: mixed-precision QAT of the Pareto-optimal architectures.
        float_front = pareto_front(
            points_from(float_points, score=lambda p: p.bas, cost=lambda p: float(p.params))
        )
        selected = [p.payload for p in float_front][: cfg.max_quantized_architectures]
        quantized_points: List[QuantizedPoint] = []
        for arch in selected:
            quantized_points.extend(
                explore_mixed_precision(
                    arch.model,
                    train_set,
                    test_set,
                    config=cfg.qat,
                    loss_fn=loss_fn,
                    seed=cfg.seed,
                    source_label=arch.describe(),
                    executor=executor,
                    cache=cache,
                )
            )

        # Stage 3: majority-voting post-processing on the test session.  The
        # per-model inference goes through the engine façade (numpy-float
        # target), the same interface stage 4 uses for the hardware targets.
        flow_points: List[FlowPoint] = []
        test_frames = pre(test_session.frames)
        from ..nn.metrics import balanced_accuracy

        for qp in quantized_points:
            eng = compile_engine(qp, target="numpy-float")
            raw_preds = eng.predict_batch(test_frames).predictions
            voted = majority_filter(raw_preds, window=cfg.majority_window)
            flow_points.append(
                FlowPoint(
                    label=f"{qp.source_label} {qp.scheme.label}",
                    bas=qp.bas,
                    bas_majority=balanced_accuracy(
                        test_session.labels, voted, NUM_CLASSES
                    ),
                    memory_bytes=qp.memory_bytes,
                    macs=qp.macs,
                    scheme=qp.scheme,
                    quantized=qp,
                )
            )

        result = FlowResult(
            seed_point=seed_point,
            float_points=float_points,
            quantized_points=quantized_points,
            flow_points=flow_points,
            preprocessor=pre,
        )

        # Stage 4: deployment of the Table-I selection on the configured
        # engine targets.
        if cfg.deploy_targets and result.flow_points:
            deploy_frames = test_frames[: cfg.deploy_frames]
            # Top / -5% / Mini often resolve to the same point on small
            # runs; deploy each distinct model once and share the report.
            deployed: Dict[int, DeploymentReport] = {}
            for label, point in result.table1_selection().items():
                if id(point) not in deployed:
                    deployed[id(point)] = result.deploy(
                        point,
                        deploy_frames,
                        targets=cfg.deploy_targets,
                        sim_mode=cfg.sim_mode,
                        executor=executor,
                        cache=cache,
                    )
                result.deployment_reports[label] = deployed[id(point)]
        return result
