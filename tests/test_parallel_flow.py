"""The `repro.parallel` subsystem: executors, result cache, flow parity.

The contract under test is the ISSUE's acceptance criterion: running any
sweep layer (NAS lambdas, QAT schemes, stage-4 deployments, or the whole
``OptimizationFlow``) with ``executor="process"`` must produce **bit-identical**
results to the serial path for any ``max_workers``, and the content-addressed
result cache must replay identical results on repeated runs while any change
to the seed, the config or the dataset content forces a re-train.
"""

from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.flow import FlowConfig, OptimizationFlow, seed_builder
from repro.nas.search import SearchConfig, run_search
from repro.nn import ArrayDataset
from repro.parallel import (
    ProcessExecutor,
    ResultCache,
    SerialExecutor,
    ThreadExecutor,
    fingerprint,
    get_executor,
    run_tasks,
)
from repro.quant import QATConfig, explore_mixed_precision
from repro.quant.quantize import PrecisionScheme

TINY_SEARCH = dict(warmup_epochs=0, search_epochs=1, finetune_epochs=1, batch_size=128)


def _double(x):
    return 2 * x


_CALL_LOG = []


def _logged_double(x):
    _CALL_LOG.append(x)
    return 2 * x


class _Slotted:
    """__slots__-only payload object (no __dict__) for fingerprint tests."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _arch_signature(points):
    """Everything observable about a sweep result, weights included."""
    return [
        (
            p.strength,
            p.params,
            p.macs,
            p.bas,
            tuple((u["out"]) for u in p.arch_summary),
            tuple(param.data.tobytes() for param in p.model.parameters()),
        )
        for p in points
    ]


def _quant_signature(points):
    return [
        (
            tuple(p.scheme.bits),
            p.bas,
            p.memory_bytes,
            p.macs,
            p.params,
            tuple(param.data.tobytes() for param in p.model.parameters()),
        )
        for p in points
    ]


class TestExecutors:
    def test_get_executor_resolution(self):
        assert isinstance(get_executor(None), SerialExecutor)
        assert isinstance(get_executor("serial"), SerialExecutor)
        proc = get_executor("process", max_workers=3)
        assert isinstance(proc, ProcessExecutor) and proc.max_workers == 3
        threads = get_executor("thread", max_workers=2)
        assert isinstance(threads, ThreadExecutor) and threads.max_workers == 2
        # Instances pass through untouched.
        assert get_executor(proc) is proc

    def test_max_workers_with_instance_warns(self):
        """Regression: `max_workers` used to be silently ignored when an
        executor instance was passed alongside it."""
        proc = ProcessExecutor(max_workers=2)
        with pytest.warns(UserWarning, match="max_workers=8 is ignored"):
            assert get_executor(proc, max_workers=8) is proc
        assert proc.max_workers == 2
        proc.close()

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="serial"):
            get_executor("gpu-cluster")
        with pytest.raises(TypeError, match="run"):
            get_executor(object())
        with pytest.raises(ValueError):
            ProcessExecutor(max_workers=0)

    def test_process_pool_preserves_submission_order(self):
        payloads = list(range(8))
        assert ProcessExecutor(max_workers=2).run(_double, payloads) == [
            2 * p for p in payloads
        ]
        assert SerialExecutor().run(_double, []) == []
        assert ProcessExecutor().run(_double, []) == []


class TestFingerprint:
    def test_content_not_identity(self):
        a = np.arange(6, dtype=np.float64).reshape(2, 3)
        assert fingerprint(a) == fingerprint(a.copy())
        assert fingerprint(a) != fingerprint(a + 1)
        assert fingerprint(a) != fingerprint(a.astype(np.float32))
        assert fingerprint({"x": 1, "y": 2}) == fingerprint({"y": 2, "x": 1})
        assert fingerprint(1) != fingerprint(1.0)
        assert fingerprint((1, 2)) != fingerprint((2, 1))

    def test_seed_sequence_and_spawn_children(self):
        root = np.random.SeedSequence(5)
        again = np.random.SeedSequence(5)
        assert fingerprint(root.spawn(2)[1]) == fingerprint(again.spawn(2)[1])
        assert fingerprint(root.spawn(1)[0]) != fingerprint(root)

    def test_dataset_fingerprint_tracks_content(self):
        x = np.zeros((4, 1, 8, 8))
        y = np.zeros(4, dtype=np.int64)
        assert fingerprint(ArrayDataset(x, y)) == fingerprint(
            ArrayDataset(x.copy(), y.copy())
        )
        assert fingerprint(ArrayDataset(x + 1, y)) != fingerprint(ArrayDataset(x, y))
        assert fingerprint(ArrayDataset(x, y + 1)) != fingerprint(ArrayDataset(x, y))

    def test_module_fingerprint_covers_weights_and_structure(self):
        rng = np.random.default_rng(0)
        a = seed_builder((4, 4), 6)(rng)
        b = seed_builder((4, 4), 6)(np.random.default_rng(0))
        assert fingerprint(a) == fingerprint(b)
        b[0].weight.data += 1e-3
        assert fingerprint(a) != fingerprint(b)
        assert fingerprint(a) != fingerprint(seed_builder((4, 5), 6)(rng))

    def test_builder_fingerprint_distinguishes_configs(self):
        assert fingerprint(seed_builder((4, 4), 6)) == fingerprint(seed_builder((4, 4), 6))
        assert fingerprint(seed_builder((4, 4), 6)) != fingerprint(seed_builder((4, 4), 7))

    def test_slots_objects_hash_their_state(self):
        """Regression: the generic-object fallback only looked at __dict__,
        so any two __slots__ instances of a class collided on one digest —
        poisoning the cache with results from different payloads."""
        assert fingerprint(_Slotted(1, 2)) == fingerprint(_Slotted(1, 2))
        assert fingerprint(_Slotted(1, 2)) != fingerprint(_Slotted(1, 3))
        assert fingerprint(_Slotted(1, 2)) != fingerprint(_Slotted(2, 1))
        # Unassigned slots are tolerated (and distinct from assigned ones).
        partial = _Slotted.__new__(_Slotted)
        partial.a = 1
        assert fingerprint(partial) != fingerprint(_Slotted(1, 2))

    def test_module_fingerprint_covers_non_parameter_buffers(self):
        """Regression: BatchNorm running stats drive eval-mode inference and
        BN folding but are not Parameters; they must invalidate cache keys."""
        a = seed_builder((4, 4), 6)(np.random.default_rng(0))
        b = seed_builder((4, 4), 6)(np.random.default_rng(0))
        bn = next(m for m in b.modules() if hasattr(m, "running_mean"))
        bn.running_mean = bn.running_mean + 0.5
        assert fingerprint(a) != fingerprint(b)


class TestResultCache:
    def test_roundtrip_and_counters(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = fingerprint("unit", 1)
        hit, _ = cache.get(key)
        assert not hit and cache.misses == 1
        value = {"arr": np.arange(3), "n": 7}
        cache.put(key, value)
        hit, loaded = cache.get(key)
        assert hit and cache.hits == 1
        np.testing.assert_array_equal(loaded["arr"], value["arr"])
        assert key in cache and len(cache) == 1
        cache.clear()
        assert len(cache) == 0 and key not in cache

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = fingerprint("x")
        cache.path(key).write_bytes(b"not a pickle")
        hit, _ = cache.get(key)
        assert not hit
        assert key not in cache  # the broken file was dropped

    def test_run_tasks_submits_only_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = [fingerprint("t", i) for i in range(4)]
        out = run_tasks(_double, [0, 1, 2, 3], cache=cache, keys=keys)
        assert out == [0, 2, 4, 6] and cache.misses == 4 and cache.hits == 0
        # Partial overlap: only the new payload runs.
        out = run_tasks(_double, [0, 1, 2, 3, 4], cache=cache, keys=keys + [fingerprint("t", 4)])
        assert out == [0, 2, 4, 6, 8] and cache.hits == 4 and cache.misses == 5

    def test_run_tasks_key_count_mismatch(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ValueError, match="keys"):
            run_tasks(_double, [1, 2], cache=cache, keys=[fingerprint("k")])

    def test_run_tasks_dedupes_duplicate_keys(self, tmp_path):
        """Payloads sharing a cache key are computed once and fanned out."""
        cache = ResultCache(tmp_path)
        ka, kb = fingerprint("dup", "a"), fingerprint("dup", "b")
        _CALL_LOG.clear()
        out = run_tasks(_logged_double, [1, 1, 2, 1], cache=cache,
                        keys=[ka, ka, kb, ka])
        assert out == [2, 2, 4, 2]
        assert _CALL_LOG == [1, 2]  # one computation per distinct key
        assert cache.misses == 2 and len(cache) == 2
        # A rerun replays everything from disk without calling fn at all.
        _CALL_LOG.clear()
        again = run_tasks(_logged_double, [1, 1, 2, 1], cache=cache,
                          keys=[ka, ka, kb, ka])
        assert again == out and _CALL_LOG == [] and cache.hits == 2

    def test_stale_tmp_files_are_swept(self, tmp_path):
        """Orphaned atomic-write temporaries (a previous process died
        mid-put) are removed on init and on clear()."""
        cache_dir = tmp_path / "c"
        cache = ResultCache(cache_dir)
        key = fingerprint("keep")
        cache.put(key, 1)
        orphan = cache_dir / "deadbeef.pkl.1234.tmp"
        orphan.write_bytes(b"partial write")
        assert ResultCache(cache_dir).get(key) == (True, 1)  # entry survives
        assert not orphan.exists()  # ...but the orphan was swept on init
        orphan.write_bytes(b"partial write")
        cache.clear()
        assert not orphan.exists() and len(cache) == 0


class TestTransientBuffers:
    def test_clear_caches_sheds_activation_buffers(self):
        """Task results and cache entries must pickle at parameter size:
        clear_caches drops the `_cache` dicts *and* the ReLU/Flatten
        `_mask`/`_shape` buffers left behind by the last forward pass."""
        import pickle

        model = seed_builder((4, 4), 6)(np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(256, 1, 8, 8))
        before_forward = len(pickle.dumps(model))
        reference = model.eval()(x[:4])
        inflated = len(pickle.dumps(model))
        assert inflated > 4 * before_forward  # activations dominate
        model.clear_caches()
        assert len(pickle.dumps(model)) < before_forward * 1.1
        for m in model.modules():
            assert not getattr(m, "_cache", None)
            assert getattr(m, "_mask", None) is None
        # Clearing is behaviour-preserving.
        np.testing.assert_array_equal(model(x[:4]), reference)


@pytest.fixture(scope="module")
def sweep_data(prepared_data):
    return prepared_data["train"], prepared_data["test"]


class TestSearchDeterminism:
    """Serial vs process parity of the NAS lambda sweep, weights included."""

    @pytest.fixture(scope="class")
    def serial_points(self, sweep_data):
        train, test = sweep_data
        return run_search(
            seed_builder((6, 6), 8),
            train,
            test,
            config=SearchConfig(lambdas=(1e-5, 5e-4), **TINY_SEARCH),
            seed=11,
        )

    @pytest.mark.parametrize("max_workers", [1, 2, 4])
    def test_process_pool_is_bit_identical(self, sweep_data, serial_points, max_workers):
        train, test = sweep_data
        points = run_search(
            seed_builder((6, 6), 8),
            train,
            test,
            config=SearchConfig(lambdas=(1e-5, 5e-4), **TINY_SEARCH),
            seed=11,
            executor="process",
            max_workers=max_workers,
        )
        assert _arch_signature(points) == _arch_signature(serial_points)

    def test_thread_pool_is_bit_identical(self, sweep_data, serial_points):
        train, test = sweep_data
        points = run_search(
            seed_builder((6, 6), 8),
            train,
            test,
            config=SearchConfig(lambdas=(1e-5, 5e-4), **TINY_SEARCH),
            seed=11,
            executor="thread",
            max_workers=2,
        )
        assert _arch_signature(points) == _arch_signature(serial_points)

    def test_reused_process_executor_is_bit_identical_and_unlinks(
        self, sweep_data, serial_points
    ):
        """One executor instance across two sweeps — a cold pass that forks
        the pool and shares the datasets, then a warm pass reusing both, as
        a flow keeps its executor across stages; close() unlinks every
        shared block."""
        train, test = sweep_data
        executor = ProcessExecutor(max_workers=2)
        try:
            for _ in range(2):
                points = run_search(
                    seed_builder((6, 6), 8),
                    train,
                    test,
                    config=SearchConfig(lambdas=(1e-5, 5e-4), **TINY_SEARCH),
                    seed=11,
                    executor=executor,
                )
                assert _arch_signature(points) == _arch_signature(serial_points)
            names = executor.shared_block_names
            assert names
        finally:
            executor.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_cache_replays_and_invalidates(self, sweep_data, serial_points, tmp_path):
        train, test = sweep_data
        cache = ResultCache(tmp_path / "nas")
        config = SearchConfig(lambdas=(1e-5, 5e-4), **TINY_SEARCH)
        kwargs = dict(config=config, seed=11, cache=cache)
        first = run_search(seed_builder((6, 6), 8), train, test, **kwargs)
        assert cache.misses == 2 and cache.hits == 0
        again = run_search(seed_builder((6, 6), 8), train, test, **kwargs)
        assert cache.hits == 2 and cache.misses == 2
        assert _arch_signature(first) == _arch_signature(again) == _arch_signature(serial_points)

        # A config change re-trains (new keys), as does a seed change...
        run_search(
            seed_builder((6, 6), 8), train, test,
            config=SearchConfig(lambdas=(1e-5, 5e-4), warmup_epochs=0,
                                search_epochs=1, finetune_epochs=2, batch_size=128),
            seed=11, cache=cache,
        )
        assert cache.misses == 4
        run_search(seed_builder((6, 6), 8), train, test, config=config, seed=12, cache=cache)
        assert cache.misses == 6

        # ...and so does a change to the dataset content.
        bumped = ArrayDataset(train.inputs + 1e-3, train.targets)
        run_search(seed_builder((6, 6), 8), bumped, test, **kwargs)
        assert cache.misses == 8

    def test_extending_the_sweep_reuses_cached_trials(self, sweep_data, tmp_path):
        """Adding lambdas to a cached sweep must only train the new points:
        SeedSequence.spawn is prefix-stable and each trial depends only on
        its own strength + seed child, not on the full lambda list."""
        train, test = sweep_data
        cache = ResultCache(tmp_path / "grow")
        short = SearchConfig(lambdas=(1e-5, 5e-4), **TINY_SEARCH)
        first = run_search(seed_builder((6, 6), 8), train, test, config=short, seed=11, cache=cache)
        assert cache.misses == 2
        longer = SearchConfig(lambdas=(1e-5, 5e-4, 1e-3), **TINY_SEARCH)
        grown = run_search(seed_builder((6, 6), 8), train, test, config=longer, seed=11, cache=cache)
        assert cache.hits == 2 and cache.misses == 3  # only the new lambda trained
        by_strength = {p.strength: p for p in grown}
        assert _arch_signature(first) == _arch_signature(
            sorted((by_strength[p.strength] for p in first), key=lambda p: p.params)
        )

    def test_verbose_flag_does_not_invalidate(self, sweep_data, tmp_path):
        train, test = sweep_data
        cache = ResultCache(tmp_path / "v")
        quiet = SearchConfig(lambdas=(5e-4,), **TINY_SEARCH)
        run_search(seed_builder((6, 6), 8), train, test, config=quiet, seed=11, cache=cache)
        loud = SearchConfig(lambdas=(5e-4,), verbose=True, **TINY_SEARCH)
        run_search(seed_builder((6, 6), 8), train, test, config=loud, seed=11, cache=cache)
        assert cache.hits == 1  # cosmetic knob, same key


class TestQatDeterminism:
    SCHEMES = [PrecisionScheme((8, 8, 8, 8)), PrecisionScheme((8, 4, 4, 8))]

    @pytest.fixture(scope="class")
    def serial_points(self, trained_small_model, prepared_data):
        return explore_mixed_precision(
            trained_small_model,
            prepared_data["train"],
            prepared_data["test"],
            schemes=self.SCHEMES,
            config=QATConfig(epochs=1, batch_size=128),
            seed=3,
        )

    @pytest.mark.parametrize("max_workers", [2, 4])
    def test_process_pool_is_bit_identical(
        self, trained_small_model, prepared_data, serial_points, max_workers
    ):
        points = explore_mixed_precision(
            trained_small_model,
            prepared_data["train"],
            prepared_data["test"],
            schemes=self.SCHEMES,
            config=QATConfig(epochs=1, batch_size=128),
            seed=3,
            executor="process",
            max_workers=max_workers,
        )
        assert _quant_signature(points) == _quant_signature(serial_points)

    def test_thread_pool_is_bit_identical(
        self, trained_small_model, prepared_data, serial_points
    ):
        points = explore_mixed_precision(
            trained_small_model,
            prepared_data["train"],
            prepared_data["test"],
            schemes=self.SCHEMES,
            config=QATConfig(epochs=1, batch_size=128),
            seed=3,
            executor="thread",
            max_workers=2,
        )
        assert _quant_signature(points) == _quant_signature(serial_points)

    def test_cache_hit_and_weight_invalidation(
        self, trained_small_model, prepared_data, serial_points, tmp_path
    ):
        cache = ResultCache(tmp_path / "qat")
        kwargs = dict(
            schemes=self.SCHEMES, config=QATConfig(epochs=1, batch_size=128),
            seed=3, cache=cache,
        )
        first = explore_mixed_precision(
            trained_small_model, prepared_data["train"], prepared_data["test"], **kwargs
        )
        again = explore_mixed_precision(
            trained_small_model, prepared_data["train"], prepared_data["test"], **kwargs
        )
        assert cache.misses == 2 and cache.hits == 2
        assert _quant_signature(first) == _quant_signature(again) == _quant_signature(serial_points)

        # Perturbing the source model's weights must invalidate the entries.
        import copy

        nudged = copy.deepcopy(trained_small_model)
        nudged[0].weight.data += 1e-6
        explore_mixed_precision(
            nudged, prepared_data["train"], prepared_data["test"], **kwargs
        )
        assert cache.misses == 4


class TestFlowParity:
    """End-to-end: identical Pareto fronts, Table-I selection and deployment
    reports between `executor="serial"` and `executor="process"`."""

    def _config(self, **overrides):
        base = FlowConfig(
            lambdas=(1e-4,),
            search=SearchConfig(**TINY_SEARCH),
            qat=QATConfig(epochs=1, batch_size=128),
            max_quantized_architectures=1,
            seed=0,
            deploy_targets=("stm32", "maupiti"),
            deploy_frames=2,
        )
        return base.replace(**overrides)

    @pytest.fixture(scope="class")
    def serial_result(self, tiny_dataset):
        return OptimizationFlow(self._config()).run(
            tiny_dataset, test_session_id=2, seed_channels=(6, 6), seed_hidden=8
        )

    def test_process_flow_matches_serial(self, tiny_dataset, serial_result, tmp_path):
        result = OptimizationFlow(
            self._config(executor="process", max_workers=2, cache_dir=str(tmp_path / "flow"))
        ).run(tiny_dataset, test_session_id=2, seed_channels=(6, 6), seed_hidden=8)

        assert result.seed_point == serial_result.seed_point
        assert _arch_signature(result.float_points) == _arch_signature(
            serial_result.float_points
        )
        assert _quant_signature(result.quantized_points) == _quant_signature(
            serial_result.quantized_points
        )
        assert [
            (p.label, p.bas, p.bas_majority, p.memory_bytes, p.macs)
            for p in result.flow_points
        ] == [
            (p.label, p.bas, p.bas_majority, p.memory_bytes, p.macs)
            for p in serial_result.flow_points
        ]
        for front in ("pareto_memory", "pareto_macs"):
            assert [
                (p.label, p.score, p.cost) for p in getattr(result, front)()
            ] == [(p.label, p.score, p.cost) for p in getattr(serial_result, front)()]
        assert {
            label: point.label for label, point in result.table1_selection().items()
        } == {
            label: point.label
            for label, point in serial_result.table1_selection().items()
        }
        assert set(result.deployment_reports) == set(serial_result.deployment_reports)
        for label, report in result.deployment_reports.items():
            assert report.entries == serial_result.deployment_reports[label].entries

    def test_cached_rerun_is_identical_and_trains_nothing(
        self, tiny_dataset, serial_result, tmp_path
    ):
        cache_dir = tmp_path / "warm"
        config = self._config(cache_dir=str(cache_dir))
        OptimizationFlow(config).run(
            tiny_dataset, test_session_id=2, seed_channels=(6, 6), seed_hidden=8
        )
        populated = ResultCache(cache_dir)
        entries = len(populated)
        assert entries > 0

        rerun = OptimizationFlow(self._config(cache_dir=str(cache_dir))).run(
            tiny_dataset, test_session_id=2, seed_channels=(6, 6), seed_hidden=8
        )
        assert len(ResultCache(cache_dir)) == entries  # nothing new trained
        assert rerun.seed_point == serial_result.seed_point
        assert _arch_signature(rerun.float_points) == _arch_signature(
            serial_result.float_points
        )
        for label, report in rerun.deployment_reports.items():
            assert report.entries == serial_result.deployment_reports[label].entries


