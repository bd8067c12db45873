"""The engine façade: registry, compile(), cross-target parity, streaming."""

import inspect
import pkgutil
import re

import numpy as np
import pytest

import repro
from repro.engine import (
    EngineBackend,
    EngineError,
    ModelBundle,
    available_targets,
    get_target,
    register_target,
    target_table,
    unregister_target,
)
from repro.nn.trainer import predict
from repro.postproc import majority_filter


class TestPackageFacade:
    def test_all_docstring_and_disk_name_the_same_subpackages(self):
        on_disk = {m.name for m in pkgutil.iter_modules(repro.__path__) if m.ispkg}
        assert [name for name in repro.__all__ if not hasattr(repro, name)] == []
        exported = {
            name for name in repro.__all__ if inspect.ismodule(getattr(repro, name))
        }
        assert exported == on_disk
        for name in on_disk:
            assert getattr(repro, name).__name__ == f"repro.{name}"
        section = repro.__doc__.split("Sub-packages\n------------\n", 1)[1]
        documented = set(re.findall(r"^``repro\.(\w+)``$", section, re.MULTILINE))
        assert documented == on_disk


class TestRegistry:
    def test_builtin_targets_present(self):
        assert {"numpy-float", "int-golden", "ibex", "maupiti", "stm32"} <= set(
            available_targets()
        )

    def test_aliases_resolve(self):
        assert get_target("golden").name == "int-golden"
        assert get_target("NUMPY").name == "numpy-float"

    def test_unknown_target_lists_alternatives(self):
        with pytest.raises(EngineError, match="maupiti"):
            get_target("riscv-gpu")

    def test_target_table_mentions_every_target(self):
        table = target_table()
        for name in available_targets():
            assert name in table

    def test_custom_target_registration(self, trained_small_model):
        @register_target("constant", description="always predicts class 0")
        class ConstantBackend(EngineBackend):
            def __init__(self, bundle):
                super().__init__(bundle)

            def predict_batch(self, frames):
                from repro.engine import BatchPrediction

                n = frames.shape[0]
                return BatchPrediction(predictions=np.zeros(n, dtype=np.int64))

        try:
            engine = repro.compile(trained_small_model, target="constant")
            out = engine.predict_batch(np.zeros((3, 1, 8, 8)))
            assert out.predictions.tolist() == [0, 0, 0]
        finally:
            unregister_target("constant")
        with pytest.raises(EngineError):
            get_target("constant")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_target("maupiti")(type("Dup", (EngineBackend,), {}))


class TestCompileCoercion:
    def test_float_model_rejected_by_integer_targets(self, trained_small_model):
        with pytest.raises(EngineError, match="quantized"):
            repro.compile(trained_small_model, target="int-golden")

    def test_integer_network_rejected_by_numpy_target(self, integer_network):
        with pytest.raises(EngineError, match="numpy-float"):
            repro.compile(integer_network, target="numpy-float")

    def test_unsupported_object_rejected(self):
        with pytest.raises(EngineError, match="cannot compile"):
            repro.compile({"not": "a model"}, target="numpy-float")

    def test_quant_model_lowers_lazily_and_caches(self, quantized_model):
        bundle = ModelBundle(quantized_model)
        assert bundle._integer_network is None
        first = bundle.require_integer()
        assert bundle.require_integer() is first

    def test_bundle_shared_across_targets(self, quantized_model, prepared_data):
        frames = prepared_data["test"].inputs[:2]
        bundle = ModelBundle(quantized_model)
        golden = repro.compile(bundle, target="int-golden")
        stm32 = repro.compile(bundle, target="stm32")
        np.testing.assert_array_equal(
            golden.predict_batch(frames).predictions,
            stm32.predict_batch(frames).predictions,
        )


class TestCrossTargetParity:
    """The ISSUE's acceptance criterion: one compiled model, same answers on
    every target, bit-exact between the golden model and the simulator."""

    def test_int_golden_matches_maupiti_bit_exact(self, integer_network, prepared_data):
        frames = prepared_data["preprocessor"](
            prepared_data["test_session"].frames[:3]
        )
        golden = repro.compile(integer_network, target="int-golden")
        maupiti = repro.compile(integer_network, target="maupiti")
        bg = golden.predict_batch(frames)
        bm = maupiti.predict_batch(frames)
        np.testing.assert_array_equal(bg.predictions, bm.predictions)
        np.testing.assert_array_equal(bg.logits, bm.logits)
        # And through the runtime's own golden-check machinery.
        maupiti.verify(frames)

    def test_int_golden_matches_ibex_bit_exact(self, integer_network, prepared_data):
        frames = prepared_data["preprocessor"](
            prepared_data["test_session"].frames[:2]
        )
        golden = repro.compile(integer_network, target="int-golden")
        ibex = repro.compile(integer_network, target="ibex")
        np.testing.assert_array_equal(
            golden.predict_batch(frames).logits, ibex.predict_batch(frames).logits
        )
        ibex.verify(frames)

    def test_numpy_float_matches_trainer_predict(self, trained_small_model, prepared_data):
        inputs = prepared_data["test"].inputs
        engine = repro.compile(trained_small_model, target="numpy-float")
        np.testing.assert_array_equal(
            engine.predict_batch(inputs).predictions,
            predict(trained_small_model, inputs),
        )

    def test_all_five_targets_one_interface(self, quantized_model, prepared_data):
        frames = prepared_data["test"].inputs[:2]
        bundle = ModelBundle(quantized_model)
        for target in available_targets():
            engine = repro.compile(bundle, target=target)
            batch = engine.predict_batch(frames)
            assert len(batch) == 2
            assert batch.predictions.dtype == np.int64
            single = engine.predict(frames[0])
            assert single.prediction == int(batch.predictions[0])
            if engine.supports_stats:
                assert batch.mean_cycles and batch.mean_cycles > 0
                assert batch.total_energy_uj and batch.total_energy_uj > 0
            else:
                assert batch.mean_cycles is None


class TestStreaming:
    def test_stream_matches_majority_filter(self, trained_small_model, prepared_data):
        inputs = prepared_data["test"].inputs[:40]
        engine = repro.compile(trained_small_model, target="numpy-float")
        raw = engine.predict_batch(inputs).predictions
        with engine.stream(window=5) as session:
            updates = [session.push(frame) for frame in inputs]
            summary = session.summary()
        np.testing.assert_array_equal(summary.raw_predictions, raw)
        np.testing.assert_array_equal(
            summary.voted_predictions, majority_filter(raw, window=5)
        )
        assert [u.index for u in updates] == list(range(len(inputs)))
        assert summary.mean_cycles is None  # numpy target has no stats

    def test_stream_reports_cycles_on_simulated_target(
        self, integer_network, prepared_data
    ):
        frames = prepared_data["preprocessor"](
            prepared_data["test_session"].frames[:3]
        )
        engine = repro.compile(integer_network, target="maupiti")
        with engine.stream(window=3) as session:
            for frame in frames:
                update = session.push(frame)
                assert update.cycles > 0
                assert update.energy_uj > 0
            summary = session.summary()
        assert summary.cycles_per_frame.shape == (3,)
        assert summary.total_energy_uj > 0

    def test_push_outside_context_rejected(self, trained_small_model):
        engine = repro.compile(trained_small_model, target="numpy-float")
        session = engine.stream()
        with pytest.raises(EngineError):
            session.push(np.zeros((1, 8, 8)))

    def test_push_after_close_rejected(self, trained_small_model, prepared_data):
        engine = repro.compile(trained_small_model, target="numpy-float")
        session = engine.stream(window=3)
        with session:
            session.push(prepared_data["test"].inputs[0])
        # The context exited: the stream is closed and must refuse frames.
        with pytest.raises(EngineError):
            session.push(prepared_data["test"].inputs[1])

    def test_reentered_session_starts_fresh(self, trained_small_model, prepared_data):
        inputs = prepared_data["test"].inputs[:6]
        session = repro.compile(trained_small_model, target="numpy-float").stream(window=3)
        with session:
            for frame in inputs:
                session.push(frame)
            assert session.summary().frames == 6
        with session:
            session.push(inputs[0])
            summary = session.summary()
        assert summary.frames == 1  # no leftovers from the first run
        # A fresh FIFO means the first voted output equals the raw prediction.
        assert summary.voted_predictions[0] == summary.raw_predictions[0]


class _ScriptedBackend:
    """Minimal stream backend replaying a fixed prediction sequence.

    StreamSession only needs ``predict_frame`` (and optionally ``prepare``),
    so edge cases of the majority FIFO can be driven without a model.
    """

    def __init__(self, script):
        from repro.engine import Prediction

        self._script = [Prediction(prediction=int(p)) for p in script]
        self._index = 0
        self.prepared = 0

    def prepare(self):
        self.prepared += 1

    def predict_frame(self, frame):
        result = self._script[self._index]
        self._index += 1
        return result


class TestStreamingFifoEdgeCases:
    """Majority-FIFO corners: short/long windows, ties, session resets."""

    def _run(self, script, window, sessions=1):
        from repro.engine import StreamSession

        backend = _ScriptedBackend(script)
        session = StreamSession(backend, window=window)
        frame = np.zeros((1, 8, 8))
        outputs = []
        per_session = len(script) // sessions
        for _ in range(sessions):
            with session:
                outputs.append(
                    [session.push(frame).voted for _ in range(per_session)]
                )
        return session, outputs

    def test_window_one_passes_raw_through(self):
        script = [0, 1, 2, 3, 2, 1, 0]
        session, (voted,) = self._run(script, window=1)
        assert voted == script
        np.testing.assert_array_equal(session.summary().raw_predictions, script)

    def test_window_shorter_than_session_smooths_glitches(self):
        # A single-frame glitch (the lone 0) is voted away by a 3-window.
        script = [1, 1, 0, 1, 1, 2, 2, 2]
        _, (voted,) = self._run(script, window=3)
        assert voted == [1, 1, 1, 1, 1, 1, 2, 2]
        np.testing.assert_array_equal(
            voted, majority_filter(script, window=3)
        )

    def test_window_longer_than_session_votes_over_growing_prefix(self):
        # Until the FIFO fills, the vote covers everything seen so far; a
        # window far longer than the session never indexes stale slots.
        script = [2, 0, 0, 1]
        _, (voted,) = self._run(script, window=50)
        assert voted == [2, 0, 0, 0]
        np.testing.assert_array_equal(voted, majority_filter(script, window=50))

    def test_ties_break_to_most_recent_prediction(self):
        # Window 2 forces a tie on every change of prediction.
        _, (voted,) = self._run([0, 1, 0, 1], window=2)
        assert voted == [0, 1, 0, 1]
        # Three-way tie inside a window of 4, then a real majority.
        _, (voted,) = self._run([1, 0, 2, 0, 0], window=4)
        assert voted == [1, 0, 2, 0, 0]

    def test_session_boundary_reset_clears_fifo_and_stats(self):
        # Session 1 fills the FIFO with 2s; after the boundary the old
        # majority must not leak into session 2's first votes.
        session, outputs = self._run([2, 2, 2, 0, 1, 0], window=5, sessions=2)
        assert outputs[0] == [2, 2, 2]
        assert outputs[1] == [0, 1, 0]  # [0,1] ties to the recent 1
        summary = session.summary()
        assert summary.raw_predictions.tolist() == [0, 1, 0]  # session 2 only
        assert len(session) == 3

    def test_reset_midstream_via_reentry_is_idempotent(self):
        # Entering twice in a row without pushing must leave a clean FIFO.
        from repro.engine import StreamSession

        backend = _ScriptedBackend([3, 3])
        session = StreamSession(backend, window=4)
        with session:
            pass
        with session:
            update = session.push(np.zeros((1, 8, 8)))
        assert update.voted == 3 and backend.prepared == 2
        assert session.summary().voted_predictions.tolist() == [3]


class TestReports:
    def test_stm32_report_needs_no_frames(self, integer_network):
        entry = repro.compile(integer_network, target="stm32").report()
        assert entry.platform == "STM32"
        assert entry.code_bytes > 20_000

    def test_simulated_report_requires_frames(self, integer_network):
        with pytest.raises(EngineError, match="calibration frame"):
            repro.compile(integer_network, target="maupiti").report()

    def test_report_reuses_measured_verify_run(self, integer_network, prepared_data):
        """A verify() run doubles as the cycle measurement — report() must
        not re-simulate when handed the measured batch."""
        frames = prepared_data["preprocessor"](
            prepared_data["test_session"].frames[:2]
        )
        engine = repro.compile(integer_network, target="maupiti")
        measured = engine.verify(frames)
        report = engine.report(measured=measured)  # no frames: no re-run
        assert report.cycles == pytest.approx(measured.mean_cycles)

    def test_numpy_target_has_no_report(self, trained_small_model):
        with pytest.raises(EngineError, match="report"):
            repro.compile(trained_small_model, target="numpy-float").report()

    def test_verify_unsupported_on_analytical_target(self, integer_network):
        engine = repro.compile(integer_network, target="stm32")
        assert not engine.can_verify
        with pytest.raises(EngineError, match="verification"):
            engine.verify(np.zeros((1, 1, 8, 8)))


class TestFlowStage4:
    def test_flow_point_deploys_through_engine(self, quantized_model, prepared_data):
        from repro.flow import FlowPoint
        from repro.quant import QuantizedPoint, PrecisionScheme

        qp = QuantizedPoint(
            scheme=quantized_model.scheme,
            bas=0.5,
            memory_bytes=quantized_model.weights_bytes(),
            macs=quantized_model.macs(),
            params=0,
            model=quantized_model,
        )
        fp = FlowPoint(
            label="test INT 8-4-4-8",
            bas=0.5,
            bas_majority=0.5,
            memory_bytes=qp.memory_bytes,
            macs=qp.macs,
            scheme=qp.scheme,
            quantized=qp,
        )
        frames = prepared_data["test"].inputs[:2]
        engine = repro.compile(fp, target="maupiti")
        assert engine.label == "test INT 8-4-4-8"
        engine.verify(frames)

        from repro.flow.pipeline import FlowResult

        result = FlowResult(
            seed_point=(0.5, 1.0, 1),
            float_points=[],
            quantized_points=[qp],
            flow_points=[fp],
            preprocessor=prepared_data["preprocessor"],
        )
        report = result.deploy(fp, frames)
        assert set(report.entries) == {"STM32", "IBEX", "MAUPITI"}
        assert report.improvement("code_bytes") > 1.0


class TestInputGuard:
    """Input-validation policies: reject / clamp / hold_last."""

    def _bad_frames(self):
        frames = np.full((4, 1, 8, 8), 20.0)
        frames[1, 0, 0, 0] = np.nan
        frames[3, 0, 2, 2] = np.inf
        return frames

    def test_unknown_policy_rejected(self):
        from repro.engine import InputGuard

        with pytest.raises(EngineError, match="policy"):
            InputGuard("discard")

    def test_bad_range_rejected(self):
        from repro.engine import InputGuard

        with pytest.raises(EngineError, match="range"):
            InputGuard("clamp", input_range=(5.0, 5.0))

    def test_clean_frames_pass_through_unchanged(self):
        from repro.engine import InputGuard

        guard = InputGuard("reject")
        frames = np.full((3, 1, 8, 8), 21.0)
        assert guard.apply(frames) is frames  # zero-copy clean path
        assert guard.health.invalid_frames == 0
        assert guard.health.frames_seen == 3

    def test_reject_raises_with_offending_indices(self):
        from repro.engine import InputGuard, InvalidFrameError

        guard = InputGuard("reject")
        with pytest.raises(InvalidFrameError, match=r"\[1, 3\]"):
            guard.apply(self._bad_frames())

    def test_clamp_zeroes_nonfinite_and_clips_range(self):
        from repro.engine import InputGuard

        guard = InputGuard("clamp", input_range=(0.0, 40.0))
        frames = self._bad_frames()
        frames[0, 0, 0, 0] = 99.0
        out = guard.apply(frames)
        assert np.isfinite(out).all()
        assert out[1, 0, 0, 0] == 0.0
        assert out[3, 0, 2, 2] == 0.0
        assert out[0, 0, 0, 0] == 40.0
        assert guard.health.invalid_frames == 3

    def test_hold_last_repeats_last_valid_frame(self):
        from repro.engine import InputGuard

        guard = InputGuard("hold_last")
        frames = self._bad_frames()
        out = guard.apply(frames)
        np.testing.assert_array_equal(out[1], frames[0])
        np.testing.assert_array_equal(out[3], frames[2])

    def test_hold_last_with_no_prior_valid_frame_zeroes(self):
        from repro.engine import InputGuard

        guard = InputGuard("hold_last")
        frames = np.full((2, 1, 8, 8), np.nan)
        out = guard.apply(frames)
        assert (out == 0.0).all()

    def test_make_guard_none_policy(self):
        from repro.engine import make_guard

        assert make_guard(None, None) is None
        assert make_guard("clamp", (0.0, 1.0)).policy == "clamp"

    def test_engine_reject_policy_on_predict_batch(
        self, trained_small_model, prepared_data
    ):
        from repro.engine import InvalidFrameError

        engine = repro.compile(
            trained_small_model, target="numpy-float", on_invalid="reject"
        )
        frames = prepared_data["test"].inputs[:4].copy()
        engine.predict_batch(frames)  # clean frames: unaffected
        frames[2] = np.nan
        with pytest.raises(InvalidFrameError):
            engine.predict_batch(frames)
        with pytest.raises(InvalidFrameError):
            engine.predict(frames[2])

    def test_engine_clamp_policy_repairs_before_inference(
        self, trained_small_model, prepared_data
    ):
        engine = repro.compile(
            trained_small_model, target="numpy-float", on_invalid="clamp"
        )
        clean = prepared_data["test"].inputs[:4]
        broken = clean.copy()
        broken[1] = np.nan  # clamps to all-zero
        zeroed = clean.copy()
        zeroed[1] = 0.0
        plain = repro.compile(trained_small_model, target="numpy-float")
        np.testing.assert_array_equal(
            engine.predict_batch(broken).predictions,
            plain.predict_batch(zeroed).predictions,
        )

    def test_default_engine_has_no_guard(self, trained_small_model, prepared_data):
        # No policy configured: non-finite frames flow to the backend
        # untouched (historical behavior, bit-identical fault-free path).
        engine = repro.compile(trained_small_model, target="numpy-float")
        frames = prepared_data["test"].inputs[:2].copy()
        frames[0] = np.nan
        engine.predict_batch(frames)  # must not raise


class TestStreamHealth:
    """Per-stream health: invalid-frame counters and vote margins."""

    def test_stream_inherits_engine_policy_and_counts(
        self, trained_small_model, prepared_data
    ):
        engine = repro.compile(
            trained_small_model, target="numpy-float", on_invalid="hold_last"
        )
        frames = prepared_data["test"].inputs[:5].copy()
        frames[2] = np.inf
        with engine.stream(window=3) as session:
            for frame in frames:
                session.push(frame)
            health = session.health()
            summary = session.summary()
        assert health.frames == 5
        assert health.invalid_frames == 1
        assert health.invalid_fraction == pytest.approx(0.2)
        assert summary.health.invalid_frames == 1
        # hold_last: frame 2 repeated frame 1, so raws 1 and 2 agree.
        assert summary.raw_predictions[2] == summary.raw_predictions[1]

    def test_stream_override_disables_engine_policy(
        self, trained_small_model, prepared_data
    ):
        engine = repro.compile(
            trained_small_model, target="numpy-float", on_invalid="reject"
        )
        frames = prepared_data["test"].inputs[:2].copy()
        frames[1] = np.nan
        with engine.stream(window=3, on_invalid=None) as session:
            for frame in frames:
                session.push(frame)  # must not raise: override wins
            assert session.health().invalid_frames == 0

    def test_margin_tracks_vote_confidence(self):
        from repro.engine import StreamSession

        session = StreamSession(_ScriptedBackend([1, 1, 0, 0, 0]), window=3)
        frame = np.zeros((1, 8, 8))
        with session:
            margins = [session.push(frame).margin for _ in range(5)]
            health = session.health()
        # [1] unanimous; [1,1] unanimous; [1,1,0] 2-1; [1,0,0] 2-1; [0,0,0].
        assert margins == pytest.approx([1.0, 1.0, 1 / 3, 1 / 3, 1.0])
        assert health.last_margin == pytest.approx(1.0)
        assert health.min_margin == pytest.approx(1 / 3)
        assert health.mean_margin == pytest.approx(np.mean(margins))

    def test_reentered_session_resets_health(self):
        from repro.engine import StreamSession

        session = StreamSession(_ScriptedBackend([1, 0, 1, 1]), window=2)
        frame = np.zeros((1, 8, 8))
        with session:
            session.push(frame)
            session.push(frame)
        with session:
            session.push(frame)
            session.push(frame)
            health = session.health()
        assert health.frames == 2
        assert health.mean_margin == pytest.approx(1.0)  # [1], [1,1]
