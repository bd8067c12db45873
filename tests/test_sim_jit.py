"""JIT tier tests: trace cache, codegen semantics, batching, concurrency.

Complements ``test_sim_parity.py`` (which asserts bit-exactness of the JIT
against the interpreter): here we test the machinery that is specific to
the JIT — the process-wide compiled-trace cache
(one decode for N engines, LRU bound), the generated-code fault semantics
(exception types preserved mid-loop), ``jalr`` into block interiors, the
cross-frame batched executor, thread-safety of one shared template under
concurrent ``Engine.predict``, and the report plumbing.
"""

import threading

import numpy as np
import pytest

import repro
from repro.deploy import compile_network, simulate_batch
from repro.deploy.runtime import pack_input_frames
from repro.hw import (
    DMEM_BASE,
    DMEM_SIZE,
    IbexCore,
    Instruction,
    SimulationError,
    ibex_platform,
    maupiti_platform,
    reg,
)
from repro.hw.sim import (
    JitTemplate,
    cache_stats,
    clear_trace_cache,
    get_template,
    set_trace_cache_capacity,
)
from repro.hw.sim.trace_cache import TraceCache


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_trace_cache()
    yield
    clear_trace_cache()
    set_trace_cache_capacity(16)


def _tiny_program(value=7):
    return [
        Instruction("addi", rd=reg("t0"), rs1=0, imm=value),
        Instruction("ebreak"),
    ]


# --------------------------------------------------------------------------- #
# Trace cache
# --------------------------------------------------------------------------- #
class TestTraceCache:
    def test_one_decode_for_n_engines(self, integer_network, prepared_data):
        """N engines compiling the same model share one JIT compile."""
        frames = prepared_data["preprocessor"](
            prepared_data["test_session"].frames[:1]
        )
        engines = [
            repro.compile(integer_network, target="maupiti", sim_mode="jit")
            for _ in range(3)
        ]
        for engine in engines:
            engine.predict_batch(frames)
        stats = cache_stats()
        assert stats.misses == 1, "the same program must be JIT-compiled once"
        assert stats.hits >= 2
        # The cached template is literally the same object for every engine.
        core = engines[0].backend.platform.core
        templates = {
            id(
                get_template(
                    e.backend.compiled.program,
                    core.cycle_model,
                    core.enable_sdotp,
                )
            )
            for e in engines
        }
        assert len(templates) == 1

    def test_content_keyed_not_identity_keyed(self):
        """Two equal-content program lists share one cache entry."""
        t1 = get_template(_tiny_program(), None, True)
        t2 = get_template(_tiny_program(), None, True)
        assert t1 is t2
        assert cache_stats().misses == 1
        assert cache_stats().hits == 1

    def test_distinct_flags_get_distinct_entries(self):
        t1 = get_template(_tiny_program(), None, True)
        t2 = get_template(_tiny_program(), None, False)
        assert t1 is not t2
        assert cache_stats().misses == 2

    def test_lru_eviction_bound(self):
        cache = TraceCache(capacity=2)
        programs = [_tiny_program(v) for v in (1, 2, 3)]
        for p in programs:
            cache.get(p, None, True)
        assert len(cache) == 2
        assert cache.stats().evictions == 1
        # program 0 was evicted (LRU); 1 and 2 still hit.
        cache.get(programs[1], None, True)
        cache.get(programs[2], None, True)
        assert cache.stats().hits == 2
        cache.get(programs[0], None, True)
        assert cache.stats().misses == 4

    def test_set_capacity_shrinks(self):
        set_trace_cache_capacity(1)
        get_template(_tiny_program(1), None, True)
        get_template(_tiny_program(2), None, True)
        from repro.hw.sim.trace_cache import _CACHE

        assert len(_CACHE) == 1

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_TRACE_CACHE", "5")
        assert TraceCache().capacity == 5


# --------------------------------------------------------------------------- #
# Generated-code semantics
# --------------------------------------------------------------------------- #
class TestJitSemantics:
    def test_jalr_into_block_interior(self):
        """Entering a block mid-stream single-steps until the next leader,
        bit-exact."""
        core_i = IbexCore(mode="interp")
        core_j = IbexCore(mode="jit")
        program = [
            Instruction("addi", rd=reg("t0"), rs1=0, imm=16),
            Instruction("jalr", rd=reg("ra"), rs1=reg("t0"), imm=0),
            Instruction("addi", rd=reg("a0"), rs1=0, imm=111),  # skipped
            Instruction("addi", rd=reg("a1"), rs1=0, imm=222),  # skipped
            Instruction("addi", rd=reg("a2"), rs1=0, imm=333),  # landing pad
            Instruction("ebreak"),
        ]
        for core in (core_i, core_j):
            core.run(program)
        assert core_j.registers == core_i.registers
        assert core_j.stats.cycles == core_i.stats.cycles
        assert core_j.registers[reg("a2")] == 333
        assert core_j.registers[reg("a0")] == 0

    def test_oob_fault_preserves_exception_type(self):
        """A mid-block out-of-bounds store raises the same error as interp."""
        program = [
            Instruction("lui", rd=reg("t0"), imm=0x7FFFF000),
            Instruction("sw", rs1=reg("t0"), rs2=reg("t0"), imm=0),
            Instruction("ebreak"),
        ]
        errors = {}
        for mode in ("interp", "jit"):
            core = IbexCore(mode=mode)
            with pytest.raises(Exception) as info:
                core.run(program)
            errors[mode] = info.value
        assert type(errors["jit"]) is type(errors["interp"])
        assert str(errors["jit"]) == str(errors["interp"])

    def test_oob_load_fault_matches(self):
        program = [
            Instruction("lui", rd=reg("t0"), imm=0x7FFFF000),
            Instruction("lw", rd=reg("a0"), rs1=reg("t0"), imm=0),
            Instruction("ebreak"),
        ]
        errors = {}
        for mode in ("interp", "jit"):
            core = IbexCore(mode=mode)
            with pytest.raises(Exception) as info:
                core.run(program)
            errors[mode] = info.value
        assert type(errors["jit"]) is type(errors["interp"])
        assert str(errors["jit"]) == str(errors["interp"])

    @pytest.mark.parametrize(
        "landing, core_kwargs",
        [
            (Instruction("lw", rd=reg("a2"), rs1=reg("t0"), imm=0), {}),
            (Instruction("sw", rs1=reg("t0"), rs2=reg("t0"), imm=0), {}),
            (
                Instruction("sdotp8", rd=reg("a2"), rs1=reg("a0"), rs2=reg("a1")),
                {"enable_sdotp": False},
            ),
            (Instruction("jalr", rd=reg("ra"), rs1=0, imm=4000), {}),
            (Instruction("jalr", rd=reg("ra"), rs1=0, imm=-8), {}),
            # Two generated instructions, the landing addi, then the ebreak
            # single-step overruns the budget.
            (Instruction("addi", rd=reg("a2"), rs1=0, imm=3), {"max_instructions": 3}),
        ],
        ids=["oob-load", "oob-store", "sdotp-vanilla", "jalr-past-end",
             "jalr-negative", "limit"],
    )
    def test_single_step_fault_matches(self, landing, core_kwargs):
        """A fault at a pc where no block starts raises exactly what the
        interpreter raises."""
        program = [
            Instruction("lui", rd=reg("t0"), imm=0x7FFFF000),
            Instruction("jalr", rd=reg("ra"), rs1=0, imm=16),
            Instruction("addi", rd=reg("a0"), rs1=0, imm=1),  # skipped
            Instruction("addi", rd=reg("a1"), rs1=0, imm=2),  # skipped
            landing,  # pc 16, in the middle of the block at pc 8
            Instruction("ebreak"),
        ]
        sdotp = core_kwargs.get("enable_sdotp", True)
        assert 16 not in {b.pc for b in JitTemplate(program, None, sdotp).blocks}
        errors = {}
        for mode in ("interp", "jit"):
            core = IbexCore(mode=mode, **core_kwargs)
            with pytest.raises(Exception) as info:
                core.run(program)
            errors[mode] = info.value
        assert type(errors["jit"]) is type(errors["interp"])
        assert str(errors["jit"]) == str(errors["interp"])

    def test_instruction_limit_exception_type(self):
        """A mid-loop budget blowup raises SimulationError in jit mode too."""
        infinite = [
            Instruction("addi", rd=reg("t0"), rs1=reg("t0"), imm=1),
            Instruction("jal", rd=0, imm=-4),
        ]
        core = IbexCore(max_instructions=5000, mode="jit")
        with pytest.raises(SimulationError, match="instruction limit"):
            core.run(infinite)

    def test_block_tallies_and_source(self):
        template = get_template(_tiny_program(), None, True)
        tallies = template.block_tallies()
        assert tallies["total"] >= 1
        assert tallies["jit"] == tallies["total"]
        assert "def _b0" in template.source
        assert isinstance(template, JitTemplate)

    def test_codegen_error_raises_at_build(self, monkeypatch):
        """A block the generator cannot express is a bug: building the
        template raises, and the trace cache keeps no entry for it."""
        import repro.hw.sim.jit as jit_module
        from repro.hw.sim.jit import JitCodegenError
        from repro.hw.sim.trace_cache import _CACHE

        def failing_generator(*args, **kwargs):
            raise JitCodegenError("unsupported")

        monkeypatch.setattr(jit_module, "_generate_block", failing_generator)
        with pytest.raises(JitCodegenError, match="unsupported"):
            get_template(_tiny_program(), None, True)
        assert len(_CACHE) == 0

    def test_x0_never_written(self):
        """Generated code must keep x0 hard-wired to zero."""
        program = [
            Instruction("addi", rd=0, rs1=0, imm=123),
            Instruction("add", rd=reg("a0"), rs1=0, rs2=0),
            Instruction("ebreak"),
        ]
        core = IbexCore(mode="jit")
        core.run(program)
        assert core.registers[0] == 0
        assert core.registers[reg("a0")] == 0


# --------------------------------------------------------------------------- #
# Cross-frame batching
# --------------------------------------------------------------------------- #
class TestBatchedExecution:
    @pytest.mark.parametrize("target", ["maupiti", "ibex"])
    def test_batched_path_actually_engages(
        self, integer_network, prepared_data, monkeypatch, target
    ):
        """The jit batch path must run, not silently fall back."""
        import repro.deploy.runtime as runtime

        frames = prepared_data["preprocessor"](
            prepared_data["test_session"].frames[:3]
        )
        use_sdotp = target == "maupiti"
        factory = maupiti_platform if use_sdotp else ibex_platform
        compiled = compile_network(integer_network, use_sdotp=use_sdotp)
        calls = []
        original = runtime._simulate_batch_jit

        def spy(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append(result)
            return result

        monkeypatch.setattr(runtime, "_simulate_batch_jit", spy)
        batch = simulate_batch(factory(sim_mode="jit"), compiled, frames)
        assert len(calls) == 1, "batched jit path fell back to sequential"
        assert len(batch.predictions) == 3

    def test_batched_matches_sequential_platform_state(
        self, integer_network, prepared_data
    ):
        """After a batched run the platform holds the last frame's state."""
        frames = prepared_data["preprocessor"](
            prepared_data["test_session"].frames[:3]
        )
        compiled = compile_network(integer_network, use_sdotp=True)
        p_jit = maupiti_platform(sim_mode="jit")
        p_int = maupiti_platform(sim_mode="interp")
        simulate_batch(p_jit, compiled, frames)
        simulate_batch(p_int, compiled, frames)
        assert p_jit.core.registers == p_int.core.registers
        assert p_jit.core.pc == p_int.core.pc
        assert p_jit.core.stats.cycles == p_int.core.stats.cycles
        assert p_jit.memory.load_bytes(DMEM_BASE, DMEM_SIZE) == p_int.memory.load_bytes(
            DMEM_BASE, DMEM_SIZE
        )

    def test_single_frame_uses_sequential_path(self, integer_network, prepared_data):
        frames = prepared_data["preprocessor"](
            prepared_data["test_session"].frames[:1]
        )
        compiled = compile_network(integer_network, use_sdotp=True)
        batch = simulate_batch(maupiti_platform(sim_mode="jit"), compiled, frames)
        assert len(batch.predictions) == 1

    def test_keep_results_through_batched_path(self, integer_network, prepared_data):
        frames = prepared_data["preprocessor"](
            prepared_data["test_session"].frames[:3]
        )
        compiled = compile_network(integer_network, use_sdotp=True)
        batch = simulate_batch(
            maupiti_platform(sim_mode="jit"), compiled, frames, keep_results=True
        )
        assert len(batch.results) == 3
        assert all(r.stats.instructions > 0 for r in batch.results)
        np.testing.assert_array_equal(
            batch.cycles_per_frame, [r.stats.cycles for r in batch.results]
        )


    @pytest.mark.parametrize("target", ["maupiti", "ibex"])
    def test_one_dispatch_per_conv_and_pool_layer(
        self, integer_network, prepared_data, target
    ):
        """Per frame, every conv and maxpool layer is one kernel dispatch,
        on the single-frame and on the batched path."""
        from repro.deploy.runtime import load_model, write_input
        from repro.hw.sim.batch import run_batch

        frames = prepared_data["preprocessor"](
            prepared_data["test_session"].frames[:3]
        )
        use_sdotp = target == "maupiti"
        platform = (maupiti_platform if use_sdotp else ibex_platform)()
        compiled = compile_network(integer_network, use_sdotp=use_sdotp)
        load_model(platform, compiled)
        core = platform.core
        template = get_template(compiled.program, core.cycle_model, use_sdotp)
        kinds = [s.kind for s in compiled.layer_summaries]

        write_input(platform, compiled, frames[0])
        stats = core.stats
        bound = template.bind(compiled.program, platform.memory)
        state = bound.start([0] * 32, stats, 0, core.max_instructions)
        bound.advance(state, stats)
        tallies = [template.dispatch_counts(state.cnt)]
        outcomes = run_batch(
            platform.memory, compiled.program,
            [p.tobytes() for p in pack_input_frames(compiled, frames)],
            compiled.input_buffer.address, core.cycle_model, use_sdotp,
            core.max_instructions,
        )
        tallies += [template.dispatch_counts(o.counters) for o in outcomes]
        for counts in tallies:
            assert counts.get("conv-nest") == kinds.count("conv")
            assert counts.get("pool-nest") == kinds.count("maxpool")
            assert counts.get("conv-chan", 0) == 0
            dispatches = sum(v for k, v in counts.items() if k != "blocks")
            assert dispatches <= 8
            assert counts["blocks"] <= 60

    def test_one_binding_per_batch(self, integer_network, prepared_data, monkeypatch):
        """A 16-frame batch execs the template's generated module once."""
        import repro.hw.sim.jit as jit_module
        from repro.deploy.runtime import load_model
        from repro.hw.sim.batch import run_batch

        frames = prepared_data["preprocessor"](
            prepared_data["test_session"].frames[:16]
        )
        platform = maupiti_platform()
        compiled = compile_network(integer_network, use_sdotp=True)
        load_model(platform, compiled)
        core = platform.core
        template = get_template(compiled.program, core.cycle_model, True)
        execs = []
        builtin_exec = exec

        def counting_exec(code, *args):
            execs.append(code)
            return builtin_exec(code, *args)

        monkeypatch.setattr(jit_module, "exec", counting_exec, raising=False)
        outcomes = run_batch(
            platform.memory, compiled.program,
            [p.tobytes() for p in pack_input_frames(compiled, frames)],
            compiled.input_buffer.address, core.cycle_model, True,
            core.max_instructions,
        )
        assert len(outcomes) == 16
        assert execs == [template.code]

    def test_fault_in_one_frame_is_that_frames_fault(self):
        """Only frame 2 reads outside dmem: the batch raises the exception
        frame 2 raises alone, and the platform memory is left untouched."""
        from repro.hw import DEFAULT_CYCLE_MODEL, Memory
        from repro.hw.sim.batch import run_batch

        buf = DMEM_BASE + 64
        # t2 = *(*buf): each frame loads through the address its payload holds.
        program = [
            Instruction("lui", rd=reg("t0"), imm=DMEM_BASE),
            Instruction("lw", rd=reg("t1"), rs1=reg("t0"), imm=64),
            Instruction("lw", rd=reg("t2"), rs1=reg("t1"), imm=0),
            Instruction("ebreak"),
        ]

        def payload(address, value):
            return address.to_bytes(4, "little") + value.to_bytes(4, "little")

        good = [payload(buf + 4, 1000 + i) for i in range(4)]
        base = Memory()
        base.store_bytes(DMEM_BASE, bytes(range(256)) * (DMEM_SIZE // 256))
        outcomes = run_batch(
            base, program, good, buf, DEFAULT_CYCLE_MODEL, True, 1000
        )
        # Every frame read its own memory through the one shared binding.
        assert [o.regs[reg("t2")] for o in outcomes] == [1000, 1001, 1002, 1003]

        bad = list(good)
        bad[2] = payload(0x7FFFF000, 0)
        errors = {}
        for mode in ("interp", "jit"):
            core = IbexCore(memory=base.clone(), mode=mode)
            core.memory.store_bytes(buf, bad[2])
            with pytest.raises(Exception) as info:
                core.run(program)
            errors[mode] = info.value
        before = {name: bytes(data) for name, data in base._data.items()}
        with pytest.raises(Exception) as info:
            run_batch(base, program, bad, buf, DEFAULT_CYCLE_MODEL, True, 1000)
        for alone in errors.values():
            assert type(info.value) is type(alone)
            assert str(info.value) == str(alone)
        assert {name: bytes(data) for name, data in base._data.items()} == before

    def test_batched_single_step_uses_each_frames_memory(self):
        """Frames that jalr into a block's middle single-step through
        ``step`` against their own memory: each equals a sequential
        interpreter run with its own payload."""
        from repro.hw import DEFAULT_CYCLE_MODEL, Memory
        from repro.hw.sim.batch import run_batch

        buf = DMEM_BASE + 64
        program = [
            Instruction("lui", rd=reg("t0"), imm=DMEM_BASE),
            Instruction("lw", rd=reg("t1"), rs1=reg("t0"), imm=64),
            Instruction("jalr", rd=reg("ra"), rs1=0, imm=20),
            Instruction("addi", rd=reg("a0"), rs1=0, imm=1),  # skipped
            Instruction("addi", rd=reg("a1"), rs1=0, imm=2),  # skipped
            Instruction("lw", rd=reg("t2"), rs1=reg("t0"), imm=68),  # pc 20
            Instruction("add", rd=reg("t3"), rs1=reg("t1"), rs2=reg("t2")),
            Instruction("sw", rs1=reg("t0"), rs2=reg("t3"), imm=72),
            Instruction("ebreak"),
        ]
        assert 20 not in {b.pc for b in JitTemplate(program, None, True).blocks}
        payloads = [
            (10 * i + 1).to_bytes(4, "little") + (1000 * i + 7).to_bytes(4, "little")
            for i in range(3)
        ]
        base = Memory()
        outcomes = run_batch(
            base, program, payloads, buf, DEFAULT_CYCLE_MODEL, True, 1000
        )
        assert len({o.regs[reg("t3")] for o in outcomes}) == len(payloads)
        for payload, out in zip(payloads, outcomes):
            ref = IbexCore(memory=base.clone(), mode="interp")
            ref.memory.store_bytes(buf, payload)
            ref.run(program)
            assert out.regs == ref.registers
            assert out.final_pc == ref.pc
            assert out.stats.instructions == ref.stats.instructions
            assert out.stats.cycles == ref.stats.cycles
            assert out.stats.per_mnemonic == ref.stats.per_mnemonic
            assert out.memory.load_bytes(DMEM_BASE, DMEM_SIZE) == (
                ref.memory.load_bytes(DMEM_BASE, DMEM_SIZE)
            )

    def test_batched_path_bug_propagates(
        self, integer_network, prepared_data, monkeypatch
    ):
        """Only lockstep divergence and simulated faults fall back to the
        sequential path; a bug in the batched path is raised, not hidden."""
        frames = prepared_data["preprocessor"](
            prepared_data["test_session"].frames[:3]
        )
        platform = maupiti_platform(sim_mode="jit")
        compiled = compile_network(integer_network, use_sdotp=True)
        template = get_template(compiled.program, platform.core.cycle_model, True)
        kernel = next(
            b.kernel for b in template.blocks
            if b.kernel is not None and b.kernel.kind == "conv-nest"
        )
        single_frame = kernel.make_run_many

        def batched_only_bug(mems):
            if len(mems) > 1:
                raise ValueError("injected batched-kernel bug")
            return single_frame(mems)

        monkeypatch.setattr(kernel, "make_run_many", batched_only_bug)
        with pytest.raises(ValueError, match="injected batched-kernel bug"):
            simulate_batch(platform, compiled, frames)


# --------------------------------------------------------------------------- #
# Thread safety
# --------------------------------------------------------------------------- #
class TestThreadSafety:
    def test_concurrent_predict_on_shared_template(
        self, integer_network, prepared_data
    ):
        """Many engines hammer one cached template from worker threads."""
        frames = prepared_data["preprocessor"](
            prepared_data["test_session"].frames[:2]
        )
        reference = repro.compile(
            integer_network, target="maupiti", sim_mode="interp"
        ).predict_batch(frames)

        n_threads = 6
        results = [None] * n_threads
        errors = []
        barrier = threading.Barrier(n_threads)

        def worker(i):
            try:
                engine = repro.compile(
                    integer_network, target="maupiti", sim_mode="jit"
                )
                barrier.wait()
                for _ in range(3):
                    results[i] = engine.predict_batch(frames)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        for batch in results:
            np.testing.assert_array_equal(batch.predictions, reference.predictions)
            np.testing.assert_array_equal(batch.logits, reference.logits)
            np.testing.assert_array_equal(
                batch.cycles_per_frame, reference.cycles_per_frame
            )
        # Racing threads may transiently double-compile (by design: compiles
        # happen outside the lock), but the cache converges to one entry.
        from repro.hw.sim.trace_cache import _CACHE

        assert len(_CACHE) == 1

    def test_concurrent_cache_population_single_entry(self):
        """Racing threads compiling the same program end with one entry."""
        cache = TraceCache(capacity=8)
        program = _tiny_program()
        templates = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            templates.append(cache.get(program, None, True))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) == 1
        assert len({id(t) for t in templates}) == 1


# --------------------------------------------------------------------------- #
# Reports
# --------------------------------------------------------------------------- #
class TestReportPlumbing:
    def test_report_carries_sim_info(self, integer_network, prepared_data):
        frames = prepared_data["preprocessor"](
            prepared_data["test_session"].frames[:1]
        )
        report = repro.compile(
            integer_network, target="maupiti", sim_mode="jit"
        ).report(frames)
        assert report.sim["mode"] == "jit"
        assert report.sim["blocks"]["total"] > 0
        assert report.sim["blocks"]["jit"] > 0
        assert sum(report.sim["kernel_counts"].values()) >= 1
        assert report.sim["kernel_counts"].get("conv-nest", 0) >= 1
        assert report.sim["kernel_counts"].get("pool-nest", 0) >= 1

    def test_compiled_model_fingerprint_stable(self, integer_network):
        a = compile_network(integer_network, use_sdotp=True)
        b = compile_network(integer_network, use_sdotp=True)
        c = compile_network(integer_network, use_sdotp=False)
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != c.fingerprint
