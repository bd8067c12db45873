"""Executor lifecycle and shared-memory handoff.

What PR 8 fixed: the process pool used to fork per ``run()`` call and to
re-pickle the full datasets into every task payload, making it *slower*
than serial.  These tests pin the fix:

* the pool is persistent — one fork per executor, reused across ``run()``
  calls — and ``close()`` is idempotent (a closed executor transparently
  restarts if used again);
* datasets ride in ``multiprocessing.shared_memory`` blocks that workers
  attach zero-copy and read-only, payloads shrink to descriptors, and every
  block is unlinked on normal exit *and* on exception;
* a crashed worker surfaces a clear error instead of a bare
  ``BrokenProcessPool``, and the executor stays usable afterwards.
"""

import os
import pickle
import threading

import numpy as np
import pytest

from repro.nn import ArrayDataset
from repro.parallel import (
    ProcessExecutor,
    SerialExecutor,
    SharedArray,
    ShmArena,
    ThreadExecutor,
    fingerprint,
)


def _double(x):
    return 2 * x


def _worker_pid(_):
    return os.getpid()


def _sum_dataset(dataset):
    return float(dataset.inputs.sum()) + float(dataset.targets.sum())


def _write_into_dataset(dataset):
    dataset.inputs[0, 0] = 42.0


def _crash(_):
    os._exit(13)


def _block_is_linked(name: str) -> bool:
    from multiprocessing import shared_memory

    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    seg.close()
    return True


@pytest.fixture
def dataset():
    rng = np.random.default_rng(0)
    return ArrayDataset(
        rng.normal(size=(512, 1, 8, 8)), rng.integers(0, 4, size=512)
    )


class TestSharedMemory:
    def test_shared_dataset_pickles_as_descriptors(self, dataset):
        arena = ShmArena()
        try:
            shared = arena.share_dataset(dataset)
            # Same class, same content, same fingerprint => same cache keys.
            assert type(shared) is ArrayDataset
            np.testing.assert_array_equal(shared.inputs, dataset.inputs)
            assert fingerprint(shared) == fingerprint(dataset)
            # The payload cost collapses from megabytes to descriptors.
            assert len(pickle.dumps(shared)) < 2_000 < len(pickle.dumps(dataset))
        finally:
            arena.close()

    def test_roundtrip_attaches_cached_readonly_views(self, dataset):
        arena = ShmArena()
        try:
            shared = arena.share_dataset(dataset)
            once = pickle.loads(pickle.dumps(shared))
            again = pickle.loads(pickle.dumps(shared))
            np.testing.assert_array_equal(once.inputs, dataset.inputs)
            assert once.inputs is again.inputs  # per-process attach cache
            assert not once.inputs.flags.writeable
            with pytest.raises(ValueError):
                once.inputs[0, 0, 0, 0] = 1.0
        finally:
            arena.close()

    def test_share_is_idempotent(self, dataset):
        arena = ShmArena()
        try:
            first = arena.share_dataset(dataset)
            assert arena.share_dataset(dataset).inputs is first.inputs
            assert arena.share_dataset(first) is first  # already shared
            assert len(arena) == 2  # inputs + targets, shared once
        finally:
            arena.close()

    def test_derived_arrays_pickle_by_value(self, dataset):
        """Slices/copies of a shared view do not alias the block."""
        arena = ShmArena()
        try:
            shared = arena.share_array(dataset.inputs)
            for derived in (shared[:3], shared + 1.0, np.asarray(shared).copy()):
                loaded = pickle.loads(pickle.dumps(derived))
                np.testing.assert_array_equal(loaded, derived)
        finally:
            arena.close()
        # close() unlinks the names but never unmaps live mappings, so views
        # handed out earlier stay readable instead of dangling.
        assert float(np.asarray(shared).sum()) == float(dataset.inputs.sum())
        assert isinstance(pickle.loads(pickle.dumps(np.asarray(shared)[:2])), np.ndarray)

    def test_empty_and_foreign_arrays_pass_through(self):
        arena = ShmArena()
        try:
            empty = np.zeros((0, 4))
            assert arena.share_array(empty) is empty
        finally:
            arena.close()

    def test_blocks_unlinked_on_close_and_exception(self, dataset):
        # Normal exit.
        executor = ProcessExecutor(max_workers=2)
        executor.share_dataset(dataset)
        names = executor.shared_block_names
        assert names and all(_block_is_linked(n) for n in names)
        executor.close()
        assert not any(_block_is_linked(n) for n in names)

        # Exception inside the context manager.
        with pytest.raises(RuntimeError, match="boom"):
            with ProcessExecutor(max_workers=2) as executor:
                executor.share_dataset(dataset)
                names = executor.shared_block_names
                assert all(_block_is_linked(n) for n in names)
                raise RuntimeError("boom")
        assert not any(_block_is_linked(n) for n in names)

    def test_workers_consume_shared_dataset_readonly(self, dataset):
        with ProcessExecutor(max_workers=2) as executor:
            shared = executor.share_dataset(dataset)
            want = _sum_dataset(dataset)
            assert executor.run(_sum_dataset, [shared, shared]) == [want, want]
            # Writes into the shared block fail loudly in the worker.
            with pytest.raises(ValueError, match="read-only"):
                executor.run(_write_into_dataset, [shared])


class TestExecutorLifecycle:
    def test_process_pool_is_reused_across_runs(self):
        with ProcessExecutor(max_workers=2) as executor:
            first = set(executor.run(_worker_pid, range(6)))
            pool = executor._pool
            assert pool is not None
            second = set(executor.run(_worker_pid, range(6)))
            assert executor._pool is pool  # same pool object, no re-fork
            assert (first | second) <= set(pool._processes)

    def test_close_is_idempotent_and_revivable(self):
        executor = ProcessExecutor(max_workers=1)
        assert executor.run(_double, [3]) == [6]
        executor.close()
        executor.close()  # idempotent
        assert executor.run(_double, [4]) == [8]  # lazily restarts
        executor.close()

        threads = ThreadExecutor(max_workers=2)
        assert threads.run(_double, [5]) == [10]
        threads.close()
        threads.close()
        assert threads.run(_double, [6]) == [12]
        threads.close()

        SerialExecutor().close()  # no-op, but part of the interface

    def test_worker_crash_surfaces_clear_error(self):
        with ProcessExecutor(max_workers=1) as executor:
            with pytest.raises(RuntimeError, match="worker died"):
                executor.run(_crash, [1])
            # The broken pool was discarded; the executor stays usable.
            assert executor.run(_double, [21]) == [42]

    def test_thread_executor_matches_serial(self):
        payloads = list(range(16))
        want = SerialExecutor().run(_double, payloads)
        with ThreadExecutor(max_workers=4) as threads:
            assert threads.run(_double, payloads) == want
        assert ThreadExecutor().run(_double, []) == []

    def test_chunksize_heuristic(self):
        chunk = ProcessExecutor._chunksize
        assert chunk(2, 4) == 1        # short lists: one task per message
        assert chunk(64, 4) == 4       # ~4 chunks per worker
        assert chunk(1000, 8) == 31


# --------------------------------------------------------------------- #
class TestShmRing:
    """The SPSC byte ring under the serving pool's frame transport."""

    def _ring(self, capacity):
        from repro.parallel import ShmRing

        ring = ShmRing.create(capacity)
        return ring

    def test_write_view_release_roundtrip(self):
        ring = self._ring(256)
        try:
            payload = bytes(range(64))
            pos, end = ring.write(payload)
            assert bytes(ring.view(pos, len(payload))) == payload
            assert ring.occupancy() == pytest.approx(64 / 256)
            ring.release(end)
            assert ring.occupancy() == 0.0
        finally:
            ring.close()

    def test_attach_sees_producer_bytes(self):
        from repro.parallel import ShmRing

        ring = self._ring(128)
        try:
            pos, end = ring.write(b"hello-ring")
            peer = ShmRing.attach(ring.name)
            try:
                assert bytes(peer.view(pos, 10)) == b"hello-ring"
            finally:
                peer.close()
            # The consumer never touches the cursors: the producer frees the
            # space once the consumer echoes ``end`` back out of band.
            assert ring.occupancy() == pytest.approx(10 / 128)
            ring.release(end)
            assert ring.occupancy() == 0.0
        finally:
            ring.close()

    def test_out_of_order_release_keeps_tail_monotonic(self):
        # A request rejected by the consumer (error reply) can be answered
        # before an earlier request's success reply; releasing its ``end``
        # frees both payloads, and the late, smaller ``end`` must not move
        # the tail back over space that may already hold new data.
        ring = self._ring(128)
        try:
            _, end_a = ring.write(b"a" * 32)
            _, end_b = ring.write(b"b" * 32)
            ring.release(end_b)  # the error reply for B arrives first
            assert ring.tail == end_b and ring.occupancy() == 0.0
            pos_c, end_c = ring.write(b"c" * 32)
            ring.release(end_a)  # A's late success reply
            assert ring.tail == end_b
            assert ring.occupancy() == pytest.approx(32 / 128)
            assert bytes(ring.view(pos_c, 32)) == b"c" * 32
            ring.release(end_c)
            assert ring.head == ring.tail
        finally:
            ring.close()

    def test_wraparound_skips_tail_fragment(self):
        ring = self._ring(100)
        try:
            pos1, end1 = ring.write(b"a" * 80)
            ring.release(end1)
            # 20 bytes remain before the physical end: an followup 40-byte
            # payload must skip them and land at offset 0.
            pos2, end2 = ring.write(b"b" * 40)
            assert pos2 == 0
            assert end2 == 80 + 20 + 40  # absolute cursor accounts the skip
            assert bytes(ring.view(pos2, 40)) == b"b" * 40
            ring.release(end2)
            assert ring.head == ring.tail
        finally:
            ring.close()

    def test_nonblocking_write_raises_ring_full(self):
        from repro.parallel import RingFull

        ring = self._ring(64)
        try:
            ring.write(b"x" * 48)
            with pytest.raises(RingFull):
                ring.write(b"y" * 32, timeout=0.0)
        finally:
            ring.close()

    def test_blocked_write_proceeds_after_release(self):
        ring = self._ring(64)
        try:
            _, end = ring.write(b"x" * 48)
            release_timer = threading.Timer(0.05, lambda: ring.release(end))
            release_timer.start()
            pos, end2 = ring.write(b"y" * 32, timeout=5.0)  # blocks, then lands
            release_timer.join()
            assert bytes(ring.view(pos, 32)) == b"y" * 32
            ring.release(end2)
        finally:
            ring.close()

    def test_oversized_payload_rejected(self):
        ring = self._ring(32)
        try:
            with pytest.raises(ValueError, match="exceeds ring capacity"):
                ring.write(b"z" * 33)
        finally:
            ring.close()

    def test_exact_fit_at_ring_end_does_not_wrap(self):
        ring = self._ring(100)
        try:
            _, end1 = ring.write(b"a" * 60)
            ring.release(end1)
            # 40 bytes remain before the physical end; a 40-byte payload
            # fits exactly and must land there with no skip accounted.
            pos, end = ring.write(b"b" * 40, timeout=0.0)
            assert pos == 60
            assert end == 100  # no skip: cursors advance by payload only
            assert bytes(ring.view(pos, 40)) == b"b" * 40
            ring.release(end)
            assert ring.head == ring.tail == 100
        finally:
            ring.close()

    def test_maximal_frame_after_wraparound_skip(self):
        # Regression: a capacity-sized payload written when the ring is
        # empty but head is mid-buffer needs skip + n > capacity, which the
        # plain fit condition can never satisfy — the write used to poll
        # forever (or raise RingFull with a timeout) despite the ring
        # holding zero unconsumed bytes.
        ring = self._ring(100)
        try:
            _, end1 = ring.write(b"a" * 60)
            ring.release(end1)  # ring empty, head parked at 60
            payload = bytes((i % 251 for i in range(100)))
            pos, end = ring.write(payload, timeout=0.5)
            assert pos == 0  # skipped the 40-byte tail fragment
            assert end == 60 + 40 + 100
            assert bytes(ring.view(pos, 100)) == payload
            assert ring.occupancy() == 1.0  # clamped despite skip overhang
            ring.release(end)
            assert ring.head == ring.tail
            # The ring keeps working normally afterwards.
            pos2, end2 = ring.write(b"c" * 10, timeout=0.0)
            assert bytes(ring.view(pos2, 10)) == b"c" * 10
            ring.release(end2)
        finally:
            ring.close()

    def test_near_maximal_frame_after_skip_still_blocks_when_occupied(self):
        # The empty-ring clause must NOT fire while unconsumed bytes exist:
        # the same oversized-window write with data in flight stays a
        # RingFull, not a corruption.
        from repro.parallel import RingFull

        ring = self._ring(100)
        try:
            _, end1 = ring.write(b"a" * 60)
            ring.release(end1)
            _, end2 = ring.write(b"b" * 30)  # head at 90, 30 bytes in flight
            with pytest.raises(RingFull):
                ring.write(b"c" * 95, timeout=0.0)
            ring.release(end2)  # drain; now the oversized window is legal
            pos, end3 = ring.write(b"c" * 95, timeout=0.5)
            assert pos == 0
            assert bytes(ring.view(pos, 95)) == b"c" * 95
            ring.release(end3)
        finally:
            ring.close()

    def test_close_unlinks_owner_block(self):
        ring = self._ring(32)
        name = ring.name
        assert _block_is_linked(name)
        ring.close()
        assert not _block_is_linked(name)
