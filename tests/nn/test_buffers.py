"""Unit tests for the autograd scratch pool (:mod:`repro.nn.buffers`)."""

from __future__ import annotations

import threading

import numpy as np

from repro.nn import BufferPool, scratch_pool


class TestBufferPool:
    def test_acquire_returns_requested_shape_and_dtype(self):
        pool = BufferPool()
        buffer = pool.acquire((3, 4), np.float32)
        assert buffer.shape == (3, 4)
        assert buffer.dtype == np.float32
        assert pool.acquire([2, 5]).dtype == np.float64

    def test_release_then_acquire_reuses_the_buffer(self):
        pool = BufferPool()
        buffer = pool.acquire((3, 4))
        pool.release(buffer)
        assert pool.free_bytes() == buffer.nbytes
        assert pool.acquire((3, 4)) is buffer
        assert pool.free_bytes() == 0

    def test_reuse_is_keyed_by_shape_and_dtype(self):
        pool = BufferPool()
        buffer = pool.acquire((3, 4))
        pool.release(buffer)
        assert pool.acquire((4, 3)) is not buffer
        assert pool.acquire((3, 4), np.float32) is not buffer
        assert pool.acquire((3, 4)) is buffer

    def test_views_and_read_only_arrays_are_never_pooled(self):
        pool = BufferPool()
        base = np.empty((4, 4))
        pool.release(base[1:])
        pool.release(base.T)
        frozen = np.empty((4, 4))
        frozen.flags.writeable = False
        pool.release(frozen)
        assert pool.free_bytes() == 0
        assert pool.acquire((3, 4)).base is None

    def test_double_release_stores_the_buffer_once(self):
        pool = BufferPool()
        buffer = pool.acquire((2, 2))
        pool.release(buffer)
        pool.release(buffer)
        assert pool.free_bytes() == buffer.nbytes
        assert pool.acquire((2, 2)) is buffer
        assert pool.acquire((2, 2)) is not buffer

    def test_max_per_key_bounds_each_free_list(self):
        pool = BufferPool(max_per_key=2)
        buffers = [pool.acquire((2, 3)) for _ in range(4)]
        for buffer in buffers:
            pool.release(buffer)
        other = pool.acquire((5,))
        pool.release(other)
        assert pool.free_bytes() == 2 * buffers[0].nbytes + other.nbytes

    def test_reset_drops_free_lists(self):
        pool = BufferPool()
        buffer = pool.acquire((3,))
        pool.release(buffer)
        pool.reset()
        assert pool.free_bytes() == 0
        assert pool.acquire((3,)) is not buffer


def test_scratch_pool_is_per_thread():
    main = scratch_pool()
    assert scratch_pool() is main
    seen = []
    worker = threading.Thread(target=lambda: seen.extend([scratch_pool(), scratch_pool()]))
    worker.start()
    worker.join()
    assert seen[0] is seen[1]
    assert seen[0] is not main
