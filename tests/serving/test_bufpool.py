"""Unit tests for the serving buffer pool (lease/release lifecycle,
aliasing isolation, leak accounting under concurrent churn)."""

import threading

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.serving.bufpool import BufferPool, _size_class


class TestSizeClasses:
    def test_rounds_up_to_power_of_two(self):
        assert _size_class(1) == 64
        assert _size_class(64) == 64
        assert _size_class(65) == 128
        assert _size_class(1000) == 1024

    def test_lease_shapes_and_dtype(self):
        pool = BufferPool()
        for shape in [(5,), (4, 16), (3, 7), (1, 1)]:
            view = pool.lease(shape)
            assert view.shape == shape
            assert view.dtype == np.float64
            assert view.flags.c_contiguous
            pool.release(view)

    def test_int_shape_means_vector(self):
        pool = BufferPool()
        view = pool.lease(12)
        assert view.shape == (12,)
        pool.release(view)

    def test_invalid_shape_raises(self):
        pool = BufferPool()
        with pytest.raises(ConfigurationError):
            pool.lease((0, 4))
        with pytest.raises(ConfigurationError):
            pool.lease((-1,))

    def test_cap_enforced(self):
        pool = BufferPool(max_class_elements=1 << 10)
        with pytest.raises(ConfigurationError, match="exceeds the pool cap"):
            pool.lease((1 << 11,))


class TestLifecycle:
    def test_release_recycles_the_arena(self):
        pool = BufferPool()
        first = pool.lease((8, 8))
        addr = first.__array_interface__["data"][0]
        pool.release(first)
        second = pool.lease((64,))  # same 64-element class
        assert second.__array_interface__["data"][0] == addr
        assert pool.hits == 1
        pool.release(second)

    def test_double_release_raises(self):
        pool = BufferPool()
        view = pool.lease((4,))
        pool.release(view)
        with pytest.raises(ConfigurationError, match="does not own"):
            pool.release(view)

    def test_foreign_array_release_raises(self):
        pool = BufferPool()
        with pytest.raises(ConfigurationError, match="does not own"):
            pool.release(np.zeros(4))

    def test_outstanding_tracks_live_leases(self):
        pool = BufferPool()
        views = [pool.lease((16,)) for _ in range(5)]
        assert pool.outstanding == 5
        for view in views:
            pool.release(view)
        assert pool.outstanding == 0
        stats = pool.stats()
        assert stats["leases"] == 5
        assert stats["releases"] == 5

    def test_free_list_is_bounded(self):
        pool = BufferPool(max_free_per_class=2)
        views = [pool.lease((64,)) for _ in range(5)]
        for view in views:
            pool.release(view)
        assert pool.stats()["free_arenas"] == 2

    def test_leaked_lease_stays_pinned_for_accounting(self):
        # Regression: the lease table used to map id(view) -> arena
        # without holding the view.  A caller that dropped its lease
        # without releasing let the view be collected, its id() recycled
        # by a later lease, and the table entry silently overwritten —
        # corrupting the leak accounting the pool exists to provide.
        import gc
        import weakref

        pool = BufferPool()
        view = pool.lease((8, 8))
        leaked = weakref.ref(view)
        del view
        gc.collect()
        # The pool itself must pin the leaked view: alive via the table.
        assert leaked() is not None
        assert pool.outstanding == 1
        # Churn fresh leases through the same size class; none may
        # collide with (and clobber) the leaked entry.
        for _ in range(50):
            churn = pool.lease((8, 8))
            pool.release(churn)
        gc.collect()
        assert pool.outstanding == 1
        stats = pool.stats()
        assert stats["leases"] - stats["releases"] == 1
        # The leak is still recoverable through the pinned reference.
        pool.release(leaked())
        assert pool.outstanding == 0


class TestAliasing:
    def test_concurrent_leases_never_share_memory(self):
        # Two live leases of the same size class must come from distinct
        # arenas: writing one leaves the other untouched.
        pool = BufferPool()
        a = pool.lease((8, 8))
        b = pool.lease((8, 8))
        addr = lambda v: v.__array_interface__["data"][0]  # noqa: E731
        assert addr(a) != addr(b)
        a.fill(1.0)
        b.fill(2.0)
        assert np.all(a == 1.0)
        assert np.all(b == 2.0)
        pool.release(a)
        pool.release(b)

    def test_threaded_soak_leaves_no_leaks_or_cross_talk(self):
        # Chaos soak: several threads lease, stamp, verify, and release
        # concurrently.  Any arena shared between two live leases shows up
        # as a corrupted stamp; any pairing bug as outstanding != 0.
        pool = BufferPool(max_free_per_class=8)
        errors = []

        def churn(worker_id):
            rng = np.random.default_rng(worker_id)
            try:
                for i in range(300):
                    rows = int(rng.integers(1, 33))
                    cols = int(rng.integers(1, 17))
                    view = pool.lease((rows, cols))
                    stamp = float(worker_id * 1000 + i)
                    view.fill(stamp)
                    if not np.all(view == stamp):
                        raise AssertionError("lease contents corrupted")
                    pool.release(view)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=churn, args=(w,)) for w in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert pool.outstanding == 0
        stats = pool.stats()
        assert stats["leases"] == stats["releases"] == 6 * 300
        assert stats["hits"] > 0  # recycling actually happened
