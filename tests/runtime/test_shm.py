"""Tests for the shared-memory segment lifecycle (repro.runtime.shm)."""

import contextlib
import os
import pickle

import numpy as np
import pytest

from repro.errors import ReproError
from repro.runtime.shm import (
    SEGMENT_PREFIX,
    SharedArray,
    ShmArena,
    ShmDescriptor,
    owned_segments,
)


@pytest.fixture
def leak_check():
    """Assert the test released every segment it created."""
    before = set(owned_segments())
    yield
    leaked = set(owned_segments()) - before
    assert not leaked, f"leaked shm segments: {sorted(leaked)}"


def _fd_target(fd: str) -> str:
    try:
        return os.readlink(f"/proc/self/fd/{fd}")
    except OSError:
        return ""


class TestSharedArray:
    def test_create_write_attach_read(self, leak_check):
        with SharedArray.create((3, 4), np.float32) as seg:
            assert seg.name.startswith(SEGMENT_PREFIX)
            seg.ndarray[...] = 7.0
            attached = SharedArray.attach(seg.descriptor)
            try:
                np.testing.assert_array_equal(
                    attached.ndarray, np.full((3, 4), 7.0, np.float32)
                )
                # Same pages, not a copy: a write on one side is
                # immediately visible on the other.
                attached.ndarray[0, 0] = -1.0
                assert seg.ndarray[0, 0] == -1.0
            finally:
                attached.close()

    def test_from_array_copies(self, leak_check):
        source = np.arange(6, dtype=np.float64).reshape(2, 3)
        with SharedArray.from_array(source) as seg:
            source[0, 0] = 99.0
            assert seg.ndarray[0, 0] == 0.0

    def test_owner_registered_until_unlinked(self):
        seg = SharedArray.create((2,), np.float32)
        assert seg.name in owned_segments()
        name = seg.name
        seg.unlink()
        assert name not in owned_segments()

    def test_unlink_is_idempotent(self, leak_check):
        seg = SharedArray.create((2,), np.float32)
        seg.unlink()
        seg.unlink()

    def test_unlink_removes_backing_file_and_open_fds(self, leak_check):
        seg = SharedArray.create((2,), np.float32)
        name = seg.name
        assert os.path.exists(f"/dev/shm/{name}")
        seg.unlink()
        assert not os.path.exists(f"/dev/shm/{name}")
        # Unlink goes through the handle we already held: no second
        # attachment whose fd/mapping would linger until GC.
        open_targets = []
        for fd in os.listdir("/proc/self/fd"):
            try:
                open_targets.append(os.readlink(f"/proc/self/fd/{fd}"))
            except OSError:
                continue
        assert not [t for t in open_targets if name in t]

    def test_attacher_may_not_unlink(self, leak_check):
        with SharedArray.create((2,), np.float32) as seg:
            attached = SharedArray.attach(seg.descriptor)
            with pytest.raises(ReproError, match="only the owner"):
                attached.unlink()
            attached.close()

    def test_access_after_close_raises(self, leak_check):
        seg = SharedArray.create((2,), np.float32)
        seg.unlink()
        with pytest.raises(ReproError, match="closed"):
            _ = seg.ndarray
        with pytest.raises(ReproError, match="closed"):
            _ = seg.name

    def test_owner_context_unlinks_on_error(self):
        name = None
        with pytest.raises(RuntimeError):
            with SharedArray.create((2,), np.float32) as seg:
                name = seg.name
                raise RuntimeError("boom")
        assert name not in owned_segments()

    def test_close_is_idempotent(self, leak_check):
        with SharedArray.create((2,), np.float32) as seg:
            attached = SharedArray.attach(seg.descriptor)
            attached.close()
            attached.close()

    def test_attacher_close_leaves_the_segment_to_its_owner(self, leak_check):
        with SharedArray.create((3,), np.float32) as seg:
            seg.ndarray[...] = 5.0
            with SharedArray.attach(seg.descriptor) as attached:
                assert not attached.owner
            # The attacher's ``with`` closed its mapping and nothing
            # more: the name, the registry entry and the data stand.
            assert os.path.exists(f"/dev/shm/{seg.name}")
            assert seg.name in owned_segments()
            np.testing.assert_array_equal(seg.ndarray,
                                          np.full(3, 5.0, np.float32))

    def test_attacher_access_after_close_raises(self, leak_check):
        with SharedArray.create((2,), np.float32) as seg:
            attached = SharedArray.attach(seg.descriptor)
            attached.close()
            for attr in ("ndarray", "name", "descriptor"):
                with pytest.raises(ReproError, match="closed"):
                    getattr(attached, attr)

    def test_attacher_outlives_the_owners_unlink(self, leak_check):
        # POSIX keeps the pages mapped past the unlink: a worker still
        # holding the segment reads it until it closes.
        seg = SharedArray.from_array(np.arange(4, dtype=np.float32))
        attached = SharedArray.attach(seg.descriptor)
        seg.unlink()
        try:
            np.testing.assert_array_equal(attached.ndarray,
                                          np.arange(4, dtype=np.float32))
        finally:
            attached.close()

    def test_unlinked_name_cannot_be_attached(self, leak_check):
        seg = SharedArray.create((2,), np.float32)
        descriptor = seg.descriptor
        seg.unlink()
        with pytest.raises(FileNotFoundError):
            SharedArray.attach(descriptor)

    def test_unlink_with_a_live_view_still_settles_the_books(self,
                                                             leak_check):
        seg = SharedArray.create((2,), np.float32)
        name = seg.name
        view = seg.ndarray
        # Closing the mapping may raise BufferError while ``view`` holds
        # the buffer; the name is gone and unregistered either way.
        with contextlib.suppress(BufferError):
            seg.unlink()
        assert not os.path.exists(f"/dev/shm/{name}")
        assert name not in owned_segments()
        del view

    def test_owner_close_then_unlink_removes_the_segment(self, leak_check):
        seg = SharedArray.create((2,), np.float32)
        name = seg.name
        seg.close()
        assert os.path.exists(f"/dev/shm/{name}")
        seg.unlink()
        assert not os.path.exists(f"/dev/shm/{name}")
        assert name not in owned_segments()
        assert not [fd for fd in os.listdir("/proc/self/fd")
                    if name in _fd_target(fd)]
        seg.unlink()  # still idempotent

    def test_a_shared_array_refuses_to_pickle(self, leak_check):
        # A copy would claim ownership: its unlink() would remove the
        # segment under its creator.
        with SharedArray.create((2,), np.float32) as seg:
            with pytest.raises(ReproError, match=r"\.descriptor"):
                pickle.dumps(seg)
            assert os.path.exists(f"/dev/shm/{seg.name}")

    def test_process_dispatch_refuses_a_shared_array(self, leak_check):
        from repro.runtime.backends import ProcessBackend

        backend = ProcessBackend(1)
        try:
            with SharedArray.create((2,), np.float32) as seg:
                with pytest.raises(ReproError, match="must pickle"):
                    backend.call(len, seg)
        finally:
            backend.shutdown()

    def test_matches_is_false_after_release(self, leak_check):
        seg = SharedArray.create((2,), np.float32)
        seg.unlink()
        assert not seg.matches((2,), np.float32)

    def test_matches(self, leak_check):
        with SharedArray.create((2, 3), np.float32) as seg:
            assert seg.matches((2, 3), np.float32)
            assert not seg.matches((3, 2), np.float32)
            assert not seg.matches((2, 3), np.float64)


class TestShmDescriptor:
    def test_descriptor_pickles(self, leak_check):
        with SharedArray.create((4, 5), np.float64) as seg:
            descriptor = seg.descriptor
        clone = pickle.loads(pickle.dumps(descriptor))
        assert clone == descriptor
        assert clone.shape == (4, 5)
        assert np.dtype(clone.dtype) == np.float64

    def test_empty_name_rejected(self):
        with pytest.raises(ReproError, match="segment name"):
            ShmDescriptor(name="", shape=(1,), dtype="<f4")


class TestShmArena:
    def test_ensure_reuses_matching_geometry(self, leak_check):
        with ShmArena() as arena:
            first = arena.ensure("x", (3, 3), np.float32)
            again = arena.ensure("x", (3, 3), np.float32)
            assert again is first
            assert len(arena) == 1

    def test_ensure_reallocates_on_geometry_change(self, leak_check):
        with ShmArena() as arena:
            first = arena.ensure("x", (3, 3), np.float32)
            old_name = first.name
            second = arena.ensure("x", (5, 2), np.float32)
            assert second is not first
            # The stale segment was unlinked, not leaked.
            assert old_name not in owned_segments()
            assert len(arena) == 1

    def test_roles_are_independent(self, leak_check):
        with ShmArena() as arena:
            a = arena.ensure("a", (2,), np.float32)
            b = arena.ensure("b", (2,), np.float32)
            assert a is not b
            assert len(arena) == 2

    def test_descriptors_carry_arena_unique_roles(self, leak_check):
        with ShmArena() as arena, ShmArena() as other:
            first = arena.ensure("x", (2,), np.float32).descriptor
            assert first.role is not None
            assert first.role.endswith(":x")
            # Reallocation keeps the role, changes the name: that pair
            # is what tells a worker to drop its stale mapping.
            realloc = arena.ensure("x", (3,), np.float32).descriptor
            assert realloc.role == first.role
            assert realloc.name != first.name
            # The same role in another arena must not collide.
            twin = other.ensure("x", (2,), np.float32).descriptor
            assert twin.role != first.role

    def test_standalone_segment_has_no_role(self, leak_check):
        with SharedArray.create((2,), np.float32) as seg:
            assert seg.descriptor.role is None

    def test_release_unlinks_everything(self):
        arena = ShmArena()
        names = [
            arena.ensure(role, (2, 2), np.float32).name
            for role in ("p", "q", "r")
        ]
        arena.release()
        assert len(arena) == 0
        assert not set(names) & set(owned_segments())
        arena.release()  # idempotent

    def test_release_removes_the_backing_files(self):
        arena = ShmArena()
        names = [arena.ensure(role, (2,), np.float32).name
                 for role in ("p", "q")]
        arena.release()
        assert not [n for n in names if os.path.exists(f"/dev/shm/{n}")]

    def test_reallocation_removes_the_stale_backing_file(self, leak_check):
        with ShmArena() as arena:
            old_name = arena.ensure("x", (2,), np.float32).name
            arena.ensure("x", (4,), np.float32)
            assert not os.path.exists(f"/dev/shm/{old_name}")

    def test_context_releases_on_error(self):
        names = []
        with pytest.raises(RuntimeError):
            with ShmArena() as arena:
                names.append(arena.ensure("x", (2,), np.float32).name)
                raise RuntimeError("boom")
        assert not set(names) & set(owned_segments())

    def test_release_after_a_segment_was_unlinked_directly(self, leak_check):
        arena = ShmArena()
        arena.ensure("x", (2,), np.float32).unlink()
        arena.release()  # the second release of that segment is a no-op
        assert len(arena) == 0

    def test_ensure_after_release_allocates_afresh(self, leak_check):
        with ShmArena() as arena:
            first = arena.ensure("x", (2,), np.float32).name
            arena.release()
            again = arena.ensure("x", (2,), np.float32)
            assert again.name != first
            assert again.name in owned_segments()

    def test_finalizer_releases_dropped_arena(self):
        arena = ShmArena()
        name = arena.ensure("x", (2,), np.float32).name
        del arena
        import gc

        gc.collect()
        assert name not in owned_segments()
