"""Tests for the shm buffer-lifecycle analyzer (analyzer 6).

The real runtime modules must lint clean; seeded violations fed through
:func:`lint_lifecycle_source` must each trip exactly their rule --
proving the analyzer is not vacuously green.
"""

import textwrap

from repro.check.lifecycle import (
    LIFECYCLE_MODULES,
    lint_lifecycle,
    lint_lifecycle_source,
)


def _lint(source):
    return lint_lifecycle_source("seeded.py", textwrap.dedent(source))


def _tagged(findings, tag):
    return [f for f in findings if tag in f.message]


class TestRealModulesAreClean:
    def test_runtime_modules_lint_clean(self):
        findings, files = lint_lifecycle()
        assert files == len(LIFECYCLE_MODULES) == 3
        assert findings == [], [f.message for f in findings]

    def test_missing_module_is_reported(self, tmp_path):
        findings, files = lint_lifecycle(root=tmp_path)
        assert files == 0
        assert len(findings) == 3
        assert all("missing" in f.message for f in findings)


class TestUseAfterRelease:
    def test_use_after_unlink_is_an_error(self):
        findings = _lint("""
            def leak(seg):
                seg.unlink()
                return seg.array
        """)
        tagged = _tagged(findings, "[LC-USE-AFTER-RELEASE]")
        assert len(tagged) == 1
        assert "'seg'" in tagged[0].message
        assert "line 3" in tagged[0].message

    def test_use_after_close_is_an_error(self):
        findings = _lint("""
            def leak(seg):
                seg.close()
                send(seg)
        """)
        assert len(_tagged(findings, "[LC-USE-AFTER-RELEASE]")) == 1

    def test_idempotent_second_release_is_allowed(self):
        findings = _lint("""
            def fine(seg):
                seg.close()
                seg.unlink()
        """)
        assert findings == []

    def test_rebinding_resets_liveness(self):
        findings = _lint("""
            def fine(seg, make):
                seg.close()
                seg = make()
                return seg.array
        """)
        assert findings == []

    def test_branch_local_release_poisons_fall_through(self):
        findings = _lint("""
            def leak(seg, cond):
                if cond:
                    seg.unlink()
                return seg.array
        """)
        assert len(_tagged(findings, "[LC-USE-AFTER-RELEASE]")) == 1

    def test_loop_target_rebinds_each_iteration(self):
        findings = _lint("""
            def fine(segments):
                for seg in segments:
                    seg.close()
        """)
        assert findings == []


class TestAttachUnlink:
    def test_attacher_unlinking_is_an_error(self):
        findings = _lint("""
            def worker(descriptor):
                seg = SharedArray.attach(descriptor)
                seg.unlink()
        """)
        tagged = _tagged(findings, "[LC-ATTACH-UNLINK]")
        assert len(tagged) == 1
        assert "only the owner unlinks" in tagged[0].message

    def test_attacher_closing_is_fine(self):
        findings = _lint("""
            def worker(descriptor):
                seg = SharedArray.attach(descriptor)
                seg.close()
        """)
        assert findings == []


class TestOrphans:
    def test_owned_handle_that_never_escapes_is_an_error(self):
        findings = _lint("""
            def orphan(arr):
                seg = SharedArray.from_array(arr)
                return seg.descriptor
        """)
        tagged = _tagged(findings, "[LC-ORPHAN]")
        assert len(tagged) == 1
        assert "never" in tagged[0].message and "'seg'" in tagged[0].message

    def test_returned_handle_escapes(self):
        findings = _lint("""
            def publish(arr):
                seg = SharedArray.from_array(arr)
                return seg
        """)
        assert findings == []

    def test_handle_passed_on_escapes(self):
        findings = _lint("""
            def publish(arr, registry):
                seg = SharedArray.create("t", arr.shape, arr.dtype)
                registry.adopt(seg)
        """)
        assert findings == []

    def test_context_managed_handle_escapes(self):
        findings = _lint("""
            def scoped(arr):
                with SharedArray.from_array(arr) as seg:
                    return seg.array.sum()
        """)
        assert findings == []


class TestRegistryRules:
    def test_eviction_without_release_is_an_error(self):
        findings = _lint("""
            _segments: dict[str, SharedArray] = {}

            def evict(tag):
                _segments.pop(tag, None)
        """)
        tagged = _tagged(findings, "[LC-EVICT-CLOSE]")
        assert len(tagged) == 1
        assert "'evict'" in tagged[0].message

    def test_eviction_with_close_is_fine(self):
        findings = _lint("""
            _segments: dict[str, SharedArray] = {}

            def evict(tag):
                seg = _segments.pop(tag, None)
                if seg is not None:
                    seg.close()
        """)
        assert findings == []

    def test_register_without_unregister_is_an_error(self):
        findings = _lint("""
            def own(seg):
                _register_owned(seg)
        """)
        tagged = _tagged(findings, "[LC-REGISTER-PAIR]")
        assert len(tagged) == 1


class TestOwnerRelease:
    def test_registry_class_without_release_or_fault_net(self):
        findings = _lint("""
            class Cache:
                _live: dict[str, SharedArray] = {}

                def get(self, tag):
                    return self._live.get(tag)
        """)
        tagged = _tagged(findings, "[LC-OWNER-RELEASE]")
        messages = " | ".join(f.message for f in tagged)
        assert len(tagged) == 2
        assert "never closes, unlinks or releases" in messages
        assert "no fault net" in messages

    def test_registry_class_with_both_is_clean(self):
        findings = _lint("""
            class Cache:
                _live: dict[str, SharedArray] = {}

                def drain(self):
                    for seg in self._live.values():
                        seg.close()

                def __exit__(self, *exc_info):
                    self.drain()
        """)
        assert findings == []

    def test_arena_attribute_without_release_is_an_error(self):
        findings = _lint("""
            class Holder:
                def __init__(self, size):
                    self._arena = ShmArena("t", size)
        """)
        tagged = _tagged(findings, "[LC-OWNER-RELEASE]")
        assert len(tagged) == 1
        assert "ShmArena" in tagged[0].message

    def test_arena_attribute_with_release_is_clean(self):
        findings = _lint("""
            class Holder:
                def __init__(self, size):
                    self._arena = ShmArena("t", size)

                def close(self):
                    self._arena.release()
        """)
        assert findings == []


class TestParseErrors:
    def test_unparsable_source_is_one_finding(self):
        findings = lint_lifecycle_source("broken.py", "def (:")
        assert len(findings) == 1
        assert "does not parse" in findings[0].message
