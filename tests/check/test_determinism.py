"""Codegen determinism (satellite of the verification layer).

The static verifiers reason about *the* source a spec emits, which is
only sound if emission is deterministic: the same ConvSpec must produce
byte-identical source, and the ``functools.lru_cache`` on the emitters
must serve repeat requests from cache (specs are frozen/hashable).
"""

import pytest

from repro.core.convspec import ConvSpec
from repro.sparse import codegen as sparse_codegen
from repro.stencil import emit as stencil_emit

EMITTERS = [
    stencil_emit.emit_forward_kernel,
    stencil_emit.emit_backward_data_kernel,
    stencil_emit.emit_backward_weights_kernel,
    sparse_codegen.emit_sparse_backward_data,
    sparse_codegen.emit_sparse_backward_weights,
]


def _spec(name="det"):
    return ConvSpec(nc=2, ny=10, nx=8, nf=3, fy=3, fx=3, name=name)


@pytest.mark.parametrize("emitter", EMITTERS,
                         ids=lambda e: e.__wrapped__.__name__)
def test_same_spec_emits_byte_identical_source(emitter):
    first = emitter(_spec())
    second = emitter(_spec())
    assert first.source == second.source
    assert first.source.encode() == second.source.encode()


@pytest.mark.parametrize("emitter", EMITTERS,
                         ids=lambda e: e.__wrapped__.__name__)
def test_repeat_emission_is_an_lru_cache_hit(emitter):
    emitter.cache_clear()
    kernel = emitter(_spec())
    hits_before = emitter.cache_info().hits
    again = emitter(_spec())
    assert emitter.cache_info().hits == hits_before + 1
    assert again is kernel  # served from cache, not re-generated


@pytest.mark.parametrize("emitter", EMITTERS,
                         ids=lambda e: e.__wrapped__.__name__)
def test_spec_name_does_not_fragment_the_cache(emitter):
    # ConvSpec.name is compare=False: two specs differing only in name
    # are equal, so they must share one cache entry (and one source).
    emitter.cache_clear()
    kernel = emitter(_spec(name="alpha"))
    again = emitter(_spec(name="beta"))
    assert again is kernel
    assert emitter.cache_info().hits == 1
    assert emitter.cache_info().misses == 1


class TestPipelineKeyedCache:
    """Schedules are part of the cache key: satellite of the loop IR.

    A (spec, pipeline) pair must re-emit byte-identically, distinct
    pipelines must never collide (the fingerprint is baked into the
    kernel name), and repeats must be lru_cache hits.
    """

    def _tiled(self):
        from repro.stencil.passes import tiled_pipeline

        return tiled_pipeline("fp", tile_y=3)

    def test_scheduled_emission_is_byte_identical(self):
        from repro.stencil.passes import tiled_pipeline

        first = stencil_emit.emit_forward_kernel(_spec(), tiled_pipeline(
            "fp", tile_y=3))
        second = stencil_emit.emit_forward_kernel(_spec(), tiled_pipeline(
            "fp", tile_y=3))
        assert first.source == second.source

    def test_distinct_pipelines_never_collide(self):
        from repro.stencil.passes import default_pipeline, tiled_pipeline

        default = stencil_emit.emit_forward_kernel(_spec())
        t3 = stencil_emit.emit_forward_kernel(
            _spec(), tiled_pipeline("fp", tile_y=3))
        t5 = stencil_emit.emit_forward_kernel(
            _spec(), tiled_pipeline("fp", tile_y=5))
        names = {default.name, t3.name, t5.name}
        assert len(names) == 3
        assert t3.source != t5.source
        # The fingerprint is the collision guard: it is in the name.
        fp3 = tiled_pipeline("fp", tile_y=3).fingerprint()
        assert t3.name.endswith(f"__s{fp3}")
        assert default.name == stencil_emit.emit_forward_kernel(
            _spec(), default_pipeline("fp")).name

    def test_repeat_spec_pipeline_pair_is_a_cache_hit(self):
        stencil_emit.emit_forward_kernel.cache_clear()
        kernel = stencil_emit.emit_forward_kernel(_spec(), self._tiled())
        hits = stencil_emit.emit_forward_kernel.cache_info().hits
        again = stencil_emit.emit_forward_kernel(_spec(), self._tiled())
        assert again is kernel
        assert stencil_emit.emit_forward_kernel.cache_info().hits == hits + 1

    def test_fused_cache_keys_carry_the_pool_window(self):
        stencil_emit.emit_fused_forward_kernel.cache_clear()
        k2 = stencil_emit.emit_fused_forward_kernel(_spec(), 2)
        k2b = stencil_emit.emit_fused_forward_kernel(_spec(), 2)
        assert k2b is k2
        assert stencil_emit.emit_fused_forward_kernel.cache_info().hits == 1

    def test_fused_c_units_are_keyed_by_the_pool_window(self):
        """What a conv layer deploys when it fuses: one C unit per
        ``(spec, pool window)``, byte-identical on re-emission, named (so
        cached) apart from every other window's."""
        from repro.stencil import emit_c

        def unit(kernel, stride):
            return emit_c.emit_stencil_c_unit(_spec(), emit_c.host_pipeline(
                None, "fused_fp", kernel, stride))

        first = unit(3, 2)
        emit_c.emit_stencil_c_unit.cache_clear()
        again = unit(3, 2)
        assert again.source == first.source and again.name == first.name
        assert again.exports == ("fused", "unpool")
        assert len({unit(k, s).name for k, s in ((2, 2), (3, 2), (2, 1))}) == 3
