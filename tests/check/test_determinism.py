"""Codegen determinism (satellite of the verification layer).

The static verifier and the artefact cache reason about *the* C text a
spec prints, which is only sound if printing is deterministic: the same
``(spec, pipeline)`` must produce byte-identical text -- in this process
and in a fresh interpreter -- the ``functools.lru_cache`` on the printers
must serve repeat requests from cache (specs are frozen/hashable), and
distinct geometries or pipelines must never share a unit name.
"""

import hashlib
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.core.convspec import ConvSpec
from repro.sparse import codegen_c
from repro.stencil import emit_c
from repro.stencil.passes import tiled_pipeline

#: Printer -> the arguments after the spec, per unit family.
PRINTERS = {
    "sparse": (codegen_c.emit_sparse_c_unit, ()),
    "stencil-fp": (emit_c.emit_stencil_c_unit,
                   (emit_c.host_pipeline(None, "fp"),)),
    "stencil-fused": (emit_c.emit_stencil_c_unit,
                      (emit_c.host_pipeline(None, "fused_fp", 2, 2),)),
}


def _spec(name="det"):
    return ConvSpec(nc=2, ny=10, nx=8, nf=3, fy=3, fx=3, name=name)


def _print(family, spec):
    printer, args = PRINTERS[family]
    return printer(spec, *args)


@pytest.mark.parametrize("family", PRINTERS)
def test_same_spec_prints_byte_identical_text(family):
    first = _print(family, _spec())
    PRINTERS[family][0].cache_clear()
    second = _print(family, _spec())
    assert second is not first
    assert first.source.encode() == second.source.encode()
    assert first.literals == second.literals and first.name == second.name


def test_a_fresh_interpreter_prints_the_same_bytes():
    script = (
        "import hashlib\n"
        "from repro.core.convspec import ConvSpec\n"
        "from repro.sparse import codegen_c\n"
        "from repro.stencil import emit_c\n"
        "spec = ConvSpec(nc=2, ny=10, nx=8, nf=3, fy=3, fx=3, name='det')\n"
        "for unit in (codegen_c.emit_sparse_c_unit(spec),\n"
        "             emit_c.emit_stencil_c_unit(spec, emit_c.host_pipeline(\n"
        "                 None, 'fp')),\n"
        "             emit_c.emit_stencil_c_unit(spec, emit_c.host_pipeline(\n"
        "                 None, 'fused_fp', 2, 2))):\n"
        "    print(hashlib.sha256(unit.source.encode()).hexdigest())\n")
    src = str(Path(repro.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={"PYTHONPATH": src}, check=True)
    # The text names the spec, and the caches may hold a namesake's.
    codegen_c.emit_sparse_c_unit.cache_clear()
    emit_c.emit_stencil_c_unit.cache_clear()
    here = [hashlib.sha256(_print(family, _spec()).source.encode()).hexdigest()
            for family in PRINTERS]
    assert done.stdout.split() == here


@pytest.mark.parametrize("family", PRINTERS)
def test_repeat_printing_is_an_lru_cache_hit(family):
    printer = PRINTERS[family][0]
    printer.cache_clear()
    unit = _print(family, _spec())
    hits_before = printer.cache_info().hits
    again = _print(family, _spec())
    assert printer.cache_info().hits == hits_before + 1
    assert again is unit  # served from cache, not re-printed


@pytest.mark.parametrize("family", PRINTERS)
def test_spec_name_does_not_fragment_the_cache(family):
    # ConvSpec.name is compare=False: two specs differing only in name
    # are equal, so they must share one cache entry (and one text).
    printer = PRINTERS[family][0]
    printer.cache_clear()
    unit = _print(family, _spec(name="alpha"))
    again = _print(family, _spec(name="beta"))
    assert again is unit
    assert printer.cache_info().hits == 1
    assert printer.cache_info().misses == 1


@pytest.mark.parametrize("family", PRINTERS)
def test_distinct_geometries_never_collide(family):
    # Each extent the text bakes in as a literal is also in the unit's
    # name, so no two geometries share a name (or a cache entry).
    base = _spec()
    variants = [base] + [replace(base, **{field: getattr(base, field) + 1})
                         for field in ("nc", "ny", "nx", "nf", "fy", "fx")]
    units = [_print(family, spec) for spec in variants]
    assert len({unit.name for unit in units}) == len(variants)
    assert len({unit.source for unit in units}) == len(variants)


class TestPipelineKeyedCache:
    """Schedules are part of the cache key: satellite of the loop IR.

    A (spec, pipeline) pair must re-print byte-identically, distinct
    pipelines must never collide (the fingerprint is baked into the unit
    name, which names its cached artefact), and repeats must be
    lru_cache hits.
    """

    def test_scheduled_printing_is_byte_identical(self):
        first = emit_c.emit_stencil_c_unit(_spec(), tiled_pipeline(
            "fp", tile_y=3))
        emit_c.emit_stencil_c_unit.cache_clear()
        second = emit_c.emit_stencil_c_unit(_spec(), tiled_pipeline(
            "fp", tile_y=3))
        assert first.source == second.source

    def test_distinct_pipelines_never_collide(self):
        default = _print("stencil-fp", _spec())
        t3 = emit_c.emit_stencil_c_unit(_spec(), tiled_pipeline("fp", tile_y=3))
        t5 = emit_c.emit_stencil_c_unit(_spec(), tiled_pipeline("fp", tile_y=5))
        assert len({default.name, t3.name, t5.name}) == 3
        assert t3.source != t5.source
        # The fingerprint is the collision guard: it is in the name.
        fp3 = tiled_pipeline("fp", tile_y=3).fingerprint()
        assert t3.name.endswith(f"_{fp3}")

    def test_repeat_spec_pipeline_pair_is_a_cache_hit(self):
        emit_c.emit_stencil_c_unit.cache_clear()
        unit = emit_c.emit_stencil_c_unit(_spec(), tiled_pipeline("fp", tile_y=3))
        hits = emit_c.emit_stencil_c_unit.cache_info().hits
        again = emit_c.emit_stencil_c_unit(_spec(), tiled_pipeline("fp", tile_y=3))
        assert again is unit
        assert emit_c.emit_stencil_c_unit.cache_info().hits == hits + 1

    def test_fused_c_units_are_keyed_by_the_pool_window(self):
        """What a conv layer deploys when it fuses: one C unit per
        ``(spec, pool window)``, byte-identical on re-emission, named (so
        cached) apart from every other window's."""
        def unit(kernel, stride):
            return emit_c.emit_stencil_c_unit(_spec(), emit_c.host_pipeline(
                None, "fused_fp", kernel, stride))

        first = unit(3, 2)
        emit_c.emit_stencil_c_unit.cache_clear()
        again = unit(3, 2)
        assert again.source == first.source and again.name == first.name
        assert again.exports == ("fused", "unpool")
        assert len({unit(k, s).name for k, s in ((2, 2), (3, 2), (2, 1))}) == 3
