"""The two schedule passes the C printers lower, over the loop IR.

Each pass is a frozen, hashable rewrite of a :class:`~repro.stencil.loopir.
LoopNest`:

* ``vectorize`` lowers the innermost parallel plane plus the atomic
  contraction onto the vector primitive, with the register budget and
  width the C printer sizes its accumulator block by
  (:func:`repro.stencil.emit_c.accumulator_block`);
* ``fuse`` demotes the conv+ReLU+pool intermediate activation to a
  tile-scoped scratch buffer of one pool row, so the materialized
  activation / pre-pool tensors never reach memory.

A :class:`SchedulePipeline` is an ordered pass list with a stable
fingerprint; the C printers name their units by it and print its
description into the unit's header comment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.convspec import ConvSpec
from repro.errors import CodegenError
from repro.stencil import loopir
from repro.stencil.basic_block import (
    DEFAULT_NUM_REGISTERS,
    DEFAULT_VECTOR_WIDTH,
)
from repro.stencil.loopir import TILE, LoopNest, Stage, stable_fingerprint


class IllegalSchedule(CodegenError):
    """A pass was applied to a nest it does not rewrite."""


@dataclass(frozen=True)
class Vectorize:
    """Lower the innermost parallel plane to the vector primitive, with
    the register budget and vector width the printer blocks by."""

    num_registers: int = DEFAULT_NUM_REGISTERS
    vector_width: int = DEFAULT_VECTOR_WIDTH

    def describe(self) -> str:
        return f"vectorize({self.num_registers},{self.vector_width})"

    def apply(self, nest: LoopNest) -> LoopNest:
        if nest.vectorized:
            raise IllegalSchedule("nest is already vectorized")
        return replace(
            nest,
            vectorized=True,
            num_registers=self.num_registers,
            vector_width=self.vector_width,
        )


@dataclass(frozen=True)
class Fuse:
    """Fuse conv+ReLU+pool: demote the activation to one pool row.

    Legal exactly when the only consumers of the intermediate activation
    are the elementwise ReLU and a pool whose windows of one pool row
    fall inside its ``kernel`` producer rows -- the shape
    :func:`~repro.stencil.loopir.fused_fp_nest` builds, so the check
    here is that the nest *is* that conv/relu/maxpool program.  Blocks
    of one pool row are the only ones deployed; the description keeps
    the row count, which the unit name and header comment carry.
    """

    def describe(self) -> str:
        return "fuse(1)"

    def apply(self, nest: LoopNest) -> LoopNest:
        if nest.pool is None or not nest.fused:
            raise IllegalSchedule(
                "fuse requires a conv+relu+maxpool nest (fused_fp_nest)"
            )
        names = tuple(s.name for s in nest.stages)
        if names != ("conv", "relu", "maxpool"):
            raise IllegalSchedule(f"fuse: unexpected stage chain {names}")
        buffers = tuple(
            replace(buf, scope=TILE) if buf.name == "act" else buf
            for buf in nest.buffers
        )
        pool = nest.stage("maxpool")
        loops = tuple(replace(li, tile=1) if li.dim.name == "py" else li
                      for li in pool.loops)
        return replace(nest, buffers=buffers).with_stage(
            Stage(pool.name, loops, pool.stmt))


SchedulePass = Vectorize | Fuse

#: Kernel families a pipeline can target.
FAMILIES = ("fp", "fused_fp", "sparse_bp_data", "sparse_bp_weights")


@dataclass(frozen=True)
class SchedulePipeline:
    """An ordered, fingerprinted pass list for one kernel family."""

    family: str
    passes: tuple[SchedulePass, ...]
    #: Pool geometry, required for (and only for) the fused family.
    pool_kernel: int = 0
    pool_stride: int = 0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise CodegenError(f"unknown pipeline family {self.family!r}")
        if self.family == "fused_fp":
            if self.pool_kernel <= 0:
                raise CodegenError("fused_fp pipeline needs pool_kernel")
            if not any(isinstance(p, Fuse) for p in self.passes):
                raise CodegenError("fused_fp pipeline must contain fuse")
        elif any(isinstance(p, Fuse) for p in self.passes):
            raise CodegenError(f"fuse pass is only legal in the fused_fp "
                               f"family, not {self.family!r}")
        if self.family.startswith("sparse"):
            if self.passes:
                raise CodegenError(
                    "sparse pipelines take no passes; the CT-CSR tile "
                    "multiply is the fixed vector primitive"
                )
            return
        vec = [i for i, p in enumerate(self.passes)
               if isinstance(p, Vectorize)]
        if len(vec) != 1 or vec[0] != len(self.passes) - 1:
            raise CodegenError(
                "pipeline must end with exactly one vectorize pass "
                "(the lowering to the vector primitive)"
            )

    # -- identity -------------------------------------------------------

    def describe(self) -> str:
        inner = "|".join(p.describe() for p in self.passes)
        prefix = self.family
        if self.family == "fused_fp":
            prefix = f"{prefix}[{self.pool_kernel},{self.pool_stride}]"
        return f"{prefix}:{inner}"

    def fingerprint(self) -> str:
        """Stable short hash of the full pass sequence and family."""
        return stable_fingerprint(self.describe())

    # -- application ----------------------------------------------------

    def build_nest(self, spec: ConvSpec) -> LoopNest:
        """Build the family's algorithm nest and apply every pass."""
        if self.family == "fused_fp":
            nest = loopir.fused_fp_nest(spec, self.pool_kernel,
                                        self.pool_stride or None)
        else:
            nest = loopir.NEST_BUILDERS[
                self.family.removeprefix("sparse_")](spec)
        for p in self.passes:
            nest = p.apply(nest)
        return nest


def default_pipeline(family: str, pool_kernel: int = 0,
                     pool_stride: int = 0) -> SchedulePipeline:
    """The family's pipeline: taps enumerated in (ky, kx) order, full
    output plane vectorized with the paper's AVX register file, no
    tiling; the fused family processes one pool row at a time."""
    if family == "fused_fp":
        return SchedulePipeline(
            family=family,
            passes=(Fuse(), Vectorize()),
            pool_kernel=pool_kernel,
            pool_stride=pool_stride,
        )
    if family.startswith("sparse"):
        return SchedulePipeline(family=family, passes=())
    return SchedulePipeline(family=family, passes=(Vectorize(),))
