"""Loop-level IR for the stencil code generators (the schedulable layer).

This module is the one description of a generated kernel: it keeps the
*algorithm* -- what is computed -- as a small loop-level IR, so that
*schedules* -- in what order, at what tile granularity, with what fusion
-- become composable, individually verified transformation passes
(:mod:`repro.stencil.passes`), in the style of Exo/SYS_ATL, and the C
printers (:mod:`repro.stencil.emit_c`, :mod:`repro.sparse.codegen_c`)
write what the scheduled nest says.

Vocabulary
----------

* :class:`Dim` -- one iteration axis with an explicit extent and a
  *kind* that encodes what reordering the axis tolerates:

  - ``PARALLEL``: distinct iterations write disjoint output elements;
    tiling and reordering are always bit-exact.
  - ``REDUCE_ORDERED``: iterations accumulate into the same output
    elements in program order (the unrolled kernel taps).  Their
    *relative* order is observable in float arithmetic, so passes must
    preserve it.
  - ``REDUCE_ATOMIC``: the reduction happens inside one vectorized
    primitive (the channel contraction held in one accumulator).  It
    cannot be split or reordered at all -- splitting it changes the
    accumulation order.

* :class:`Affine` / :class:`Access` -- affine access maps from loop
  variables to buffer coordinates (``inputs[c, oy*sy + ky, ox*sx + kx]``).

* :class:`Buffer` -- a named tensor with a role and a *scope*: ``GLOBAL``
  buffers are kernel parameters; ``TILE`` buffers are intermediates the
  fusion pass demoted to tile-sized scratch that never reaches memory.

* :class:`Stage` -- one perfect nest (ordered :class:`LoopInfo` list plus
  a :class:`Statement`).  A :class:`LoopNest` is an ordered sequence of
  stages; the conv+ReLU+pool fusion produces a multi-stage nest whose
  intermediate buffers are tile-scoped.

* :class:`WorkEstimate` -- the flop / private-traffic / shared-traffic
  account of a scheduled nest.  Every pass reports its delta, and the
  multi-level roofline (:mod:`repro.machine.roofline`) prices the
  estimate, which is how the autotuner compares schedules without
  running them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

from repro.core.convspec import ELEMENT_BYTES, ConvSpec
from repro.errors import CodegenError

# -- dimension kinds -------------------------------------------------------

PARALLEL = "parallel"
REDUCE_ORDERED = "reduce-ordered"
REDUCE_ATOMIC = "reduce-atomic"

#: Loop execution modes assigned by schedule passes.
MODE_SERIAL = "serial"          # enumerated one iteration at a time
MODE_UNROLLED = "unrolled"      # fully unrolled into literal statements
MODE_VECTORIZED = "vectorized"  # absorbed into one vector primitive

GLOBAL = "global"
TILE = "tile"


@dataclass(frozen=True)
class Dim:
    """One iteration axis of the algorithm."""

    name: str
    extent: int
    kind: str = PARALLEL

    def __post_init__(self) -> None:
        if self.extent <= 0:
            raise CodegenError(f"dim {self.name!r} needs positive extent, "
                               f"got {self.extent}")
        if self.kind not in (PARALLEL, REDUCE_ORDERED, REDUCE_ATOMIC):
            raise CodegenError(f"unknown dim kind {self.kind!r}")


@dataclass(frozen=True)
class Affine:
    """``sum(coeff * var) + offset`` over loop variables."""

    terms: tuple[tuple[str, int], ...] = ()
    offset: int = 0

    @staticmethod
    def var(name: str, coeff: int = 1, offset: int = 0) -> "Affine":
        return Affine(terms=((name, coeff),), offset=offset)

    @staticmethod
    def const(value: int) -> "Affine":
        return Affine(terms=(), offset=value)

    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.terms)

    def describe(self) -> str:
        parts = [f"{c}*{v}" if c != 1 else v for v, c in self.terms]
        if self.offset or not parts:
            parts.append(str(self.offset))
        return "+".join(parts)


@dataclass(frozen=True)
class Access:
    """One read or write of a buffer through an affine index map."""

    buffer: str
    index: tuple[Affine, ...]

    def variables(self) -> set[str]:
        out: set[str] = set()
        for expr in self.index:
            out.update(expr.variables())
        return out


@dataclass(frozen=True)
class Buffer:
    """A named tensor, its shape, role and scope."""

    name: str
    shape: tuple[int, ...]
    role: str  # "input" | "weight" | "output" | "intermediate" | "index"
    scope: str = GLOBAL

    @property
    def elems(self) -> int:
        total = 1
        for extent in self.shape:
            total *= extent
        return total


@dataclass(frozen=True)
class Statement:
    """One compute statement: ``out[...] (+)= op(reads...)``."""

    name: str        # "conv" | "relu" | "maxpool"
    op: str          # "fma" | "relu" | "maxpool"
    out: Access
    reads: tuple[Access, ...]
    accumulate: bool = False


@dataclass(frozen=True)
class LoopInfo:
    """One loop of a stage's nest, with its schedule annotations."""

    dim: Dim
    mode: str = MODE_SERIAL
    #: Tile width assigned by the ``tile`` pass (None = untiled).
    tile: int | None = None
    #: Unroll-and-jam factor assigned by ``unroll_and_jam`` (1 = off).
    jam: int = 1

    def __post_init__(self) -> None:
        if self.tile is not None and self.tile <= 0:
            raise CodegenError(f"loop {self.dim.name}: tile must be positive")
        if self.jam <= 0:
            raise CodegenError(f"loop {self.dim.name}: jam must be positive")


@dataclass(frozen=True)
class Stage:
    """One perfect nest: ordered loops around a single statement."""

    name: str
    loops: tuple[LoopInfo, ...]
    stmt: Statement

    def loop(self, dim_name: str) -> LoopInfo:
        for info in self.loops:
            if info.dim.name == dim_name:
                return info
        raise CodegenError(f"stage {self.name!r} has no loop {dim_name!r}")

    def has_loop(self, dim_name: str) -> bool:
        return any(info.dim.name == dim_name for info in self.loops)


@dataclass(frozen=True)
class PoolWindow:
    """Pool geometry carried by fused nests (kernel and stride)."""

    kernel: int
    stride: int

    def __post_init__(self) -> None:
        if self.kernel <= 0 or self.stride <= 0:
            raise CodegenError("pool kernel and stride must be positive")

    def out_extent(self, extent: int) -> int:
        if extent < self.kernel:
            raise CodegenError(
                f"pool kernel {self.kernel} larger than input extent {extent}"
            )
        return (extent - self.kernel) // self.stride + 1

    def rows_needed(self, pool_rows: int) -> int:
        """Producer rows required to compute ``pool_rows`` output rows."""
        return (pool_rows - 1) * self.stride + self.kernel


@dataclass(frozen=True)
class LoopNest:
    """A scheduled program: ordered stages over declared buffers."""

    spec: ConvSpec
    buffers: tuple[Buffer, ...]
    stages: tuple[Stage, ...]
    #: Pool geometry when the nest is a fused conv+ReLU+pool program.
    pool: PoolWindow | None = None
    #: True once the ``vectorize`` pass ran (innermost dims lowered to
    #: the vector primitive).
    vectorized: bool = False
    #: Register budget / vector width the ``vectorize`` pass lowered with.
    num_registers: int = 16
    vector_width: int = 8

    def buffer(self, name: str) -> Buffer:
        for buf in self.buffers:
            if buf.name == name:
                return buf
        raise CodegenError(f"nest has no buffer {name!r}")

    def stage(self, name: str) -> Stage:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise CodegenError(f"nest has no stage {name!r}")

    @property
    def fused(self) -> bool:
        return len(self.stages) > 1

    def with_stage(self, stage: Stage) -> "LoopNest":
        stages = tuple(stage if s.name == stage.name else s
                       for s in self.stages)
        return replace(self, stages=stages)


# -- nest builders (the algorithms, schedule-free) -------------------------


def _conv_dims(spec: ConvSpec) -> dict[str, Dim]:
    return {
        "f": Dim("f", spec.nf, PARALLEL),
        "c": Dim("c", spec.nc, REDUCE_ATOMIC),
        "ky": Dim("ky", spec.fy, REDUCE_ORDERED),
        "kx": Dim("kx", spec.fx, REDUCE_ORDERED),
        "oy": Dim("oy", spec.out_ny, PARALLEL),
        "ox": Dim("ox", spec.out_nx, PARALLEL),
    }


def _conv_stmt(spec: ConvSpec, out_buffer: str = "out") -> Statement:
    return Statement(
        name="conv",
        op="fma",
        out=Access(out_buffer, (Affine.var("f"), Affine.var("oy"),
                                Affine.var("ox"))),
        reads=(
            Access("weights", (Affine.var("f"), Affine.var("c"),
                               Affine.var("ky"), Affine.var("kx"))),
            Access("inputs", (Affine.var("c"),
                              Affine.var("oy", spec.sy, 0)
                              if spec.fy == 1 else
                              Affine(terms=(("oy", spec.sy), ("ky", 1))),
                              Affine.var("ox", spec.sx, 0)
                              if spec.fx == 1 else
                              Affine(terms=(("ox", spec.sx), ("kx", 1))))),
        ),
        accumulate=True,
    )


def conv_fp_nest(spec: ConvSpec) -> LoopNest:
    """The forward convolution (Eq. 2) as an unscheduled nest."""
    if spec.pad != 0:
        raise CodegenError("loop nests are built from pre-padded specs")
    dims = _conv_dims(spec)
    loops = tuple(LoopInfo(dims[n], MODE_SERIAL)
                  for n in ("ky", "kx", "f", "c", "oy", "ox"))
    buffers = (
        Buffer("inputs", spec.input_shape, "input"),
        Buffer("weights", spec.weight_shape, "weight"),
        Buffer("out", spec.output_shape, "output"),
    )
    return LoopNest(spec=spec, buffers=buffers,
                    stages=(Stage("conv", loops, _conv_stmt(spec)),))


def conv_bp_data_nest(spec: ConvSpec) -> LoopNest:
    """The backward-data adjoint (Eq. 3): scatter per tap."""
    if spec.pad != 0:
        raise CodegenError("loop nests are built from pre-padded specs")
    dims = dict(_conv_dims(spec))
    # The contraction runs over output features; channels are parallel.
    dims["f"] = Dim("f", spec.nf, REDUCE_ATOMIC)
    dims["c"] = Dim("c", spec.nc, PARALLEL)
    stmt = Statement(
        name="bp_data",
        op="fma",
        out=Access("in_error", (
            Affine.var("c"),
            Affine(terms=(("oy", spec.sy), ("ky", 1))),
            Affine(terms=(("ox", spec.sx), ("kx", 1))),
        )),
        reads=(
            Access("weights", (Affine.var("f"), Affine.var("c"),
                               Affine.var("ky"), Affine.var("kx"))),
            Access("out_error", (Affine.var("f"), Affine.var("oy"),
                                 Affine.var("ox"))),
        ),
        accumulate=True,
    )
    loops = tuple(LoopInfo(dims[n], MODE_SERIAL)
                  for n in ("ky", "kx", "c", "f", "oy", "ox"))
    buffers = (
        Buffer("out_error", spec.output_shape, "input"),
        Buffer("weights", spec.weight_shape, "weight"),
        Buffer("in_error", spec.input_shape, "output"),
    )
    return LoopNest(spec=spec, buffers=buffers,
                    stages=(Stage("bp_data", loops, stmt),))


def conv_bp_weights_nest(spec: ConvSpec) -> LoopNest:
    """The dW kernel (Eq. 4): each tap owns a disjoint dW slice, but the
    spatial plane is the reduction -- it cannot be tiled bit-exactly."""
    if spec.pad != 0:
        raise CodegenError("loop nests are built from pre-padded specs")
    stmt = Statement(
        name="bp_weights",
        op="fma",
        out=Access("dw", (Affine.var("f"), Affine.var("c"),
                          Affine.var("ky"), Affine.var("kx"))),
        reads=(
            Access("out_error", (Affine.var("f"), Affine.var("oy"),
                                 Affine.var("ox"))),
            Access("inputs", (
                Affine.var("c"),
                Affine(terms=(("oy", spec.sy), ("ky", 1))),
                Affine(terms=(("ox", spec.sx), ("kx", 1))),
            )),
        ),
        accumulate=True,
    )
    dims = {
        "f": Dim("f", spec.nf, PARALLEL),
        "c": Dim("c", spec.nc, PARALLEL),
        "ky": Dim("ky", spec.fy, PARALLEL),   # disjoint dW slices per tap
        "kx": Dim("kx", spec.fx, PARALLEL),
        "oy": Dim("oy", spec.out_ny, REDUCE_ATOMIC),
        "ox": Dim("ox", spec.out_nx, REDUCE_ATOMIC),
    }
    loops = tuple(LoopInfo(dims[n], MODE_SERIAL)
                  for n in ("ky", "kx", "f", "c", "oy", "ox"))
    buffers = (
        Buffer("out_error", spec.output_shape, "input"),
        Buffer("inputs", spec.input_shape, "input"),
        Buffer("dw", spec.weight_shape, "output"),
    )
    return LoopNest(spec=spec, buffers=buffers,
                    stages=(Stage("bp_weights", loops, stmt),))


def fused_fp_nest(spec: ConvSpec, pool_kernel: int,
                  pool_stride: int | None = None) -> LoopNest:
    """Conv + ReLU + max-pool as one multi-stage program.

    Built *unfused*: the activation and its pooled indices are global
    buffers.  The :class:`~repro.stencil.passes.Fuse` pass demotes the
    activation to a tile-scoped scratch buffer, which is what removes it
    from the shared-traffic account.
    """
    pool = PoolWindow(pool_kernel, pool_stride or pool_kernel)
    conv = conv_fp_nest(spec)
    py = pool.out_extent(spec.out_ny)
    px = pool.out_extent(spec.out_nx)
    relu_stmt = Statement(
        name="relu",
        op="relu",
        out=Access("act", (Affine.var("f"), Affine.var("oy"),
                           Affine.var("ox"))),
        reads=(Access("act", (Affine.var("f"), Affine.var("oy"),
                              Affine.var("ox"))),),
    )
    pool_stmt = Statement(
        name="maxpool",
        op="maxpool",
        out=Access("out", (Affine.var("f"), Affine.var("py"),
                           Affine.var("px"))),
        reads=(Access("act", (
            Affine.var("f"),
            Affine(terms=(("py", pool.stride), ("wy", 1))),
            Affine(terms=(("px", pool.stride), ("wx", 1))),
        )),),
    )
    relu_loops = (
        LoopInfo(Dim("f", spec.nf, PARALLEL)),
        LoopInfo(Dim("oy", spec.out_ny, PARALLEL)),
        LoopInfo(Dim("ox", spec.out_nx, PARALLEL)),
    )
    pool_loops = (
        LoopInfo(Dim("f", spec.nf, PARALLEL)),
        LoopInfo(Dim("py", py, PARALLEL)),
        LoopInfo(Dim("px", px, PARALLEL)),
        LoopInfo(Dim("wy", pool.kernel, REDUCE_ORDERED)),
        LoopInfo(Dim("wx", pool.kernel, REDUCE_ORDERED)),
    )
    conv_stage = Stage("conv", conv.stages[0].loops, _conv_stmt(spec, "act"))
    buffers = (
        Buffer("inputs", spec.input_shape, "input"),
        Buffer("weights", spec.weight_shape, "weight"),
        Buffer("act", spec.output_shape, "intermediate"),
        Buffer("out", (spec.nf, py, px), "output"),
        Buffer("argmax", (spec.nf, py, px), "index"),
    )
    return LoopNest(
        spec=spec,
        buffers=buffers,
        stages=(conv_stage,
                Stage("relu", relu_loops, relu_stmt),
                Stage("maxpool", pool_loops, pool_stmt)),
        pool=pool,
    )


#: Builders by kernel family.
NEST_BUILDERS = {
    "fp": conv_fp_nest,
    "bp_data": conv_bp_data_nest,
    "bp_weights": conv_bp_weights_nest,
}


# -- work estimates --------------------------------------------------------


@dataclass(frozen=True)
class WorkEstimate:
    """Per-image flop and traffic account of one scheduled nest.

    ``private_elems`` counts element transfers through per-core caches;
    ``shared_elems`` counts element transfers that reach shared memory
    (DRAM).  The multi-level roofline converts both to seconds.
    """

    flops: int
    private_elems: int
    shared_elems: int

    def __post_init__(self) -> None:
        if min(self.flops, self.private_elems, self.shared_elems) < 0:
            raise CodegenError(f"negative work estimate: {self}")

    @property
    def private_bytes(self) -> int:
        return self.private_elems * ELEMENT_BYTES

    @property
    def shared_bytes(self) -> int:
        return self.shared_elems * ELEMENT_BYTES

    def __sub__(self, other: "WorkEstimate") -> "WorkDelta":
        return WorkDelta(
            flops=self.flops - other.flops,
            private_elems=self.private_elems - other.private_elems,
            shared_elems=self.shared_elems - other.shared_elems,
        )

    def time(self, machine: "object", cores: int, batch: int = 1,
             efficiency: float = 1.0) -> float:
        """Roofline seconds for ``batch`` images on ``cores`` workers."""
        from repro.machine.roofline import Phase, phase_time

        phase = Phase(
            flops=float(batch * self.flops),
            private_bytes=float(batch * self.private_bytes),
            dram_bytes=float(batch * self.shared_bytes),
            efficiency=efficiency,
        )
        return phase_time(phase, machine, cores)  # type: ignore[arg-type]


@dataclass(frozen=True)
class WorkDelta:
    """The change in the work estimate one pass produced."""

    flops: int = 0
    private_elems: int = 0
    shared_elems: int = 0

    def describe(self) -> str:
        return (f"flops {self.flops:+d}, private {self.private_elems:+d} "
                f"elems, shared {self.shared_elems:+d} elems")


def _tile_extents(nest: LoopNest) -> tuple[int, int]:
    """Effective (tile_y, tile_x) of the first stage's output plane."""
    stage = nest.stages[0]
    spec = nest.spec
    tile_y, tile_x = spec.out_ny, spec.out_nx
    if nest.fused and nest.pool is not None:
        pool_stage = nest.stage("maxpool")
        if pool_stage.has_loop("py"):
            info = pool_stage.loop("py")
            if info.tile is not None:
                tile_y = min(nest.pool.rows_needed(info.tile), spec.out_ny)
        return tile_y, tile_x
    for name, full in (("oy", spec.out_ny), ("ox", spec.out_nx)):
        if stage.has_loop(name):
            info = stage.loop(name)
            if info.tile is not None:
                if name == "oy":
                    tile_y = min(info.tile, full)
                else:
                    tile_x = min(info.tile, full)
    return tile_y, tile_x


def tile_working_set_bytes(nest: LoopNest) -> int:
    """Bytes of input + output resident while computing one tile."""
    spec = nest.spec
    tile_y, tile_x = _tile_extents(nest)
    halo_y = (tile_y - 1) * spec.sy + spec.fy
    halo_x = (tile_x - 1) * spec.sx + spec.fx
    in_elems = spec.nc * halo_y * halo_x
    out_elems = spec.nf * tile_y * tile_x
    return ELEMENT_BYTES * (in_elems + out_elems)


def estimate_nest(nest: LoopNest,
                  cache_bytes: int = 256 * 1024) -> WorkEstimate:
    """Per-image work estimate of a scheduled nest.

    The account follows the original ``StencilSchedule`` model (inputs
    copied in and streamed, weights read once, outputs written once),
    extended with two schedule-sensitive effects:

    * a tile whose working set exceeds the private cache loses the halo
      reuse between kernel taps -- inputs are re-streamed per tap and the
      excess shows up as shared traffic;
    * fusion removes tile-scoped intermediates from the shared-traffic
      account entirely (they live and die in cache) at the price of the
      overlap rows recomputed between adjacent pool tiles.
    """
    spec = nest.spec
    taps = spec.fy * spec.fx
    fits = tile_working_set_bytes(nest) <= cache_bytes
    conv_flops = spec.flops

    if not nest.fused:
        stage = nest.stages[0]
        out_buf = nest.buffer(stage.stmt.out.buffer)
        in_bufs = [b for b in nest.buffers if b.role == "input"]
        weight_elems = sum(b.elems for b in nest.buffers if b.role == "weight")
        in_elems = sum(b.elems for b in in_bufs)
        out_elems = out_buf.elems
        if fits:
            private = 2 * in_elems + weight_elems + 2 * out_elems
            shared = in_elems + out_elems
        else:
            # Halo reuse lost: every tap re-streams its input slice.
            private = in_elems + taps * in_elems + weight_elems + 2 * out_elems
            shared = in_elems + out_elems + (taps - 1) * out_elems
        return WorkEstimate(flops=conv_flops, private_elems=private,
                            shared_elems=shared)

    # Fused conv+ReLU+pool.
    pool = nest.pool
    assert pool is not None
    act = nest.buffer("act")
    out = nest.buffer("out")
    in_elems = nest.buffer("inputs").elems
    weight_elems = nest.buffer("weights").elems
    py = out.shape[1]
    tile_y, _ = _tile_extents(nest)
    # Overlapping pool windows recompute boundary rows between tiles.
    overlap_rows = 0
    pool_stage = nest.stage("maxpool")
    tile_py = pool_stage.loop("py").tile if pool_stage.has_loop("py") else None
    if tile_py:
        num_tiles = -(-py // tile_py)
        overlap = max(pool.kernel - pool.stride, 0)
        overlap_rows = max(num_tiles - 1, 0) * overlap
    act_rows = act.shape[1] + overlap_rows
    act_elems = act.shape[0] * act_rows * act.shape[2]
    recompute_flops = (conv_flops // max(act.shape[1], 1)) * overlap_rows
    # ReLU compare + pool max comparisons count as flops.
    relu_flops = act_elems
    pool_flops = out.elems * pool.kernel * pool.kernel
    if act.scope == TILE:
        # Fused: the activation never reaches shared memory.  It is
        # written once and re-read once (window flattening) in cache.
        private = 2 * in_elems + weight_elems + 4 * act_elems + 2 * out.elems
        shared = in_elems + 2 * out.elems  # pooled values + indices
    else:
        # Unfused chain: conv writes act, relu reads + writes act, pool
        # reads act -- all full-size and all through shared memory.
        private = 2 * in_elems + weight_elems + 6 * act_elems + 2 * out.elems
        shared = in_elems + 4 * act_elems + 2 * out.elems
    if not fits:
        private += (taps - 1) * in_elems
        shared += (taps - 1) * act_elems
    return WorkEstimate(
        flops=conv_flops + recompute_flops + relu_flops + pool_flops,
        private_elems=private,
        shared_elems=shared,
    )


def chain_estimate(spec: ConvSpec, pool_kernel: int,
                   pool_stride: int | None = None,
                   cache_bytes: int = 256 * 1024) -> WorkEstimate:
    """Estimate of the *unfused* conv -> ReLU -> pool layer chain."""
    nest = fused_fp_nest(spec, pool_kernel, pool_stride)
    return estimate_nest(nest, cache_bytes=cache_bytes)


# -- fingerprinting --------------------------------------------------------


def stable_fingerprint(text: str, length: int = 12) -> str:
    """Deterministic short hex fingerprint of canonical text."""
    return hashlib.sha256(text.encode()).hexdigest()[:length]
