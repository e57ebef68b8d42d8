"""Register-tile counts and the tile optimizer (paper Sec. 4.3, Fig. 7).

For an output register tile of ``ry`` rows by ``rx`` vectors (each
``vector_width`` floats wide) and a kernel of ``Fy x Fx`` taps, the
basic block loads every input vector that contributes to the tile once
and issues the FMAs of all its contributions -- the structure of the
paper's Fig. 7, where the load of ``ivec1`` is reused by two output
vectors.  An input vector at row offset ``dy`` and column offset ``dx``
contributes to output vector ``(ty, tx)`` whenever ``dy = ty + ky`` and
``dx = tx * V + kx`` for some tap ``(ky, kx)``, so the block's counts
have a closed form (:class:`TileChoice`): spatial reuse along y grows
with ``ry``, which is what makes tall tiles profitable.

The tile optimizer solves the paper's "geometric optimization problem" by
exhaustive search over all ``(ry, rx)`` with
``ry * rx <= available accumulator registers``, minimizing total vector
instructions per output element (commodity machines have few vector
registers, so the search space is tiny).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CodegenError

#: AVX on the paper's Xeon: 16 ymm registers, 8 floats each.
DEFAULT_NUM_REGISTERS = 16
DEFAULT_VECTOR_WIDTH = 8


@dataclass(frozen=True)
class TileChoice:
    """One ``ry x rx`` register tile of an ``fy x fx`` stencil and the
    vector instructions one execution of its basic block issues."""

    fy: int
    fx: int
    ry: int
    rx: int
    vector_width: int = DEFAULT_VECTOR_WIDTH

    def __post_init__(self) -> None:
        if min(self.fy, self.fx, self.ry, self.rx, self.vector_width) <= 0:
            raise CodegenError(f"all block parameters must be positive: {self}")

    @property
    def loads(self) -> int:
        """Distinct input vectors: ``ry + fy - 1`` rows of the columns
        ``tx * V + kx``, which overlap across ``tx`` once ``fx > V``."""
        columns = min(self.rx * self.fx,
                      (self.rx - 1) * self.vector_width + self.fx)
        return (self.ry + self.fy - 1) * columns

    @property
    def fmas(self) -> int:
        """One per accumulator and tap."""
        return self.ry * self.rx * self.fy * self.fx

    @property
    def broadcasts(self) -> int:
        """One weight register per tap."""
        return self.fy * self.fx

    @property
    def stores(self) -> int:
        """One per accumulator."""
        return self.ry * self.rx

    @property
    def outputs_per_block(self) -> int:
        """Output elements produced by one execution of the block."""
        return self.ry * self.rx * self.vector_width

    @property
    def instructions_per_output(self) -> float:
        """Vector instructions (load+fma+broadcast+store) per output element."""
        total = self.loads + self.fmas + self.broadcasts + self.stores
        return total / self.outputs_per_block

    @property
    def loads_per_fma(self) -> float:
        """Input-load pressure: vector loads issued per vector FMA."""
        return self.loads / self.fmas

    @property
    def registers_used(self) -> int:
        """Vector registers live at once: accumulators + 1 input + 1 weight."""
        return self.ry * self.rx + 2

    def summary(self) -> dict[str, float]:
        """Statistics dictionary consumed by the machine model."""
        return {
            "loads": self.loads,
            "broadcasts": self.broadcasts,
            "fmas": self.fmas,
            "stores": self.stores,
            "outputs_per_block": self.outputs_per_block,
            "loads_per_fma": self.loads_per_fma,
            "registers_used": self.registers_used,
        }


def optimize_register_tile(
    fy: int,
    fx: int,
    num_registers: int = DEFAULT_NUM_REGISTERS,
    vector_width: int = DEFAULT_VECTOR_WIDTH,
    max_ry: int | None = None,
    max_rx: int | None = None,
) -> TileChoice:
    """Exhaustively search ``(ry, rx)`` tiles for the cheapest basic block.

    The constraint ``ry * rx + 2 <= num_registers`` reserves one register
    for the streamed input vector and one for the broadcast weight.
    """
    budget = num_registers - 2
    if budget < 1:
        raise CodegenError(f"need at least 3 vector registers, got {num_registers}")
    best: TileChoice | None = None
    ry_limit = max_ry or budget
    rx_limit = max_rx or budget
    for ry in range(1, min(budget, ry_limit) + 1):
        for rx in range(1, min(budget // ry, rx_limit) + 1):
            tile = TileChoice(fy, fx, ry, rx, vector_width)
            if best is None or tile.instructions_per_output \
                    < best.instructions_per_output - 1e-12:
                best = tile
    assert best is not None  # budget >= 1 guarantees at least one candidate
    return best

