"""Model zoo: small trainable variants of the paper's benchmarks.

``mnist_net()`` / ``cifar10_net()`` / ``imagenet100_net()`` are small
trainable networks with the structural ingredients of Table 2's
benchmarks (conv + ReLU + max-pool stacks), used for the end-to-end
training tests and for reproducing the Fig. 3b sparsity trajectories.
``scale`` shrinks feature counts for fast tests.  The exact Table 2
convolution specifications are :func:`repro.data.tables.benchmark_layers`.

Note on Table 2's CIFAR-10 spatial sizes: the listed extents (36, 8)
include the paper's image padding; the trainable variant uses explicit
``pad`` attributes on an unpadded 32x32 input, which yields the same
convolution geometry.
"""

from __future__ import annotations

import numpy as np

from repro.core.convspec import ConvSpec
from repro.data.tables import TABLE2_LAYERS
from repro.errors import ShapeError
from repro.nn.netdef import build_network
from repro.nn.network import Network


def _scaled(features: int, scale: float) -> int:
    if scale <= 0:
        raise ShapeError(f"scale must be positive, got {scale}")
    return max(1, int(round(features * scale)))


def mnist_net(scale: float = 1.0,
              rng: np.random.Generator | None = None,
              threads: int | None = None,
              backend: str = "thread") -> Network:
    """LeNet-style MNIST classifier (Table 2: one 5x5 conv, 20 features)."""
    definition = {
        "name": "mnist",
        "input": [1, 28, 28],
        "layers": [
            {"type": "conv", "features": _scaled(20, scale), "kernel": 5},
            {"type": "relu"},
            {"type": "pool", "kernel": 2, "stride": 2},
            {"type": "flatten"},
            {"type": "dense", "features": _scaled(100, scale)},
            {"type": "relu"},
            {"type": "dense", "features": 10},
        ],
    }
    return build_network(definition, rng=rng, threads=threads,
                         backend=backend)


def cifar10_net(scale: float = 1.0,
                rng: np.random.Generator | None = None,
                threads: int | None = None,
                backend: str = "thread") -> Network:
    """CIFAR-10 classifier with the Table 2 conv geometry (5x5, 64 features)."""
    definition = {
        "name": "cifar-10",
        "input": [3, 32, 32],
        "layers": [
            {"type": "conv", "features": _scaled(64, scale), "kernel": 5, "pad": 2},
            {"type": "relu"},
            {"type": "pool", "kernel": 2, "stride": 2},
            {"type": "conv", "features": _scaled(64, scale), "kernel": 5, "pad": 2},
            {"type": "relu"},
            {"type": "pool", "kernel": 2, "stride": 2},
            {"type": "flatten"},
            {"type": "dense", "features": 10},
        ],
    }
    return build_network(definition, rng=rng, threads=threads,
                         backend=backend)


def imagenet100_net(scale: float = 1.0,
                    rng: np.random.Generator | None = None,
                    threads: int | None = None,
                    backend: str = "thread") -> Network:
    """A reduced ImageNet-100 classifier (Fig. 3b's third benchmark).

    ImageNet-100 is a 100-class subset of ImageNet; full 256x256 training
    is infeasible in pure Python, so this variant keeps the AlexNet-style
    conv/pool alternation on a smaller canvas.
    """
    definition = {
        "name": "imagenet-100",
        "input": [3, 48, 48],
        "layers": [
            {"type": "conv", "features": _scaled(32, scale), "kernel": 5, "stride": 2},
            {"type": "relu"},
            {"type": "pool", "kernel": 2, "stride": 2},
            {"type": "conv", "features": _scaled(64, scale), "kernel": 3, "pad": 1},
            {"type": "relu"},
            {"type": "pool", "kernel": 2, "stride": 2},
            {"type": "flatten"},
            {"type": "dense", "features": 100},
        ],
    }
    return build_network(definition, rng=rng, threads=threads,
                         backend=backend)


def alexnet_small(scale: float = 1.0,
                  rng: np.random.Generator | None = None,
                  threads: int | None = None,
                  backend: str = "thread") -> Network:
    """A trainable AlexNet-style network with LRN and dropout.

    Structurally faithful to the paper's ImageNet-1K benchmark (conv +
    LRN + max-pool stages, dropout before the classifier) on a reduced
    64x64 canvas so it is trainable in pure Python.
    """
    definition = {
        "name": "alexnet-small",
        "input": [3, 64, 64],
        "layers": [
            {"type": "conv", "features": _scaled(24, scale), "kernel": 7,
             "stride": 2},
            {"type": "relu"},
            {"type": "lrn", "size": 5},
            {"type": "pool", "kernel": 2, "stride": 2},
            {"type": "conv", "features": _scaled(48, scale), "kernel": 5,
             "pad": 2},
            {"type": "relu"},
            {"type": "lrn", "size": 5},
            {"type": "pool", "kernel": 2, "stride": 2},
            {"type": "conv", "features": _scaled(64, scale), "kernel": 3,
             "pad": 1},
            {"type": "relu"},
            {"type": "avgpool", "kernel": 2, "stride": 2},
            {"type": "flatten"},
            {"type": "dropout", "rate": 0.5},
            {"type": "dense", "features": _scaled(128, scale)},
            {"type": "relu"},
            {"type": "dense", "features": 100},
        ],
    }
    return build_network(definition, rng=rng, threads=threads,
                         backend=backend)


def stride1_convs() -> list[tuple[str, ConvSpec, int]]:
    """``(label, engine spec, crop)`` of every stride-1 convolution of
    the four zoo nets, at the layer's own pad (each ``(spec, crop)``
    once), then of Table 2, at the "same" crop ``(F - 1) // 2``: the
    corpus ``benchmarks/`` times the GEMM lowering forms on."""
    rows, seen = [], set()
    for build in (mnist_net, cifar10_net, imagenet100_net, alexnet_small):
        network = build()
        for layer in network.conv_layers():
            spec = layer.padded_spec
            if (spec.sy, spec.sx) == (1, 1) and (spec, layer.spec.pad) not in seen:
                seen.add((spec, layer.spec.pad))
                rows.append((f"{network.name}/{layer.name}", spec,
                             layer.spec.pad))
    for table in TABLE2_LAYERS.values():
        for spec in table:
            if (spec.sy, spec.sx) == (1, 1):
                rows.append((spec.name, spec.pre_padded(),
                             (min(spec.fy, spec.fx) - 1) // 2))
    return rows
