"""The paper's benchmark convolutions (Table 1) and network layers (Table 2).

Table 1 lists six synthetic convolutions chosen to span the design space of
Fig. 1 (high / moderate / low arithmetic intensity).  Table 2 lists the
convolutional layer specifications of the four real-world image-recognition
benchmarks: ImageNet-22K (Adam-ImageNet), ImageNet-1K (AlexNet), CIFAR-10
and MNIST.
"""

from __future__ import annotations

from repro.core.convspec import ConvSpec, square_conv

#: Table 1 convolutions, indexed by the paper's ID 0-5.  Order of the
#: parameters in the paper is ``Nx(=Ny), Nf, Nc, Fx(=Fy)``.
TABLE1_CONVS: tuple[ConvSpec, ...] = (
    square_conv(32, 32, 32, 4, name="ID0"),
    square_conv(64, 1024, 512, 2, name="ID1"),
    square_conv(256, 256, 128, 3, name="ID2"),
    square_conv(128, 128, 64, 7, name="ID3"),
    square_conv(128, 512, 256, 5, name="ID4"),
    square_conv(64, 64, 16, 11, name="ID5"),
)

#: Intrinsic AIT values as printed in Table 1, used as a regression oracle.
TABLE1_INTRINSIC_AIT: tuple[int, ...] = (362, 2015, 1510, 3561, 6567, 1921)

#: Unfold+GEMM AIT values as printed in Table 1.
TABLE1_UNFOLD_AIT: tuple[int, ...] = (25, 725, 226, 113, 456, 44)

#: Fig. 1 regions each Table 1 convolution occupies, as printed in Table 1.
TABLE1_REGIONS: tuple[tuple[int, int], ...] = (
    (4, 5),
    (0, 1),
    (2, 3),
    (2, 3),
    (2, 3),
    (4, 5),
)


def _layers(name: str, specs: list[tuple[int, int, int, int, int]]) -> tuple[ConvSpec, ...]:
    return tuple(
        square_conv(n, nf, nc, f, stride=s, name=f"{name}-L{i}")
        for i, (n, nf, nc, f, s) in enumerate(specs)
    )


#: Table 2: convolution specifications ``Nx(=Ny), Nf, Nc, Fx(=Fy), sx(=sy)``
#: for each benchmark network.  The Nx of layer 0 reflects the paper's
#: image padding/cropping.
TABLE2_LAYERS: dict[str, tuple[ConvSpec, ...]] = {
    "imagenet-22k": _layers(
        "imagenet-22k",
        [
            (262, 120, 3, 7, 2),
            (64, 250, 120, 5, 2),
            (15, 400, 250, 3, 1),
            (13, 400, 400, 3, 1),
            (11, 600, 400, 3, 1),
        ],
    ),
    "imagenet-1k": _layers(
        "imagenet-1k",
        [
            (224, 96, 3, 11, 4),
            (55, 256, 96, 5, 1),
            (27, 384, 256, 3, 1),
            (13, 256, 192, 3, 1),
        ],
    ),
    "cifar-10": _layers(
        "cifar-10",
        [
            (36, 64, 3, 5, 1),
            (8, 64, 64, 5, 1),
        ],
    ),
    "mnist": _layers(
        "mnist",
        [
            (28, 20, 1, 5, 1),
        ],
    ),
}

#: Table 2 benchmarks in the order of Fig. 8's x-axis.
BENCHMARK_ORDER: tuple[str, ...] = ("imagenet-22k", "imagenet-1k", "cifar-10", "mnist")


def table1_conv(conv_id: int) -> ConvSpec:
    """Return the Table 1 convolution with the given paper ID (0-5)."""
    return TABLE1_CONVS[conv_id]


def benchmark_layers(benchmark: str) -> tuple[ConvSpec, ...]:
    """Return the Table 2 convolution layers for ``benchmark``.

    Raises ``KeyError`` with the list of known benchmarks when unknown.
    """
    try:
        return TABLE2_LAYERS[benchmark]
    except KeyError:
        known = ", ".join(sorted(TABLE2_LAYERS))
        raise KeyError(f"unknown benchmark {benchmark!r}; known: {known}") from None
