"""Tests for the paper's benchmark tables."""

import pytest

from repro.data.tables import (
    BENCHMARK_ORDER,
    TABLE1_CONVS,
    TABLE2_LAYERS,
    benchmark_layers,
    table1_conv,
)


class TestTable1:
    def test_six_convolutions(self):
        assert len(TABLE1_CONVS) == 6

    def test_exact_parameters(self):
        # Nx(=Ny), Nf, Nc, Fx(=Fy) exactly as printed in Table 1.
        expected = [
            (32, 32, 32, 4),
            (64, 1024, 512, 2),
            (256, 256, 128, 3),
            (128, 128, 64, 7),
            (128, 512, 256, 5),
            (64, 64, 16, 11),
        ]
        for spec, (n, nf, nc, f) in zip(TABLE1_CONVS, expected):
            assert (spec.nx, spec.nf, spec.nc, spec.fx) == (n, nf, nc, f)
            assert spec.ny == spec.nx and spec.fy == spec.fx

    def test_lookup_by_id(self):
        assert table1_conv(3) is TABLE1_CONVS[3]

    def test_spectrum_coverage(self):
        # The six convs span low, moderate and high unfold AIT (the paper
        # chose them to cover the whole Fig. 1 space).
        from repro.core.characterization import ait_band

        bands = {ait_band(s.unfold_gemm_ait) for s in TABLE1_CONVS}
        assert bands == {"low", "moderate", "high"}


class TestTable2:
    def test_four_benchmarks(self):
        assert set(TABLE2_LAYERS) == {
            "imagenet-22k", "imagenet-1k", "cifar-10", "mnist"
        }

    def test_layer_counts_match_paper(self):
        assert len(TABLE2_LAYERS["imagenet-22k"]) == 5
        assert len(TABLE2_LAYERS["imagenet-1k"]) == 4
        assert len(TABLE2_LAYERS["cifar-10"]) == 2
        assert len(TABLE2_LAYERS["mnist"]) == 1

    def test_imagenet22k_layer0(self):
        spec = TABLE2_LAYERS["imagenet-22k"][0]
        assert (spec.nx, spec.nf, spec.nc, spec.fx, spec.sx) == (262, 120, 3, 7, 2)

    def test_mnist_single_conv(self):
        layers = benchmark_layers("mnist")
        assert len(layers) == 1
        spec = layers[0]
        assert (spec.nx, spec.nf, spec.nc, spec.fx, spec.sx) == (28, 20, 1, 5, 1)

    def test_alexnet_strides(self):
        layers = benchmark_layers("imagenet-1k")
        assert layers[0].sx == 4  # the famous 11x11 stride-4 first layer
        assert layers[0].fx == 11

    def test_layer_names_are_unique(self):
        names = [
            spec.name for layers in TABLE2_LAYERS.values() for spec in layers
        ]
        assert len(set(names)) == len(names)

    def test_benchmark_order(self):
        assert BENCHMARK_ORDER == ("imagenet-22k", "imagenet-1k",
                                   "cifar-10", "mnist")

    def test_unknown_benchmark_raises_with_hint(self):
        with pytest.raises(KeyError, match="cifar-10"):
            benchmark_layers("cifar-100")
