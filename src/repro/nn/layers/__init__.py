"""Layer implementations."""

from repro.nn.layers.activations import FlattenLayer, ReLULayer
from repro.nn.layers.base import Layer, LayerStructure
from repro.nn.layers.conv import ConvLayer
from repro.nn.layers.dense import DenseLayer
from repro.nn.layers.extras import (
    AvgPoolLayer,
    DropoutLayer,
    LocalResponseNormLayer,
)
from repro.nn.layers.fused import fuse_conv_relu_pool
from repro.nn.layers.pool import MaxPoolLayer

#: Every layer kind, by the ``kind`` its :meth:`Layer.structure` names:
#: what rebuilds a network's layer chain from its structure.
LAYER_KINDS: dict[str, type[Layer]] = {
    cls.kind: cls
    for cls in (ConvLayer, ReLULayer, MaxPoolLayer,
                AvgPoolLayer, LocalResponseNormLayer, DropoutLayer,
                FlattenLayer, DenseLayer)
}

__all__ = [
    "Layer",
    "LayerStructure",
    "LAYER_KINDS",
    "ConvLayer",
    "MaxPoolLayer",
    "ReLULayer",
    "FlattenLayer",
    "DenseLayer",
    "fuse_conv_relu_pool",
]
