"""``conv -> ReLU -> max-pool`` as one call (Georganas et al.'s fusion).

Fusion is a way the chain runs, not a layer of its own: given the pool
layer, :meth:`ConvLayer.forward <repro.nn.layers.conv.ConvLayer.forward>`
runs the compiled conv + bias + ReLU + max-pool unit where
:meth:`~repro.nn.layers.conv.ConvLayer.fused_unit` has one (the chain
otherwise) and :meth:`~repro.nn.layers.conv.ConvLayer.backward` the
matching scatter; :class:`repro.nn.network.Network` does so for every
such run in its layer list.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

from repro.nn.layers.conv import ConvLayer
from repro.nn.layers.pool import MaxPoolLayer


def fuse_conv_relu_pool(conv: ConvLayer, pool: MaxPoolLayer) -> SimpleNamespace:
    """A stand-alone conv and pool as one layer-like handle: its
    ``forward(x, training=True)`` is ``pool(relu(conv(x)))`` and its
    ``backward(error, need_input_error=True)`` the matching backward,
    over ``conv``'s parameters and gradients."""
    return SimpleNamespace(
        conv=conv, pool=pool,
        forward=functools.partial(conv.forward, pool=pool),
        backward=functools.partial(conv.backward, pool=pool))
