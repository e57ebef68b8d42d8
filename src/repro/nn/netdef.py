"""Network descriptions: dict specs and a prototxt-like text format.

The paper specifies CNNs to spg-CNN "using Google Protocol Buffer similar
to how CAFFE describes its inputs" (Sec. 4).  This module provides the
equivalent entry points for this reproduction:

* :func:`build_network` -- construct a :class:`repro.nn.network.Network`
  from a plain dictionary description;
* :func:`parse_netdef` -- parse a small prototxt-like text format into
  that dictionary form.

Text format example::

    name: "cifar10-small"
    input: 3 32 32
    layer { type: conv features: 64 kernel: 5 stride: 1 pad: 2 }
    layer { type: relu }
    layer { type: pool kernel: 2 stride: 2 }
    layer { type: flatten }
    layer { type: dense features: 10 }
"""

from __future__ import annotations

import re

import numpy as np

from repro.core.convspec import ConvSpec
from repro.errors import ShapeError
from repro.nn.layers.activations import FlattenLayer, ReLULayer
from repro.nn.layers.conv import ConvLayer
from repro.nn.layers.dense import DenseLayer
from repro.nn.layers.extras import (
    AvgPoolLayer,
    DropoutLayer,
    LocalResponseNormLayer,
)
from repro.nn.layers.pool import MaxPoolLayer
from repro.nn.network import Network


def _require(layer_def: dict, key: str, layer_type: str):
    if key not in layer_def:
        raise ShapeError(f"{layer_type} layer definition missing {key!r}: {layer_def}")
    return layer_def[key]


def build_network(
    definition: dict,
    rng: np.random.Generator | None = None,
    threads: int | None = None,
    backend: str = "thread",
) -> Network:
    """Build a :class:`Network` from a dictionary description.

    The description carries ``input`` (per-image ``[C, Y, X]`` shape) and a
    ``layers`` list; convolution shapes are inferred from the running
    activation shape so only features/kernel/stride/pad are specified.
    With ``threads > 1`` the network gets **one** worker pool of that
    many workers on the chosen execution backend, held by every
    convolution layer: a training step is sharded over it whole
    (:class:`repro.runtime.parallel.ShardedStep`), and under the DAG
    scheduler each conv layer's passes are sliced over it
    (:mod:`repro.runtime.dag`); a direct ``forward``/``backward`` call
    runs inline.  Closing the conv layers shuts it down.
    """
    rng = rng or np.random.default_rng(0)
    pool = None
    if threads and threads > 1:
        from repro.runtime.pool import WorkerPool

        pool = WorkerPool(threads, backend=backend)
    input_shape = tuple(int(v) for v in _require(definition, "input", "network"))
    if len(input_shape) != 3:
        raise ShapeError(f"network input must be [C, Y, X], got {input_shape}")
    shape: tuple[int, ...] = input_shape
    layers = []
    for i, layer_def in enumerate(definition.get("layers", [])):
        layer_type = _require(layer_def, "type", "unnamed")
        name = layer_def.get("name", f"{layer_type}{i}")
        if layer_type == "conv":
            if len(shape) != 3:
                raise ShapeError(f"conv layer {name} needs [C, Y, X] input, got {shape}")
            kernel = int(_require(layer_def, "kernel", "conv"))
            spec = ConvSpec(
                nc=shape[0],
                ny=shape[1],
                nx=shape[2],
                nf=int(_require(layer_def, "features", "conv")),
                fy=kernel,
                fx=kernel,
                sy=int(layer_def.get("stride", 1)),
                sx=int(layer_def.get("stride", 1)),
                pad=int(layer_def.get("pad", 0)),
                name=name,
            )
            layer = ConvLayer(spec, name=name, rng=rng, pool=pool)
        elif layer_type == "relu":
            layer = ReLULayer(name=name)
        elif layer_type == "pool":
            layer = MaxPoolLayer(
                kernel=int(_require(layer_def, "kernel", "pool")),
                stride=int(layer_def["stride"]) if "stride" in layer_def else None,
                name=name,
            )
        elif layer_type == "avgpool":
            layer = AvgPoolLayer(
                kernel=int(_require(layer_def, "kernel", "avgpool")),
                stride=int(layer_def["stride"]) if "stride" in layer_def else None,
                name=name,
            )
        elif layer_type == "lrn":
            layer = LocalResponseNormLayer(
                size=int(layer_def.get("size", 5)),
                name=name,
            )
        elif layer_type == "dropout":
            layer = DropoutLayer(rate=float(layer_def.get("rate", 0.5)),
                                 name=name)
        elif layer_type == "flatten":
            layer = FlattenLayer(name=name)
        elif layer_type == "dense":
            if len(shape) != 1:
                raise ShapeError(
                    f"dense layer {name} needs flattened input, got {shape}; "
                    "insert a flatten layer"
                )
            layer = DenseLayer(
                in_features=shape[0],
                out_features=int(_require(layer_def, "features", "dense")),
                name=name,
                rng=rng,
            )
        else:
            raise ShapeError(f"unknown layer type {layer_type!r} in definition")
        shape = layer.output_shape(shape)
        layers.append(layer)
    return Network(layers, input_shape, name=definition.get("name", "network"))


_TOKEN_RE = re.compile(r'"[^"]*"|\{|\}|[^\s{}]+')


def _tokenize(text: str) -> list[str]:
    tokens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        tokens.extend(_TOKEN_RE.findall(line))
    return tokens


def _coerce(token: str):
    if token.startswith('"') and token.endswith('"'):
        return token[1:-1]
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token


def parse_netdef(text: str) -> dict:
    """Parse the prototxt-like text format into a dict description."""
    tokens = _tokenize(text)
    definition: dict = {"layers": []}
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if not token.endswith(":"):
            if token == "layer" and i + 1 < len(tokens) and tokens[i + 1] == "{":
                layer_def: dict = {}
                i += 2
                while i < len(tokens) and tokens[i] != "}":
                    key = tokens[i]
                    if not key.endswith(":"):
                        raise ShapeError(f"expected 'key:' inside layer, got {key!r}")
                    if i + 1 >= len(tokens):
                        raise ShapeError(f"missing value for {key!r}")
                    layer_def[key[:-1]] = _coerce(tokens[i + 1])
                    i += 2
                if i >= len(tokens):
                    raise ShapeError("unterminated layer block")
                definition["layers"].append(layer_def)
                i += 1
                continue
            raise ShapeError(f"unexpected token {token!r} in network definition")
        key = token[:-1]
        if key == "input":
            values = []
            while i + 1 < len(tokens) and re.fullmatch(r"-?\d+", tokens[i + 1]):
                values.append(int(tokens[i + 1]))
                i += 1
            if len(values) != 3:
                raise ShapeError(f"input expects 3 integers, got {values}")
            definition["input"] = values
        else:
            if i + 1 >= len(tokens):
                raise ShapeError(f"missing value for {key!r}")
            definition[key] = _coerce(tokens[i + 1])
            i += 1
        i += 1
    if "input" not in definition:
        raise ShapeError("network definition missing 'input:'")
    return definition


def network_from_text(
    text: str, rng: np.random.Generator | None = None,
    threads: int | None = None,
) -> Network:
    """Parse and build a network from the text format in one call."""
    return build_network(parse_netdef(text), rng=rng, threads=threads)

