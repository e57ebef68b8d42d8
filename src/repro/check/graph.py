"""Analyzer 2: network-graph verification before training starts.

Propagates shapes and dtypes through a :class:`repro.nn.network.Network`
and reports, as structured findings:

* **shape mismatches** -- a layer whose declared geometry is
  inconsistent with the activation shape reaching it (re-derived here,
  independently of the eager checks the layers themselves run);
* **dtype drift** -- parameters that are not float32, which would
  silently up-cast every activation downstream;
* **dead layers** -- structure that provably does nothing (duplicate
  consecutive ReLUs, flatten of already-flat input, dropout with
  rate 0, 1x1/stride-1 pooling);
* **layout-transition hazards** -- pooling windows that silently drop
  input rows/columns, and strided convolutions that trigger the Eq. 21
  data-layout transform on every pass.

:func:`preflight_network` is the fail-fast entry point wired into
:class:`repro.nn.training_loop.TrainingLoop`: error findings abort
before the first batch instead of surfacing as mid-training corruption.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro import telemetry
from repro.check.findings import CheckReport, Finding
from repro.errors import ShapeError
from repro.nn.layers.activations import FlattenLayer, ReLULayer
from repro.nn.layers.conv import ConvLayer
from repro.nn.layers.dense import DenseLayer
from repro.nn.layers.extras import AvgPoolLayer, DropoutLayer
from repro.nn.layers.pool import MaxPoolLayer
from repro.nn.network import Network

ANALYZER = "graph"


def _finding(severity: str, location: str, message: str) -> Finding:
    return Finding(severity=severity, analyzer=ANALYZER, location=location,
                   message=message)


def _check_conv(layer: ConvLayer, shape: tuple[int, ...], loc: str
                ) -> list[Finding]:
    findings = []
    spec = layer.spec
    if tuple(shape) != spec.input_shape:
        findings.append(_finding(
            "error", loc,
            f"conv expects input {spec.input_shape} but receives {shape}",
        ))
    if layer.weights.shape != spec.weight_shape:
        findings.append(_finding(
            "error", loc,
            f"weight tensor {layer.weights.shape} != spec "
            f"{spec.weight_shape}",
        ))
    for pname, param in layer.params().items():
        if param.dtype != np.float32:
            findings.append(_finding(
                "warning", loc,
                f"parameter {pname!r} has dtype {param.dtype}, expected "
                f"float32 (dtype drift up-casts downstream activations)",
            ))
    padded = layer.padded_spec
    if (padded.ny, padded.nx, padded.pad) != (
            spec.padded_ny, spec.padded_nx, 0):
        findings.append(_finding(
            "error", loc,
            f"engine-facing spec {padded.ny}x{padded.nx} (pad {padded.pad}) "
            f"inconsistent with padded geometry "
            f"{spec.padded_ny}x{spec.padded_nx}",
        ))
    if spec.sx > 1 or spec.sy > 1:
        findings.append(_finding(
            "info", loc,
            f"stride {spec.sy}x{spec.sx} convolution pays the Eq. 21 "
            f"data-layout transform on every stencil pass",
        ))
    return findings


def _check_pool(layer: Any, shape: tuple[int, ...], loc: str) -> list[Finding]:
    findings = []
    if len(shape) != 3:
        return [_finding(
            "error", loc, f"pool needs [C, Y, X] input, got {shape}"
        )]
    _, y, x = shape
    if layer.kernel > y or layer.kernel > x:
        findings.append(_finding(
            "error", loc,
            f"pool kernel {layer.kernel} larger than input extent "
            f"{y}x{x}",
        ))
        return findings
    if layer.kernel == 1 and layer.stride == 1:
        findings.append(_finding(
            "warning", loc, "1x1 stride-1 pooling is an identity (dead layer)"
        ))
    for axis, extent in (("y", y), ("x", x)):
        covered = ((extent - layer.kernel) // layer.stride) * layer.stride \
            + layer.kernel
        if covered != extent:
            findings.append(_finding(
                "warning", loc,
                f"pool window drops {extent - covered} trailing input "
                f"{axis}-positions ({extent} -> {covered} covered)",
            ))
    return findings


def verify_network(network: Network) -> list[Finding]:
    """Shape/dtype propagation and structural lint over a built network."""
    findings: list[Finding] = []
    shape: tuple[int, ...] = tuple(network.input_shape)
    previous = None
    for i, layer in enumerate(network.layers):
        loc = f"{network.name}/{layer.name}"
        if isinstance(layer, ConvLayer):
            findings.extend(_check_conv(layer, shape, loc))
        elif isinstance(layer, (MaxPoolLayer, AvgPoolLayer)):
            findings.extend(_check_pool(layer, shape, loc))
        elif isinstance(layer, DenseLayer):
            if shape != (layer.in_features,):
                findings.append(_finding(
                    "error", loc,
                    f"dense expects flattened ({layer.in_features},) input "
                    f"but receives {shape}",
                ))
            if layer.weights.dtype != np.float32:
                findings.append(_finding(
                    "warning", loc,
                    f"weights dtype {layer.weights.dtype}, expected float32",
                ))
        elif isinstance(layer, ReLULayer):
            if isinstance(previous, ReLULayer):
                findings.append(_finding(
                    "warning", loc,
                    "consecutive ReLU layers; the second is a dead layer",
                ))
        elif isinstance(layer, FlattenLayer):
            if len(shape) == 1:
                findings.append(_finding(
                    "warning", loc,
                    "flatten of already-flat input is a dead layer",
                ))
        elif isinstance(layer, DropoutLayer):
            if layer.rate == 0.0:
                findings.append(_finding(
                    "warning", loc, "dropout with rate 0 is a dead layer"
                ))
        # Advance the shape chain; a layer that rejects its input is a
        # shape mismatch even if the checks above did not anticipate it.
        try:
            shape = tuple(layer.output_shape(shape))
        except ShapeError as exc:
            findings.append(_finding(
                "error", loc, f"shape propagation failed: {exc}"
            ))
            break
        previous = layer
    else:
        if len(shape) != 1:
            findings.append(_finding(
                "warning", f"{network.name}/output",
                f"network output {shape} is not a flat class-score vector; "
                f"losses expect [B, classes]",
            ))
        declared = tuple(network.layer_shapes[-1])
        if declared != shape:
            findings.append(_finding(
                "error", f"{network.name}/output",
                f"declared output shape {declared} != re-derived {shape}",
            ))
    return findings


def verify_networks(networks: list[Network]) -> list[Finding]:
    """Run :func:`verify_network` over several networks."""
    findings: list[Finding] = []
    for network in networks:
        findings.extend(verify_network(network))
    return findings


def preflight_network(network: Network) -> CheckReport:
    """Fail-fast pre-flight for :class:`TrainingLoop`.

    Raises :class:`repro.errors.CheckError` when the graph checker
    reports errors; warnings are recorded as a telemetry event (no-op
    unless a collector is active) and returned for inspection.
    """
    report = CheckReport(findings=verify_network(network),
                         meta={"networks": 1})
    telemetry.event(
        "check.preflight", network=network.name,
        errors=len(report.errors), warnings=len(report.warnings),
    )
    report.raise_if_errors(context=f"preflight of network {network.name!r}")
    return report
