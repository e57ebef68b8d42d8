"""Single entry point running every static analyzer: ``run_all``.

The default corpus is everything the framework can deploy: the built-in
zoo networks (graph checker and task-graph effects verifier), the
engine-facing ConvSpec of every conv layer in those networks plus every
Table 2 benchmark convolution (generated-source verifier, covering each
C unit the autotuner can deploy for them), and every module of the
``repro`` package itself (concurrency lint).
"""

from __future__ import annotations

from pathlib import Path

from repro.check.concurrency import lint_package
from repro.check.effects import verify_networks as verify_network_effects
from repro.check.findings import CheckReport
from repro.check.gen_source import (
    native_units,
    verify_native_units,
    verify_sgd_update,
)
from repro.check.graph import verify_networks
from repro.core.convspec import ConvSpec
from repro.errors import CheckError

#: The analyzers ``run_all`` knows, in run order.
ANALYZERS = ("gen-source", "graph", "effects", "concurrency")

#: Short aliases accepted by ``--only`` (``repro check --only source``).
ANALYZER_ALIASES = {"source": "gen-source"}


def engine_spec(spec: ConvSpec) -> ConvSpec:
    """The engine-facing (pre-padded, ``pad == 0``) variant of a spec."""
    return spec.pre_padded()


def default_networks() -> list:
    """The built-in zoo networks the graph checker covers by default."""
    from repro.nn.zoo import (
        alexnet_small,
        cifar10_net,
        imagenet100_net,
        mnist_net,
    )

    return [mnist_net(), cifar10_net(), imagenet100_net(), alexnet_small()]


def default_specs(networks: list | None = None) -> list[ConvSpec]:
    """Every ConvSpec the autotuner can emit kernels for, deduplicated.

    Zoo conv layers contribute their engine-facing padded specs; the
    Table 2 benchmark tables contribute the paper's evaluation shapes.
    """
    from repro.data.tables import TABLE2_LAYERS

    specs: list[ConvSpec] = []
    seen: set[ConvSpec] = set()
    pools = [net.conv_layers() for net in (networks or default_networks())]
    candidates = [layer.padded_spec for layers in pools for layer in layers]
    for table in TABLE2_LAYERS.values():
        candidates.extend(engine_spec(spec) for spec in table)
    for spec in candidates:
        if spec not in seen:
            seen.add(spec)
            specs.append(spec)
    return specs


def run_all(
    analyzers: tuple[str, ...] | None = None,
    specs: list[ConvSpec] | None = None,
    networks: list | None = None,
    lint_root: Path | None = None,
) -> CheckReport:
    """Run the selected analyzers (all four by default) and aggregate.

    Returns a :class:`CheckReport`; never raises on findings -- use
    :meth:`CheckReport.raise_if_errors` (or the CLI's exit code) to gate.
    """
    selected = tuple(ANALYZER_ALIASES.get(a, a)
                     for a in (analyzers or ANALYZERS))
    unknown = set(selected) - set(ANALYZERS)
    if unknown:
        raise CheckError(
            f"unknown analyzer(s) {sorted(unknown)}; known: {ANALYZERS}"
        )
    report = CheckReport()

    needs_specs = "gen-source" in selected
    needs_networks = (
        (needs_specs and specs is None)
        or bool({"graph", "effects"} & set(selected))
    )
    if needs_networks and networks is None:
        networks = default_networks()
    if needs_specs and specs is None:
        specs = default_specs(networks)
    if needs_specs:
        report.meta["specs"] = len(specs or [])

    if "gen-source" in selected:
        for spec in specs or []:
            report.extend(verify_native_units(spec))
        report.extend(verify_sgd_update())
        # Every spec's C units (sparse BP; stencil FP and fused; GEMM
        # epilogue), and the one SGD update unit.
        report.meta["native_units"] = sum(
            len(native_units(s)) for s in specs or []) + 1
    if "graph" in selected:
        report.extend(verify_networks(networks or []))
        report.meta["networks"] = len(networks or [])
    if "effects" in selected:
        findings, meta = verify_network_effects(networks or [])
        report.extend(findings)
        report.meta.update(meta)
    if "concurrency" in selected:
        findings, files = lint_package(lint_root)
        report.extend(findings)
        report.meta["files_linted"] = files
    return report
