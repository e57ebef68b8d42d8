"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``characterize Nx Nf Nc Fx [--stride S] [--sparsity P]`` -- AIT figures
  and Fig. 1 region for a convolution.
* ``plan <netdef file> [--cores N] [--batch B] [--sparsity P]`` -- run the
  autotuner over every conv layer of a network description.
* ``figure <name>`` -- regenerate one of the paper's exhibits
  (``table1``, ``table2``, ``fig3a``, ``fig4a`` ... ``fig4f``, ``fig9``).
* ``check [--only A,B] [--out PATH]`` -- statically
  verify the generated kernels, network graphs, task-graph effects
  and parallel runtime; ``--only`` takes a comma-separated analyzer
  list, ``--format sarif`` emits SARIF 2.1.0 for code-host upload;
  exits 1 when any error-severity finding is reported (CI gate).
* ``chaos [--plan P] [--seed N] [--scheduler barrier|dag] ...`` -- train
  a small job under a named fault plan with the resilient policy active
  and report survival; exits 1 when the run dies, stops improving, or
  fails the kill/resume bit-identity check (CI chaos gate).
* ``train [--net cifar|mnist] ...`` -- run a training job with spg-CNN
  retuning under the live :class:`repro.obs.monitor.TrainingMonitor`
  and print its run report; ``--out`` writes the report, or with
  ``--format chrome`` the run's Chrome trace-event timeline.  ``train``
  deploys the engines this host measures fastest; the Xeon model prices
  ``plan`` and ``figure`` only.
* ``engines`` -- list the registered convolution engines.

Reporting commands (``check``, ``chaos``, ``train``, ``shm``,
``workers``) share one I/O contract: ``--format table|json`` selects the
stdout rendering (human tables vs. machine JSON) and ``--out PATH``
writes the durable JSON artifact -- ``train`` additionally accepts
``--format chrome`` (stdout as ``table``, ``--out`` the Chrome
trace-event JSON), and ``check`` accepts ``--format sarif`` (stdout and
``--out`` both become SARIF 2.1.0).

Exit codes, uniformly: **0** success; **1** gate failure (error-severity
check findings, a failed chaos run); **2** usage error (bad flags,
missing arguments, unknown names, out-of-range numbers, a convolution
or netdef that cannot be built -- reported through argparse).

The wall-clock benchmark is the host book (``hostbook/run.py``), not a
subcommand.

Each command imports what it runs inside its ``_cmd_*`` function, and
the parser is built from literal name tuples (``tests/test_surface.py``
holds them equal to the registries they name), so ``repro train``
never loads the ``check`` analyzers.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.convspec import ConvSpec
    from repro.nn.network import Network

#: The paper's exhibits, each rendered by the :mod:`repro.analysis.figures`
#: function of the same name (``fig4a`` -> ``figure4a``).  Names only, so
#: building the parser loads no model.
_FIGURES = ("table1", "table2", "fig3a", "fig4a", "fig4b", "fig4c", "fig4d",
            "fig4e", "fig4f", "fig9")

#: ``repro.runtime.backends.BACKEND_NAMES``.
_BACKENDS = ("serial", "thread", "process")

#: ``repro.check.runner.ANALYZERS`` and ``ANALYZER_ALIASES``.
_ANALYZERS = ("gen-source", "graph", "effects", "concurrency")
_ANALYZER_ALIASES = {"source": "gen-source"}

#: ``repro.resilience.faults.plan_names()`` + ``REAL_KILL_PLANS``.
_CHAOS_PLANS = ("none", "numeric", "smoke", "workers", "hang", "kill9")


def _analyzer_list(text: str) -> tuple[str, ...]:
    """``--only`` type: comma-separated analyzer names, validated.

    Accepts the short alias too (``--only source``)."""
    names = tuple(
        _ANALYZER_ALIASES.get(name.strip(), name.strip())
        for name in text.split(",") if name.strip()
    )
    unknown = [name for name in names if name not in _ANALYZERS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown analyzer(s) {', '.join(sorted(unknown))}; "
            f"known: {', '.join(_ANALYZERS)}"
        )
    return names


def _positive_int(text: str) -> int:
    """argparse type: an integer greater than zero."""
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type: an integer that is zero or more."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {text}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a number greater than zero."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _fraction(text: str) -> float:
    """argparse type: a number in [0, 1] (a sparsity)."""
    value = float(text)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def _add_output_args(
    parser: argparse.ArgumentParser,
    formats: tuple[str, ...] = ("table", "json"),
    out_help: str = "write the JSON artifact to PATH",
) -> None:
    """The shared ``--out`` / ``--format`` contract of reporting commands."""
    parser.add_argument("--out", type=Path, default=None,
                        metavar="PATH", help=out_help)
    parser.add_argument("--format", choices=formats, default=formats[0],
                        help="stdout rendering (default: %(default)s)")


def _add_dims(parser: argparse.ArgumentParser) -> None:
    """The ``Nx Nf Nc Fx`` positionals of a square convolution.

    Four positionals rather than one ``nargs=4`` with a tuple metavar,
    which argparse cannot name in its missing-argument error."""
    for dim in ("Nx", "Nf", "Nc", "Fx"):
        parser.add_argument(dim, type=_positive_int)
    parser.add_argument("--stride", type=_positive_int, default=1)


def _dims_spec(args, parser: argparse.ArgumentParser) -> ConvSpec:
    """The square convolution named by the ``Nx Nf Nc Fx`` positionals;
    one that cannot exist (a kernel larger than the input) is a usage
    error."""
    from repro.core.convspec import ConvSpec

    n, f = args.Nx, args.Fx
    try:
        spec = ConvSpec(nc=args.Nc, ny=n, nx=n, nf=args.Nf, fy=f, fx=f,
                        sy=args.stride, sx=args.stride, name="cli-conv")
    except ReproError as exc:
        parser.error(str(exc))
    return spec


def _load_netdef(path: Path, parser: argparse.ArgumentParser) -> Network:
    """The network of a netdef file; an unreadable or malformed file is a
    usage error."""
    from repro.nn.netdef import network_from_text

    try:
        return network_from_text(path.read_text())
    except (ReproError, OSError, ValueError) as exc:
        parser.error(f"netdef {path}: {getattr(exc, 'strerror', None) or exc}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="spg-CNN reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    chz = sub.add_parser("characterize", help="characterize a convolution")
    _add_dims(chz)
    chz.add_argument("--sparsity", type=_fraction, default=0.0)

    plan = sub.add_parser("plan", help="autotune a network description")
    plan.add_argument("netdef", type=Path)
    plan.add_argument("--cores", type=_positive_int, default=16)
    plan.add_argument("--batch", type=_positive_int, default=64)
    plan.add_argument("--sparsity", type=_fraction, default=0.85)

    fig = sub.add_parser("figure", help="regenerate a paper exhibit")
    fig.add_argument("name", choices=sorted(_FIGURES))

    explain = sub.add_parser(
        "explain", help="per-lane time breakdown of each technique"
    )
    _add_dims(explain)
    explain.add_argument("--phase", choices=("fp", "bp"), default="fp")
    explain.add_argument("--cores", type=_positive_int, default=16)
    explain.add_argument("--batch", type=_positive_int, default=16)
    explain.add_argument("--sparsity", type=_fraction, default=0.85)

    repro_cmd = sub.add_parser(
        "reproduce", help="write every paper exhibit to an output directory"
    )
    repro_cmd.add_argument("--out", type=Path, default=Path("results"))

    check = sub.add_parser(
        "check",
        help="statically verify generated kernels, graphs and runtime",
    )
    check.add_argument(
        "--only", type=_analyzer_list, default=None, metavar="A[,B...]",
        help="comma-separated analyzer list (default: all four)",
    )
    check.add_argument("--quiet", action="store_true",
                       help="print only the summary line, not the table")
    _add_output_args(check, formats=("table", "json", "sarif"),
                     out_help="write the findings report (JSON, or SARIF "
                              "with --format sarif)")

    chaos = sub.add_parser(
        "chaos",
        help="train a small job under a fault plan and report survival",
    )
    chaos.add_argument("--plan", choices=_CHAOS_PLANS, default="smoke")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--epochs", type=_positive_int, default=3)
    chaos.add_argument("--batch", type=_positive_int, default=8)
    chaos.add_argument("--samples", type=_positive_int, default=48)
    chaos.add_argument("--threads", type=_positive_int, default=2,
                       help="workers in the network's one pool; a training step "
                            "runs one whole-network shard on each (1 = inline)")
    chaos.add_argument("--backend", choices=_BACKENDS, default="thread",
                       help="execution backend of the conv worker pools")
    chaos.add_argument("--scheduler", choices=("barrier", "dag"),
                       default="barrier",
                       help="whole-step shards or the task-graph runtime")
    chaos.add_argument("--no-resume-check", action="store_true",
                       help="skip the kill-and-resume bit-identity replay")
    _add_output_args(chaos, out_help="write the chaos + monitor report "
                                     "as JSON")

    train = sub.add_parser(
        "train", help="train under the live monitor; writes the run report",
    )
    train.add_argument("--net", choices=("mnist", "cifar"), default="mnist")
    train.add_argument("--epochs", type=_positive_int, default=2)
    train.add_argument("--batch", type=_positive_int, default=8)
    train.add_argument("--samples", type=_positive_int, default=32)
    train.add_argument("--scale", type=_positive_float, default=0.25,
                       help="feature-count scale of the zoo network")
    train.add_argument("--threads", type=_positive_int, default=1,
                       help="workers in the network's one pool; a training step "
                            "runs one whole-network shard on each (1 = inline)")
    train.add_argument("--backend", choices=_BACKENDS, default="thread",
                       help="execution backend of the conv worker pools")
    train.add_argument("--scheduler", choices=("barrier", "dag"),
                       default="barrier",
                       help="whole-step shards or the task-graph runtime")
    train.add_argument("--recheck", type=_positive_int, default=1,
                       help="re-check the BP choice every N epochs")
    train.add_argument("--every", type=_non_negative_int, default=0,
                       metavar="N",
                       help="also render the live table every N batches")
    _add_output_args(train, formats=("table", "json", "chrome"),
                     out_help="write the run report (JSON, or markdown "
                              "when PATH ends in .md); with --format "
                              "chrome, the Chrome trace-event file")

    shm_cmd = sub.add_parser(
        "shm",
        help="inspect or reap this host's repro shared-memory segments",
    )
    shm_cmd.add_argument("action", choices=("list", "reap"),
                         help="list segments and their owners, or unlink "
                              "segments whose owning process died")
    _add_output_args(shm_cmd, out_help="write the segment report as JSON")

    workers = sub.add_parser(
        "workers",
        help="spin up the process backend and report worker diagnostics",
    )
    workers.add_argument("--workers", type=_positive_int, default=2,
                         help="worker processes to spawn (default: 2)")
    _add_output_args(workers, out_help="write the worker report as JSON")

    sub.add_parser("engines", help="list registered engines")
    return parser


def _render_exhibit(name: str) -> str:
    from repro.analysis import figures
    from repro.analysis.reporting import format_series, format_table

    data = getattr(figures, name.replace("fig", "figure"))()
    if "rows" in data:
        rows = data["rows"]
        headers = list(rows[0].keys())
        return format_table(
            headers, [[row[h] for h in headers] for row in rows], title=name
        )
    x_label = "cores" if "cores" in data else "sparsity"
    return format_series(x_label, data[x_label], data["series"], title=name)


def _cmd_reproduce(args, out) -> int:
    args.out.mkdir(parents=True, exist_ok=True)
    for name in sorted(_FIGURES):
        text = _render_exhibit(name)
        path = args.out / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"wrote {path}", file=out)
    from repro.machine.calibration import calibration_report

    calibration_path = args.out / "calibration.txt"
    calibration_path.write_text(calibration_report() + "\n")
    print(f"wrote {calibration_path}", file=out)
    return 0


def _cmd_explain(args, out) -> int:
    from repro.machine.explain import explain_conv, explain_report
    from repro.machine.spec import xeon_e5_2650

    spec = args.spec
    breakdowns = explain_conv(
        spec, args.phase, args.batch, xeon_e5_2650(), args.cores,
        sparsity=args.sparsity,
    )
    print(spec.describe(), file=out)
    print(explain_report(breakdowns), file=out)
    return 0


def _cmd_characterize(args, out) -> int:
    from repro.core.characterization import characterize

    spec = args.spec
    ch = characterize(spec, sparsity=args.sparsity)
    print(spec.describe(), file=out)
    print(f"intrinsic AIT:   {ch.intrinsic_ait:.1f}", file=out)
    print(f"Unfold+GEMM AIT: {ch.unfold_ait:.1f}", file=out)
    print(f"region:          {int(ch.region)} ({ch.region.ait_band} AIT, "
          f"{'sparse' if ch.region.is_sparse else 'dense'})", file=out)
    print(f"recommended FP:  {ch.recommended_fp()}", file=out)
    print(f"recommended BP:  {ch.recommended_bp()}", file=out)
    return 0


def _cmd_plan(args, out) -> int:
    from repro.analysis.reporting import format_table
    from repro.core.autotuner import Autotuner
    from repro.machine.cost_backend import ModelCostBackend
    from repro.machine.spec import xeon_e5_2650

    network = args.network
    tuner = Autotuner(
        ModelCostBackend(xeon_e5_2650(), cores=args.cores, batch=args.batch)
    )
    rows = []
    for layer in network.conv_layers():
        plan = tuner.plan_layer(layer.padded_spec, layer_name=layer.name,
                                sparsity=args.sparsity)
        rows.append([
            plan.layer_name, plan.fp_engine, plan.bp_engine,
            f"{plan.fp_speedup_over_baseline:.1f}x",
            f"{plan.bp_speedup_over_baseline:.1f}x",
        ])
    print(format_table(
        ["layer", "FP engine", "BP engine", "FP speedup", "BP speedup"],
        rows,
        title=f"{network.name}: spg-CNN plan ({args.cores} cores, "
              f"sparsity {args.sparsity})",
    ), file=out)
    return 0


def _cmd_figure(args, out) -> int:
    print(_render_exhibit(args.name), file=out)
    return 0


def _cmd_train(args, out) -> int:
    """Train under the monitor and print its run report.

    Engines are deployed by what this host measures (the paper's
    Sec. 4.4 procedure); the Xeon model serves ``plan``/``figure`` only.
    """
    import json as json_module

    import numpy as np

    from repro.core.autotuner import MeasuredCostBackend
    from repro.core.framework import SpgCNN
    from repro.data.synthetic import cifar10_like, mnist_like
    from repro.nn.training_loop import TrainingLoop
    from repro.nn.zoo import cifar10_net, mnist_net
    from repro.obs.monitor import TrainingMonitor

    threads = args.threads if args.threads > 1 else None
    build, data = ((cifar10_net, cifar10_like) if args.net == "cifar"
                   else (mnist_net, mnist_like))
    network = build(scale=args.scale, rng=np.random.default_rng(0),
                    threads=threads, backend=args.backend)
    spg = SpgCNN(network, MeasuredCostBackend(),
                 recheck_epochs=args.recheck)
    loop = TrainingLoop(
        network, data(args.samples, seed=0), batch_size=args.batch,
        scheduler=args.scheduler,
        epoch_end_hook=lambda epoch, _net: spg.after_epoch(epoch),
    )
    loop.add_batch_hook(spg.after_batch)
    live_out = out if args.format != "json" else None
    monitor = TrainingMonitor(every_batches=args.every, out=live_out)
    monitor.attach(loop)
    try:
        with monitor:
            spg.optimize()
            loop.run(args.epochs)
    finally:
        for layer in network.conv_layers():
            layer.close()
    report = monitor.report(plan=spg.plan)
    if args.format == "json":
        print(json_module.dumps(report.to_dict()), file=out)
    else:
        print(monitor.render(title=f"run report: {network.name}"), file=out)
        totals = report.totals
        print(f"epochs: {totals['epochs']}  batches: {totals['batches']}  "
              f"final loss: {totals['final_loss']:.4f}  "
              f"retunes: {totals['retunes']}", file=out)
        print(f"tuning: {totals['tuning_seconds']:.3f} s "
              f"({totals['tuning_measured']} candidates measured, "
              f"{totals['tuning_memo_hits']} memo hits)", file=out)
        fused = [f"{row['layer']} ({row['fused']})" for row in report.plan
                 if row["fused"]]
        print(f"fused with ReLU + max-pool: {', '.join(fused) or 'none'}",
              file=out)
        for row in report.plan:
            for name, why in row["lowering_reasons"].items():
                print(f"{row['layer']}: {name} timed on the reference "
                      f"({why})", file=out)
    if args.out is not None:
        if args.format == "chrome":
            from repro.obs.chrome_trace import write_chrome_trace

            path = write_chrome_trace(monitor.collector, args.out)
        elif str(args.out).endswith(".md"):
            path = report.write_markdown(args.out)
        else:
            path = report.write_json(args.out)
        print(f"wrote {path}", file=out)
    return 0


def _cmd_chaos(args, out) -> int:
    import json as json_module

    from repro.resilience.chaos import run_chaos

    report = run_chaos(
        plan_name=args.plan,
        seed=args.seed,
        epochs=args.epochs,
        batch=args.batch,
        samples=args.samples,
        threads=args.threads,
        backend=args.backend,
        scheduler=args.scheduler,
        check_resume=not args.no_resume_check,
    )
    if args.format == "json":
        print(json_module.dumps(report.to_dict()), file=out)
    else:
        for line in report.lines():
            print(line, file=out)
        print("chaos: OK" if report.ok else "chaos: FAILED", file=out)
    if args.out is not None:
        path = report.write_json(args.out)
        print(f"wrote {path}", file=out)
    return 0 if report.ok else 1


def _cmd_shm(args, out) -> int:
    import json as json_module

    from repro.analysis.reporting import format_table
    from repro.runtime import shm as shm_module

    reaped = shm_module.reap_orphans() if args.action == "reap" else ()
    segments = shm_module.segments_on_host()
    payload = {
        "action": args.action,
        "reaped": list(reaped),
        "segments": [
            {
                "name": s.name,
                "pid": s.pid,
                "owner_alive": s.owner_alive,
                "orphaned": s.orphaned,
            }
            for s in segments
        ],
    }
    if args.format == "json":
        print(json_module.dumps(payload), file=out)
    else:
        if segments:
            rows = [
                [s.name, s.pid, "yes" if s.owner_alive else "no",
                 "YES" if s.orphaned else "no"]
                for s in segments
            ]
            print(format_table(
                ["segment", "owner pid", "owner alive", "orphaned"],
                rows, title="shm segments",
            ), file=out)
        else:
            print("shm: no segments", file=out)
        if args.action == "reap":
            print(f"reaped {len(reaped)} orphaned segment(s)"
                  + (": " + ", ".join(reaped) if reaped else ""), file=out)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json_module.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.out}", file=out)
    # Leak gate: orphaned segments surviving a list (or worse, a reap)
    # mean crashed owners are still pinning host memory.
    return 1 if any(s.orphaned for s in segments) else 0


def _cmd_workers(args, out) -> int:
    import json as json_module

    from repro.analysis.reporting import format_table
    from repro.runtime.backends import ProcessBackend, worker_diagnostics

    backend = ProcessBackend(args.workers)
    try:
        backend.start()
        diagnostics = backend.broadcast(worker_diagnostics)
        state = backend.supervisor_state()
    except Exception as exc:  # noqa: BLE001 - report, don't traceback
        print(f"workers: backend failed: {type(exc).__name__}: {exc}",
              file=out)
        return 1
    finally:
        backend.shutdown()
    ok = (len(diagnostics) == args.workers
          and all(w["alive"] for w in state["workers"]))
    payload = {"ok": ok, "state": state, "diagnostics": diagnostics}
    if args.format == "json":
        print(json_module.dumps(payload), file=out)
    else:
        diag_by_pid = {d["pid"]: d for d in diagnostics}
        rows = []
        for worker in state["workers"]:
            diag = diag_by_pid.get(worker["pid"], {})
            silent = worker["silent"]
            rows.append([
                worker["pid"], worker["slot"],
                "dead" if not worker["alive"]
                else "booting" if worker["booting"] else "alive",
                worker["outstanding"],
                "-" if silent is None else f"{silent:.1f}s",
                diag.get("engines_cached", "-"),
                diag.get("segments_attached", "-"),
                diag.get("blas_threads", "-"),
                diag.get("malloc_thresholds", "-"),
            ])
        print(format_table(
            ["pid", "slot", "status", "outstanding", "silent", "engines",
             "segments", "blas", "malloc"],
            rows, title="process-backend workers",
        ), file=out)
        deadline = state["task_deadline"]
        print(f"supervisor: deadline "
              f"{'none' if deadline is None else f'{deadline:.1f}s'}"
              f", respawns {state['respawns']}"
              f", redispatches {state['redispatches']}"
              f", hung {state['hung_workers']}", file=out)
        print("workers: OK" if ok else "workers: DEGRADED", file=out)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json_module.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.out}", file=out)
    return 0 if ok else 1


def _cmd_check(args, out) -> int:
    import json as json_module

    from repro.check.runner import run_all
    from repro.check.sarif import to_sarif, write_sarif

    report = run_all(analyzers=args.only or None)
    if args.format == "json":
        print(json_module.dumps(report.to_dict()), file=out)
    elif args.format == "sarif":
        print(json_module.dumps(to_sarif(report)), file=out)
    else:
        if report.findings and not args.quiet:
            print(report.table(), file=out)
        print(report.summary(), file=out)
    if args.out is not None:
        if args.format == "sarif":
            path = write_sarif(report, args.out)
        else:
            path = report.write_json(args.out)
        print(f"wrote {path}", file=out)
    return 0 if report.ok else 1


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    if "Nx" in vars(args):
        args.spec = _dims_spec(args, parser)
    if args.command == "plan":
        args.network = _load_netdef(args.netdef, parser)
    if args.command == "characterize":
        return _cmd_characterize(args, out)
    if args.command == "plan":
        return _cmd_plan(args, out)
    if args.command == "figure":
        return _cmd_figure(args, out)
    if args.command == "explain":
        return _cmd_explain(args, out)
    if args.command == "reproduce":
        return _cmd_reproduce(args, out)
    if args.command == "check":
        return _cmd_check(args, out)
    if args.command == "chaos":
        return _cmd_chaos(args, out)
    if args.command == "train":
        return _cmd_train(args, out)
    if args.command == "shm":
        return _cmd_shm(args, out)
    if args.command == "workers":
        return _cmd_workers(args, out)
    if args.command == "engines":
        from repro.ops.engine import engine_names

        for name in engine_names():
            print(name, file=out)
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
