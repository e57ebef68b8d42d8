"""A live training monitor and its final run report.

:class:`TrainingMonitor` watches one training run end to end.  It owns a
:class:`~repro.telemetry.collector.TelemetryCollector` (activated for
the duration of its ``with`` block), hooks the
:class:`~repro.nn.training_loop.TrainingLoop` observer points
(``after_batch`` / ``after_epoch``), and tracks:

* per-layer FP/BP wall-clock (count, total, and the BP p95 computed
  from the layer's BP spans);
* per-layer goodput and throughput (the Eq. 9-10 gauges the conv layer
  emits on every backward pass);
* sparsity drift -- per layer (first vs. latest BP-span sparsity) and
  per epoch (mean error sparsity);
* autotuner activity (``retune`` events, Sec. 4.4) and its cost
  (``spg/optimize`` + ``spg/replan`` span time, candidates measured vs.
  answered from the backend's memo);
* resilience activity (retries, quarantine fallbacks, skipped
  batches, checkpoints).

With a writable ``out`` it renders a per-layer console table every
``every_batches`` batches (and at each epoch end); :meth:`report`
returns the final :class:`RunReport`, exportable as JSON or markdown.

The monitor is an observer: attaching it never changes what the run
computes, only what is recorded about it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, IO

from repro import telemetry
from repro.analysis.reporting import format_table
from repro.telemetry.collector import TelemetryCollector

#: Resilience counters the monitor surfaces (superset of the chaos
#: report's, minus the fault-injection bookkeeping it cannot know about).
RESILIENCE_COUNTERS = (
    "faults.injected",
    "pool.retries",
    "dag.retries",
    "dag.crash_retries",
    "pool.task_failures",
    "engine.fallbacks",
    "quarantine.engines",
    "sgd.skipped_batches",
    "train.checkpoints",
)


def _finite(value: float | None) -> float | None:
    if value is None or not math.isfinite(value):
        return None
    return float(value)


@dataclass
class RunReport:
    """Everything the monitor learned about one training run."""

    epochs: list[dict[str, Any]] = field(default_factory=list)
    layers: dict[str, dict[str, Any]] = field(default_factory=dict)
    retunes: list[dict[str, Any]] = field(default_factory=list)
    resilience: dict[str, float] = field(default_factory=dict)
    totals: dict[str, Any] = field(default_factory=dict)
    #: The deployed engines per conv layer with the candidate timings
    #: (seconds per measuring batch) each choice rested on.
    plan: list[dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly snapshot of the full report."""
        return {
            "epochs": list(self.epochs),
            "layers": {name: dict(stats) for name, stats in self.layers.items()},
            "retunes": list(self.retunes),
            "resilience": dict(self.resilience),
            "totals": dict(self.totals),
            "plan": [dict(row) for row in self.plan],
        }

    def to_markdown(self) -> str:
        """The report as a human-readable markdown document."""
        lines = ["# Training run report", ""]
        totals = self.totals
        if totals:
            lines.append(
                f"{totals.get('epochs', 0)} epoch(s), "
                f"{totals.get('batches', 0)} batch(es); final train loss "
                f"{totals.get('final_loss', float('nan')):.4f}."
            )
            lines.append(
                f"Autotuning took {totals.get('tuning_seconds', 0.0):.3f} s "
                f"({totals.get('tuning_measured', 0)} candidates measured, "
                f"{totals.get('tuning_memo_hits', 0)} memo hits)."
            )
            lines.append("")
        if self.layers:
            lines += [
                "## Per-layer performance", "",
                "| layer | FP ms (n) | BP ms (n) | BP p95 ms "
                "| goodput MFLOP/s | throughput MFLOP/s "
                "| sparsity first -> last |",
                "|---|---|---|---|---|---|---|",
            ]
            for name, s in self.layers.items():
                fp = f"{s['fp_seconds'] * 1e3:.1f} ({s['fp_count']})"
                bp = f"{s['bp_seconds'] * 1e3:.1f} ({s['bp_count']})"
                p95 = s.get("bp_p95_seconds")
                p95 = f"{p95 * 1e3:.2f}" if p95 is not None else "-"
                gp = s.get("goodput")
                gp = f"{gp / 1e6:.1f}" if gp else "-"
                tp = s.get("throughput")
                tp = f"{tp / 1e6:.1f}" if tp else "-"
                drift = "-"
                if s.get("sparsity_first") is not None:
                    drift = (f"{s['sparsity_first']:.2f} -> "
                             f"{s['sparsity_last']:.2f}")
                lines.append(
                    f"| {name} | {fp} | {bp} | {p95} | {gp} | {tp} | {drift} |"
                )
            lines.append("")
        if self.epochs:
            lines += [
                "## Epochs", "",
                "| epoch | train loss | accuracy | error sparsity "
                "| skipped batches |",
                "|---|---|---|---|---|",
            ]
            for e in self.epochs:
                loss = _finite(e.get("train_loss"))
                acc = _finite(e.get("train_accuracy"))
                lines.append(
                    "| {epoch} | {loss} | {acc} | {sp:.2f} | {skip} |".format(
                        epoch=e["epoch"],
                        loss=f"{loss:.4f}" if loss is not None else "nan",
                        acc=f"{acc:.3f}" if acc is not None else "nan",
                        sp=e.get("mean_error_sparsity", 0.0),
                        skip=e.get("skipped_batches", 0),
                    )
                )
            lines.append("")
        if self.plan:
            lines += ["## Deployed plan", ""]
            for row in self.plan:
                for phase in ("fp", "bp"):
                    timings = ", ".join(
                        f"{name} {seconds * 1e3:.2f} ms" for name, seconds
                        in sorted(row[f"{phase}_timings"].items(),
                                  key=lambda item: item[1])
                    ) or "not measured yet"
                    engine = row[f"{phase}_engine"]
                    if row.get(f"{phase}_lowering"):
                        engine += f" [{row[f'{phase}_lowering']}]"
                    if phase == "fp" and row.get("fused"):
                        engine += f" fused with ReLU + pool ({row['fused']})"
                    lines.append(f"- {row['layer']} {phase.upper()}: "
                                 f"{engine} ({timings})")
                for name, why in row.get("lowering_reasons", {}).items():
                    lines.append(f"- {row['layer']}: {name} timed on the "
                                 f"reference ({why})")
            lines.append("")
        lines.append("## Autotuner retunes")
        lines.append("")
        if self.retunes:
            for r in self.retunes:
                lines.append(
                    f"- epoch {r.get('epoch')}: {r.get('layer')} BP "
                    f"{r.get('old_engine')} -> {r.get('new_engine')} "
                    f"(sparsity {r.get('sparsity', 0.0):.2f})"
                )
        else:
            lines.append("- none")
        lines.append("")
        lines.append("## Resilience activity")
        lines.append("")
        active = {k: v for k, v in self.resilience.items() if v}
        if active:
            for name, value in sorted(active.items()):
                lines.append(f"- {name}: {int(value)}")
        else:
            lines.append("- none")
        return "\n".join(lines) + "\n"

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    def write_markdown(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_markdown())
        return path


class TrainingMonitor:
    """Live observer of one :class:`TrainingLoop` run.

    Usage::

        monitor = TrainingMonitor(every_batches=20, out=sys.stdout)
        monitor.attach(loop)
        with monitor:
            loop.run(epochs)
        report = monitor.report()
    """

    def __init__(
        self,
        every_batches: int = 0,
        out: IO[str] | None = None,
        collector: TelemetryCollector | None = None,
    ) -> None:
        self.collector = collector or TelemetryCollector()
        self.every_batches = every_batches
        self.out = out
        self._batches = 0
        self._epochs: list[dict[str, Any]] = []
        self._activation = None

    # -- wiring -----------------------------------------------------------

    def attach(self, loop) -> None:
        """Register this monitor's hooks on a training loop."""
        loop.add_batch_hook(self._after_batch)
        loop.add_epoch_hook(self._after_epoch)

    def __enter__(self) -> "TrainingMonitor":
        self._activation = telemetry.collect(self.collector)
        self._activation.__enter__()
        return self

    def __exit__(self, *exc_info) -> None:
        activation, self._activation = self._activation, None
        if activation is not None:
            activation.__exit__(*exc_info)

    # -- hooks ------------------------------------------------------------

    def _after_batch(self, epoch: int, batch_index: int, result) -> None:
        self._batches += 1
        if (self.out is not None and self.every_batches > 0
                and self._batches % self.every_batches == 0):
            print(f"[monitor] epoch {epoch} batch {batch_index + 1}: "
                  f"loss {result.loss:.4f}", file=self.out)
            print(self.render(), file=self.out)

    def _after_epoch(self, epoch: int, record) -> None:
        self._epochs.append({
            "epoch": record.epoch,
            "train_loss": record.train_loss,
            "train_accuracy": record.train_accuracy,
            "eval_loss": record.eval_loss,
            "eval_accuracy": record.eval_accuracy,
            "learning_rate": record.learning_rate,
            "mean_error_sparsity": record.mean_error_sparsity,
            "skipped_batches": record.skipped_batches,
        })
        if self.out is not None:
            print(f"[monitor] epoch {epoch} done: "
                  f"loss {record.train_loss:.4f} "
                  f"error sparsity {record.mean_error_sparsity:.2f}",
                  file=self.out)
            print(self.render(), file=self.out)

    # -- derived state ----------------------------------------------------

    def layer_stats(self) -> dict[str, dict[str, Any]]:
        """Per-layer FP/BP time, goodput and sparsity, from telemetry.

        ``bp_p95_seconds`` is the nearest-rank 95th percentile of the
        layer's BP span durations: the ``ceil(0.95 * n)``-th smallest of
        its ``n`` spans, so always one measured duration (``None`` when
        the layer ran no BP span).
        """
        collector = self.collector
        stats: dict[str, dict[str, Any]] = {}
        bp_durations: dict[str, list[float]] = {}
        for span in list(collector.spans):
            layer = span.attrs.get("layer")
            phase = span.attrs.get("phase")
            if layer is None or phase not in ("fp", "bp") or span.end is None:
                continue
            entry = stats.setdefault(str(layer), {
                "fp_count": 0, "fp_seconds": 0.0,
                "bp_count": 0, "bp_seconds": 0.0,
                "fp_engine": None, "bp_engine": None,
                "fp_lowering": None, "bp_lowering": None, "fp_fused": None,
                "sparsity_first": None, "sparsity_last": None,
            })
            entry[f"{phase}_count"] += 1
            entry[f"{phase}_seconds"] += span.seconds
            if phase == "bp":
                bp_durations.setdefault(str(layer), []).append(span.seconds)
            entry[f"{phase}_engine"] = span.attrs.get("engine")
            entry[f"{phase}_lowering"] = span.attrs.get("lowering")
            if phase == "fp":
                # What the conv ran fused with ("relu+pool"), if anything.
                entry["fp_fused"] = span.attrs.get("fused")
            if phase == "bp" and "sparsity" in span.attrs:
                sparsity = float(span.attrs["sparsity"])
                if entry["sparsity_first"] is None:
                    entry["sparsity_first"] = sparsity
                entry["sparsity_last"] = sparsity
        for layer, entry in stats.items():
            entry["goodput"] = collector.gauges.get(f"goodput.{layer}")
            entry["throughput"] = collector.gauges.get(f"throughput.{layer}")
            durations = sorted(bp_durations.get(layer, ()))
            entry["bp_p95_seconds"] = (
                durations[math.ceil(0.95 * len(durations)) - 1]
                if durations else None
            )
            if (entry["sparsity_first"] is not None
                    and entry["sparsity_last"] is not None):
                entry["sparsity_drift"] = (
                    entry["sparsity_last"] - entry["sparsity_first"]
                )
            else:
                entry["sparsity_drift"] = None
        return stats

    def retune_log(self) -> list[dict[str, Any]]:
        """Every autotuner retune decision recorded so far."""
        return [
            dict(recorded.attrs)
            for recorded in list(self.collector.events)
            if recorded.name == "retune"
        ]

    def tuning_cost(self) -> dict[str, Any]:
        """Seconds inside the autotuner and what it spent them on."""
        spans = [s for s in list(self.collector.spans)
                 if s.name in ("spg/optimize", "spg/replan")]
        return {
            "tuning_seconds": sum(s.seconds for s in spans),
            "tuning_measured": sum(s.attrs.get("measured", 0) for s in spans),
            "tuning_memo_hits": sum(s.attrs.get("memo_hits", 0)
                                    for s in spans),
        }

    def resilience_counters(self) -> dict[str, float]:
        """The resilience counters observed so far (absent ones as 0)."""
        counters = self.collector.counters
        return {name: counters.get(name, 0.0) for name in RESILIENCE_COUNTERS}

    def render(self, title: str = "training monitor") -> str:
        """The live per-layer console table."""
        rows = []
        for name, s in self.layer_stats().items():
            gp = s.get("goodput")
            tp = s.get("throughput")
            drift = s.get("sparsity_drift")
            rows.append([
                name,
                s["fp_engine"] or "-",
                "+".join(filter(None, (s["fp_lowering"], s["fp_fused"])))
                or "-",
                f"{s['fp_seconds'] * 1e3:.1f}",
                s["bp_engine"] or "-",
                s["bp_lowering"] or "-",
                f"{s['bp_seconds'] * 1e3:.1f}",
                f"{gp / 1e6:.1f}" if gp else "-",
                f"{tp / 1e6:.1f}" if tp else "-",
                f"{s['sparsity_last']:.2f}"
                if s["sparsity_last"] is not None else "-",
                f"{drift:+.2f}" if drift is not None else "-",
            ])
        return format_table(
            ["layer", "FP engine", "lowering", "FP ms", "BP engine",
             "lowering", "BP ms",
             "goodput MF/s", "thruput MF/s", "sparsity", "drift"],
            rows, title=title,
        )

    def report(self, plan=None) -> RunReport:
        """The final run report (markdown/JSON-exportable).

        ``plan`` is the :class:`~repro.core.plan.ExecutionPlan` the run
        ended on, when the caller tuned one.
        """
        resilience = self.resilience_counters()
        final_loss = (
            self._epochs[-1]["train_loss"] if self._epochs else float("nan")
        )
        totals = {
            "epochs": len(self._epochs),
            "batches": self._batches,
            "final_loss": final_loss,
            "retunes": 0,
            "flops_total": self.collector.counters.get("conv.flops.total", 0.0),
            "flops_useful": self.collector.counters.get(
                "conv.flops.useful", 0.0
            ),
            **self.tuning_cost(),
        }
        retunes = self.retune_log()
        totals["retunes"] = len(retunes)
        return RunReport(
            epochs=list(self._epochs),
            layers=self.layer_stats(),
            retunes=retunes,
            resilience=resilience,
            totals=totals,
            plan=[
                {"layer": p.layer_name, "sparsity": p.sparsity,
                 "fp_engine": p.fp_engine, "fp_lowering": p.fp_lowering,
                 "fp_timings": dict(p.fp_timings),
                 "bp_engine": p.bp_engine, "bp_lowering": p.bp_lowering,
                 "bp_timings": dict(p.bp_timings), "fused": p.fused,
                 "lowering_reasons": dict(p.lowering_reasons)}
                for p in (plan.layers if plan is not None else ())
            ],
        )
