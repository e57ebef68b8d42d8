"""Diagnose a model: profile real training, explain the model's verdicts.

The workflow a performance engineer would follow with this library:

1. time real training steps from the conv layers' own ``<layer>/fp|bp``
   spans to find which convolution dominates wall clock;
2. ask the machine model *why* each technique is fast or slow on the
   hottest convolution (per-lane breakdown, Secs. 3-4);
3. autotune the layers with the host-measured backend -- the paper's
   actual deployment mechanism and what ``repro train`` uses: each
   challenger is probed on one image, timed only if the probe is within
   2x of the deployed engine, and must win by 10% to replace it.

Run with:  python examples/explain_and_profile.py
"""

import numpy as np

from repro.core.autotuner import Autotuner, MeasuredCostBackend
from repro.data.synthetic import cifar10_like
from repro.machine.explain import explain_conv, explain_report
from repro.machine.spec import xeon_e5_2650
from repro.nn.sgd import SGDTrainer
from repro.nn.zoo import cifar10_net
from repro.obs.monitor import TrainingMonitor


def main() -> None:
    net = cifar10_net(scale=0.5, rng=np.random.default_rng(0))
    data = cifar10_like(16, seed=0)

    print("== 1. Profile real training steps ==")
    trainer = SGDTrainer(net)
    monitor = TrainingMonitor()
    with monitor:
        for _ in range(2):
            trainer.step(data.images[:8], data.labels[:8])
    print(monitor.render(title="per-layer FP/BP time"))
    seconds = {name: s["fp_seconds"] + s["bp_seconds"]
               for name, s in monitor.layer_stats().items()}
    hottest = max(seconds, key=seconds.__getitem__)
    print(f"\nhottest layer: {hottest} "
          f"({seconds[hottest] / sum(seconds.values()):.0%} of conv time)")

    conv = next(c for c in net.conv_layers() if c.name == hottest)
    spec = conv.padded_spec
    print(f"\n== 2. Why: machine-model lanes for {spec.describe()} ==")
    print("forward propagation:")
    print(explain_report(explain_conv(spec, "fp", 16, xeon_e5_2650(), 16)))
    print("\nbackward propagation (85% error sparsity):")
    print(explain_report(
        explain_conv(spec, "bp", 16, xeon_e5_2650(), 16, sparsity=0.85)
    ))

    print("\n== 3. Autotune on this host (measured backend) ==")
    backend = MeasuredCostBackend()
    tuner = Autotuner(backend)
    for layer in net.conv_layers():
        plan = tuner.plan_layer(
            layer.padded_spec, layer_name=layer.name, sparsity=0.85,
            deployed=(layer.fp_engine_name, layer.bp_engine_name),
            # Training never reads the image gradient: the first conv's
            # BP is dW only, and is timed as such.
            input_error=layer is not net.layers[0],
        )
        print(f"{layer.name}: FP -> {plan.fp_engine}, BP -> {plan.bp_engine}")
        for phase, timings in (("FP", plan.fp_timings),
                               ("BP", plan.bp_timings)):
            print(f"  {phase} ms per {backend.batch} images: " + ", ".join(
                f"{name} {seconds * 1e3:.2f}"
                for name, seconds in sorted(timings.items(),
                                            key=lambda item: item[1])))
        layer.set_fp_engine(plan.fp_engine)
        layer.set_bp_engine(plan.bp_engine)
    print(f"engines deployed ({backend.measured} candidates measured); "
          "training would now run with the chosen kernels.")


if __name__ == "__main__":
    main()
