"""Train a CIFAR-style CNN under spg-CNN, watching the framework re-tune.

Reproduces the paper's Sec. 4.4 behaviour end to end on synthetic data,
priced by the model of the paper's Xeon (``repro train`` deploys by host
measurement instead, see ``examples/explain_and_profile.py``):

* the autotuner plans each conv layer's FP before training; BP keeps
  the layer's GEMM engine until an error sparsity has been measured;
* ReLU + max pooling make the error gradient sparse from the first step
  on (the Fig. 3b dynamic), so right after that step spg-CNN prices BP
  at the measured sparsity, switches the BP engines over to the sparse
  kernels and reports the switch;
* at the periodic re-check it prices BP again at the drifted sparsity.

Run with:  python examples/train_with_spgcnn.py
"""

import numpy as np

from repro import ModelCostBackend, SGDTrainer, SpgCNN, xeon_e5_2650
from repro.data.synthetic import make_dataset
from repro.nn.zoo import cifar10_net


def report(events, when: str) -> None:
    for event in events:
        print(
            f"  -> {when}, re-tuned {event.layer_name}: BP "
            f"{event.old_engine} -> {event.new_engine} "
            f"(measured sparsity {event.sparsity:.2f})"
        )


def main() -> None:
    net = cifar10_net(scale=0.25, rng=np.random.default_rng(0))
    print(net.describe())

    spg = SpgCNN(
        net,
        ModelCostBackend(xeon_e5_2650(), cores=16, batch=64),
        recheck_epochs=2,
    )
    plan = spg.optimize()
    print("\nInitial plan (FP chosen, BP awaiting a measured sparsity):")
    print(plan.describe())

    data = make_dataset(64, 10, (3, 32, 32), noise=0.3, seed=0)
    trainer = SGDTrainer(net, learning_rate=0.05)

    print("\nTraining:")
    for epoch in range(1, 7):
        results = []
        for lo in range(0, len(data.images), 16):
            result = trainer.step(data.images[lo:lo + 16],
                                  data.labels[lo:lo + 16])
            results.append(result)
            # Plans BP once, after the first step that was applied.
            report(spg.after_batch(epoch, len(results) - 1, result),
                   f"after step {len(results)}")
        loss = float(np.mean([r.loss for r in results]))
        acc = float(np.mean([r.accuracy for r in results]))
        sparsities = net.error_sparsities()
        sparsity_text = ", ".join(
            f"{name}={value:.2f}" for name, value in sparsities.items()
        )
        print(
            f"epoch {epoch}: loss {loss:6.3f}  acc {acc:5.2f}  "
            f"error sparsity [{sparsity_text}]"
        )
        report(spg.after_epoch(epoch), "re-check")

    print("\nFinal plan:")
    print(spg.plan.describe())


if __name__ == "__main__":
    main()
