"""Wall-clock rows behind the parameter path: the SGD update and the
dense layer.

The update of every parameter runs either numpy's chain
(:func:`repro.nn.sgd.momentum_chain`: four elementwise calls through a
parameter-sized scratch) or the native unit (:mod:`repro.nn.update_c`:
one pass).  The dense layer computes ``W @ x^T`` laid out C-ordered with
the bias where ``x @ W^T + b`` was, and its first backward after
``zero_grads`` writes ``out_error^T @ x`` into the weight gradient where
a scratch product was added to a cleared one.  This script times each
old form against the new on the zoo's parameters and dense shapes and
prints one markdown row per case::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python benchmarks/bench_parameter_path.py

Each cell is the median of ``--repeats`` calls in microseconds, the
operands hot in cache.  Its one ``test_`` function checks that the old
and new forms compute the same bits; it asserts nothing about time.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro import native
from repro.nn.sgd import momentum_chain
from repro.nn.update_c import load_update_kernels
from repro.nn.zoo import alexnet_small, cifar10_net, imagenet100_net, mnist_net

ZOO = (mnist_net, cifar10_net, imagenet100_net, alexnet_small)


def _median_us(call, repeats: int) -> float:
    call()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return float(np.median(times)) * 1e6


def _old_dense_backward(d_weights, scratch, out_error, x):
    d_weights[...] = 0.0                        # zero_grads
    np.matmul(out_error.T, x, out=scratch)
    d_weights += scratch


def dense_shapes() -> list[tuple[str, int, int]]:
    """``(label, in, out)`` of every distinct zoo dense layer."""
    rows, seen = [], set()
    for build in ZOO:
        network = build()
        for layer in network.layers:
            shape = (getattr(layer, "in_features", 0),
                     getattr(layer, "out_features", 0))
            if layer.kind == "dense" and shape not in seen:
                seen.add(shape)
                rows.append((f"{network.name}/{layer.name}", *shape))
        for conv in network.conv_layers():
            conv.close()
    return rows


def update_rows(repeats: int) -> list[str]:
    unit, reason = native.kernels_for(load_update_kernels)
    rows = []
    for build in ZOO:
        network = build()
        params = [(p, np.zeros_like(p),
                   np.random.default_rng(0).standard_normal(p.shape)
                   .astype(np.float32)) for _, p, _ in network.parameters()]
        for conv in network.conv_layers():
            conv.close()
        floats = sum(p.size for p, _, _ in params)
        scratch = np.empty(max(p.size for p, _, _ in params), np.float32)

        def chain():
            for p, v, g in params:
                momentum_chain(p, v, g, 0.01, 0.9,
                               scratch[:p.size].reshape(p.shape))

        def fused():
            for p, v, g in params:
                unit.update(p, v, g, 0.01, 0.9)

        cells = [f"{_median_us(chain, repeats):.0f}",
                 f"{_median_us(fused, repeats):.0f}" if unit else reason]
        rows.append(f"| update {network.name} | {len(params)} arrays, "
                    f"{floats} floats | " + " | ".join(cells) + " |")
    return rows


def dense_rows(batch: int, repeats: int) -> list[str]:
    rng = np.random.default_rng(0)
    rows = []
    for label, fin, fout in dense_shapes():
        w = (rng.standard_normal((fout, fin)) * 0.02).astype(np.float32)
        b = rng.standard_normal(fout).astype(np.float32)
        x = rng.standard_normal((batch, fin)).astype(np.float32)
        e = rng.standard_normal((batch, fout)).astype(np.float32)
        out = np.empty((batch, fout), np.float32)
        dw, scratch = np.empty_like(w), np.empty_like(w)
        forward = (lambda: x @ w.T + b,
                   lambda: np.add(np.matmul(w, x.T).T, b, out=out))
        backward = (lambda: _old_dense_backward(dw, scratch, e, x),
                    lambda: np.matmul(e.T, x, out=dw))
        for phase, (old, new) in (("forward", forward),
                                  ("dW", backward)):
            rows.append(f"| dense {phase} {label} ({batch}x{fin} . "
                        f"{fin}x{fout}) | | {_median_us(old, repeats):.0f} "
                        f"| {_median_us(new, repeats):.0f} |")
    return rows


def test_old_and_new_forms_compute_the_same_bits():
    rng = np.random.default_rng(1)
    for _, fin, fout in dense_shapes():
        w = rng.standard_normal((fout, fin)).astype(np.float32)
        b = rng.standard_normal(fout).astype(np.float32)
        x = rng.standard_normal((8, fin)).astype(np.float32)
        e = rng.standard_normal((8, fout)).astype(np.float32)
        out = np.empty((8, fout), np.float32)
        np.add(np.matmul(w, x.T).T, b, out=out)
        assert out.tobytes() == (x @ w.T + b).tobytes()
        dw, scratch = np.empty_like(w), np.empty_like(w)
        _old_dense_backward(dw, scratch, e, x)
        assert dw.tobytes() == (0 + np.matmul(e.T, x)).tobytes()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--batch", type=int, default=8)
    parser.add_argument("--repeats", type=int, default=200)
    args = parser.parse_args()
    print("| case | size | old (us) | new (us) |")
    print("|---|---|---|---|")
    for row in update_rows(args.repeats) + dense_rows(args.batch,
                                                      args.repeats):
        print(row)


if __name__ == "__main__":
    main()
