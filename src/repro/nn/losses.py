"""Loss functions for training."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise numerically stable softmax over ``[B, classes]`` logits."""
    if logits.ndim != 2:
        raise ShapeError(f"expected [B, classes] logits, got {logits.shape}")
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def check_labels(labels: np.ndarray, batch: int, classes: int) -> None:
    """Reject labels that do not index ``[batch, classes]`` logits."""
    if labels.ndim != 1 or labels.shape[0] != batch:
        raise ShapeError(
            f"labels shape {labels.shape} incompatible with logits "
            f"{(batch, classes)}"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise ShapeError("label index out of range")


def cross_entropy_grad(logits: np.ndarray, labels: np.ndarray,
                       batch: int) -> np.ndarray:
    """Rows of the mean cross-entropy's gradient w.r.t. the logits.

    ``batch`` is the denominator of the mean.  Every step is row-wise,
    so a shard of a batch computes its rows bit-for-bit as the whole
    batch would, given the whole batch's size.
    """
    return _loss_grad(softmax(logits), labels, batch, logits.dtype)


def _loss_grad(probs: np.ndarray, labels: np.ndarray, batch: int,
               dtype: np.dtype) -> np.ndarray:
    """Turn softmax rows into gradient rows, in place."""
    probs[np.arange(probs.shape[0]), labels] -= 1.0
    probs /= batch
    return probs.astype(dtype, copy=False)


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy loss and its gradient w.r.t. the logits.

    ``labels`` are integer class indices of shape ``[B]``.  The returned
    gradient is already averaged over the batch, ready to feed the
    network's backward pass.
    """
    batch = logits.shape[0]
    check_labels(labels, batch, logits.shape[1])
    probs = softmax(logits)
    eps = np.finfo(probs.dtype).tiny
    loss = float(-np.log(probs[np.arange(batch), labels] + eps).mean())
    return loss, _loss_grad(probs, labels, batch, logits.dtype)


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 classification accuracy."""
    if labels.shape[0] == 0:
        return 0.0
    return float((logits.argmax(axis=1) == labels).mean())
