"""Reference engine wrapping :mod:`repro.ops.reference` as a ConvEngine.

Used as the oracle in engine-equivalence tests and as a safe fallback in
the autotuner's candidate set.
"""

from __future__ import annotations

import numpy as np

from repro.ops import reference
from repro.ops.engine import ConvEngine, register_engine


@register_engine("reference")
class ReferenceEngine(ConvEngine):
    """Vectorized reference convolution over a batch."""

    def forward(self, inputs: np.ndarray, weights: np.ndarray) -> np.ndarray:
        self._check_batch_inputs(inputs)
        self._check_weights(weights)
        return reference.batch_forward(self.spec, inputs, weights)

    def backward_data(self, out_error: np.ndarray, weights: np.ndarray,
                      crop: int = 0) -> np.ndarray:
        self._check_batch_out_error(out_error)
        self._check_weights(weights)
        return self._cropped(
            reference.batch_backward_data(self.spec, out_error, weights), crop)

    def backward_weights(self, out_error: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        self._check_batch_out_error(out_error)
        self._check_batch_inputs(inputs)
        return reference.batch_backward_weights(self.spec, out_error, inputs)
