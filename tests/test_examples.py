"""Smoke tests executing every example script end to end."""

import io
import runpy
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, argv: list[str] | None = None) -> str:
    """Execute an example as ``__main__`` with captured stdout."""
    buffer = io.StringIO()
    old_argv = sys.argv
    sys.argv = [name] + (argv or [])
    try:
        with redirect_stdout(buffer):
            runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv
    return buffer.getvalue()


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "Characterization" in out
        assert "chosen FP engine" in out
        assert "max deviation" in out

    def test_characterize_convolution(self):
        out = run_example("characterize_convolution.py",
                          ["32", "32", "32", "4", "1", "0.9"])
        assert "Fig. 1 region" in out
        assert "spg-CNN would deploy" in out

    def test_characterize_rejects_bad_args(self):
        with pytest.raises(SystemExit):
            run_example("characterize_convolution.py", ["1", "2"])

    def test_train_with_spgcnn(self):
        out = run_example("train_with_spgcnn.py")
        assert "Initial plan" in out
        assert "Final plan" in out
        assert "sparse" in out  # the retune to sparse BP happened
        assert "after step 1, re-tuned" in out  # planned at step 1

    def test_cifar_end_to_end(self):
        out = run_example("cifar_end_to_end.py", ["0.85"])
        assert "CAFFE peak" in out
        assert "end-to-end speedup vs CAFFE" in out

    def test_explain_and_profile(self):
        out = run_example("explain_and_profile.py")
        assert "hottest layer" in out
        assert "lane breakdown" in out
        assert "engines deployed" in out
