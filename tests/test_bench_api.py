"""The benchmark's in-process sweeps build servers from the public API
only; run one here so that an API change that breaks them fails the
test suite instead of the benchmark."""

import importlib.util
from pathlib import Path

SWEEPS = Path(__file__).resolve().parent.parent / "bench" / "sweeps.py"


def _load_sweeps():
    spec = importlib.util.spec_from_file_location("bench_sweeps", SWEEPS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_depth_sweep_runs_on_the_public_api():
    sweeps = _load_sweeps()
    out = sweeps.depth_sweep()   # raises SweepMismatch on a disagreement
    for depth in sweeps.DEPTHS:
        assert out[f"servers.update.depth{depth}_us"] > 0
        assert out[f"servers.handler_calls.depth{depth}"] >= 1
