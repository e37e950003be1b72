"""The benchmark's in-process sweeps (nesting depth and todo state
size) build servers from the public API only, and its traced server
rebuilds a prepared server through the library's constructors and
engine globals; run them here so that an API change that breaks them
fails the test suite instead of the benchmark."""

import importlib.util
from pathlib import Path

import lenserv.engine as engine
from lenserv.demos import build_combined

BENCH = Path(__file__).resolve().parent.parent / "bench"

# Every span name that bench/layers.py reads.
SPANS = {
    "engine.handle", "routing.split", "routing.run", "servers.view",
    "servers.update", "containers.position", "values.decode",
    "values.encode", "values.conforms", "state.lock_wait", "state.apply_diff",
}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_depth_sweep_runs_on_the_public_api():
    sweeps = _load("sweeps")
    out = sweeps.depth_sweep()   # raises SweepMismatch on a disagreement
    for depth in sweeps.DEPTHS:
        assert out[f"servers.update.depth{depth}_us"] > 0
        assert out[f"servers.handler_calls.depth{depth}"] >= 1


def test_state_sweep_runs_on_the_public_api():
    sweeps = _load("sweeps")
    out = sweeps.state_sweep(1)   # raises SweepMismatch on a disagreement
    for users in sweeps.USER_COUNTS:
        assert out[f"state.apply_diff.users{users}_us"] > 0


def test_traced_server_records_every_span(monkeypatch):
    traced = _load("traced_server")
    for name in ("handle_get", "handle_post", "split_path", "decode_json",
                 "encode_json", "conforms"):
        monkeypatch.setattr(engine, name, getattr(engine, name))  # restored after
    tracer = traced.Tracer()
    p = traced.instrument(engine.prepare(build_combined()), tracer)
    assert engine.handle_get(p, "/calculator/add/2/3").status == 200
    assert engine.handle_post(p, "/iot/boiler", "true").status == 200
    assert engine.handle_get(p, "/nope").status == 404
    assert {span[1] for span in tracer.spans} == SPANS
