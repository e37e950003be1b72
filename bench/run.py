"""lenserv benchmark: HTTP traffic mixes end to end, and a traced split
across layers.

    python3 bench/run.py --workload read_mix --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload in turn

Run from anywhere inside a checkout; the server is built from ``src/``.
A run is a sequence of rounds until ``--seconds`` have passed.  Each
round starts a fresh server on a fresh copy of the workload's state
file, replays the workload's seeded request lists over keep-alive
loopback connections (one thread and one connection each, closed loop),
checks every response and the state file the server writes on SIGTERM
against the reference model, and stops the server.

With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` rounds alternate between the plain server and the traced
launcher, and the per-layer metrics and in-process sweeps are printed.
Metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``bench/README.md`` for what each
workload and metric is for.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import layers
import loadgen
import workloads
from launch import ServerProcess


BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_ROUNDS = 3          # setup_s is the median of at least this many starts
MIN_TRACE_ROUNDS = 4    # two plain and two traced rounds


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks; 0.0 when empty."""
    s = sorted(values)
    if not s:
        return 0.0
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


@dataclass
class Round:
    traced: bool
    setup_s: float
    wall_s: float
    cpu_s: float
    rss_mb: float
    samples: list
    snapshot_ok: bool
    layers: "layers.RoundLayers | None"

    def completed(self) -> int:
        return sum(s.latency_ns is not None for s in self.samples)


def run_round(plan, work: Path, traced: bool) -> Round:
    snapshot = work / "state.json"
    spans = work / "spans.json"
    snapshot.write_text(plan.snapshot, "utf-8")
    spans.unlink(missing_ok=True)
    if traced:
        argv = [str(BENCH / "traced_server.py"), "--spans", str(spans)]
    else:
        argv = ["-m", "lenserv.cli", "serve"]
    argv += ["--server", plan.demo, "--snapshot", str(snapshot)]
    server = ServerProcess(ROOT, argv, work / "server.log")
    try:
        setup = server.start()
        before = server.thread_cpu_ns()
        samples, wall, after = loadgen.replay(server.port, plan.connections,
                                              server.thread_cpu_ns)
        # Threads that ended in between took the rest of their time with them.
        cpu = sum(ns - before.get(tid, 0) for tid, ns in after.items()) / 1e9
        rss = server.peak_rss_mb()
    finally:
        code = server.stop()
    snapshot_ok = code == 0 and plan.snapshot_matches(snapshot.read_text("utf-8"))
    trace = None
    if traced:
        trace = layers.analyse(json.loads(spans.read_text()), samples, plan.connections)
    return Round(traced, setup, wall, cpu, rss, samples, snapshot_ok, trace)


def run_rounds(plan, seconds: float, trace: bool, work: Path) -> list:
    rounds = []
    least = MIN_TRACE_ROUNDS if trace else MIN_ROUNDS
    deadline = perf_counter() + seconds
    while len(rounds) < least or perf_counter() < deadline or (trace and len(rounds) % 2):
        rounds.append(run_round(plan, work, traced=trace and len(rounds) % 2 == 1))
    return rounds


def end_to_end(rounds: list) -> tuple:
    """Metrics and sample counts over every round of a plain run."""
    done = [s for r in rounds for s in r.samples if s.latency_ns is not None]
    by_class = {"all": done,
                "get": [s for s in done if s.method == "GET"],
                "post": [s for s in done if s.method == "POST"]}
    ms = {k: [s.latency_ns / 1e6 for s in v] for k, v in by_class.items()}
    metrics = {
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "throughput_rps": len(done) / sum(r.wall_s for r in rounds),
        "server_cpu_us_per_req": statistics.median(
            r.cpu_s / max(r.completed(), 1) for r in rounds) * 1e6,
        "server_peak_rss_mb": statistics.fmean(r.rss_mb for r in rounds),
    }
    samples = {"setup_s": len(rounds), "server_cpu_us_per_req": len(rounds)}
    for prefix, cls in (("latency", "all"), ("get", "get"), ("post", "post")):
        if ms[cls]:
            for q in (50, 90):
                metrics[f"{prefix}_p{q}_ms"] = percentile(ms[cls], q / 100)
                samples[f"{prefix}_p{q}_ms"] = len(ms[cls])
    return metrics, samples


def per_layer(rounds: list) -> tuple:
    """Per-layer metrics over the traced rounds, with the tracing
    overhead against the plain rounds of the same run, and sample counts."""
    traced = [r.layers for r in rounds if r.traced]
    pooled = defaultdict(list)
    for t in traced:
        for name, values in t.durations_us.items():
            pooled[name] += values
    metrics, samples = {}, {}
    for name in layers.SPAN_LAYERS + ("routing.parse", "engine.http"):
        for q in (50, 90):
            metrics[f"{name}.p{q}_us"] = percentile(pooled[name], q / 100)
            samples[f"{name}.p{q}_us"] = len(pooled[name])
    for name in layers.SPAN_LAYERS + ("routing.parse",):
        metrics[f"{name}.self_ms"] = statistics.fmean(t.self_ms[name] for t in traced)
    for name in layers.COUNTS:
        metrics[name] = statistics.fmean(t.counts[name] for t in traced)
    rps = {}
    for flag in (False, True):
        chosen = [r for r in rounds if r.traced == flag]
        rps[flag] = sum(r.completed() for r in chosen) / sum(r.wall_s for r in chosen)
    metrics["trace.overhead_pct"] = (rps[False] - rps[True]) / rps[False] * 100
    return metrics, samples


def unit_of(name: str, units: dict) -> str:
    if name in units:
        return units[name]
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count" if "calls" in name else ""


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    context = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "network": "loopback 127.0.0.1 only", "loadavg_start": os.getloadavg(),
    }
    plan = workloads.make_plan(name, seed)
    context.update(demo=plan.demo, connections=len(plan.connections),
                   loop="closed", requests_per_round=plan.requests())
    holder = ROOT / ".bench_work"
    holder.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=holder))
    try:
        rounds = run_rounds(plan, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            holder.rmdir()
        except OSError:
            pass   # another run still uses it

    samples = [s for r in rounds for s in r.samples]
    attempted = len(samples) + len(rounds)          # each request, each state-file check
    failed = sum(not s.ok for s in samples) + sum(not r.snapshot_ok for r in rounds)
    context.update(rounds=len(rounds), traced_rounds=sum(r.traced for r in rounds),
                   requests={m: sum(s.method == m for s in samples) for m in ("GET", "POST")})

    if trace:
        sys.path.insert(0, str(ROOT / "src"))
        import sweeps   # imports lenserv, which only the sweeps need in this process
        wanted = spec["per_layer"]
        computed, counts = per_layer(rounds)
        attempted += 2                              # the two sweeps' twin checks
        try:
            computed.update(sweeps.depth_sweep())
            computed.update(sweeps.state_sweep(seed))
        except sweeps.SweepMismatch as exc:
            print(f"sweep mismatch: {exc}", file=sys.stderr)
            failed += 1
    else:
        wanted = spec["end_to_end"]
        computed, counts = end_to_end(rounds)
    computed["error_rate"] = failed / attempted

    print("context " + json.dumps(context))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for key in sorted(computed):
        note = f"  n={counts[key]}" if key in counts else ""
        print(f"{name:10s} {key:36s} {computed[key]:14.4f} {unit_of(key, units)}{note}")
    print(f"{name:10s} {'failed/attempted':36s} {failed:>9d}/{attempted}")
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in computed}
    missing = [m["name"] for m in wanted if m["name"] not in computed]
    return {"correct": failed == 0 and not missing, "attempted": attempted,
            "failed": failed + len(missing), "metrics": metrics}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lenserv" / "cli.py").is_file():
        print(f"no lenserv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    chosen = names if args.workload == "all" else [args.workload]
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), spec)
               for w in chosen}
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
