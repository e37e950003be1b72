"""Per-layer figures from the spans one traced round wrote.

Layer names follow the library's modules.  ``routing.parse`` is
``split_path`` plus the route parser's ``run``; ``engine.http`` is what
the client saw minus the ``engine.handle`` span: socket, HTTP parsing,
request logging and any stall between them.

Self time is a span's duration minus the durations of its direct
children.
"""

from collections import defaultdict


SPAN_LAYERS = (
    "engine.handle", "servers.view", "servers.update", "containers.position",
    "values.decode", "values.encode", "values.conforms", "state.lock_wait",
    "state.apply_diff",
)
PARSE_SPANS = ("routing.split", "routing.run")
COUNTS = ("engine.handle.calls", "engine.status_4xx", "engine.status_5xx",
          "values.encode.bytes_out")


class RoundLayers:
    """Durations in microseconds pooled per layer, and per-round totals."""

    def __init__(self):
        self.durations_us = defaultdict(list)   # layer -> one entry per call or request
        self.self_ms = defaultdict(float)       # layer -> self time summed over the round
        self.counts = defaultdict(int)


def _match_threads(requests, lists) -> dict:
    """Map (connection, seq) to the server's request id.  A keep-alive
    connection is served by one thread in order, so a thread whose
    (method, path) sequence equals a connection's list served it."""
    by_thread = defaultdict(list)
    for rid, thread, method, path, _status, _bytes in sorted(requests):
        by_thread[thread].append((rid, (method, path)))
    out = {}
    for conn, reqs in enumerate(lists):
        want = [(r.method, r.path) for r in reqs]
        thread = next((t for t, served in by_thread.items()
                       if [k for _, k in served] == want), None)
        if thread is not None:
            served = by_thread.pop(thread)
            out.update(((conn, seq), rid) for seq, (rid, _) in enumerate(served))
    return out


def analyse(trace: dict, samples, lists) -> RoundLayers:
    ids = _match_threads(trace["requests"], lists)
    wanted = set(ids.values())
    spans = [s for s in trace["spans"] if s[5] in wanted]
    children = defaultdict(int)
    for _sid, _name, t0, t1, parent, _rid in spans:
        if parent is not None:
            children[parent] += t1 - t0

    out = RoundLayers()
    handle_ns, parse_ns = {}, defaultdict(int)
    for sid, name, t0, t1, _parent, rid in spans:
        took = t1 - t0
        own = (took - children[sid]) / 1e6
        if name in PARSE_SPANS:
            parse_ns[rid] += took
            out.self_ms["routing.parse"] += own
            continue
        out.durations_us[name].append(took / 1000)
        out.self_ms[name] += own
        if name == "engine.handle":
            handle_ns[rid] = took
    out.durations_us["routing.parse"] = [ns / 1000 for ns in parse_ns.values()]

    for s in samples:
        rid = ids.get((s.conn, s.seq))
        if rid is not None and s.latency_ns is not None and rid in handle_ns:
            out.durations_us["engine.http"].append((s.latency_ns - handle_ns[rid]) / 1000)

    for rid, _thread, _method, _path, status, nbytes in trace["requests"]:
        if rid in wanted:
            status = status or 500   # no status: the handler raised
            out.counts["engine.handle.calls"] += 1
            out.counts["engine.status_4xx"] += 400 <= status < 500
            out.counts["engine.status_5xx"] += status >= 500
            out.counts["values.encode.bytes_out"] += nbytes
    return out
