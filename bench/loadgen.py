"""Closed-loop keep-alive load over loopback.

Each connection is a thread with one socket that sends its next request
only after the previous response has been read in full.  The client
writes each request in a single ``sendall`` and sets ``TCP_NODELAY``,
so any stall between request and response is the server's.
"""

import socket
import threading
from dataclasses import dataclass
from time import perf_counter, perf_counter_ns


IO_TIMEOUT_S = 20.0


class Connection:
    """One HTTP/1.1 keep-alive connection to ``127.0.0.1:port``."""

    def __init__(self, port: int, timeout: float = IO_TIMEOUT_S):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def close(self) -> None:
        self.sock.close()

    def _fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk

    def exchange(self, method: str, path: str, body: str | None) -> tuple:
        """Send one request and return ``(status, body text)``."""
        data = body.encode("utf-8") if body is not None else b""
        head = f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        if body is not None:
            head += f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
        self.sock.sendall((head + "\r\n").encode("ascii") + data)
        while b"\r\n\r\n" not in self.buf:
            self._fill()
        header, _, rest = self.buf.partition(b"\r\n\r\n")
        lines = header.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        self.buf = rest
        while len(self.buf) < length:
            self._fill()
        payload, self.buf = self.buf[:length], self.buf[length:]
        return status, payload.decode("utf-8", errors="replace")


@dataclass(frozen=True)
class Sample:
    conn: int
    seq: int
    method: str
    latency_ns: int | None    # None when the transport failed
    ok: bool                  # response matched the reference model


def _replay_one(conn: Connection, index: int, requests, out: list) -> None:
    for seq, req in enumerate(requests):
        t0 = perf_counter_ns()
        try:
            status, body = conn.exchange(req.method, req.path, req.body)
        except (OSError, ValueError, IndexError):
            # The connection is unusable; the rest of this list fails.
            out.extend(Sample(index, s, r.method, None, False)
                       for s, r in enumerate(requests[seq:], start=seq))
            return
        latency = perf_counter_ns() - t0
        out.append(Sample(index, seq, req.method, latency, req.matches(status, body)))


def replay(port: int, lists, measure) -> tuple:
    """Replay one request list per connection, all at once.  ``measure()``
    runs after the last response and before the connections close, while
    the server's connection threads still exist.  Returns ``(samples,
    wall seconds, what measure returned)``."""
    conns = [Connection(port) for _ in lists]
    outs = [[] for _ in lists]
    start = threading.Barrier(len(lists) + 1)

    def worker(i):
        start.wait()
        _replay_one(conns[i], i, lists[i], outs[i])

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(lists))]
    try:
        for t in threads:
            t.start()
        start.wait()
        t0 = perf_counter()
        for t in threads:
            t.join()
        wall = perf_counter() - t0
        measured = measure()
    finally:
        for c in conns:
            c.close()
    return [s for out in outs for s in out], wall, measured
