"""Shared test plumbing: free ports, a tiny HTTP client, a context
manager that runs a server value on a real socket for a test's duration,
a counter server, and the address-book lenses several suites check the
laws on."""

import socket
from contextlib import contextmanager
from http.client import HTTPConnection

from lenserv import (
    Bool, BoolS, DepLens, EngineConfig, Int, IntS, List, ListS, ProdS, TextS,
    UnitS, const_of, fst_lens, get_lens, post_lens, prepare, serve_background,
    snd_lens,
)


# A little address book, the classic example of focused record access.
ADDRESS = ProdS(TextS(), ProdS(TextS(), IntS()))       # city, (street, number)
USER = ProdS(TextS(), ProdS(ADDRESS, TextS()))         # name, (address, birthdate)

address_lens = snd_lens(USER) >> fst_lens(ProdS(ADDRESS, TextS()))
street_number_lens = snd_lens(ADDRESS) >> snd_lens(ProdS(TextS(), IntS()))

# Appending looks like an update but is not one: pushing the same value
# twice is not the same as pushing it once, so put-put must fail.
append_lens = DepLens(
    const_of(ListS(BoolS())),
    const_of(BoolS()),
    view=lambda xs: xs.items[-1] if xs.items else Bool(False),
    update=lambda xs, v: List(xs.items + (v,)),
)


def counter():
    """GET /peek reads an int; POST /add/<n> with body b adds n*b;
    POST /tally with a text body adds its length."""
    c = const_of(IntS())
    read = get_lens(UnitS(), c, IntS(), lambda st, u: st)
    add = post_lens(IntS(), c, IntS(), lambda st, n, body: Int(st.i + n.i * body.i))
    tally = post_lens(UnitS(), c, TextS(), lambda st, u, body: Int(st.i + len(body.s)))
    return ("peek" / read) & ("add" / add) & ("tally" / tally)


def free_port() -> int:
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


class Client:
    """One keep-alive connection to one server."""

    def __init__(self, port: int):
        self.conn = HTTPConnection("127.0.0.1", port, timeout=10)

    def request(self, method: str, path: str, body: str | None = None):
        self.conn.request(method, path, body=body)
        r = self.conn.getresponse()
        return r.status, r.read().decode("utf-8")

    def get(self, path: str):
        return self.request("GET", path)

    def post(self, path: str, body: str):
        return self.request("POST", path, body)

    def close(self):
        self.conn.close()


@contextmanager
def running(server, initial=None):
    """Serve ``server`` on a fresh port; yield (prepared, client)."""
    p = prepare(server, EngineConfig(port=free_port()), initial=initial)
    httpd = serve_background(p)
    client = Client(p.config.port)
    try:
        yield p, client
    finally:
        client.close()
        httpd.shutdown()
        httpd.server_close()
