import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import free_port, running
from lenserv import cli
from lenserv.cli import _save, main
from lenserv.containers import Container
from lenserv.demos import DEMOS, build_calculator, build_combined, build_iot, build_todo
from lenserv.engine import handle_get, handle_post, prepare
from lenserv.routing import describe_routes
from lenserv.values import (
    Bool,
    Inl,
    Inr,
    List,
    Map,
    Nat,
    Pair,
    Text,
    Unit,
    decode_json,
    encode_json,
)


# ---------------------------------------------------------------- calculator


def test_calculator_arithmetic():
    p = prepare(build_calculator())
    table = [
        ("/add/2/3", "5"),
        ("/sub/2/3", "-1"),
        ("/mul/4/5", "20"),
        ("/div/7/2", "3"),
        ("/div/-7/2", "-3"),  # toward zero, not floorward
        ("/div/7/-2", "-3"),
        ("/div/-7/-2", "3"),
        ("/add/-2/-3", "-5"),
    ]
    for path, body in table:
        r = handle_get(p, path)
        assert (r.status, r.body) == (200, body), path


def test_calculator_division_by_zero_is_400():
    p = prepare(build_calculator())
    r = handle_get(p, "/div/7/0")
    assert r.status == 400
    assert json.loads(r.body) == {"error": "division by zero"}


def test_calculator_results_beyond_the_wire_digit_bound_are_400():
    # A result carries at most as many digits as a capture may have.
    p = prepare(build_combined())
    nines = "9" * sys.get_int_max_str_digits()
    half = nines[: len(nines) // 2 + 1]
    for path in (f"/calculator/mul/{half}/{half}", f"/calculator/add/{nines}/{nines}"):
        r = handle_get(p, path)
        assert r.status == 400
        assert json.loads(r.body) == {
            "error": f"result has more than {len(nines)} digits"}
    r = handle_get(p, f"/calculator/sub/-{nines}/0")
    assert (r.status, r.body) == (200, f"-{nines}")


def test_calculator_routes():
    assert describe_routes(build_calculator().left.shape) == [
        "/add/Int:n1/Int:n2",
        "/sub/Int:n1/Int:n2",
        "/mul/Int:n1/Int:n2",
        "/div/Int:n1/Int:n2",
    ]


# ----------------------------------------------------------------------- iot


def test_iot_defaults_and_focused_writes():
    p = prepare(build_iot())
    for path in ("/boiler", "/lights/1", "/lights/2"):
        assert handle_get(p, path).body == "false"

    r = handle_post(p, "/boiler", "true")
    assert (r.status, r.body) == (200, "null")
    assert handle_get(p, "/boiler").body == "true"
    assert handle_get(p, "/lights/1").body == "false"
    assert handle_get(p, "/lights/2").body == "false"

    handle_post(p, "/lights/1", "true")
    assert handle_get(p, "/lights/1").body == "true"
    assert handle_get(p, "/lights/2").body == "false"
    assert handle_get(p, "/boiler").body == "true"

    # the live state is the bare boolean tree
    assert p.cell.snapshot() == Pair(Bool(True), Pair(Bool(True), Bool(False)))


def test_iot_routes():
    assert describe_routes(build_iot().left.shape) == [
        "/boiler",
        "/lights/1",
        "/lights/2",
    ]


def test_iot_rejects_non_boolean_bodies():
    p = prepare(build_iot())
    assert handle_post(p, "/boiler", "1").status == 400
    assert handle_post(p, "/boiler", '"true"').status == 400


# ---------------------------------------------------------------------- todo


def test_todo_prepend_and_listing():
    p = prepare(build_todo())
    assert handle_get(p, "/all/7").body == "[]"
    assert handle_post(p, "/add/7", '"Buy milk"').status == 200
    assert handle_post(p, "/add/7", '"Call"').status == 200
    assert handle_get(p, "/all/7").body == '["Call","Buy milk"]'
    assert handle_get(p, "/all/9").body == "[]"
    # other users' lists are independent
    handle_post(p, "/add/9", '"x"')
    assert handle_get(p, "/all/7").body == '["Call","Buy milk"]'


def test_todo_error_paths():
    p = prepare(build_todo())
    assert handle_post(p, "/add/7", "42").status == 400
    assert handle_post(p, "/add/x", '"y"').status == 404
    assert handle_get(p, "/all/-3").status == 404  # user ids are naturals
    assert handle_get(p, "/all").status == 404


def test_todo_routes():
    assert describe_routes(build_todo().left.shape) == [
        "/all/Nat:n1",
        "/add/Nat:n1",
    ]


# ------------------------------------------------------------------- combined


COMBINED_ROUTES = [
    "/todo/all/Nat:n1",
    "/todo/add/Nat:n1",
    "/calculator/add/Int:n1/Int:n2",
    "/calculator/sub/Int:n1/Int:n2",
    "/calculator/mul/Int:n1/Int:n2",
    "/calculator/div/Int:n1/Int:n2",
    "/iot/boiler",
    "/iot/lights/1",
    "/iot/lights/2",
]


def test_combined_routes():
    assert describe_routes(build_combined().left.shape) == COMBINED_ROUTES


def test_combined_keeps_three_separate_states():
    p = prepare(build_combined())
    handle_post(p, "/todo/add/1", '"x"')
    handle_post(p, "/iot/boiler", "true")
    assert handle_get(p, "/calculator/add/2/3").body == "5"
    assert handle_get(p, "/todo/all/1").body == '["x"]'
    assert handle_get(p, "/iot/boiler").body == "true"

    st = p.cell.snapshot()
    assert st.first == Map(((Nat(1), List((Text("x"),))),))
    assert st.second.first == Unit()
    assert st.second.second == Pair(Bool(True), Pair(Bool(False), Bool(False)))
    assert encode_json(st) == '[[[1,["x"]]],[null,[true,[false,false]]]]'


def test_combined_unprefixed_paths_do_not_exist():
    p = prepare(build_combined())
    assert handle_get(p, "/add/2/3").status == 404
    assert handle_get(p, "/boiler").status == 404
    assert handle_get(p, "/all/7").status == 404


def _formless(c):
    """``c`` and every container inside its form that has no form."""
    if c.form is None:
        yield c
    else:
        for part in c.form[1:]:
            if isinstance(part, Container):
                yield from _formless(part)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_every_container_of_a_demo_carries_a_form(name):
    s = DEMOS[name]()
    for c in (s.left, s.param, s.right):
        assert list(_formless(c)) == [], c


# ------------------------------------------------------------------------ cli


def test_cli_routes_prints_the_grammar(capsys):
    assert main(["routes", "--server", "calculator"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == [
        "/add/Int:n1/Int:n2",
        "/sub/Int:n1/Int:n2",
        "/mul/Int:n1/Int:n2",
        "/div/Int:n1/Int:n2",
    ]
    assert main(["routes", "--server", "combined"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == COMBINED_ROUTES


def test_cli_rejects_unknown_server():
    with pytest.raises(SystemExit) as exc:
        main(["routes", "--server", "blog"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["serve", "--server", "blog"])
    assert exc.value.code == 2


def test_cli_names_every_demo():
    assert sorted(DEMOS) == ["calculator", "combined", "iot", "todo"]
    for build in DEMOS.values():
        prepare(build())  # every bundled demo is actually runnable


def _wait_for_port(port, proc, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise AssertionError(f"server exited early: {proc.returncode}")
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=0.2):
                return
        except OSError:
            time.sleep(0.05)
    raise AssertionError("server never came up")


def test_cli_serve_with_snapshot_roundtrip(tmp_path):
    snap = tmp_path / "todo.json"
    port = free_port()
    cmd = [sys.executable, "-m", "lenserv.cli", "serve", "--server", "todo",
           "--port", str(port), "--snapshot", str(snap)]

    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        _wait_for_port(port, proc)
        from conftest import Client

        c = Client(port)
        assert c.post("/add/7", '"persist me"') == (200, "null")
        c.close()
    finally:
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 0

    assert json.loads(snap.read_text()) == [[7, ["persist me"]]]
    assert decode_json(build_todo().param.shape, snap.read_text()) == Map(
        ((Nat(7), List((Text("persist me"),))),))
    assert list(tmp_path.iterdir()) == [snap]   # no temp file left behind

    # a fresh process picks the state back up
    port2 = free_port()
    cmd2 = [sys.executable, "-m", "lenserv.cli", "serve", "--server", "todo",
            "--port", str(port2), "--snapshot", str(snap)]
    proc = subprocess.Popen(cmd2, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        _wait_for_port(port2, proc)
        from conftest import Client

        c = Client(port2)
        assert c.get("/all/7") == (200, '["persist me"]')
        assert c.post("/add/7", '"and me"') == (200, "null")
        c.close()
    finally:
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 0

    # the second shutdown replaced the existing file whole
    assert json.loads(snap.read_text()) == [[7, ["and me", "persist me"]]]
    assert list(tmp_path.iterdir()) == [snap]


def test_cli_serve_logs_only_its_start_and_stop():
    port = free_port()
    proc = subprocess.Popen(
        [sys.executable, "-m", "lenserv.cli", "serve", "--server", "todo", "--port", str(port)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        _wait_for_port(port, proc)
        from conftest import Client

        c = Client(port)
        for user in range(10):
            assert c.post(f"/add/{user}", '"x"') == (200, "null")
            assert c.get(f"/all/{user}") == (200, '["x"]')
        c.close()
    finally:
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=10)
    assert proc.returncode == 0
    lines = err.splitlines()
    assert len(lines) == 2, err
    first, last = lines
    assert first.endswith(f" listening on 127.0.0.1:{port}")
    assert last.endswith(" shut down")


def test_snapshot_write_that_fails_keeps_the_old_copy(tmp_path, monkeypatch):
    snap = tmp_path / "state.json"
    snap.write_text("[[1,[\"old\"]]]")

    def crash(fd):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", crash)
    with pytest.raises(OSError):
        _save(snap, "[[1,[\"new\"]]]")
    assert snap.read_text() == "[[1,[\"old\"]]]"
    assert list(tmp_path.iterdir()) == [snap]


def test_cli_serve_rejects_bad_snapshot(tmp_path):
    snap = tmp_path / "bad.json"
    snap.write_text('{"not": "a map"}')
    assert main(["serve", "--server", "todo", "--port", str(free_port()),
                 "--snapshot", str(snap)]) == 1


def test_cli_serve_rejects_a_snapshot_holding_a_lone_surrogate(tmp_path, capsys, monkeypatch):
    # It could be neither answered over the wire nor saved back.
    def serve(p):
        raise AssertionError("served a state holding a lone surrogate")

    monkeypatch.setattr(cli, "serve", serve)
    snap = tmp_path / "surrogate.json"
    snap.write_text('[[1,["\\ud800"]]]')
    assert main(["serve", "--server", "todo", "--port", str(free_port()),
                 "--snapshot", str(snap)]) == 1
    assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize("make", [
    lambda path: path.write_bytes(b"[[1,[\"\xff\"]]]"),
    lambda path: path.mkdir(),
], ids=["not_utf8", "a_directory"])
def test_cli_serve_reports_an_unreadable_snapshot(tmp_path, capsys, make):
    snap = tmp_path / "state.json"
    make(snap)
    assert main(["serve", "--server", "todo", "--port", str(free_port()),
                 "--snapshot", str(snap)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read snapshot {snap}: ") and len(err.splitlines()) == 1


def test_cli_serve_rejects_bad_port():
    assert main(["serve", "--server", "todo", "--port", "0"]) == 1


DEMO_SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMO_SCRIPTS, ids=lambda path: path.stem)
def test_demo_script_runs(script):
    env = {**os.environ, "PYTHONPATH": str(script.parents[1] / "src")}
    done = subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
