"""The compile/run service: session loop, ops, error paths, TCP.

Most tests drive the server through :meth:`ServiceServer.loopback` —
the identical ``serve_session`` dispatch loop as TCP, over an in-process
transport whose JSON round-trip proves every response is serializable.
The TCP tests at the bottom cover the real socket path and shutdown.
"""

import numpy as np
import pytest

from repro.service import (
    ServiceClient,
    ServiceError,
    ServiceServer,
    default_manager,
)
from repro.service.cache import CompileCache

SRC = "x = ones(8, 8);\ndisp(sum(sum(x)));\n"
SRC_FUN = "a = double_it(21);\ndisp(a);\n"
MFILES = {"double_it": "function y = double_it(x)\ny = x * 2;\n"}


@pytest.fixture
def server():
    return ServiceServer(cache=CompileCache(disk_root=False))


@pytest.fixture
def client(server):
    with server.loopback() as c:
        yield c


# ---------------------------------------------------------------------- #
# ops
# ---------------------------------------------------------------------- #


def test_ping(client):
    reply = client.ping()
    assert reply["pong"] and reply["session"] == 1
    assert reply["protocol"] == 1


def test_compile_then_run_shares_the_key(server, client):
    compiled = client.compile(SRC, nprocs=4)
    assert not compiled["cached"] and compiled["passes"]
    ran = client.run(SRC, nprocs=4)
    assert ran["cached"] and ran["key"] == compiled["key"]
    assert ran["passes"] == []
    assert ran["output"].strip() == "64"
    assert server.cache.stats()["compiles"] == 1


def test_one_program_serves_every_run_configuration(server, client):
    cold = client.run(SRC, nprocs=2)
    for cfg in (dict(nprocs=8), dict(nprocs=4, machine="cluster"),
                dict(nprocs=4, backend="fused", native="off")):
        warm = client.run(SRC, **cfg)
        assert warm["cached"] and warm["passes"] == []
        assert warm["key"] == cold["key"] and "shared" not in warm
        assert warm["output"] == cold["output"]
    assert server.cache.stats()["compiles"] == 1


RUN_FACTS = ("output", "elapsed", "rank_times", "messages", "bytes",
             "collectives", "workspace")


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_run_time_plan_of_an_earlier_request_never_leaks(order, plan_src,
                                                          runtime_plan):
    """Requests whose plans differ only in run-time fields share one
    compiled program, and each models what a fresh server given that
    plan alone models — whichever came first."""
    plans = ({}, runtime_plan.as_dict())
    cfg = dict(nprocs=8, machine="meiko", backend="fused")

    def fresh():
        return ServiceServer(cache=CompileCache(disk_root=False))

    expected = []
    for plan in plans:
        with fresh().loopback() as alone:
            expected.append(alone.run(plan_src, plan=plan, **cfg))
    assert expected[0]["elapsed"] != expected[1]["elapsed"]

    shared = fresh()
    with shared.loopback() as client:
        replies = {i: client.run(plan_src, plan=plans[i], **cfg)
                   for i in order}
    for i in order:
        for fact in RUN_FACTS:
            assert replies[i][fact] == expected[i][fact], (i, fact)
    assert replies[0]["key"] == replies[1]["key"]
    assert [replies[i]["cached"] for i in order] == [False, True]
    assert shared.cache.stats()["compiles"] == 1


def test_cold_and_warm_runs_are_identical(client):
    cold = client.run(SRC, nprocs=4)
    warm = client.run(SRC, nprocs=4)
    assert not cold["cached"] and warm["cached"] and warm["tier"] == "memory"
    assert warm["passes"] == []
    for field in ("output", "elapsed", "rank_times", "messages", "bytes",
                  "collectives", "workspace"):
        assert warm[field] == cold[field]


def test_run_reports_modeled_numbers_and_workspace(client):
    reply = client.run("s = 2.5;\nm = ones(2, 3);\nt = 'hi';\n", nprocs=2)
    assert reply["elapsed"] > 0 and len(reply["rank_times"]) == 2
    ws = reply["workspace"]
    assert ws["s"] == {"type": "double", "data": 2.5}
    assert ws["m"]["type"] == "matrix" and ws["m"]["shape"] == [2, 3]
    assert ws["t"] == {"type": "char", "data": "hi"}


def test_mfiles_travel_with_the_request(client):
    reply = client.run(SRC_FUN, nprocs=2, mfiles=MFILES)
    assert reply["output"].strip() == "42"


def test_trace_op_is_deterministic(client):
    first = client.trace(SRC, nprocs=4)
    second = client.trace(SRC, nprocs=4)
    assert first["trace"]["sha"] == second["trace"]["sha"]
    assert first["trace"]["events"] > 0
    assert "pass_report" in second["trace"]
    assert "[cache] hit" in second["trace"]["pass_report"]
    assert SRC.splitlines()[0].split(";")[0] in first["trace"]["profile"]


def test_run_with_trace_flag_returns_the_sha(client):
    reply = client.run(SRC, nprocs=2, trace=True)
    assert set(reply["trace"]) == {"sha", "events"}


def test_hosted_data_is_shared_across_sessions(server):
    default_manager().save_matrix("mem://srv/grid",
                                  np.arange(16.0).reshape(4, 4))
    src = ("a = load('mem://srv/grid');\n"
           "save('mem://srv/out', a);\n"
           "disp(sum(sum(a)));\n")
    with server.loopback() as one:
        assert one.run(src, nprocs=4)["output"].strip() == "120"
    with server.loopback() as two:
        assert two.run(src, nprocs=4)["cached"]
    out = default_manager().load_matrix("mem://srv/out")
    assert float(out.sum()) == 120.0


def test_stats_reports_cache_counters_and_schemes(client):
    client.run(SRC, nprocs=2)
    reply = client.stats()
    assert reply["cache"]["compiles"] == 1
    assert reply["counters"]["runs"] == 1
    assert reply["store_schemes"] == ["file", "mem"]


# ---------------------------------------------------------------------- #
# error paths — the session must survive every one of them
# ---------------------------------------------------------------------- #


def test_unknown_op_is_a_structured_error(client):
    with pytest.raises(ServiceError) as err:
        client._checked("frobnicate")
    assert "unknown op" in str(err.value)
    assert client.ping()["pong"]          # session survived


def test_missing_source_and_bad_nprocs(client):
    with pytest.raises(ServiceError):
        client.compile(None)
    with pytest.raises(ServiceError) as err:
        client.run(SRC, nprocs=0)
    assert "nprocs" in str(err.value)
    assert client.ping()["pong"]


def test_compile_diagnostics_carry_their_type(client):
    with pytest.raises(ServiceError) as err:
        client.run("x = undefined_fn(3);\n", nprocs=2)
    assert err.value.kind == "ResolutionError"
    assert "undefined_fn" in str(err.value)


def test_failed_run_releases_the_session_memory_tracker(client):
    """Regression: a failing run must not leave its thread-local memory
    tracker installed on the session thread (the stats op exposes the
    probe)."""
    with pytest.raises(ServiceError):
        client.run("x = ones(2, 2);\nerror('boom');\n", nprocs=1)
    reply = client.stats()
    assert reply["tracker_installed"] is False
    assert reply["counters"]["errors"] == 1
    # and the session still works
    assert client.run(SRC, nprocs=2)["output"].strip() == "64"


def test_watchdog_aborts_only_the_request(client):
    slow = ("s = 0;\n"
            "for i = 1:5000\n"
            "  s = s + sum(sum(ones(8, 8)));\n"
            "end\n"
            "disp(s);\n")
    with pytest.raises(ServiceError) as err:
        client.run(slow, nprocs=2, watchdog=1e-6)
    assert err.value.kind == "SpmdWatchdogError"
    assert client.run(SRC, nprocs=2)["output"].strip() == "64"
    assert client.stats()["tracker_installed"] is False


# ---------------------------------------------------------------------- #
# request configuration: one carrier per choice, validated up front
# ---------------------------------------------------------------------- #


def test_scheme_field_overrides_the_request_plan(plan_src):
    """``scheme`` next to a ``plan`` used to be clobbered by the plan's
    own (default) scheme and silently ran block."""
    cfg = dict(nprocs=4, machine="meiko", backend="fused", trace=True)

    def fresh_run(**fields):
        server = ServiceServer(cache=CompileCache(disk_root=False))
        with server.loopback() as alone:
            return alone.run(plan_src, **cfg, **fields)

    field = fresh_run(scheme="cyclic", plan={"fusion": []})
    on_plan = fresh_run(plan={"fusion": [], "scheme": "cyclic"})
    block = fresh_run(plan={"fusion": []})
    for fact in ("elapsed", "rank_times"):
        assert field[fact] == on_plan[fact] != block[fact], fact
    assert field["trace"]["sha"] == on_plan["trace"]["sha"] \
        != block["trace"]["sha"]
    assert field["key"] == on_plan["key"] == block["key"]
    # without a plan, too
    assert fresh_run(scheme="cyclic")["elapsed"] \
        == fresh_run(plan={"scheme": "cyclic"})["elapsed"]


@pytest.mark.parametrize("fields,named", [
    (dict(scheme="diag"), "scheme"),
    (dict(nprocs=True), "nprocs"),
    (dict(nprocs=2.5), "nprocs"),
    (dict(watchdog="abc"), "watchdog"),
    (dict(native="fast"), "native"),
    (dict(backend="threads"), "backend"),
    (dict(seed="q"), "seed"),
    (dict(seed=-1), "seed"),
    (dict(machine="cray"), "machine"),
    (dict(plan={"bogus": 1}), "bogus"),
    (dict(plan={"licm": "sometimes"}), "licm"),
    (dict(plan=[1, 2]), "plan"),
    (dict(plan={"dist": 7}), "plan"),
    # a misspelt nprocs must not run silently at P=1
    (dict(nproc=4), "nproc"),
    # a field of a deleted knob is refused, not dropped
    (dict(cache_gathers=True), "cache_gathers"),
    (dict(plan={"guard": "owner"}), "guard"),
])
def test_bad_run_field_is_a_config_error_naming_it(server, client, fields,
                                                   named):
    with pytest.raises(ServiceError) as err:
        client.run(SRC, **fields)
    assert err.value.kind == "ConfigError"
    assert named in str(err.value)
    assert client.ping()["pong"]          # session survived
    # checked before any work: nothing was compiled for the bad request
    assert server.cache.stats()["compiles"] == 0
    assert client.stats()["counters"]["errors"] == 1


def test_fault_plan_is_not_a_request_field(server, client):
    """It can name a file to read on the server: a remote request that
    sends one is refused before anything runs."""
    with pytest.raises(ServiceError) as err:
        client.run(SRC, nprocs=4, fault_plan="seed=7; crash rank=1 step=1")
    assert err.value.kind == "ConfigError"
    assert "fault_plan" in str(err.value)
    assert server.cache.stats()["compiles"] == 0
    assert client.run(SRC, nprocs=4)["output"].strip() == "64"


@pytest.mark.parametrize("op", ["compile", "trace"])
def test_every_request_op_refuses_an_unknown_field(server, client, op):
    with pytest.raises(ServiceError) as err:
        getattr(client, op)(SRC, nproc=4)
    assert err.value.kind == "ConfigError"
    assert "nproc" in str(err.value)
    assert server.cache.stats()["compiles"] == 0


# ---------------------------------------------------------------------- #
# TCP
# ---------------------------------------------------------------------- #


def test_tcp_sessions_share_the_cache_and_shutdown_stops(server):
    host, port = server.start()
    try:
        with ServiceClient.connect(host, port) as one, \
                ServiceClient.connect(host, port) as two:
            cold = one.run(SRC, nprocs=4)
            warm = two.run(SRC, nprocs=4)
            assert not cold["cached"] and warm["cached"]
            assert warm["output"] == cold["output"]
            stats = one.stats()
            assert stats["counters"]["sessions"] >= 2
            assert two.shutdown()["ok"]
        assert server.stopped
    finally:
        server.stop()


def test_serve_forever_unblocks_on_shutdown(server):
    import threading

    host, port = server.start()
    waiter = threading.Thread(target=server.serve_forever, daemon=True)
    waiter.start()
    with ServiceClient.connect(host, port) as c:
        c.shutdown()
    waiter.join(timeout=5)
    assert not waiter.is_alive()


# ---------------------------------------------------------------------- #
# a malformed line must not kill a session (real sockets)
# ---------------------------------------------------------------------- #


@pytest.fixture
def tcp(server):
    host, port = server.start()
    yield host, port
    server.stop()


def _exchange(sock, payload: bytes) -> dict:
    import json

    sock.sendall(payload)
    line = sock.makefile("rb").readline()
    assert line.endswith(b"\n"), "no reply"
    return json.loads(line)


PING = b'{"op": "ping"}\n'


@pytest.mark.parametrize("payload", [b"hello\n", b"\xff\xfe\n", b"42\n",
                                     b"[1, 2]\n", b"\n", b'{"op": \n'])
def test_malformed_line_is_answered_and_the_session_survives(server, tcp,
                                                             payload):
    import socket

    with socket.create_connection(tcp, timeout=10) as sock:
        reply = _exchange(sock, payload)
        assert reply["ok"] is False and reply["error"] == "ProtocolError"
        assert reply["message"]
        assert _exchange(sock, PING)["pong"]       # same session
    assert server.counters["errors"] == 1


def test_oversize_line_is_answered_then_the_connection_closes(
        server, tcp, monkeypatch):
    import socket

    from repro.service import transport

    monkeypatch.setattr(transport, "MAX_LINE_BYTES", 4096)
    with socket.create_connection(tcp, timeout=10) as sock:
        # never sends a newline: the reader must stop at the bound
        reply = _exchange(sock, b"x" * 5000)
        assert reply["error"] == "ProtocolError"
        assert "4096" in reply["message"]
        assert sock.makefile("rb").readline() == b""    # closed
    assert server.counters["errors"] == 1
    with ServiceClient.connect(*tcp) as fresh:
        assert fresh.ping()["pong"]
        # a line of exactly the bound is still a request
        body = b'{"op": "ping", "pad": "' + b"p" * 4096
        body = body[:4096 - 3] + b'"}\n'
        assert len(body) == 4096
    with socket.create_connection(tcp, timeout=10) as sock:
        assert _exchange(sock, body)["pong"]


def test_half_closed_socket_mid_line(server, tcp):
    """The peer shuts down its sending side mid-request: the fragment is
    answered as a protocol error, then end-of-stream ends the session
    quietly — and the server keeps serving."""
    import socket

    with socket.create_connection(tcp, timeout=10) as sock:
        sock.sendall(b'{"op": "pi')
        sock.shutdown(socket.SHUT_WR)
        reader = sock.makefile("rb")
        import json

        reply = json.loads(reader.readline())
        assert reply["error"] == "ProtocolError"
        assert reader.readline() == b""
    with ServiceClient.connect(*tcp) as fresh:
        assert fresh.ping()["pong"]
        assert fresh.stats()["counters"]["errors"] == 1


def test_non_object_request_over_loopback(server):
    """The object check lives in the session loop, so every transport
    gets it."""
    from repro.service.transport import LoopbackTransport
    import threading

    client_end, server_end = LoopbackTransport.pair()
    threading.Thread(target=server.serve_session, args=(server_end,),
                     daemon=True).start()
    client_end.send(42)
    reply = client_end.recv()
    assert reply["error"] == "ProtocolError" and "int" in reply["message"]
    client_end.send({"op": "ping"})
    assert client_end.recv()["pong"]
    client_end.close()
