"""The compile/run service: a threaded socket server over the shared
:class:`~repro.service.cache.CompileCache`.

``python -m repro.serve`` (or ``python -m repro serve``) starts one;
each accepted connection is a *session* served by its own thread.
Sessions multiplex over the shared compile cache — N sessions
requesting the same program pay exactly one compile — while every run
gets a fresh, isolated :class:`~repro.runtime.context.RuntimeContext`
(own workspace, own seeded RNG, own memory tracker), so sessions can
never observe each other's state.  Hosted data *is* deliberately
shared: ``mem://`` and ``file://`` URLs name the same objects for
every session (:mod:`repro.datastore`).

Protocol (newline-delimited JSON; see docs/SERVICE.md):

``{"op": "ping"}``
    Liveness + session id.
``{"op": "compile", "source": ..., [name, plan, mfiles]}``
    Compile (or fetch) the program; reports the cache key, hit/tier,
    and the compiler passes executed *for this request* (``[]`` warm).
    Only the plan's compile-side fields key the program.
``{"op": "run", ... compile fields ..., [nprocs, machine, seed,
   scheme, backend, native, watchdog, trace]}``
    Compile-or-fetch then execute under the request's run
    configuration and full plan (``scheme`` overrides the plan's field
    of the same name); streams back output, modeled
    elapsed/per-rank clocks, communication counters, the JSON-encoded
    final workspace, and (``trace: true``) the canonical trace SHA.
``{"op": "trace", ...}``
    ``run`` with tracing forced on, plus the rendered per-source-line
    profile and pass report.
``{"op": "stats"}``
    Cache statistics and server counters.
``{"op": "shutdown"}``
    Stop accepting sessions and unblock ``serve_forever``.

A compile, run or trace request takes the fields above and no others
(a compile request may carry the run fields, which it ignores): any
other top-level field is a ``ConfigError`` naming it.

Every request is answered — errors come back structured
(``{"ok": false, "error": <type>, "message": ...}``) and the session
survives them, a line that is not a JSON object included
(``ProtocolError``); a per-request ``watchdog`` aborts only that
session's run.
"""

from __future__ import annotations

import dataclasses
import socket
import threading
import time
from typing import Any, Optional

import numpy as np

from ..datastore import SCHEMES
from ..errors import ConfigError, OtterError
from ..mpi.executor import backend_for
from ..mpi.machine import MACHINES
from ..runconfig import choice, integer, resolve
from .cache import CompileCache, plan_from_dict
from .transport import LoopbackTransport, ProtocolError, SocketTransport, \
    Transport, TransportClosed

PROTOCOL_VERSION = 1

#: the run knobs a remote request may set (docs/CONFIGURATION.md).
#: ``fault_plan`` is deliberately not one: its value may name a file to
#: read on this host.
_REQUEST_KNOBS = ("backend", "native", "watchdog", "trace")

# the other run fields, validated like knobs: parser(value, origin)
_NPROCS, _SEED = integer(1), integer(0)
_MACHINE = choice("machine", tuple(sorted(MACHINES)))

#: the largest ``nprocs`` a request may ask of each backend
#: (docs/SERVICE.md): a lockstep rank is a thread of this process, a
#: fused run carries its ranks in one pass (the benchmarks sweep it to
#: 1024).  A request is held to the ceiling of the backend that will run
#: it (``repro.mpi.executor.backend_for``).  Local CLI runs have no ceiling.
MAX_NPROCS = {"lockstep": 64, "fused": 1024}


def _check_ceiling(nprocs: int, backend: str) -> None:
    if nprocs > MAX_NPROCS[backend]:
        raise ConfigError(
            f"nprocs=: must be <= {MAX_NPROCS[backend]} on the "
            f"{backend} backend (got {nprocs})")


#: every top-level field a compile, run or trace request may carry
#: (docs/SERVICE.md)
_REQUEST_FIELDS = frozenset({"op", "source", "name", "plan", "mfiles",
                             "nprocs", "machine", "seed", "scheme",
                             *_REQUEST_KNOBS})


def _check_fields(request: dict) -> None:
    """Refuse a field no op reads: dropped silently, a misspelt
    ``nproc`` would run at the default."""
    unknown = sorted(set(request) - _REQUEST_FIELDS)
    if unknown:
        raise ConfigError(
            f"{unknown[0]}=: not a {request['op']} request field "
            f"(expected {', '.join(sorted(_REQUEST_FIELDS - {'op'}))})")


def _request_plan(request: dict):
    """The request's plan: its ``plan`` object with the ``scheme``
    field laid over it (``None``: the default)."""
    try:
        plan = plan_from_dict(request.get("plan"))
        if "scheme" in request:
            from ..tuning.plan import DEFAULT_PLAN

            plan = dataclasses.replace(plan or DEFAULT_PLAN,
                                       scheme=request["scheme"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"plan=: {exc}") from None
    return plan


def _jsonify_value(value: Any) -> Any:
    """Workspace value → JSON (floats stay full-precision via repr-less
    float; matrices carry shape + nested lists; complex splits re/im)."""
    if isinstance(value, str):
        return {"type": "char", "data": value}
    if isinstance(value, complex):
        return {"type": "complex", "re": value.real, "im": value.imag}
    if isinstance(value, (int, float, np.floating, np.integer)):
        return {"type": "double", "data": float(value)}
    arr = np.asarray(value)
    if np.iscomplexobj(arr):
        return {"type": "complex_matrix", "shape": list(arr.shape),
                "re": np.real(arr).tolist(), "im": np.imag(arr).tolist()}
    return {"type": "matrix", "shape": list(arr.shape),
            "data": arr.tolist()}


def _jsonify_workspace(workspace: dict) -> dict:
    return {name: _jsonify_value(value)
            for name, value in sorted(workspace.items())}


class ServiceServer:
    """Threaded compile/run server multiplexing one shared cache."""

    def __init__(self, cache: Optional[CompileCache] = None,
                 host: str = "127.0.0.1", port: int = 0):
        self.cache = cache if cache is not None else CompileCache()
        self.host = host
        self.port = port
        self.address: Optional[tuple[str, int]] = None
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()
        self._lock = threading.Lock()
        self._session_threads: set[threading.Thread] = set()
        self._session_seq = 0
        self.counters = {"sessions": 0, "requests": 0, "errors": 0,
                        "runs": 0, "compiles_requested": 0}

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> tuple[str, int]:
        """Bind, start accepting sessions, return ``(host, port)``."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(64)
        self._listener = listener
        self.address = listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True)
        self._accept_thread.start()
        return self.address

    def serve_forever(self) -> None:
        """Start (if needed) and block until ``shutdown``/``stop``."""
        if self._listener is None:
            self.start()
        self._stopped.wait()

    def stop(self) -> None:
        self._stopped.set()
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                listener.close()
            except OSError:
                pass

    @property
    def stopped(self) -> bool:
        return self._stopped.is_set()

    def join_sessions(self, timeout: float = 2.0) -> None:
        """Wait (bounded) for live session threads to finish their final
        sends — ``stop()`` unblocks ``serve_forever`` *before* the
        shutdown acknowledgement goes out, so a process exiting right
        after it must drain sessions or race the last response."""
        deadline = time.monotonic() + timeout
        with self._lock:
            threads = list(self._session_threads)
        for thread in threads:
            if thread is threading.current_thread():
                continue
            thread.join(timeout=max(0.0, deadline - time.monotonic()))

    def _accept_loop(self) -> None:
        while not self._stopped.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return                  # listener closed by stop()
            transport = SocketTransport(conn)
            threading.Thread(target=self.serve_session, args=(transport,),
                             name="repro-serve-session", daemon=True).start()

    def loopback(self):
        """An in-process client whose requests run through the very
        same session loop as TCP clients (the tests' transport)."""
        from .client import ServiceClient

        client_end, server_end = LoopbackTransport.pair()
        threading.Thread(target=self.serve_session, args=(server_end,),
                         name="repro-serve-loopback", daemon=True).start()
        return ServiceClient(client_end)

    # ------------------------------------------------------------------ #
    # session loop
    # ------------------------------------------------------------------ #

    def serve_session(self, transport: Transport) -> None:
        with self._lock:
            self._session_seq += 1
            session_id = self._session_seq
            self.counters["sessions"] += 1
            self._session_threads.add(threading.current_thread())
        try:
            while not self._stopped.is_set():
                request: dict = {}
                hang_up = False
                try:
                    received = transport.recv()
                    if received is None:
                        return
                    if not isinstance(received, dict):
                        raise ProtocolError(
                            f"a request is a JSON object (got "
                            f"{type(received).__name__})")
                    request = received
                    response = self._dispatch(request, session_id)
                except TransportClosed:
                    raise
                except Exception as exc:  # noqa: BLE001 — session survives
                    response = self._error(request, exc)
                    hang_up = isinstance(exc, ProtocolError) and exc.fatal
                # stop *before* answering a shutdown, so the flag is
                # already set when the client reads the acknowledgement
                closing = request.get("op") == "shutdown" \
                    and response.get("ok", False)
                if closing:
                    self.stop()
                try:
                    transport.send(response)
                except TransportClosed:
                    return
                if closing or hang_up:
                    return
        finally:
            transport.close()
            with self._lock:
                self._session_threads.discard(threading.current_thread())

    def _error(self, request: dict, exc: Exception) -> dict:
        with self._lock:
            self.counters["errors"] += 1
        return {"ok": False, "op": request.get("op"),
                "error": type(exc).__name__, "message": str(exc)}

    def _dispatch(self, request: dict, session_id: int) -> dict:
        with self._lock:
            self.counters["requests"] += 1
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "op": "ping", "pong": True,
                    "session": session_id, "protocol": PROTOCOL_VERSION}
        if op in ("compile", "run", "trace"):
            _check_fields(request)
        if op == "compile":
            return self._compile(request, session_id)[0]
        if op == "run":
            return self._op_run(request, session_id, force_trace=False)
        if op == "trace":
            return self._op_run(request, session_id, force_trace=True)
        if op == "stats":
            return self._op_stats(session_id)
        if op == "shutdown":
            return {"ok": True, "op": "shutdown", "session": session_id}
        raise OtterError(f"unknown op {op!r} (expected ping/compile/run/"
                         f"trace/stats/shutdown)")

    # ------------------------------------------------------------------ #
    # ops
    # ------------------------------------------------------------------ #

    def _compile(self, request: dict, session_id: int):
        """Compile-or-fetch for a compile/run/trace request:
        ``(response, cache outcome, request plan)``."""
        with self._lock:
            self.counters["compiles_requested"] += 1
        if not isinstance(request.get("source"), str):
            raise OtterError("compile/run needs a 'source' string")
        provider = None
        if request.get("mfiles"):
            from ..frontend.mfile import DictProvider

            provider = DictProvider(dict(request["mfiles"]))
        plan = _request_plan(request)
        outcome = self.cache.get_or_compile(
            request["source"], name=request.get("name") or "script",
            provider=provider, plan=plan)
        program = outcome.program
        return {
            "ok": True, "op": "compile", "session": session_id,
            "key": outcome.key, "cached": outcome.hit,
            "tier": outcome.tier,
            "passes": [[name, seconds] for name, seconds in outcome.passes],
            "peephole": dict(program.peephole_stats.counts),
            "licm_hoisted": program.licm_stats.hoisted,
        }, outcome, plan

    def _op_run(self, request: dict, session_id: int,
                force_trace: bool) -> dict:
        # the whole run configuration is checked before any work is
        # done; the compile then says whether the program reads the
        # clock, which can lower the ceiling, before a rank starts
        knobs = {knob: request[knob]
                 for knob in _REQUEST_KNOBS if knob in request}
        if force_trace:
            knobs["trace"] = True
        config = resolve(**knobs)
        nprocs = _NPROCS(request.get("nprocs", 1), "nprocs=")
        _check_ceiling(nprocs, config.backend)
        seed = _SEED(request.get("seed", 0), "seed=")
        machine = _MACHINE(request.get("machine") or "meiko", "machine=")
        compile_response, outcome, plan = self._compile(request, session_id)
        _check_ceiling(nprocs,
                       backend_for(config, outcome.program.reads_clock))
        result = outcome.program.run(nprocs, MACHINES[machine], seed,
                                     plan=plan, config=config)
        with self._lock:
            self.counters["runs"] += 1
        response = dict(compile_response)
        response["op"] = "trace" if force_trace else "run"
        response.update({
            "output": result.output,
            "elapsed": result.elapsed,
            "rank_times": list(result.spmd.times),
            "messages": result.spmd.messages_sent,
            "bytes": result.spmd.bytes_sent,
            "collectives": result.spmd.collectives,
            "backend": result.spmd.backend,
            "workspace": _jsonify_workspace(result.workspace),
        })
        if result.trace is not None:
            import hashlib

            from ..trace import canonical_events, render_source_profile

            canonical = canonical_events(result.trace)
            sha = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            summary = {"sha": sha,
                       "events": sum(len(r.events)
                                     for r in result.trace.recorders)}
            if force_trace:
                from ..trace import pass_report

                summary["profile"] = render_source_profile(
                    result.trace.line_profile(), request["source"],
                    filename=outcome.program.name, elapsed=result.elapsed)
                summary["pass_report"] = pass_report(
                    outcome.passes, native=result.native,
                    cache=outcome.describe())
            response["trace"] = summary
        return response

    def _op_stats(self, session_id: int) -> dict:
        from ..runtime.memory import current_tracker

        with self._lock:
            counters = dict(self.counters)
        return {"ok": True, "op": "stats", "session": session_id,
                "cache": self.cache.stats(), "counters": counters,
                # regression probe: a failed run must never leave its
                # thread-local memory tracker installed on the session
                # thread (the PR 4 inline-run leak, service edition)
                "tracker_installed": current_tracker() is not None,
                "store_schemes": list(SCHEMES)}
