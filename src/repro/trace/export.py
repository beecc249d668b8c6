"""Trace exporters: canonical text, Chrome ``trace_event`` JSON, and
the compiler-pass timing report.

Canonical output is the determinism contract: it contains only virtual
state (event order ``(rank, seq)``, virtual timestamps via ``repr`` for
full float precision) and therefore must be byte-identical run to run
and — for the event kinds every backend emits identically — across
backends.  Host timestamps, scheduler notes, and pass timings are
advisory and appear only in the Chrome export.
"""

from __future__ import annotations

import json
from typing import Any, Optional

import numpy as np

from .recorder import WorldTrace


def _fmt(value: Any) -> str:
    # numpy scalars normalize to the Python value first: repr of a
    # np.float64 is "np.float64(...)" which would leak the substrate's
    # array representation into the canonical bytes (float64 <-> float
    # conversion is exact, so this changes nothing for plain floats)
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def canonical_events(trace: WorldTrace) -> str:
    """Byte-deterministic text serialization of the event stream.

    One line per event, ``(rank, seq)`` order, floats via ``repr``;
    host time is deliberately absent."""
    out = []
    for e in trace.events():
        args = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(e.args.items()))
        out.append(f"r{e.rank} #{e.seq} {e.name} cat={e.cat} "
                   f"line={e.line} t0={_fmt(e.t0)} dur={_fmt(e.dur)}"
                   + (f" {args}" if args else ""))
    return "\n".join(out) + ("\n" if out else "")


def chrome_trace(trace: WorldTrace,
                 pass_timings: Optional[list[tuple[str, float]]] = None
                 ) -> dict:
    """A Chrome ``trace_event`` document (open in Perfetto / chrome://
    tracing).  Rank timelines use the *virtual* clock (µs); the
    compiler-pass and scheduler tracks carry advisory host timings on
    separate process ids so they never mix with modeled time."""
    events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": 1,
         "args": {"name": "simulated ranks (virtual time)"}},
    ]
    for rank in range(trace.nprocs):
        events.append({"name": "thread_name", "ph": "M", "pid": 1,
                       "tid": rank, "args": {"name": f"rank {rank}"}})
    for e in trace.events():
        args = dict(e.args)
        if e.line:
            args["line"] = e.line
        events.append({
            "name": e.name, "cat": e.cat, "ph": "X", "pid": 1,
            "tid": e.rank, "ts": e.t0 * 1e6, "dur": e.dur * 1e6,
            "args": args,
        })
    if pass_timings:
        events.append({"name": "process_name", "ph": "M", "pid": 2,
                       "args": {"name": "compiler passes (host time)"}})
        ts = 0.0
        for name, seconds in pass_timings:
            events.append({"name": name, "cat": "pass", "ph": "X",
                           "pid": 2, "tid": 0, "ts": ts,
                           "dur": seconds * 1e6})
            ts += seconds * 1e6
    if trace.sched_notes:
        events.append({"name": "process_name", "ph": "M", "pid": 3,
                       "args": {"name": "lockstep scheduler (host time)"}})
        base = trace.sched_notes[0][0]
        for host, rank, what in trace.sched_notes:
            events.append({"name": f"park:{what}", "cat": "sched",
                           "ph": "i", "pid": 3, "tid": rank,
                           "ts": (host - base) * 1e6, "s": "t"})
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otterMeta": dict(trace.meta)}


def write_chrome_trace(trace: WorldTrace, path: str,
                       pass_timings: Optional[list] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(trace, pass_timings), fh)
        fh.write("\n")


def pass_report(pass_timings: list[tuple[str, float]],
                tune=None, native=None, cache=None, rewrites=None) -> str:
    """Compiler-pass timing table (host seconds; advisory).

    ``tune`` is an optional :class:`repro.tuning.TuneResult`; when given,
    the plan search's per-candidate cost table and winning plan are
    appended, so a tuned run's trace summary tells the whole story.

    ``native`` is an optional ``RunResult.native`` dict (the native
    kernel tier's counter deltas for the run): kernel compiles and
    cache hits are host-side compiler activity, so they belong in this
    report — never in the canonical trace stream, which the golden
    suite pins byte-identical with the tier on or off.

    ``cache`` is an optional compile-cache outcome description (see
    :meth:`repro.service.cache.CacheOutcome.describe`); on a warm hit
    the pass table below it is empty — the zero-recompile criterion of
    docs/SERVICE.md, made visible.

    ``rewrites`` is the program's ``rewrite_summary()``: which pass-6
    rewrites fired, how often, and how many statements pass 6b hoisted
    (a cached program carries the counts, so the line survives an empty
    pass table)."""
    total = sum(seconds for _name, seconds in pass_timings) or 1e-30
    out = []
    if cache is not None:
        out.append(f"[cache] {cache}")
    out += [f"{'pass':<12s} {'time(ms)':>10s} {'%':>6s}",
            "-" * 31]
    for name, seconds in pass_timings:
        out.append(f"{name:<12s} {seconds * 1e3:10.3f} "
                   f"{100.0 * seconds / total:5.1f}%")
    out.append("-" * 31)
    out.append(f"{'total':<12s} {total * 1e3:10.3f} {100.0:5.1f}%")
    if rewrites is not None:
        out.append(f"pass 6 rewrites: {rewrites}")
    if native is not None:
        out.append("")
        out.append(f"native kernel tier (mode {native.get('mode', 'auto')}"
                   f", {native['isa']} build)")
        out.append("-" * 31)
        out.append(f"{'native calls':<18s} {native['native_calls']:>8d}")
        out.append(f"{'kernels loaded':<18s} {native['kernels']:>8d}")
        out.append(f"{'  compiled':<18s} {native['compiles']:>8d}")
        out.append(f"{'  disk cache hits':<18s} {native['disk_hits']:>8d}")
        out.append(f"{'warm call hits':<18s} {native['mem_hits']:>8d}")
        fallbacks = (native["guard_fallbacks"] + native["verify_rejects"]
                     + native["unsupported_specs"] + native["probe_rejects"]
                     + native["signature_fallbacks"]
                     + native["compile_failures"])
        out.append(f"{'numpy fallbacks':<18s} {fallbacks:>8d}")
    if tune is not None:
        out.append("")
        out.append(tune.report())
    return "\n".join(out)
