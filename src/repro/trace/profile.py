"""The per-source-line communication profile and its renderers.

This is the table the paper reasons with: for every MATLAB statement,
how many run-time-library calls it made, how many messages and bytes it
moved, how many collectives it entered, and how many virtual seconds it
cost.  The same renderer serves the interpreter's ``--profile`` and the
compiled ``--trace-summary`` (and the golden-trace suite, which pins the
rendered bytes across backends and runs).

Merge semantics across ranks (all bit-deterministic, because every
per-rank accumulator is built by the same float-add sequence on every
backend):

* ``calls``/``colls`` — rank 0's counts (loosely synchronous SPMD: every
  rank executes the same statements, so rank 0 is representative and the
  collective count matches ``World.collectives`` exactly);
* ``msgs``/``bytes`` — summed over ranks (matches ``messages_sent`` /
  ``bytes_sent``);
* ``time`` — the maximum over ranks (the statement's modeled wall time:
  the slowest rank).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

#: accumulator slots (shared with :mod:`repro.trace.recorder`)
_CALLS, _MSGS, _BYTES, _COLLS, _VTIME = range(5)

HEADER = (f"{'line':>6s} {'calls':>8s} {'msgs':>7s} {'bytes':>12s} "
          f"{'colls':>6s} {'time(ms)':>10s} {'%':>6s}  source")
RULE = "-" * 78


@dataclass
class ProfileRow:
    """One source line's accumulated profile."""

    calls: int = 0
    msgs: int = 0
    bytes: int = 0
    colls: int = 0
    time: float = 0.0

    @property
    def hits(self) -> int:
        """Interpreter-profiler name for the call/execution count."""
        return self.calls


def merge_line_profiles(
        rank_lines: Iterable[Mapping[int, list]]) -> dict[int, ProfileRow]:
    """Fold per-rank ``{line: [calls, msgs, bytes, colls, vtime]}``
    accumulators into one ``{line: ProfileRow}`` profile."""
    merged: dict[int, ProfileRow] = {}
    for rank, lines in enumerate(rank_lines):
        for line, acc in lines.items():
            row = merged.get(line)
            if row is None:
                row = merged[line] = ProfileRow()
            if rank == 0:
                row.calls += acc[_CALLS]
                row.colls += acc[_COLLS]
            row.msgs += acc[_MSGS]
            row.bytes += acc[_BYTES]
            row.time = max(row.time, acc[_VTIME])
    return merged


def _format_row(line_label: str, row: ProfileRow, total: float,
                source_text: str) -> str:
    pct = 100.0 * row.time / total
    return (f"{line_label:>6s} {row.calls:8d} {row.msgs:7d} "
            f"{row.bytes:12d} {row.colls:6d} {row.time * 1e3:10.3f} "
            f"{pct:5.1f}%  {source_text}")


def _blank_row(line_label: str, source_text: str) -> str:
    return (f"{line_label:>6s} {'':8s} {'':7s} {'':12s} {'':6s} "
            f"{'':10s} {'':6s}  {source_text}")


def render_source_profile(rows: Mapping[int, ProfileRow],
                          source: Optional[str] = None,
                          filename: str = "<script>",
                          elapsed: Optional[float] = None) -> str:
    """ASCII per-line profile.  With ``source``, every script line is
    annotated; rows for lines outside the script (or line 0: substrate
    work before any marked statement) are appended after the listing,
    and then the rows of M-file functions' lines — keyed ``(function,
    line)`` — as ``name.m:N``.

    The output is byte-deterministic: times use fixed-point formatting
    of bit-identical floats, and ``elapsed`` (if given) is rendered with
    ``repr`` so the full precision is pinned."""
    total = sum(row.time for row in rows.values()) or 1e-30
    out = [HEADER, RULE]
    seen: set[int] = set()
    if source is not None:
        for lineno, text in enumerate(source.splitlines(), start=1):
            row = rows.get(lineno)
            seen.add(lineno)
            if row is None:
                out.append(_blank_row(str(lineno), text))
            else:
                out.append(_format_row(str(lineno), row, total, text))
    # then the lines outside the listing: the script's own (line 0, or
    # without a source), then each M-file function's, keyed (name, line)
    extra = sorted(line for line in rows
                   if line.__class__ is int and line not in seen)
    for lineno in extra:
        label = "-" if lineno == 0 else str(lineno)
        out.append(_format_row(label, rows[lineno], total,
                               "(no source line)" if lineno == 0
                               else filename))
    for name, lineno in sorted(line for line in rows
                               if line.__class__ is tuple):
        out.append(_format_row(str(lineno), rows[name, lineno], total,
                               f"{name}.m:{lineno}"))
    out.append(RULE)
    totals = ProfileRow(
        calls=sum(r.calls for r in rows.values()),
        msgs=sum(r.msgs for r in rows.values()),
        bytes=sum(r.bytes for r in rows.values()),
        colls=sum(r.colls for r in rows.values()),
        time=sum(r.time for r in rows.values()),
    )
    out.append(_format_row("total", totals, total, ""))
    if elapsed is not None:
        out.append(f"elapsed: {elapsed!r} virtual seconds")
    return "\n".join(out)


def render_ranked_profile(rows: Mapping[tuple[str, int], ProfileRow],
                          top: int = 0) -> str:
    """Hottest-lines listing for multi-file profiles (interpreter runs
    that cross into M-file functions)."""
    total = sum(row.time for row in rows.values()) or 1e-30
    ranked = sorted(rows.items(), key=lambda item: item[1].time,
                    reverse=True)
    if top:
        ranked = ranked[:top]
    out = [HEADER, RULE]
    for (fname, lineno), row in ranked:
        out.append(_format_row(str(lineno), row, total, fname))
    return "\n".join(out)
