"""Compare every observable of the shipped corpus between two checkouts.

    python tools/identity_sweep.py <other-checkout>

Runs each program of ``tests/corpus.py`` (the ``@paper`` scale left out)
at P in {1, 4, 16} x {block, cyclic} x {lockstep, fused} x native
{off, auto}, once under each checkout's ``src/``, in a fresh subprocess
per checkout, and prints one row per program: for each observable, how
many of the program's runs the two checkouts agree on.  The observables
are the printed output, the final workspace's bytes, every rank's
virtual clock (as ``float.hex``), the message, byte and collective
counts, the canonical trace's SHA-256 (from a second, traced run) and
``peak_local_bytes``; the emitted Python and C are compared once per
program.  Runs that differ are listed under the table.  Exit status 0
means every row matched.

Both checkouts run the programs of *this* tree's corpus; ``repro`` is
imported from each checkout's ``src/``.  Every ``REPRO_*`` variable but
the kernel cache and host compiler settings is dropped from the
subprocesses' environment, so the runs take the defaults the run
configuration names explicitly.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NPROCS = (1, 4, 16)
SCHEMES = ("block", "cyclic")
BACKENDS = ("lockstep", "fused")
NATIVE = ("off", "auto")
#: per run: what is compared, in table order
RUN_COLUMNS = ("output", "workspace", "clocks", "messages", "bytes",
               "collectives", "trace", "peak")
#: the environment a subprocess keeps: deployment settings, not knobs
KEEP_ENV = ("REPRO_KERNEL_CACHE", "REPRO_NATIVE_CC")


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _workspace_sha(workspace: dict) -> str:
    import numpy as np

    digest = hashlib.sha256()
    for name in sorted(workspace):
        value = np.asarray(workspace[name])
        digest.update(f"{name}:{value.dtype.str}:{value.shape};".encode())
        digest.update(value.tobytes())
    return digest.hexdigest()[:16]


def collect(nprocs=NPROCS, programs=None) -> dict:
    """Every observable of every run, under the ``repro`` this process
    imports: ``{label: {"python", "c", "runs": {config: {column:
    value}}}}``.  ``programs`` restricts the corpus to those labels."""
    sys.path.insert(0, str(ROOT))
    from tests.corpus import shipped_programs

    from repro.compiler import compile_source
    from repro.frontend import DictProvider
    from repro.trace import canonical_events
    from repro.tuning import Plan

    found = {}
    for label, (source, mfiles) in sorted(shipped_programs().items()):
        if label.endswith("@paper") or (programs is not None
                                        and label not in programs):
            continue
        prog = compile_source(source, provider=DictProvider(mfiles))
        runs = {}
        for p in nprocs:
            for scheme in SCHEMES:
                for backend in BACKENDS:
                    for native in NATIVE:
                        knobs = dict(nprocs=p, plan=Plan(scheme=scheme),
                                     backend=backend, native=native)
                        result = prog.run(**knobs)
                        traced = prog.run(trace=True, **knobs)
                        spmd = result.spmd
                        runs[f"P={p} {scheme} {backend} native={native}"] = {
                            "output": _sha(result.output),
                            "workspace": _workspace_sha(result.workspace),
                            "clocks": " ".join(float(t).hex()
                                               for t in spmd.times),
                            "messages": spmd.messages_sent,
                            "bytes": spmd.bytes_sent,
                            "collectives": json.dumps(
                                [spmd.collectives, spmd.collective_counts],
                                sort_keys=True),
                            "trace": _sha(canonical_events(traced.trace)),
                            "peak": result.peak_local_bytes,
                        }
        found[label] = {"python": _sha(prog.python_source),
                        "c": _sha(prog.c_source), "runs": runs}
    return found


def collect_in(checkout: Path, nprocs=NPROCS, programs=None) -> dict:
    """:func:`collect` in a fresh interpreter importing ``repro`` from
    ``checkout/src``."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_") or key in KEEP_ENV}
    env["PYTHONPATH"] = str(Path(checkout).resolve() / "src")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "observables.json"
        code = (f"import json, sys; "
                f"sys.path.insert(0, {str(ROOT / 'tools')!r}); "
                f"import identity_sweep as s; "
                f"json.dump(s.collect({tuple(nprocs)!r}, {programs!r}), "
                f"open({str(out)!r}, 'w'))")
        subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp,
                       check=True, stdout=subprocess.DEVNULL)
        return json.loads(out.read_text())


def compare(mine: dict, theirs: dict) -> tuple[list[str], list[str], bool]:
    """The table's lines, the differing runs' lines, and whether every
    observable of every run matched (both sides ran the same programs
    and configurations)."""
    head = ["program", "runs", "python", "c", *RUN_COLUMNS]
    rows, diffs = [], []
    for label in sorted(mine):
        a, b = mine[label], theirs[label]
        row = [label, str(len(a["runs"]))]
        for key in ("python", "c"):
            row.append("=" if a[key] == b[key] else "DIFF")
            if a[key] != b[key]:
                diffs.append(f"{label} emitted {key}: {a[key]} != {b[key]}")
        for column in RUN_COLUMNS:
            same = 0
            for config in sorted(a["runs"]):
                x, y = a["runs"][config][column], b["runs"][config][column]
                if x == y:
                    same += 1
                else:
                    diffs.append(f"{label} {config} {column}: {x} != {y}")
            row.append(f"{same}/{len(a['runs'])}")
        rows.append(row)
    widths = [max(len(cells[i]) for cells in [head] + rows)
              for i in range(len(head))]
    lines = ["  ".join(cell.ljust(width)
                       for cell, width in zip(cells, widths)).rstrip()
             for cells in [head] + rows]
    return lines, diffs, not diffs


def sweep(other: Path, this: Path = ROOT, nprocs=NPROCS,
          programs=None) -> tuple[list[str], list[str], bool]:
    """:func:`compare` of ``this`` checkout against ``other``."""
    return compare(collect_in(this, nprocs, programs),
                   collect_in(other, nprocs, programs))


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    lines, diffs, same = sweep(Path(argv[0]))
    print("\n".join(lines))
    if diffs:
        print(f"\n{len(diffs)} differences:")
        print("\n".join(diffs))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
