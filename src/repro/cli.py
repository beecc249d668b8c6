"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``compile``  translate a MATLAB file; ``--emit c|python|ir|matlab`` picks
             the output (default: the SPMD C the paper's backend emits)
``run``      compile and execute on the simulated parallel machine
``interp``   execute with the reference interpreter
``bench``    regenerate one of the paper's tables/figures
"""

from __future__ import annotations

import argparse
import os
import sys

from .baselines.matcom import run_matcom
from .errors import ConfigError, OtterError
from .frontend.mfile import DirectoryProvider, MFileProvider
from .frontend.parser import parse_script
from .interp.costmodel import CostMeter
from .interp.interpreter import Interpreter
from .mpi.machine import MACHINES, get_machine
from .runconfig import BACKENDS, NATIVE_MODES, ON_FAULT_POLICIES, \
    environment_value, resolve


def _provider_for(path: str, extra: list[str]) -> MFileProvider:
    dirs = [os.path.dirname(os.path.abspath(path))] + list(extra)
    return DirectoryProvider(dirs)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _name_of(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def _cli_plan(args: argparse.Namespace):
    """The plan a CLI invocation's ``--no-peephole`` / ``--scheme`` flags
    spell (``None``: the default plan)."""
    fields = {}
    if args.no_peephole:
        fields["fusion"] = ()
    if getattr(args, "scheme", "block") != "block":
        fields["scheme"] = args.scheme
    if not fields:
        return None
    from .tuning.plan import Plan

    return Plan(**fields)


def cmd_compile(args: argparse.Namespace) -> int:
    from .service.cache import get_compile_cache

    outcome = get_compile_cache().get_or_compile(
        _read(args.file), name=_name_of(args.file),
        provider=_provider_for(args.file, args.path),
        plan=_cli_plan(args))
    # a miss's own compile carries the front end the C, IR and MATLAB
    # emitters read: a cold invocation runs the passes once
    program = outcome.full or outcome.program
    if args.emit == "project":
        return _emit_project(program, args.output or f"{_name_of(args.file)}_c")
    if args.emit == "c":
        text = program.c_source
    elif args.emit == "python":
        text = program.python_source
    elif args.emit == "ir":
        text = program.ir_dump() + "\n"
    else:  # matlab: normalized echo of the parsed script
        text = program.matlab_source
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output} "
              f"(pass 6: {program.rewrite_summary()})")
    else:
        sys.stdout.write(text)
    return 0


_MAKEFILE = """\
# Generated by the Otter reproduction compiler.
# Builds the emitted SPMD C against an MPI installation; the run-time
# library itself (otter_runtime.c) is not shipped by this reproduction —
# see DESIGN.md for why the executable backend is the Python emitter.
CC      = mpicc
CFLAGS  = -O2 -Wall
NPROCS ?= 4

{name}: main.c otter_runtime.h
	$(CC) $(CFLAGS) -o $@ main.c -lm

run: {name}
	mpirun -np $(NPROCS) ./{name}

clean:
	rm -f {name}

.PHONY: run clean
"""


def _emit_project(program, outdir: str) -> int:
    import shutil

    from . import codegen

    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "main.c"), "w", encoding="utf-8") as fh:
        fh.write(program.c_source)
    header = os.path.join(os.path.dirname(codegen.__file__),
                          "otter_runtime.h")
    shutil.copy(header, os.path.join(outdir, "otter_runtime.h"))
    with open(os.path.join(outdir, "Makefile"), "w", encoding="utf-8") as fh:
        fh.write(_MAKEFILE.format(name=program.name))
    print(f"wrote {outdir}/: main.c, otter_runtime.h, Makefile")
    return 0


def _trace_outputs(args: argparse.Namespace) -> tuple:
    """``(chrome trace path or None, stderr summary?)`` from ``--trace``
    / ``--trace-summary`` / ``$REPRO_TRACE``, whose value doubles as a
    mode: ``summary`` means the stderr profile, anything else truthy is
    a Chrome trace output path."""
    out_path = args.trace
    summary = args.trace_summary
    if out_path is None and not summary:
        raw = environment_value("trace")
        if raw and raw != "0":
            if raw.lower() == "summary":
                summary = True
            else:
                out_path = raw
    return out_path, summary


#: run knob -> its ``repro run`` flag, where that is not ``--<knob>``
_FLAG_OF = {"watchdog": "--watchdog-seconds"}


def cmd_run(args: argparse.Namespace) -> int:
    from .service.cache import get_compile_cache

    trace_path, trace_summary = _trace_outputs(args)
    flags = dict(
        backend=args.backend, native=args.native,
        fault_plan=args.fault_plan, watchdog=args.watchdog_seconds,
        trace=trace_path is not None or trace_summary,
        on_fault=args.on_fault, max_restarts=args.max_restarts,
        checkpoint_every=args.checkpoint_every,
        tune=args.tune or args.explain_plan, tune_budget=args.tune_budget)
    try:
        config = resolve(**flags)
    except ConfigError as exc:
        # blame the flag the user typed, not the keyword it travels as
        # (a "$REPRO_*: ..." complaint is the environment's and stays)
        field, sep, complaint = str(exc).partition("=: ")
        if not sep or field not in flags:
            raise
        flag = _FLAG_OF.get(field, "--" + field.replace("_", "-"))
        raise ConfigError(f"{flag}: {complaint}") from None
    machine = get_machine(args.machine)
    plan = _cli_plan(args)
    outcome = get_compile_cache().get_or_compile(
        _read(args.file), name=_name_of(args.file),
        provider=_provider_for(args.file, args.path), plan=plan)
    # a miss runs its own compile: it carries the IR a tuned run's
    # search reads, which the cached program does not
    result = (outcome.full or outcome.program).run(
        args.nprocs, machine, args.seed, plan=plan, config=config)
    sys.stdout.write(result.output)
    if result.tune is not None and (args.explain_plan or not trace_summary):
        print(result.tune.report() if args.explain_plan else
              f"[tune] {len(result.tune.candidates)} candidates: "
              f"{result.tune.best.summary} "
              f"({100.0 * result.tune.improvement:+.2f}% vclock)",
              file=sys.stderr)
    trace = result.trace
    if trace is not None:
        from .trace import (
            pass_report,
            render_source_profile,
            write_chrome_trace,
        )

        if trace_path:
            write_chrome_trace(trace, trace_path,
                               pass_timings=outcome.passes)
            print(f"[trace] wrote {trace_path} "
                  f"({sum(len(r.events) for r in trace.recorders)} events, "
                  f"{trace.nprocs} ranks)", file=sys.stderr)
        if trace_summary:
            print(render_source_profile(
                trace.line_profile(), _read(args.file),
                filename=_name_of(args.file),
                elapsed=result.elapsed), file=sys.stderr)
            print(pass_report(outcome.passes, tune=result.tune,
                              native=result.native,
                              cache=outcome.describe(),
                              rewrites=outcome.program.rewrite_summary()),
                  file=sys.stderr)
            for event in trace.recovery_events():
                detail = " ".join(f"{k}={v}" for k, v in event.args.items())
                print(f"[recovery] r{event.rank} t={event.t0:.9g} "
                      f"{event.name} {detail}".rstrip(), file=sys.stderr)
    elif args.fault_plan and result.spmd.fault_events:
        # with a recorder active the same facts live in the trace's
        # fault events; echo to stderr only for untraced chaos runs
        for event in result.spmd.fault_events:
            print(f"[fault] {event}", file=sys.stderr)
    recovery = result.recovery
    if recovery is not None and (recovery.healed or recovery.degraded):
        print(f"[recovery] {recovery.summary()}", file=sys.stderr)
    if args.time:
        print(f"[otter] {args.nprocs} CPU(s) of {machine.name}, "
              f"{result.spmd.backend} backend: "
              f"{result.elapsed * 1e3:.3f} ms modeled "
              f"({result.spmd.collectives} collectives, "
              f"{result.spmd.messages_sent} messages)", file=sys.stderr)
        if result.native is not None:
            n = result.native
            print(f"[native] {n['isa']} build: "
                  f"{n['native_calls']} native calls "
                  f"({n['loop_iterations']} loop iterations batched), "
                  f"{n['kernels']} kernels "
                  f"({n['compiles']} compiled, {n['disk_hits']} disk, "
                  f"{n['mem_hits']} warm), "
                  f"{n['guard_fallbacks'] + n['verify_rejects'] + n['unsupported_specs'] + n['probe_rejects'] + n['signature_fallbacks'] + n['compile_failures']}"
                  " fallbacks", file=sys.stderr)
    return 0


def cmd_interp(args: argparse.Namespace) -> int:
    from .analysis.resolve import resolve_program

    provider = _provider_for(args.file, args.path)
    program = resolve_program(parse_script(_read(args.file),
                                           _name_of(args.file)), provider)
    machine = get_machine(args.machine)
    profiler = None
    if args.matcom:
        interp, elapsed = run_matcom(program, machine, seed=args.seed)
        label = "matcom"
    else:
        from .interp.profiler import LineProfiler

        meter = CostMeter(machine.cpu.interpreter_params())
        if args.profile:
            profiler = LineProfiler()
        interp = Interpreter(program, meter=meter, seed=args.seed,
                             profiler=profiler)
        interp.run()
        elapsed = meter.time
        label = "interp"
    sys.stdout.write("".join(interp.output))
    if profiler is not None:
        print(profiler.report(_read(args.file),
                              filename=_name_of(args.file)),
              file=sys.stderr)
    if args.time:
        print(f"[{label}] 1 CPU of {machine.name}: "
              f"{elapsed * 1e3:.3f} ms modeled", file=sys.stderr)
    return 0


def cmd_repl(args: argparse.Namespace) -> int:  # pragma: no cover - tty
    from .repl import Repl

    dirs = args.path or [os.getcwd()]
    Repl(provider=DirectoryProvider(dirs)).interact()
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from .bench.figures import figure2, speedup_figure, table1
    from .bench.report import (
        render_figure2,
        render_speedup_figure,
        render_table1,
    )

    import json

    if args.figure == "table1":
        rows = table1()
        if args.format == "json":
            print(json.dumps([row.__dict__ for row in rows], indent=2))
        else:
            print(render_table1(rows))
        return 0
    number = int(args.figure)
    if number == 2:
        fig = figure2(scale=args.scale)
        if args.format == "json":
            print(json.dumps({"figure": 2, "scale": fig.scale,
                              "relative": fig.relative()}, indent=2))
        else:
            print(render_figure2(fig))
    else:
        fig = speedup_figure(number, scale=args.scale)
        if args.format == "json":
            payload = {
                "figure": number,
                "workload": fig.workload,
                "scale": fig.scale,
                "curves": {name: {"nprocs": c.nprocs,
                                  "speedups": c.speedups}
                           for name, c in fig.curves.items()},
            }
            print(json.dumps(payload, indent=2))
        else:
            print(render_speedup_figure(fig))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Otter: a parallel MATLAB compiler "
                    "(IPPS 1998 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="MATLAB script (.m)")
        p.add_argument("--path", action="append", default=[],
                       help="extra M-file search directory (repeatable)")
        p.add_argument("--seed", type=int, default=0,
                       help="rand()/randn() seed (default 0)")
        p.add_argument("--machine", choices=sorted(MACHINES),
                       default="meiko", help="machine model")
        p.add_argument("--time", action="store_true",
                       help="print modeled execution time to stderr")

    pc = sub.add_parser("compile", help="translate a MATLAB script")
    pc.add_argument("file", help="MATLAB script (.m)")
    pc.add_argument("--path", action="append", default=[])
    pc.add_argument("--emit",
                    choices=["c", "python", "ir", "matlab", "project"],
                    default="c",
                    help="output form (default: SPMD C); 'project' writes "
                         "a buildable directory (main.c, header, Makefile)")
    pc.add_argument("-o", "--output", help="write to a file")
    pc.add_argument("--no-peephole", action="store_true",
                    help="disable pass 6")
    pc.set_defaults(fn=cmd_compile)

    pr = sub.add_parser("run", help="compile and execute (simulated MPI)",
                        epilog="every run knob: docs/CONFIGURATION.md")
    common(pr)
    pr.add_argument("--nprocs", "-n", type=int, default=1,
                    help="number of simulated ranks")
    pr.add_argument("--scheme", choices=["block", "cyclic"],
                    default="block", help="data distribution")
    pr.add_argument("--backend", choices=BACKENDS,
                    help="SPMD execution backend (default: fused, or "
                         "$REPRO_SPMD_BACKEND): 'fused' executes all "
                         "ranks in one pass and re-runs a rank-dependent "
                         "program under 'lockstep', the one-thread-per-"
                         "rank oracle (~10x the host time at 16 ranks); "
                         "any --fault-plan runs on 'lockstep'")
    pr.add_argument("--no-peephole", action="store_true")
    pr.add_argument("--fault-plan", metavar="SPEC",
                    help="deterministic chaos plan: an inline spec "
                         "(e.g. 'seed=7; drop src=0 count=1') or a path "
                         "to a plan file; see docs/RESILIENCE.md")
    pr.add_argument("--watchdog-seconds", type=float, metavar="S",
                    help="abort the run if it exceeds S host seconds "
                         "(default: $REPRO_WATCHDOG_SECONDS, else off)")
    pr.add_argument("--on-fault", choices=ON_FAULT_POLICIES,
                    help="self-healing policy for faulted runs: 'retry' "
                         "re-sends dropped/corrupted messages, 'restart' "
                         "also rolls back and replays from the last "
                         "checkpoint, 'degrade' returns a partial result "
                         "when recovery is exhausted (default: "
                         "$REPRO_ON_FAULT, else abort); see "
                         "docs/RESILIENCE.md")
    pr.add_argument("--max-restarts", type=int, metavar="N",
                    help="restart-attempt budget for --on-fault="
                         "restart/degrade (default: $REPRO_MAX_RESTARTS, "
                         "else 2)")
    pr.add_argument("--checkpoint-every", type=int, metavar="K",
                    help="records the restart point every K collectives "
                         "so restarts earn a virtual-clock credit "
                         "(default: $REPRO_CHECKPOINT_EVERY, else off)")
    pr.add_argument("--trace", metavar="OUT.json",
                    help="record a deterministic trace and write it as "
                         "Chrome trace_event JSON (load in Perfetto); "
                         "see docs/OBSERVABILITY.md")
    pr.add_argument("--trace-summary", action="store_true",
                    help="record a trace and print the per-source-line "
                         "communication profile and compiler-pass "
                         "timings to stderr ($REPRO_TRACE=summary)")
    pr.add_argument("--tune", action="store_true",
                    help="search the optimization-plan space first and "
                         "execute under the best plan found; see "
                         "docs/TUNING.md")
    pr.add_argument("--tune-budget", type=int, metavar="N",
                    help="candidate-plan evaluation budget for --tune "
                         "(default 64)")
    pr.add_argument("--explain-plan", action="store_true",
                    help="imply --tune and print the per-candidate "
                         "virtual-clock table and the winning plan to "
                         "stderr")
    pr.add_argument("--native", choices=NATIVE_MODES,
                    help="JIT-compile fused elementwise chains to C "
                         "(host-time only; modeled numbers unchanged). "
                         "'auto' (default, or $REPRO_NATIVE) engages "
                         "when a C compiler is present; 'require' "
                         "errors when the tier cannot run; see "
                         "docs/NATIVE.md")
    pr.set_defaults(fn=cmd_run)

    pi = sub.add_parser("interp", help="run the reference interpreter")
    common(pi)
    pi.add_argument("--matcom", action="store_true",
                    help="use the MATCOM baseline cost model")
    pi.add_argument("--profile", action="store_true",
                    help="per-line modeled-time profile (to stderr)")
    pi.set_defaults(fn=cmd_interp)

    pl = sub.add_parser("repl", help="interactive MATLAB prompt")
    pl.add_argument("--path", action="append", default=[],
                    help="M-file search directory (repeatable)")
    pl.set_defaults(fn=cmd_repl)

    from . import serve

    # the service's own parser supplies the flags (and -h)
    ps = sub.add_parser("serve", parents=[serve.build_parser()],
                        add_help=False,
                        help="compile/run service (docs/SERVICE.md)")
    ps.set_defaults(fn=serve.run)

    pb = sub.add_parser("bench", help="regenerate a paper table/figure")
    pb.add_argument("--figure", choices=["table1", "2", "3", "4", "5", "6"],
                    default="2")
    pb.add_argument("--scale", choices=["small", "paper"], default="small")
    pb.add_argument("--format", choices=["text", "json"], default="text")
    pb.set_defaults(fn=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except OtterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # e.g. piping into `head`
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
