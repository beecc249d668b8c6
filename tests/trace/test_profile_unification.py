"""Interpreter ``--profile`` and compiled ``--trace-summary`` share one
report schema (``repro.trace.profile``): same header, same columns, same
annotated-source layout — so a user can diff where the interpreter and
the compiled SPMD program spend their modeled time, line by line.
"""

from repro.analysis.resolve import resolve_program
from repro.compiler import compile_source
from repro.frontend.parser import parse_script
from repro.interp import CostMeter, Interpreter, LineProfiler
from repro.mpi.machine import MEIKO_CS2
from repro.trace.profile import HEADER, RULE, render_source_profile

SRC = """\
n = 32;
v = zeros(n, 1);
v(1) = 1.0;
for i = 1:4
  v = circshift(v, 1);
  s = sum(v);
end
disp(s);
"""


def _interp_report():
    program = resolve_program(parse_script(SRC, "unify"))
    profiler = LineProfiler()
    meter = CostMeter(MEIKO_CS2.cpu.interpreter_params())
    Interpreter(program, meter=meter, profiler=profiler).run()
    return profiler.report(SRC, filename="unify")


def _compiled_report():
    program = compile_source(SRC, name="unify")
    result = program.run(nprocs=4, machine=MEIKO_CS2, trace=True)
    return render_source_profile(result.trace.line_profile(), SRC,
                                 filename="unify", elapsed=result.elapsed)


def test_same_header_and_layout():
    interp, compiled = _interp_report(), _compiled_report()
    assert interp.splitlines()[0] == HEADER
    assert compiled.splitlines()[0] == HEADER
    assert interp.splitlines()[1] == RULE == compiled.splitlines()[1]


def test_same_annotated_line_count():
    interp, compiled = _interp_report(), _compiled_report()
    n_source = len(SRC.splitlines())
    for report in (interp, compiled):
        lines = report.splitlines()
        # header + rule + one row per source line, at minimum
        assert len(lines) >= 2 + n_source
        for lineno, text in enumerate(SRC.splitlines(), start=1):
            assert text in lines[1 + lineno]  # same row, same order


def test_hot_line_agrees():
    """Both tools finger the same statement as a major cost center."""
    def hot_lines(report):
        hot = set()
        for row in report.splitlines()[2:]:
            if "%" not in row:
                continue
            pct = row.split("%")[0].rsplit(None, 1)[-1]
            try:
                if float(pct) > 20.0:
                    hot.add(row.split()[0])
            except ValueError:
                continue
        return hot

    interp_hot = hot_lines(_interp_report())
    compiled_hot = hot_lines(_compiled_report())
    assert interp_hot & compiled_hot, (interp_hot, compiled_hot)


def test_compiled_report_shows_communication_columns():
    compiled = _compiled_report()
    assert "msgs" in compiled and "colls" in compiled
    # the circshift statement moves messages under SPMD execution
    circ_row = next(row for row in compiled.splitlines()
                    if "circshift" in row)
    msgs = int(circ_row.split()[2])
    assert msgs > 0


def test_mfile_lines_are_their_own_rows():
    """A callee marks ``(function, line)``: its work is listed after the
    script as ``name.m:N``, never on the script line of the same number
    nor on the call site, which shows the call itself."""
    from pathlib import Path

    from repro.frontend.mfile import DictProvider

    programs = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" \
        / "programs"
    source = (programs / "mfile_demo.m").read_text(encoding="utf-8")
    provider = DictProvider({path.stem: path.read_text(encoding="utf-8")
                             for path in (programs / "mfiles").glob("*.m")})
    program = compile_source(source, provider=provider, name="mfile_demo")
    reports = set()
    for backend in ("lockstep", "fused"):
        result = program.run(nprocs=16, machine=MEIKO_CS2, backend=backend,
                             trace=True)
        rows = result.trace.line_profile()
        assert 2 not in rows                    # rand('seed', 5)
        assert (rows[7].calls, rows[7].colls, rows[7].time) \
            == (1, 0, 0.0)                      # rm = rowmean(A)
        assert (rows["powmeth", 7].calls, rows["powmeth", 7].colls) \
            == (40, 40)                         # lam = v' * w, 40 times
        assert rows["rowmean", 2].colls == 1    # its one allgather
        reports.add(render_source_profile(rows, source,
                                          elapsed=result.elapsed))
    (report,) = reports
    listed = [row.split()[-1] for row in report.splitlines()
              if row.split()[-1].endswith((".m:2", ".m:7"))]
    assert listed == ["powmeth.m:2", "powmeth.m:7", "rowmean.m:2"]
