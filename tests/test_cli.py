"""CLI tests (argument parsing + each command end-to-end)."""

import os

import pytest

from repro.cli import main

CG = """\
n = 32;
rand('seed', 1);
A = rand(n, n) + n * eye(n);
b = A * ones(n, 1);
x = A \\ b;
fprintf('max err %.2e\\n', max(abs(x - 1)));
"""


@pytest.fixture
def script(tmp_path):
    path = tmp_path / "demo.m"
    path.write_text(CG)
    return str(path)


class TestCompile:
    def test_emit_c_default(self, script, capsys):
        assert main(["compile", script]) == 0
        out = capsys.readouterr().out
        assert "ML_init_runtime" in out

    def test_emit_python(self, script, capsys):
        assert main(["compile", script, "--emit", "python"]) == 0
        assert "def main(rt):" in capsys.readouterr().out

    def test_emit_ir(self, script, capsys):
        assert main(["compile", script, "--emit", "ir"]) == 0
        assert "program demo" in capsys.readouterr().out

    def test_emit_matlab_roundtrips(self, script, capsys):
        assert main(["compile", script, "--emit", "matlab"]) == 0
        echoed = capsys.readouterr().out
        assert "rand('seed', 1);" in echoed

    def test_output_file(self, script, tmp_path, capsys):
        target = str(tmp_path / "out.c")
        assert main(["compile", script, "-o", target]) == 0
        with open(target) as fh:
            assert "ML_init_runtime" in fh.read()
        assert "wrote" in capsys.readouterr().out

    def test_report_names_every_rewrite_that_fired(self, tmp_path, capsys):
        path = tmp_path / "rewrites.m"
        path.write_text("A = rand(8, 8); r = rand(8, 1);\ns = r' * r;\n"
                        "B = circshift(A, [1, 0]);\n"
                        "C = circshift(B, [0, 1]);\nt = sum(sum(C));\n")
        target = str(tmp_path / "out.py")
        assert main(["compile", str(path), "--emit", "python",
                     "-o", target]) == 0
        assert capsys.readouterr().out == (
            f"wrote {target} (pass 6: 1 transpose_matmul, 2 const_args, "
            f"1 reduce2; 6b hoisted 0)\n")
        assert main(["compile", str(path), "--no-peephole",
                     "-o", target]) == 0
        assert capsys.readouterr().out \
            == f"wrote {target} (pass 6: no rewrites; 6b hoisted 0)\n"
        # the same counts under the pass table of --trace-summary, also
        # when the passes did not run (a cached program carries them)
        for _ in range(2):
            assert main(["run", str(path), "-n", "2",
                         "--trace-summary"]) == 0
            assert "\npass 6 rewrites: 1 transpose_matmul, 2 const_args, " \
                "1 reduce2; 6b hoisted 0\n" in capsys.readouterr().err

    def test_report_counts_what_pass_6b_hoisted(self, tmp_path, capsys):
        """Cold compile and cache hit alike: a hoist shows without
        reading the IR."""
        path = tmp_path / "hoist.m"
        path.write_text("d = rand(4, 4); t = 0;\n"
                        "for s = 1:10, t = t + d(1, 2); end\n")
        target = str(tmp_path / "out.py")
        assert main(["compile", str(path), "--emit", "python",
                     "-o", target]) == 0
        assert capsys.readouterr().out \
            == f"wrote {target} (pass 6: no rewrites; 6b hoisted 1)\n"
        for _ in range(2):
            assert main(["run", str(path), "-n", "2",
                         "--trace-summary"]) == 0
            assert "\npass 6 rewrites: no rewrites; 6b hoisted 1\n" \
                in capsys.readouterr().err

    def test_compile_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.m"
        bad.write_text("x = [1, 2\n")
        assert main(["compile", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["compile", "/nonexistent/x.m"]) == 1


class TestRun:
    def test_run_parallel(self, script, capsys):
        assert main(["run", script, "--nprocs", "4"]) == 0
        out = capsys.readouterr().out
        assert "max err" in out

    def test_run_with_time(self, script, capsys):
        assert main(["run", script, "-n", "2", "--time",
                     "--machine", "cluster"]) == 0
        err = capsys.readouterr().err
        assert "SPARCserver-20 cluster" in err and "ms modeled" in err

    def test_run_cyclic(self, script, capsys):
        assert main(["run", script, "--scheme", "cyclic"]) == 0
        assert "max err" in capsys.readouterr().out

    def test_scheme_of_an_earlier_invocation_never_sticks(self, tmp_path,
                                                          capsys):
        """One cached --no-peephole program serves every --scheme: the
        flag reaches the run through the plan, not through the cache."""
        path = tmp_path / "shift.m"
        path.write_text("v = ones(64, 1);\nfor it = 1:3\n"
                        "  v = circshift(v, 1) / sum(v);\nend\n"
                        "disp(sum(v));\n")
        modeled = []
        for scheme in ("cyclic", "block", "cyclic"):
            assert main(["run", str(path), "-n", "8", "--no-peephole",
                         "--scheme", scheme, "--time"]) == 0
            modeled.append(capsys.readouterr().err.splitlines()[0])
        assert modeled[0] == modeled[2] != modeled[1]

    def test_run_with_mfile_path(self, tmp_path, capsys):
        (tmp_path / "double_it.m").write_text(
            "function y = double_it(x)\ny = 2 * x;\n")
        s = tmp_path / "main.m"
        s.write_text("fprintf('%d\\n', double_it(21));\n")
        assert main(["run", str(s)]) == 0
        assert capsys.readouterr().out == "42\n"


class TestRunConfiguration:
    """The CLI resolves the run knobs once, through the one table
    (tests/test_runconfig.py): a bad value is one ``error:`` line that
    names where it came from, never a traceback."""

    @pytest.mark.parametrize("variable,value", [
        ("REPRO_NATIVE", "fast"),
        ("REPRO_SPMD_BACKEND", "threads"),
        ("REPRO_WATCHDOG_SECONDS", "abc"),
        ("REPRO_MAX_RESTARTS", "abc"),
        ("REPRO_ON_FAULT", "sometimes"),
        ("REPRO_CHECKPOINT_EVERY", "0"),
    ])
    def test_bad_environment_is_one_error_line(self, script, capsys,
                                               monkeypatch, variable, value):
        monkeypatch.setenv(variable, value)
        assert main(["run", script]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert f"${variable}" in lines[0] and value in lines[0]

    def test_flag_beats_bad_environment(self, script, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SPMD_BACKEND", "threads")
        monkeypatch.setenv("REPRO_NATIVE", "fast")
        assert main(["run", script, "--backend", "fused",
                     "--native", "off"]) == 0
        assert "max err" in capsys.readouterr().out

    def test_out_of_range_flag_is_one_error_line(self, script, capsys):
        # ... that names the flag typed, not the keyword it travels as
        for flag, value, complaint in [
                ("--watchdog-seconds", "-3", "must be positive"),
                ("--max-restarts", "-1", "must be >= 0"),
                ("--checkpoint-every", "0", "must be >= 1"),
                ("--tune-budget", "0", "must be >= 1")]:
            assert main(["run", script, flag, value]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {flag}: {complaint}")
            assert len(captured.err.splitlines()) == 1

    def test_trace_variable_doubles_as_an_output_mode(self, script, tmp_path,
                                                      capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "summary")
        assert main(["run", script, "-n", "2"]) == 0
        assert "[cache]" in capsys.readouterr().err      # the pass report
        out = tmp_path / "trace.json"
        monkeypatch.setenv("REPRO_TRACE", str(out))
        assert main(["run", script, "-n", "2"]) == 0
        assert f"[trace] wrote {out}" in capsys.readouterr().err
        assert out.exists()
        monkeypatch.setenv("REPRO_TRACE", "0")
        assert main(["run", script, "-n", "2"]) == 0
        assert capsys.readouterr().err == ""

    def test_retired_fault_plan_variable_injects_nothing(self, script, capsys,
                                                         monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "seed=7; crash rank=1 step=3")
        assert main(["run", script, "-n", "4"]) == 0
        captured = capsys.readouterr()
        assert "max err" in captured.out and captured.err == ""

    def test_serve_flags_come_from_the_service_parser(self):
        from repro import serve
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--max-entries", "4", "--ttl", "1.5"])
        alone = serve.build_parser().parse_args(
            ["--port", "0", "--max-entries", "4", "--ttl", "1.5"])
        for name, value in vars(alone).items():
            assert getattr(args, name) == value
        defaults = build_parser().parse_args(["serve"])
        assert vars(serve.build_parser().parse_args([])).items() \
            <= vars(defaults).items()


class TestInterp:
    def test_interp_matches_run(self, script, capsys):
        assert main(["interp", script]) == 0
        interp_out = capsys.readouterr().out
        assert main(["run", script]) == 0
        assert capsys.readouterr().out == interp_out

    def test_matcom_flag(self, script, capsys):
        assert main(["interp", script, "--matcom", "--time"]) == 0
        assert "[matcom]" in capsys.readouterr().err


class TestBench:
    def test_table1(self, capsys):
        assert main(["bench", "--figure", "table1"]) == 0
        assert "FALCON" in capsys.readouterr().out

    def test_figure2_small(self, capsys):
        assert main(["bench", "--figure", "2", "--scale", "small"]) == 0
        assert "MATCOM" in capsys.readouterr().out


class TestProjectEmit:
    def test_project_directory(self, script, tmp_path, capsys):
        outdir = str(tmp_path / "proj")
        assert main(["compile", script, "--emit", "project",
                     "-o", outdir]) == 0
        import os

        files = set(os.listdir(outdir))
        assert files == {"main.c", "otter_runtime.h", "Makefile"}
        with open(os.path.join(outdir, "Makefile")) as fh:
            mk = fh.read()
        assert "mpicc" in mk and "mpirun" in mk
        with open(os.path.join(outdir, "main.c")) as fh:
            assert '#include "otter_runtime.h"' in fh.read()


class TestJsonBench:
    def test_table1_json(self, capsys):
        import json

        assert main(["bench", "--figure", "table1",
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 8
        assert any(r["name"] == "Otter" for r in rows)

    def test_figure2_json(self, capsys):
        import json

        assert main(["bench", "--figure", "2", "--scale", "small",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["figure"] == 2
        assert set(payload["relative"]) == {"cg", "ocean", "nbody",
                                            "closure"}


class TestPaperScripts:
    def test_run_shipped_cg_script(self, capsys):
        import os

        import repro.bench as bench_pkg

        script = os.path.join(os.path.dirname(bench_pkg.__file__),
                              "mscripts", "closure.m")
        assert main(["run", script, "-n", "4"]) == 0
        out = capsys.readouterr().out
        assert "reachable" in out
