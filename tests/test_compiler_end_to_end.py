"""End-to-end compiler tests: pipeline behaviour, errors, performance
model sanity."""

import numpy as np
import pytest

from repro import (
    InferenceError,
    MatlabRuntimeError,
    OtterCompiler,
    ParseError,
    ResolutionError,
    compile_source,
)
from repro.mpi import MEIKO_CS2, SPARC20_CLUSTER, SUN_ENTERPRISE
from repro.tuning import Plan


class TestPipeline:
    def test_compile_produces_both_backends(self):
        prog = compile_source("x = ones(4, 4);\ny = sum(sum(x));")
        assert "def main(rt):" in prog.python_source
        assert "int main(" in prog.c_source
        assert "program script" in prog.ir_dump()

    def test_compile_errors_carry_location(self):
        with pytest.raises(ParseError) as err:
            compile_source("x = [1, 2\n")
        assert "2" in str(err.value) or "1" in str(err.value)

    def test_resolution_error(self):
        with pytest.raises(ResolutionError):
            compile_source("y = undefined_fn(1);")

    def test_inference_error_for_bad_shapes(self):
        with pytest.raises(InferenceError):
            compile_source("a = ones(2, 3);\nb = ones(3, 2);\nc = a + b;")

    def test_runtime_error_in_parallel_program(self):
        prog = compile_source("a = ones(3, 3);\nx = a(7, 1);")
        with pytest.raises(Exception) as err:
            prog.run(nprocs=2)
        assert "exceeds" in str(err.value)

    def test_module_cached_between_runs(self):
        prog = compile_source("x = 1;")
        prog.run(nprocs=1)
        module_first = prog._module
        prog.run(nprocs=2)
        assert prog._module is module_first


class TestDeterminism:
    def test_same_seed_same_results(self):
        prog = compile_source("rand('seed', 3);\na = rand(8, 8);"
                              "\ns = sum(sum(a));")
        r1 = prog.run(nprocs=4, seed=0)
        r2 = prog.run(nprocs=4, seed=0)
        assert r1.workspace["s"] == r2.workspace["s"]
        assert r1.elapsed == r2.elapsed  # virtual time is deterministic

    def test_results_independent_of_nprocs(self):
        prog = compile_source("""
rand('seed', 5);
A = rand(16, 16);
x = ones(16, 1);
for k = 1:5
    x = (A * x) / norm(A * x);
end
lam = x' * (A * x);
""")
        values = [prog.run(nprocs=p).workspace["lam"]
                  for p in (1, 2, 4, 8)]
        np.testing.assert_allclose(values, values[0], rtol=1e-9)

    def test_elapsed_independent_of_wallclock(self):
        prog = compile_source("a = ones(64, 64);\nb = a * a;")
        times = {prog.run(nprocs=4).elapsed for _ in range(3)}
        assert len(times) == 1


class TestPerformanceModel:
    def test_parallel_faster_than_serial_for_big_matmul(self):
        prog = compile_source(
            "rand('seed', 1);\na = rand(256, 256);\nb = a * a;"
            "\ns = sum(sum(b));")
        t1 = prog.run(nprocs=1).elapsed
        t8 = prog.run(nprocs=8).elapsed
        assert t8 < t1 / 3

    def test_tiny_problem_does_not_scale(self):
        prog = compile_source("a = ones(4, 4);\nb = a * a;"
                              "\ns = sum(sum(b));")
        t1 = prog.run(nprocs=1).elapsed
        t16 = prog.run(nprocs=16).elapsed
        assert t16 > t1  # communication dominates

    def test_machines_rank_plausibly(self):
        prog = compile_source("""
rand('seed', 2);
A = rand(192, 192);
B = A * A;
v = ones(192, 1);
for k = 1:10
    v = B * v;
    v = v / norm(v);
end
s = sum(v);
""")
        t_meiko = prog.run(nprocs=8, machine=MEIKO_CS2).elapsed
        t_cluster = prog.run(nprocs=8, machine=SPARC20_CLUSTER).elapsed
        assert t_cluster > t_meiko  # crossing Ethernet hurts

    def test_message_statistics_grow_with_ranks(self):
        prog = compile_source(
            "rand('seed', 1);\na = rand(32, 32);\nb = a * a;"
            "\ns = sum(sum(b));")
        c1 = prog.run(nprocs=1).spmd.collectives
        c8 = prog.run(nprocs=8).spmd.collectives
        assert c8 >= c1

    def test_enterprise_limited_to_8(self):
        prog = compile_source("x = 1;")
        with pytest.raises(Exception):
            prog.run(nprocs=16, machine=SUN_ENTERPRISE)


class TestPeepholeFlag:
    def test_disabled_compiler_flag(self):
        compiler = OtterCompiler(plan=Plan(fusion=()))
        prog = compiler.compile("r = ones(64, 1);\ns = r' * r;")
        assert prog.peephole_stats.transpose_fused == 0

    def test_peephole_reduces_modeled_time(self):
        src = """
rand('seed', 7);
A = rand(256, 256);
v = rand(256, 1);
w = A' * v;
s = sum(w);
"""
        fast = compile_source(src).run(nprocs=8).elapsed
        slow = compile_source(src, plan=Plan(fusion=())) \
            .run(nprocs=8).elapsed
        assert fast < slow  # fused a'*b avoids transpose + allgather


class TestLoadSaveEndToEnd:
    def test_load_with_sample_file(self):
        from repro.frontend.mfile import DictProvider

        data = np.arange(12.0).reshape(3, 4)
        provider = DictProvider({}, {"grid.dat": data})
        prog = OtterCompiler(provider=provider).compile(
            "d = load('grid.dat');\ns = sum(sum(d));")
        result = prog.run(nprocs=3)
        assert result.workspace["s"] == data.sum()

    def test_missing_sample_fails_at_compile_time(self):
        with pytest.raises(InferenceError):
            compile_source("d = load('nope.dat');")
