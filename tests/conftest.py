"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.compiler import OtterCompiler, compile_source
from repro.interp.interpreter import run_source


@pytest.fixture
def kernel_errstate():
    """The floating-point state ``repro.codegen.kernels`` runs in: the
    one the rank program holds (``repro.compiler``), under which a zero
    divisor or an invalid operand gives Inf or NaN, never a warning."""
    with np.errstate(divide="ignore", invalid="ignore"):
        yield


@pytest.fixture(scope="session")
def compiler():
    return OtterCompiler()


@pytest.fixture
def run_interp():
    """Run a script in the reference interpreter, return the interpreter."""
    return run_source


@pytest.fixture
def run_compiled():
    """Compile + run a script, return (workspace, output)."""

    def _run(source, nprocs=1, provider=None, **kw):
        program = compile_source(source, provider=provider)
        result = program.run(nprocs=nprocs, **kw)
        return result.workspace, result.output

    return _run


@pytest.fixture
def assert_matches_oracle(run_interp, run_compiled):
    """Differential check: compiled (at several P) == interpreter."""

    def _check(source, nprocs=(1, 3), provider=None, rtol=1e-9, atol=1e-12):
        interp = run_interp(source, provider=provider)
        oracle_ws = interp.workspace
        oracle_out = "".join(interp.output)
        for p in nprocs:
            ws, out = run_compiled(source, nprocs=p, provider=provider)
            for name, expected in oracle_ws.items():
                assert name in ws, f"P={p}: missing variable {name!r}"
                got = ws[name]
                if isinstance(expected, str):
                    assert got == expected, f"P={p}: {name}"
                else:
                    np.testing.assert_allclose(
                        np.asarray(got, dtype=complex),
                        np.asarray(expected, dtype=complex),
                        rtol=rtol, atol=atol,
                        err_msg=f"P={p}: variable {name!r}")
            if p == 1:
                assert out == oracle_out
        return oracle_ws

    return _check


@pytest.fixture(params=["detected", "baseline"])
def native_build(request, monkeypatch):
    """The process-wide native engine for one test: as this host's CPU
    probe chose its flags, or with the baseline flags a CPU without
    x86-64-v3 gets (the probe answers 0) — so an AVX2 host still runs
    the SSE2 kernels every other x86-64 host runs."""
    from repro.native import NativeEngine, get_engine, reset_engines

    if request.param == "baseline":
        monkeypatch.setattr(NativeEngine, "_probe_isa",
                            lambda self, baseline: 0)
        reset_engines()
        request.addfinalizer(reset_engines)
    engine = get_engine()
    if request.param == "baseline" and engine.available:
        assert engine.isa == "baseline"
    return engine
