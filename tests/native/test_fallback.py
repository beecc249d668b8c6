"""Mode → engine and forced-fallback behavior: ``off`` never touches
the tier, a poisoned compiler degrades ``auto`` cleanly and makes
``require`` raise, and full programs produce bitwise-identical results
and virtual clocks with the tier on or off.  (Where the mode itself
comes from — keyword, ``$REPRO_NATIVE``, default — and what an invalid
one raises: tests/test_runconfig.py.)"""

import numpy as np
import pytest

from repro.bench.workloads import image_filter
from repro.compiler import compile_source
from repro.mpi import MEIKO_CS2
from repro.native import (
    ENV_CC,
    NativeUnavailableError,
    find_compiler,
    get_engine,
    reset_engines,
    resolve_native,
)

HAVE_NATIVE = find_compiler() is not None and get_engine().available


# ---------------------------------------------------------------------- #
# mode → engine
# ---------------------------------------------------------------------- #


def test_off_mode_resolves_to_none():
    assert resolve_native("off") is None


@pytest.mark.skipif(not HAVE_NATIVE, reason="native tier unavailable")
def test_auto_resolves_to_engine():
    assert resolve_native("auto") is get_engine()


# ---------------------------------------------------------------------- #
# poisoned compiler: authoritative, no silent rescue by system gcc
# ---------------------------------------------------------------------- #


@pytest.fixture
def poisoned(monkeypatch):
    monkeypatch.setenv(ENV_CC, "/nonexistent/bin/cc")
    reset_engines()
    yield
    reset_engines()


def test_poisoned_cc_is_authoritative(poisoned):
    assert find_compiler() is None
    engine = get_engine()
    assert not engine.available
    assert "no C compiler" in engine.unavailable_reason


def test_poisoned_cc_auto_degrades(poisoned):
    assert resolve_native("auto") is None


def test_poisoned_cc_require_raises(poisoned):
    with pytest.raises(NativeUnavailableError, match="unavailable"):
        resolve_native("require")


# ---------------------------------------------------------------------- #
# program level: same bits, same virtual clock, zero warm recompiles
# ---------------------------------------------------------------------- #

BACKENDS = ("lockstep", "fused")


def _ws_equal(a, b):
    for key in sorted(set(a) | set(b)):
        va, vb = np.asarray(a[key]), np.asarray(b[key])
        if va.dtype != vb.dtype or va.shape != vb.shape:
            return False
        if va.tobytes() != vb.tobytes():
            return False
    return True


@pytest.mark.skipif(not HAVE_NATIVE, reason="native tier unavailable")
@pytest.mark.parametrize("backend", BACKENDS)
def test_program_native_bit_identical(backend):
    program = compile_source(image_filter(n=24, steps=2).source,
                             name="imgf")
    off = program.run(nprocs=4, machine=MEIKO_CS2, backend=backend,
                      native="off")
    on = program.run(nprocs=4, machine=MEIKO_CS2, backend=backend,
                     native="require")
    assert off.output == on.output
    assert off.elapsed == on.elapsed
    assert _ws_equal(off.workspace, on.workspace)
    assert off.native is None
    assert on.native["mode"] == "require"
    assert on.native["native_calls"] > 0, "tier never engaged"


@pytest.mark.skipif(not HAVE_NATIVE, reason="native tier unavailable")
def test_second_run_zero_recompiles():
    program = compile_source(image_filter(n=24, steps=2).source,
                             name="imgf")
    program.run(nprocs=4, machine=MEIKO_CS2, backend="fused",
                native="require")
    warm = program.run(nprocs=4, machine=MEIKO_CS2, backend="fused",
                       native="require")
    assert warm.native["compiles"] == 0, "warm run recompiled kernels"
    assert warm.native["disk_hits"] == 0, "warm run re-read the disk cache"
    assert warm.native["native_calls"] > 0
