"""Regression: the thread-local memory tracker must be released on
every failure path — a constructor that dies part-way, and a failing
inline (nprocs==1 / fused) run.

The leak mode: a tracker installed by a ``RuntimeContext.__init__`` that
then raises is never uninstalled (the caller never receives a context
to ``close()``), so it silently keeps charging every allocation on the
thread for the rest of the process.  The constructor therefore installs
the tracker as its final statement.
"""

import pytest

from repro.compiler import compile_source
from repro.errors import OtterError
from repro.mpi.machine import MEIKO_CS2
from repro.runtime.context import RuntimeContext
from repro.runtime.memory import current_tracker


class _Comm:
    """Just enough comm surface for the constructor to run."""

    rank = 0
    size = 1
    is_fused = False


def test_constructor_failure_releases_the_tracker():
    class _SizelessComm:
        rank = 0
        is_fused = False

    assert current_tracker() is None
    with pytest.raises(AttributeError, match="size"):
        RuntimeContext(_SizelessComm())
    assert current_tracker() is None


def test_successful_construction_keeps_tracker_until_close():
    rt = RuntimeContext(_Comm())
    assert current_tracker() is rt.memory
    rt.close()
    assert current_tracker() is None


@pytest.mark.parametrize("backend", ["lockstep", "fused"])
def test_failing_inline_run_releases_the_tracker(backend):
    """nprocs==1 and fused runs execute on the caller's thread — a
    raising program must still tear the tracker down."""
    program = compile_source("x = ones(2, 2);\nerror('boom');\n")
    assert current_tracker() is None
    # lockstep surfaces the crash as MpiError, fused as the MATLAB
    # error itself — both are OtterError, and both paths must clean up
    with pytest.raises(OtterError):
        program.run(nprocs=1, machine=MEIKO_CS2, backend=backend)
    assert current_tracker() is None


def test_close_is_idempotent_and_scoped():
    first = RuntimeContext(_Comm())
    second = RuntimeContext(_Comm())
    # `second` owns the slot now; closing `first` must not clobber it
    first.close()
    assert current_tracker() is second.memory
    second.close()
    second.close()
    assert current_tracker() is None
