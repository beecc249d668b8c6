"""Service-layer fixtures.

Every test gets a private process-wide compile cache and store manager,
so cache statistics and hosted ``mem://`` data never leak between tests
(or into the rest of the suite, which shares the same process-global
singletons through ``compile_cached``).
"""

import pytest

from repro.service.cache import CompileCache, set_compile_cache
from repro.service.stores import StoreManager, set_default_manager
from repro.tuning.plan import Plan


class FakeClock:
    """Deterministic injectable clock for TTL-eviction tests."""

    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def tick(self, dt: float = 1.0) -> None:
        self.now += dt


@pytest.fixture
def fake_clock() -> FakeClock:
    return FakeClock()


@pytest.fixture
def plan_src() -> str:
    """Gathers, allreduces and a shift: every run-time plan knob moves
    this program's modeled clocks or message counts."""
    return ("A = ones(64, 64) + eye(64);\n"
            "v = ones(64, 1);\n"
            "for it = 1:3\n"
            "  v = A * v;\n"
            "  v = v / sum(v);\n"
            "  v = circshift(v, 1);\n"
            "end\n"
            "disp(sum(v));\n")


@pytest.fixture
def runtime_plan() -> Plan:
    """Differs from the default plan in every run-time field and in no
    compile-side one."""
    return Plan(scheme="cyclic", dist=(("A", "block"),),
                gather_algo="doubling", allreduce_algo="halving",
                hierarchy="flat")


@pytest.fixture(autouse=True)
def fresh_cache():
    """Swap in a fresh memory-only process cache for the test."""
    cache = CompileCache(disk_root=False)
    previous = set_compile_cache(cache)
    yield cache
    set_compile_cache(previous)


@pytest.fixture(autouse=True)
def fresh_stores():
    """Swap in a fresh default store manager for the test."""
    manager = StoreManager()
    previous = set_default_manager(manager)
    yield manager
    set_default_manager(previous)
