"""Calibration: the shape claims the reproduction must satisfy.

The reproduction does not chase the paper's absolute wall-clocks (its
testbeds are gone); it targets the *shape* of every reported result.  The
expectations below are asserted by the benchmark suite and recorded in
EXPERIMENTS.md.  Band constants here are deliberately generous — they
encode "who wins and by roughly what factor", not point estimates.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Band:
    lo: float
    hi: float

    def holds(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


#: Figure 2 — single-CPU claims
FIG2_CLAIMS = {
    # "our compiler always outperforms The MathWorks interpreter"
    "otter_over_interp": Band(1.3, 12.0),
    # "competitive with the MATCOM compiler, outperforming it on two
    #  benchmark scripts and underperforming it on the other two"
    "split": (2, 2),
    "otter_wins": ("ocean", "nbody"),
    "matcom_wins": ("cg", "closure"),
}

#: Figures 3-6 — speedup-at-16-CPU bands on the Meiko model (paper scale)
FIG_MEIKO16_BANDS = {
    "cg": Band(35.0, 75.0),       # paper: "50 times faster ... on 16 CPUs"
    "closure": Band(55.0, 100.0),  # paper: "78 times faster on 16 nodes"
    "ocean": Band(2.0, 25.0),     # paper: "not as good ... small data"
    "nbody": Band(4.0, 30.0),     # paper: "limits the opportunities"
}

#: ordering claims that must hold on the Meiko at 16 CPUs
MEIKO16_ORDERING = ("closure", "cg", "nbody", "ocean")  # descending speedup

#: the cluster claim: "relatively high latency and low bandwidth ... puts a
#: severe damper on speedup achieved beyond four CPUs"
CLUSTER_PLATEAU_FACTOR = 2.2   # speedup(16) < factor * speedup(4)
