"""``tools/identity_sweep.py``: the table a change to the runtime
compares against its parent commit.  Against the tree itself, every
observable of every run must match (two fresh processes, so this also
checks that nothing the table reads depends on the process)."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "identity_sweep", ROOT / "tools" / "identity_sweep.py")
identity_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity_sweep)

#: the products and dots (cg), trapz2 and the reduction of a reduction
#: (ocean), a matrix product (closure)
SMOKE = ("e2e/cg", "e2e/closure", "e2e/ocean")


def test_the_tree_against_itself_matches_on_every_row():
    lines, diffs, same = identity_sweep.sweep(ROOT, nprocs=(1, 4),
                                              programs=SMOKE)
    assert same and not diffs, diffs
    head, *rows = [line.split() for line in lines]
    assert head[:4] == ["program", "runs", "python", "c"]
    assert [row[0] for row in rows] == sorted(SMOKE)
    runs = 2 * len(identity_sweep.SCHEMES) * len(identity_sweep.BACKENDS) \
        * len(identity_sweep.NATIVE)
    for row in rows:
        assert row[1:] == [str(runs), "=", "="] \
            + [f"{runs}/{runs}"] * len(identity_sweep.RUN_COLUMNS)


def test_a_run_that_differs_is_counted_and_listed():
    run = {column: 1 for column in identity_sweep.RUN_COLUMNS}
    mine = {"p": {"python": "a", "c": "b",
                  "runs": {"x": run, "y": run}}}
    theirs = {"p": {"python": "a", "c": "c",
                    "runs": {"x": run, "y": dict(run, clocks=2)}}}
    lines, diffs, same = identity_sweep.compare(mine, theirs)
    assert not same
    row = lines[1].split()
    assert row[:4] == ["p", "2", "=", "DIFF"]
    assert row[4 + identity_sweep.RUN_COLUMNS.index("clocks")] == "1/2"
    assert row[4 + identity_sweep.RUN_COLUMNS.index("output")] == "2/2"
    assert diffs == ["p emitted c: b != c", "p y clocks: 1 != 2"]
