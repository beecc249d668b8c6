"""Keep the builtin tables in lock-step: the signature registry, the
interpreter implementations, the distributed run-time dispatcher, and the
elementwise op table that analysis, both emitters, the native tier and
the dispatcher all read."""

from repro.analysis.builtin_sigs import REGISTRY, builtin_names
from repro.ewops import CONSTANTS, OPS
from repro.interp.builtins import TABLE as INTERP_TABLE
from repro.runtime.builtins import SUPPORTED as RUNTIME_SUPPORTED


def test_interpreter_covers_registry():
    missing = builtin_names() - set(INTERP_TABLE)
    assert not missing, f"interpreter lacks builtins: {sorted(missing)}"


def test_runtime_covers_registry():
    missing = builtin_names() - RUNTIME_SUPPORTED
    assert not missing, f"runtime lacks builtins: {sorted(missing)}"


def test_no_orphan_interpreter_builtins():
    orphans = set(INTERP_TABLE) - builtin_names()
    assert not orphans, f"unregistered interpreter builtins: {sorted(orphans)}"


#: rows no MATLAB name reaches: the run time's two-argument max/min
_INTERNAL_ROWS = {"fn:maximum", "fn:minimum"}


def test_every_elementwise_builtin_and_constant_has_a_row():
    for name, sig in REGISTRY.items():
        if sig.kind in ("elementwise", "ewbinary"):
            assert OPS[f"fn:{name}"].arity == sig.min_args == sig.max_args
        elif sig.kind == "constant":
            assert name in CONSTANTS, name


def test_no_orphan_rows():
    for op in OPS:
        if op.startswith("fn:") and op not in _INTERNAL_ROWS:
            assert REGISTRY[op[3:]].kind in ("elementwise", "ewbinary"), op
        elif op.startswith("pow:"):
            assert OPS[op].py == "pow_" and OPS[op].arity == 1
    assert set(CONSTANTS) == {name for name, sig in REGISTRY.items()
                              if sig.kind == "constant"}


def test_every_row_renders_in_both_targets():
    from repro.codegen import kernels as K

    for op, row in OPS.items():
        args = [f"x{i}" for i in range(row.arity)]
        assert callable(getattr(K, row.py)), op
        text = row.c.format(*args)
        assert "{" not in text and text.count("(") == text.count(")"), op
        if row.guard is not None:
            assert "x0" in row.guard.format(*args), op
        # a template that ignores an operand is a constant (imag, pow:0)
        assert all(a in text for a in args) or row.arity == 1, op
    for value, c_text in CONSTANTS.values():
        assert isinstance(value, (float, complex)) and c_text


def test_registry_arities_sane():
    for name, sig in REGISTRY.items():
        assert sig.min_args >= 0
        assert sig.max_args == -1 or sig.max_args >= sig.min_args, name
        assert sig.nargout >= 0, name


def test_every_builtin_callable_in_runtime():
    """Actually invoke every pure builtin through the distributed
    dispatcher with plausible arguments (single rank)."""
    import numpy as np

    from repro.mpi import MEIKO_CS2, run_spmd
    from repro.runtime.context import RuntimeContext

    skip = {"error", "load", "save", "rand", "randn", "tic", "toc",
            "disp", "fprintf"}
    sample_args = {
        0: [],
        1: ["__mat__"],
        2: ["__mat__", 2.0],
        3: ["__mat__", 2.0, 6.0],
    }
    special = {
        "inv": ["__sq__"],
        "det": ["__sq__"],
        "trace": ["__sq__"],
        "sprintf": ["%d", 3.0],
        "num2str": [2.5],
        "int2str": [2.0],
        "reshape": ["__mat__", 2.0, 6.0],
        "repmat": ["__mat__", 2.0, 2.0],
        "linspace": [0.0, 1.0, 7.0],
        "zeros": [3.0, 4.0],
        "ones": [3.0, 4.0],
        "eye": [4.0],
        "atan2": ["__mat__", "__mat__"],
        "hypot": ["__mat__", "__mat__"],
        "power": ["__mat__", 2.0],
        "mod": ["__mat__", 2.0],
        "rem": ["__mat__", 2.0],
        "dot": ["__vec__", "__vec__"],
        "size": ["__mat__"],
        "trapz2": ["__mat__", 1.0, 1.0],
    }

    def fn(comm):
        rt = RuntimeContext(comm, seed=0)
        mat = rt.rand(3.0, 4.0)
        vec = rt.rand(6.0, 1.0)
        sq = rt.ew(lambda x, e: x + 4.0 * e, 1,
                   rt.rand(4.0, 4.0), rt.eye(4.0, 4.0))

        def materialize(a):
            if a == "__mat__":
                return mat
            if a == "__vec__":
                return vec
            if a == "__sq__":
                return sq
            return a

        tried = []
        for name, sig in sorted(REGISTRY.items()):
            if name in skip:
                continue
            args = special.get(name)
            if args is None:
                args = sample_args.get(max(sig.min_args, 0))
            if args is None:
                continue
            out = rt.call_builtin(name, [materialize(a) for a in args], 1)
            tried.append((name, out))
        return len(tried)

    res = run_spmd(2, MEIKO_CS2, fn)
    assert res.results[0] > 40  # actually exercised the table
