"""``sprintf_cycle`` reads each format once (``compile_format``).

The oracle below is the per-character scanner it replaced, kept
verbatim: a compiled format must print what the scanner printed, or
raise the same exception type, for any format and any values.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_source
from repro.errors import MpiError
from repro.interp.builtins import compile_format, sprintf_cycle


# -- the scanner sprintf_cycle used before formats were compiled --------- #

def _count_specs(fmt: str) -> int:
    count = 0
    i = 0
    while i < len(fmt):
        if fmt[i] == "%" and i + 1 < len(fmt):
            if fmt[i + 1] == "%":
                i += 2
                continue
            count += 1
        i += 1
    return count


def _apply_format(fmt: str, values: list) -> str:
    vi = 0
    i = 0
    out = []
    while i < len(fmt):
        ch = fmt[i]
        if ch != "%":
            out.append(ch)
            i += 1
            continue
        if i + 1 < len(fmt) and fmt[i + 1] == "%":
            out.append("%")
            i += 2
            continue
        j = i + 1
        while j < len(fmt) and fmt[j] not in "diufgGeEsx":
            j += 1
        if j >= len(fmt):
            out.append(fmt[i:])
            break
        spec = fmt[i:j + 1]
        conv = fmt[j]
        value = values[vi] if vi < len(values) else 0.0
        vi += 1
        if conv in "diux":
            out.append(spec.replace("u", "d") % int(round(float(
                np.real(value)))))
        elif conv == "s":
            out.append(spec % str(value))
        else:
            out.append(spec % float(np.real(value)))
        i = j + 1
    return "".join(out)


def scanner_sprintf_cycle(fmt: str, values: list) -> str:
    text = fmt.replace("\\n", "\n").replace("\\t", "\t")
    specs = _count_specs(text)
    if specs == 0 or not values:
        return text
    out = []
    i = 0
    while i < len(values):
        chunk = values[i:i + specs]
        if len(chunk) < specs:
            chunk = chunk + [0.0] * (specs - len(chunk))
        out.append(_apply_format(text, chunk))
        i += specs
    return "".join(out)


# -- the property --------------------------------------------------------- #

_SPEC = st.builds(
    lambda flags, width, precision, conv: f"%{flags}{width}{precision}{conv}",
    st.text(alphabet="-+ #0", max_size=2),
    st.sampled_from(["", "1", "5", "12"]),
    st.sampled_from(["", ".", ".0", ".3"]),
    st.sampled_from(list("diufgGeEsx")))

_PIECE = st.one_of(
    _SPEC,
    st.sampled_from(["%%", "%", "\\n", "\\t", "\n", " ", ":", "%5", "%-",
                     "%a", "%r"]),
    st.text(alphabet="abz019 .,=-", max_size=4))

_FORMAT = st.lists(_PIECE, max_size=7).map("".join)

_VALUE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.5, 2.5]),
    st.integers(min_value=-10 ** 6, max_value=10 ** 6),
    st.text(alphabet="ab %d", max_size=3),
    st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                       allow_infinity=False))


def _outcome(fn, fmt, values):
    try:
        return fn(fmt, values)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(_FORMAT, st.lists(_VALUE, max_size=6))
def test_a_compiled_format_prints_what_the_scanner_printed(fmt, values):
    assert _outcome(sprintf_cycle, fmt, list(values)) == \
        _outcome(scanner_sprintf_cycle, fmt, list(values))


@pytest.mark.parametrize("fmt", [
    "%5%d|%d", "a%%%d", "%5%%d", "%5%%%d", "100%%\\n", "%.3", "%-", "%",
    "%au", "%r5i", "%cs",
    "x=%u y=%x %s%%\\t%e%g%G%E%i%f"])
def test_odd_formats_print_as_before(fmt):
    for values in ([], [1.5], [1.5, -2.0, "s"], [7.0] * 9):
        assert _outcome(sprintf_cycle, fmt, values) == \
            _outcome(scanner_sprintf_cycle, fmt, values)


def test_the_format_cache_is_bounded():
    assert compile_format.cache_info().maxsize == 256


def test_a_formatting_error_is_rank_zeros_under_lockstep():
    """Only rank 0 makes text; the error is the one the run has always
    reported, the lowest failing rank's."""
    program = compile_source("fprintf('%d\\n', NaN);")
    with pytest.raises(MpiError) as caught:
        program.run(4, backend="lockstep")
    assert str(caught.value) == \
        "rank 0 failed: cannot convert float NaN to integer"
    assert isinstance(caught.value.__cause__, ValueError)
