"""Sample-data-file type inference for ``load``.

The paper: "If the user's program initializes a variable through external
file input, a sample data file must be present, so that the compiler can
determine the type of the variable as well as its rank."  Shape is *not*
frozen from the sample (the real run may use bigger data); only base type
and rank are taken, with the shape left to run-time propagation.
"""

from __future__ import annotations

import numpy as np

from ..datastore import StoreError, data_digest, load_data
from ..errors import InferenceError
from ..frontend import ast_nodes as A
from ..frontend.mfile import MFileProvider
from .lattice import (
    BaseType,
    Shape,
    UNKNOWN_SHAPE,
    VarType,
    matrix,
    scalar,
)


def classify_array(arr: np.ndarray) -> VarType:
    """Map a float or complex sample array (what
    :func:`~repro.datastore.load_data` returns) to the paper's type/rank
    attributes."""
    if np.iscomplexobj(arr):
        base = BaseType.COMPLEX
    elif arr.size and np.all(arr == np.floor(arr)):
        base = BaseType.INTEGER
    else:
        base = BaseType.REAL
    if arr.ndim == 0 or arr.size == 1:
        return scalar(base)
    if arr.ndim == 1:
        return matrix(base, Shape(None, 1))
    return matrix(base, UNKNOWN_SHAPE)


def infer_load_type(call: A.Apply, arg_consts: list[object],
                    provider: MFileProvider,
                    loads: dict[str, tuple[VarType, str]]) -> VarType:
    """Type a ``load('file')`` call from its sample data file: a store
    URL's object is its own sample.  ``loads`` memoises each target's
    type and :func:`~repro.datastore.data_digest` for the whole compile,
    so the fixpoint reads a target once and the compile cache learns
    what it was typed from."""
    if not call.args or not isinstance(arg_consts[0], str):
        raise InferenceError(
            "load requires a literal file name so the compiler can find "
            "a sample data file", call.loc)
    name = arg_consts[0]
    if name not in loads:
        try:
            sample = load_data(name, provider)
        except StoreError as exc:
            raise InferenceError(
                f"no sample data file for load({name!r}) ({exc}); the "
                "compiler needs one to determine the variable's type and "
                "rank", call.loc) from None
        loads[name] = (classify_array(sample), data_digest(sample))
    return loads[name][0]
