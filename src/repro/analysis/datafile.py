"""Sample-data-file type inference for ``load``.

The paper: "If the user's program initializes a variable through external
file input, a sample data file must be present, so that the compiler can
determine the type of the variable as well as its rank."  Shape is *not*
frozen from the sample (the real run may use bigger data); only base type
and rank are taken, with the shape left to run-time propagation.
"""

from __future__ import annotations

import numpy as np

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


def classify_array(data: np.ndarray) -> VarType:
    """Map a sample array to the paper's type/rank attributes."""
    arr = np.asarray(data)
    if np.iscomplexobj(arr):
        base = BaseType.COMPLEX
    elif arr.dtype.kind in ("i", "u", "b"):
        base = BaseType.INTEGER
    elif arr.size and np.all(np.asarray(arr) == np.floor(arr)):
        base = BaseType.INTEGER
    else:
        base = BaseType.REAL
    if arr.ndim == 0 or arr.size == 1:
        return scalar(base)
    if arr.ndim == 1:
        return matrix(base, Shape(None, 1))
    return matrix(base, UNKNOWN_SHAPE)


def infer_load_type(call: A.Apply, arg_consts: list[object],
                    provider: MFileProvider) -> VarType:
    """Type a ``load('file')`` call from its sample data file."""
    if not call.args or not isinstance(arg_consts[0], str):
        raise InferenceError(
            "load requires a literal file name so the compiler can find "
            "a sample data file", call.loc)
    name = arg_consts[0]
    sample = _load_sample(name, provider)
    if sample is None:
        raise InferenceError(
            f"no sample data file for load({name!r}); the compiler needs "
            "one to determine the variable's type and rank", call.loc)
    return classify_array(np.asarray(sample))


def _load_sample(name: str, provider: MFileProvider):
    """Resolve a load target: URL-schema datastores (``mem://``,
    ``file://``, ... — the hosted data is its own sample) first,
    then the provider's sample files."""
    from ..service.stores import StoreError, is_store_url

    if is_store_url(name):
        from ..service.stores import default_manager

        try:
            return default_manager().load_matrix(name)
        except StoreError:
            return None
    return provider.load_data_file(name)
