"""What ``load`` reads and ``save`` publishes: one resolver for the
compiler's typing pass, the reference interpreter and the run.

The paper's run-time library lets one processor do all I/O, and pass 3
types each ``load`` from a sample data file.  A target that is a URL
names an object in one of two fixed schemes instead:

``file://<path>``
    The local filesystem (absolute paths: ``file:///tmp/x.dat``); a
    save publishes all-or-nothing (:func:`repro.atomicio.atomic_write_bytes`).
``mem://<key>``
    One process-wide key->bytes map: the hosted data every session of a
    server shares.

Matrices travel as whitespace text (``%.17g``, ``numpy.loadtxt``
compatible), which round-trips every float64 exactly.
"""

from __future__ import annotations

import hashlib
import io
import os
import threading

import numpy as np

from .atomicio import atomic_write_bytes
from .errors import OtterError


class StoreError(OtterError):
    """A ``load`` target or ``save`` URL could not be read or written."""


def is_store_url(name: str) -> bool:
    return "://" in name


def _file_path(path: str) -> str:
    return os.path.expanduser(path if path.startswith("/") else "/" + path)


def _file_get(path: str) -> bytes:
    try:
        with open(_file_path(path), "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise StoreError(f"file://{path}: {exc}") from exc


def _file_put(path: str, data: bytes) -> None:
    try:
        atomic_write_bytes(_file_path(path), data)
    except OSError as exc:
        raise StoreError(f"file://{path}: {exc}") from exc


_MEM: dict[str, bytes] = {}
_MEM_LOCK = threading.Lock()


def _mem_get(path: str) -> bytes:
    with _MEM_LOCK:
        data = _MEM.get(path)
    if data is None:
        raise StoreError(f"mem://{path}: no such object")
    return data


def _mem_put(path: str, data: bytes) -> None:
    with _MEM_LOCK:
        _MEM[path] = bytes(data)


#: scheme -> (get, put); fixed: there is no other scheme to register
_SCHEMES = {"file": (_file_get, _file_put), "mem": (_mem_get, _mem_put)}
SCHEMES = tuple(sorted(_SCHEMES))


def _resolve(url: str):
    scheme, sep, path = url.partition("://")
    ops = _SCHEMES.get(scheme.lower()) if sep else None
    if ops is None:
        raise StoreError(f"no datastore for {scheme}:// "
                         f"(known: {', '.join(SCHEMES)})")
    return ops, path


def get(url: str) -> bytes:
    (getter, _putter), path = _resolve(url)
    return getter(path)


def put(url: str, data: bytes) -> None:
    (_getter, putter), path = _resolve(url)
    putter(path, data)


def load_data(name: str, provider) -> np.ndarray:
    """The array a ``load`` target holds, as float or complex: a store
    URL's matrix text, or the M-file provider's data file of that name."""
    try:
        if is_store_url(name):
            data = np.loadtxt(io.StringIO(get(name).decode("utf-8")))
        else:
            data = provider.load_data_file(name) if provider is not None \
                else None
            if data is None:
                raise StoreError(f"cannot find data file {name!r}")
        return np.asarray(data, dtype=complex if np.iscomplexobj(data)
                          else float)
    except ValueError as exc:     # malformed text or data, bad UTF-8
        raise StoreError(f"{name}: {exc}") from exc


def data_digest(data: np.ndarray) -> str:
    """sha256 of an array's dtype, shape and bytes: what a compile that
    typed a ``load`` from ``data`` records, and a cache hit rechecks."""
    arr = np.ascontiguousarray(data)
    digest = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode("ascii"))
    digest.update(arr.tobytes())
    return digest.hexdigest()


def save(name: str, values) -> None:
    """Publish ``values`` (real numbers or matrices) at a store URL, one
    text block each; a plain file name publishes nothing."""
    if not is_store_url(name):
        return
    buf = io.StringIO()
    for value in values:
        arr = np.atleast_2d(np.asarray(value))
        if arr.dtype.kind not in "biuf":
            raise StoreError("only real numbers can be saved to a store URL")
        np.savetxt(buf, arr, fmt="%.17g")
    put(name, buf.getvalue().encode("utf-8"))
