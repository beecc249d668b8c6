"""Pluggable URL-schema datastores for ``load``/``save``.

The paper's run-time library coordinates all I/O through one processor;
its only data source was local sample files.  Production scripts want
the *same* source text to run against hosted data, so ``load``/``save``
resolve any ``scheme://...`` target through a :class:`StoreManager` —
a registry mapping URL schemes to :class:`DataStore` implementations
(the mlrun ``datastore.py`` shape: ``schema_to_store``):

``file://<path>``
    The local filesystem (absolute paths: ``file:///tmp/x.dat``).
``mem://<key>``
    An in-process key→bytes mapping shared by every session of the
    process — the "hosted" store the service tests and demos use.

Any other scheme (an object store, say) is one
``StoreManager.register(scheme, factory)`` call with a
:class:`DataStore` subclass — the registry is the extension point; no
stub for a service this repo cannot reach ships in the box.

Matrices travel as MATLAB-friendly whitespace text (``numpy.loadtxt``
compatible), so a ``mem://`` round trip is bit-comparable to the
``DictProvider`` data-file path.
"""

from __future__ import annotations

import io
import os
import threading
from typing import Callable, Optional
from urllib.parse import urlparse

import numpy as np

from ..atomicio import atomic_write_bytes
from ..errors import OtterError


class StoreError(OtterError):
    """A datastore operation failed (missing object, bad URL, ...)."""


def parse_url(url: str) -> tuple[str, str]:
    """``(scheme, path)`` of a store URL; raises on a scheme-less one."""
    parsed = urlparse(url)
    if not parsed.scheme:
        raise StoreError(f"not a store URL (no scheme): {url!r}")
    path = parsed.netloc + parsed.path
    return parsed.scheme.lower(), path


def is_store_url(name: str) -> bool:
    return "://" in name


class DataStore:
    """One scheme's byte-addressed object interface."""

    scheme = "abstract"

    def get(self, path: str) -> bytes:
        raise NotImplementedError

    def put(self, path: str, data: bytes) -> None:
        raise NotImplementedError

    def exists(self, path: str) -> bool:
        raise NotImplementedError

    def delete(self, path: str) -> None:
        raise NotImplementedError

    def listdir(self, path: str = "") -> list[str]:
        raise NotImplementedError

    # -- text/matrix conveniences (shared by every scheme) -------------- #

    def get_text(self, path: str) -> str:
        return self.get(path).decode("utf-8")

    def put_text(self, path: str, text: str) -> None:
        self.put(path, text.encode("utf-8"))

    def load_matrix(self, path: str) -> np.ndarray:
        return np.loadtxt(io.StringIO(self.get_text(path)))

    def save_matrix(self, path: str, array: np.ndarray) -> None:
        buf = io.StringIO()
        np.savetxt(buf, np.atleast_2d(np.asarray(array)), fmt="%.17g")
        self.put_text(path, buf.getvalue())


class FileStore(DataStore):
    """``file://`` — the local filesystem."""

    scheme = "file"

    def _resolve(self, path: str) -> str:
        return os.path.expanduser(path if path.startswith("/")
                                  else "/" + path)

    def get(self, path: str) -> bytes:
        full = self._resolve(path)
        try:
            with open(full, "rb") as fh:
                return fh.read()
        except OSError as exc:
            raise StoreError(f"file://{path}: {exc}") from exc

    def put(self, path: str, data: bytes) -> None:
        try:
            atomic_write_bytes(self._resolve(path), data)
        except OSError as exc:
            raise StoreError(f"file://{path}: {exc}") from exc

    def exists(self, path: str) -> bool:
        return os.path.isfile(self._resolve(path))

    def delete(self, path: str) -> None:
        try:
            os.unlink(self._resolve(path))
        except OSError as exc:
            raise StoreError(f"file://{path}: {exc}") from exc

    def listdir(self, path: str = "") -> list[str]:
        try:
            return sorted(os.listdir(self._resolve(path)))
        except OSError as exc:
            raise StoreError(f"file://{path}: {exc}") from exc


class MemStore(DataStore):
    """``mem://`` — an in-process object map (the hosted-data stand-in)."""

    scheme = "mem"

    def __init__(self):
        self._objects: dict[str, bytes] = {}
        self._lock = threading.Lock()

    def get(self, path: str) -> bytes:
        with self._lock:
            try:
                return self._objects[path]
            except KeyError:
                raise StoreError(f"mem://{path}: no such object") from None

    def put(self, path: str, data: bytes) -> None:
        with self._lock:
            self._objects[path] = bytes(data)

    def exists(self, path: str) -> bool:
        with self._lock:
            return path in self._objects

    def delete(self, path: str) -> None:
        with self._lock:
            if self._objects.pop(path, None) is None:
                raise StoreError(f"mem://{path}: no such object")

    def listdir(self, path: str = "") -> list[str]:
        prefix = path.rstrip("/") + "/" if path else ""
        with self._lock:
            return sorted(k for k in self._objects if k.startswith(prefix))


class StoreManager:
    """Scheme → store registry; resolves URLs to ``(store, path)``.

    Stores are constructed lazily (one instance per scheme per manager),
    so registering a scheme costs nothing until a script names it.
    """

    def __init__(self):
        self._factories: dict[str, Callable[[], DataStore]] = {}
        self._instances: dict[str, DataStore] = {}
        self._lock = threading.Lock()
        self.register("file", FileStore)
        self.register("mem", MemStore)

    def register(self, scheme: str,
                 factory: Callable[[], DataStore]) -> None:
        """Register (or replace) the factory for a URL scheme."""
        with self._lock:
            self._factories[scheme.lower()] = factory
            self._instances.pop(scheme.lower(), None)

    def schemes(self) -> list[str]:
        with self._lock:
            return sorted(self._factories)

    def store_for(self, scheme: str) -> DataStore:
        scheme = scheme.lower()
        with self._lock:
            store = self._instances.get(scheme)
            if store is None:
                factory = self._factories.get(scheme)
                if factory is None:
                    known = ", ".join(sorted(self._factories))
                    raise StoreError(f"no datastore registered for "
                                     f"{scheme}:// (known: {known})")
                store = self._instances[scheme] = factory()
        return store

    def resolve(self, url: str) -> tuple[DataStore, str]:
        scheme, path = parse_url(url)
        return self.store_for(scheme), path

    # -- URL-level conveniences ----------------------------------------- #

    def get(self, url: str) -> bytes:
        store, path = self.resolve(url)
        return store.get(path)

    def put(self, url: str, data: bytes) -> None:
        store, path = self.resolve(url)
        store.put(path, data)

    def exists(self, url: str) -> bool:
        store, path = self.resolve(url)
        return store.exists(path)

    def load_matrix(self, url: str) -> np.ndarray:
        store, path = self.resolve(url)
        return store.load_matrix(path)

    def save_matrix(self, url: str, array: np.ndarray) -> None:
        store, path = self.resolve(url)
        store.save_matrix(path, array)

    def put_text(self, url: str, text: str) -> None:
        store, path = self.resolve(url)
        store.put_text(path, text)

    def get_text(self, url: str) -> str:
        store, path = self.resolve(url)
        return store.get_text(path)


_default_manager: Optional[StoreManager] = None
_default_lock = threading.Lock()


def default_manager() -> StoreManager:
    """The process-wide manager ``load``/``save`` use when the run was
    not given an explicit one (its ``mem://`` store is what makes
    hosted data visible across sessions of one server)."""
    global _default_manager
    with _default_lock:
        if _default_manager is None:
            _default_manager = StoreManager()
        return _default_manager


def set_default_manager(manager: Optional[StoreManager]) \
        -> Optional[StoreManager]:
    """Swap the process-wide manager (tests); returns the previous one."""
    global _default_manager
    with _default_lock:
        previous, _default_manager = _default_manager, manager
        return previous
