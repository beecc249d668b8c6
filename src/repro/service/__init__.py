"""Compile-as-a-service: the long-lived production shape of the compiler.

The paper's premise is compile-once-run-parallel, but a fresh process
pays all seven compiler passes on every ``run``.  This package turns the
compiler into a service:

* :class:`~repro.service.cache.CompileCache` — a content-addressed
  compile cache (in-process LRU tier + shared on-disk tier) keyed by
  sha256 of the source's tokens and their lines plus everything else
  the compiler reads (and nothing about how the program is run), so a
  warm ``run`` at any processor count performs zero compiler passes.
* :class:`~repro.service.stores.StoreManager` — a registry of
  URL-schema datastores (``file://``, ``mem://``, and whatever else is
  registered) that ``load``/``save`` resolve through, so the same
  script runs against hosted data.
* :class:`~repro.service.server.ServiceServer` /
  :class:`~repro.service.client.ServiceClient` — a threaded socket
  server (``python -m repro.serve``) multiplexing concurrent sessions
  over the shared cache, streaming back run results and trace summaries
  per request.

See docs/SERVICE.md for the cache key contract and the wire protocol.
"""

from .cache import (
    ENV_COMPILE_CACHE,
    CacheOutcome,
    CompileCache,
    canonical_source,
    get_compile_cache,
    set_compile_cache,
)
from .client import ServiceClient, ServiceError
from .server import ServiceServer
from .stores import (
    DataStore,
    FileStore,
    MemStore,
    StoreManager,
    default_manager,
)

__all__ = [
    "ENV_COMPILE_CACHE",
    "CacheOutcome",
    "CompileCache",
    "canonical_source",
    "get_compile_cache",
    "set_compile_cache",
    "DataStore",
    "FileStore",
    "MemStore",
    "StoreManager",
    "default_manager",
    "ServiceServer",
    "ServiceClient",
    "ServiceError",
]
