"""Compile-as-a-service: the long-lived production shape of the compiler.

The paper's premise is compile-once-run-parallel, but a fresh process
pays all seven compiler passes on every ``run``.  This package turns the
compiler into a service:

* :class:`~repro.service.cache.CompileCache` — a content-addressed
  compile cache (in-process LRU tier + shared on-disk tier) keyed by
  sha256 of the source's tokens and their lines plus everything else
  the compiler reads (and nothing about how the program is run), so a
  warm ``run`` at any processor count performs zero compiler passes.
* :class:`~repro.service.server.ServiceServer` /
  :class:`~repro.service.client.ServiceClient` — a threaded socket
  server (``python -m repro.serve``) multiplexing concurrent sessions
  over the shared cache, streaming back run results and trace summaries
  per request.  ``load``/``save`` URLs (``file://``, ``mem://``) name the
  same objects in every session: :mod:`repro.datastore`.

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

__all__ = [
    "ENV_COMPILE_CACHE",
    "CacheOutcome",
    "CompileCache",
    "canonical_source",
    "get_compile_cache",
    "set_compile_cache",
    "ServiceServer",
    "ServiceClient",
    "ServiceError",
]
