"""``python -m repro.serve`` — stand up the compile/run service.

The long-lived production shape: compile once, execute many.  Options
pick the bind address and the compile-cache geometry; the on-disk cache
tier follows ``--cache-dir`` / ``$REPRO_COMPILE_CACHE`` (unset keeps
the cache in-process only).  See docs/SERVICE.md for the protocol.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.serve",
        description="Compile-as-a-service for the Otter reproduction "
                    "(content-addressed compile cache, concurrent "
                    "sessions; docs/SERVICE.md)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=7477,
                        help="bind port (default 7477; 0 picks a free one)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="on-disk compile-cache tier (default "
                             "$REPRO_COMPILE_CACHE; unset: memory only)")
    parser.add_argument("--max-entries", type=int, default=256,
                        help="in-process LRU capacity (default 256)")
    parser.add_argument("--ttl", type=float, default=None, metavar="S",
                        help="evict memory-tier entries idle for S "
                             "seconds (default: never)")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    return run(build_parser().parse_args(argv))


def run(args: argparse.Namespace) -> int:
    """Serve until shutdown under parsed :func:`build_parser` options
    (``repro serve`` parses them with this parser as its parent)."""
    from .service.cache import CompileCache
    from .service.server import ServiceServer

    cache = CompileCache(max_entries=args.max_entries,
                         disk_root=args.cache_dir, ttl=args.ttl)
    server = ServiceServer(cache=cache, host=args.host, port=args.port)
    host, port = server.start()
    disk = cache.disk_root or "(memory only)"
    print(f"[serve] listening on {host}:{port} "
          f"(cache: {args.max_entries} entries, disk tier: {disk})",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        # the shutdown acknowledgement is sent *after* serve_forever
        # unblocks; drain sessions so it isn't lost to process exit
        server.join_sessions()
    print("[serve] stopped", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
