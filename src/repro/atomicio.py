"""All-or-nothing file publication, shared by every on-disk cache
(compiled programs, ``file://`` stores, native kernels)."""

from __future__ import annotations

import os
import tempfile


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Publish ``data`` at ``path`` all-or-nothing: readers see the old
    file or the new one, never a prefix.  The temp file is unique per
    call (threads of one process, or same-pid processes in two
    containers, may race on one target) and lives in the target's
    directory so ``os.replace`` stays on one filesystem."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp",
                               prefix=os.path.basename(path) + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
