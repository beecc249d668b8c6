"""Message transports for the compile service.

The wire format is deliberately boring: one JSON object per line,
UTF-8, newline-terminated.  Two transports speak it:

:class:`SocketTransport`
    A connected TCP socket (the real server).

:class:`LoopbackTransport`
    A pair of in-process queues.  The service tests run every request
    through the *same* session dispatch loop as TCP clients without
    binding a port, so protocol behavior (including error paths) is
    covered deterministically and without firewall/sandbox surprises.
"""

from __future__ import annotations

import json
import queue
import socket
from typing import Optional

from ..errors import OtterError

#: longest line a socket session reads (requests carry whole sources
#: and M-files, so this is generous); a peer that never sends a newline
#: cannot make the reader buffer more than this
MAX_LINE_BYTES = 8 * 1024 * 1024


class TransportClosed(Exception):
    """The peer went away mid-conversation."""


class ProtocolError(OtterError):
    """What arrived is not a message of the protocol.  ``fatal`` marks
    one after which the stream cannot be trusted to be at a line
    boundary: answer, then close."""

    def __init__(self, message: str, fatal: bool = False):
        super().__init__(message)
        self.fatal = fatal


class Transport:
    def send(self, message: dict) -> None:
        raise NotImplementedError

    def recv(self) -> Optional[dict]:
        """Next message, or ``None`` on orderly close; raises
        :class:`ProtocolError` for a line that is not one."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class SocketTransport(Transport):
    """Newline-delimited JSON over a connected socket."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._rfile = sock.makefile("rb")

    def send(self, message: dict) -> None:
        data = json.dumps(message, separators=(",", ":")).encode("utf-8")
        try:
            self._sock.sendall(data + b"\n")
        except OSError as exc:
            raise TransportClosed(str(exc)) from exc

    def recv(self) -> Optional[dict]:
        try:
            line = self._rfile.readline(MAX_LINE_BYTES + 1)
        except OSError:
            return None
        if not line:
            return None
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(
                f"line longer than {MAX_LINE_BYTES} bytes", fatal=True)
        try:
            return json.loads(line.decode("utf-8"))
        except ValueError as exc:     # bad UTF-8 or bad JSON
            raise ProtocolError(f"not a JSON line: {exc}") from None

    def close(self) -> None:
        try:
            self._rfile.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass


class LoopbackTransport(Transport):
    """One end of an in-process queue pair."""

    _CLOSE = object()

    def __init__(self, inbox: "queue.Queue", outbox: "queue.Queue"):
        self._inbox = inbox
        self._outbox = outbox
        self._closed = False

    @classmethod
    def pair(cls) -> tuple["LoopbackTransport", "LoopbackTransport"]:
        a_to_b: "queue.Queue" = queue.Queue()
        b_to_a: "queue.Queue" = queue.Queue()
        return cls(b_to_a, a_to_b), cls(a_to_b, b_to_a)

    def send(self, message: dict) -> None:
        if self._closed:
            raise TransportClosed("loopback transport closed")
        # round-trip through JSON so loopback tests exercise the same
        # serializability constraints as the socket path
        self._outbox.put(json.loads(json.dumps(message)))

    def recv(self) -> Optional[dict]:
        item = self._inbox.get()
        if item is self._CLOSE:
            return None
        return item

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._outbox.put(self._CLOSE)
