"""HTTP/1.1 on the client side: request encoding and a response reader.

The reader handles the two body framings the server uses — a
``Content-Length`` body (whole responses) and ``Transfer-Encoding:
chunked`` (streamed responses) — over one keep-alive socket, keeping any
bytes that arrive past the end of a response for the next one.
"""

from __future__ import annotations

import socket
from typing import Dict, Optional, Tuple
from urllib.parse import urlencode

#: Header that carries the authenticated principal to the server (the
#: server's trusted-harness ``user_header``).
USER_HEADER = "X-Resin-User"
#: Bytes asked of the socket per ``recv``.
RECV_BYTES = 65536
#: Longest wait for a response before a connection counts as broken.
SOCKET_TIMEOUT_S = 30.0


class WireError(Exception):
    """The peer closed the connection or sent a malformed response."""


def encode_request(
    method: str, path: str, user: Optional[str], form: Optional[dict] = None
) -> bytes:
    """One keep-alive request; ``form`` becomes a urlencoded body."""
    lines = [f"{method} {path} HTTP/1.1", "Host: bench"]
    if user is not None:
        lines.append(f"{USER_HEADER}: {user}")
    body = b""
    if form is not None:
        body = urlencode(form).encode("ascii")
        lines.append("Content-Type: application/x-www-form-urlencoded")
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


class ResponseReader:
    """Reads successive responses from one socket (or any object with a
    ``recv(n)`` method)."""

    def __init__(self, sock):
        self._sock = sock
        self._buf = bytearray()

    def _fill(self) -> None:
        data = self._sock.recv(RECV_BYTES)
        if not data:
            raise WireError("connection closed mid-response")
        self._buf += data

    def _line(self) -> bytes:
        while True:
            end = self._buf.find(b"\r\n")
            if end >= 0:
                line = bytes(self._buf[:end])
                del self._buf[: end + 2]
                return line
            self._fill()

    def _exact(self, size: int) -> bytes:
        while len(self._buf) < size:
            self._fill()
        data = bytes(self._buf[:size])
        del self._buf[:size]
        return data

    def read(self) -> Tuple[int, Dict[str, str], bytes]:
        """The next response as ``(status, headers, body)``; header names
        are lower-cased."""
        status_line = self._line()
        parts = status_line.split(b" ", 2)
        if len(parts) < 2 or not parts[0].startswith(b"HTTP/"):
            raise WireError(f"bad status line {status_line[:80]!r}")
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            line = self._line()
            if not line:
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if "chunked" in headers.get("transfer-encoding", "").lower():
            return status, headers, self._chunked()
        length = int(headers.get("content-length", "0"))
        return status, headers, self._exact(length)

    def _chunked(self) -> bytes:
        body = bytearray()
        while True:
            size_line = self._line().split(b";", 1)[0].strip()
            size = int(size_line, 16)
            if size == 0:
                # Trailer section: zero or more header lines, then a blank.
                while self._line():
                    pass
                return bytes(body)
            body += self._exact(size)
            if self._exact(2) != b"\r\n":
                raise WireError("chunk not terminated by CRLF")


def connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=SOCKET_TIMEOUT_S)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock
