"""The server's one mapping from an exception a request raised to its
error frame.

It lives on the server side because it needs the engine's exception
types; :mod:`repro.server.protocol`, which the client imports too,
keeps the frame builders and imports no :mod:`repro.engine` module.
"""

from __future__ import annotations

from typing import Any

from repro.engine.database import ConstraintViolationError
from repro.engine.wal import WalError
from repro.server.protocol import WrongShardError, error_frame, violation_frame


def exception_frame(id: Any, exc: Exception) -> dict[str, Any]:
    """The error frame for an exception a request raised.

    :class:`ConstraintViolationError` and
    :class:`~repro.server.protocol.ProtocolError` are ``ValueError``
    subclasses, so the violation is matched first and a protocol error
    falls to ``bad-request`` with any other ``ValueError``.
    """
    if isinstance(exc, ConstraintViolationError):
        return violation_frame(id, exc)
    if isinstance(exc, WrongShardError):
        return error_frame(id, "wrong-shard", str(exc), worker=exc.worker)
    if isinstance(exc, KeyError):
        return error_frame(id, "not-found", str(exc))
    if isinstance(exc, WalError):
        return error_frame(id, "wal-error", str(exc))
    if isinstance(exc, ValueError):
        return error_frame(id, "bad-request", str(exc))
    return error_frame(id, "server-error", repr(exc))
