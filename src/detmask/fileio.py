"""Whole-file helpers: writes that never leave a partial file at their
destination, JSON documents, and the JSON decoding that every reader shares."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager

from .errors import DataError


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Yield a file for writing in ``mode`` that replaces ``path`` once complete.

    The file is a temporary file in the same directory (UTF-8 with LF line
    endings in text mode).  It replaces ``path`` only when the ``with`` block
    ends without an exception, so a write that fails or is interrupted
    leaves the previous file, or none, at ``path``.  A symlink at ``path`` is
    followed: its target is replaced and the link stays.  A destination that
    exists and is not a regular file, such as a FIFO or a device, is written
    straight into, because replacing it would swap it for a regular file.
    """
    path = os.path.realpath(path)
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": "\n"}
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode, **text) as fh:
            yield fh
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.lexists(tmp):
            os.remove(tmp)


def write_json(path, obj: dict) -> None:
    """Write ``obj`` as indented JSON, replacing ``path`` only once complete."""
    with atomic_write(path) as fh:
        fh.write(json.dumps(obj, ensure_ascii=False, indent=2) + "\n")


def decode_json(text):
    """``json.loads`` of ``text`` (str or bytes), which raises ``ValueError``
    also for nesting too deep to parse and for a lone surrogate such as
    ``\\ud800``, valid JSON that no UTF-8 writer can write (looked for only
    in text with a ``\\u``)."""
    try:
        obj = json.loads(text)
        if (b"\\u" if isinstance(text, bytes) else "\\u") in text:
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except RecursionError:
        raise ValueError("nested too deeply") from None
    except UnicodeEncodeError:
        raise ValueError("a string holds a lone surrogate") from None
    return obj


def read_json(path) -> dict:
    """The JSON object in ``path``; anything else raises ``DataError``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = decode_json(fh.read())
        except ValueError as exc:  # invalid JSON or invalid UTF-8
            raise DataError(f"{path}: not a JSON file: {exc}") from None
    if not isinstance(obj, dict):
        raise DataError(f"{path}: expected a JSON object")
    return obj
