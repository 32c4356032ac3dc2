"""Whole-file helpers: writes that never leave a partial file at their
destination, and the indented JSON documents of reports and manifests."""

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
        fh.write(json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=False) + "\n")


def read_json(path) -> dict:
    """The JSON object in ``path``; anything else raises ``DataError``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # invalid JSON or invalid UTF-8
            raise DataError(f"{path}: not a JSON file: {exc}") from None
    if not isinstance(obj, dict):
        raise DataError(f"{path}: expected a JSON object")
    return obj
