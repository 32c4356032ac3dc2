"""Whole-file writes that never leave a partial file at their destination."""

from __future__ import annotations

import os


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temporary file in the same directory.

    The temporary file replaces ``path`` only once it is complete, so a write
    that fails or is interrupted leaves the previous file, or none, at
    ``path``.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.lexists(tmp):
            os.remove(tmp)
