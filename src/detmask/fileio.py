"""Whole-file writes that never leave a partial file at their destination."""

from __future__ import annotations

import os
from contextlib import contextmanager


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Yield a file for writing in ``mode`` that replaces ``path`` once complete.

    The file is a temporary file in the same directory (UTF-8 with LF line
    endings in text mode).  It replaces ``path`` only when the ``with`` block
    ends without an exception, so a write that fails or is interrupted
    leaves the previous file, or none, at ``path``.  A symlink at ``path`` is
    followed: its target is replaced and the link stays.
    """
    path = os.path.realpath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": "\n"}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.lexists(tmp):
            os.remove(tmp)
