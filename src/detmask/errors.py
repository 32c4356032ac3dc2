"""Exception types shared across the pipeline.

Everything raised on bad *data*, a diverging ``train`` run included, is a
``DataError``, which the CLI maps to exit code 2; programming errors stay
ordinary exceptions.  ``MalformedLine`` and ``DanglingReference`` exist only
to build their messages.
"""

from __future__ import annotations


class DataError(Exception):
    """Malformed or inconsistent input data."""


class MalformedLine(DataError):
    def __init__(self, source: str, line_no: int, reason: str):
        super().__init__(f"{source}:{line_no}: {reason}")


class DanglingReference(DataError):
    def __init__(self, ref_id: str, kind: str):
        super().__init__(f"id {ref_id!r} referenced but not present in alias tables ({kind})")
