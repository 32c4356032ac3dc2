"""Exception types shared across the pipeline.

Everything raised on bad *data* derives from ``DataError`` so the CLI can map
it to a single exit code; programming errors stay ordinary exceptions.  A
subclass exists only where something tells it apart: ``MalformedLine`` and
``DanglingReference`` build their messages, and ``train`` catches
``NonFiniteLoss``.
"""

from __future__ import annotations


class DetmaskError(Exception):
    """Base class for all detmask-specific errors."""


class DataError(DetmaskError):
    """Malformed or inconsistent input data."""


class MalformedLine(DataError):
    def __init__(self, source: str, line_no: int, reason: str):
        super().__init__(f"{source}:{line_no}: {reason}")


class DanglingReference(DataError):
    def __init__(self, ref_id: str, kind: str):
        super().__init__(f"id {ref_id!r} referenced but not present in alias tables ({kind})")


class NonFiniteLoss(DetmaskError):
    def __init__(self, step: int, value: float):
        super().__init__(f"non-finite loss {value!r} at step {step}")
        self.step = step
        self.value = value
