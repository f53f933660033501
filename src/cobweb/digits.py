"""Decimal strings for integers of any size.

Python's str() refuses an int above the interpreter's int-to-str digit
limit (4300 digits by default).  Converting in chunks that stay under the
smallest limit the interpreter accepts prints every integer exactly and
leaves the process-wide limit alone for library callers.
"""

from __future__ import annotations

_CHUNK_DIGITS = 600  # the interpreter rejects any nonzero limit below 640
_CHUNK = 10**_CHUNK_DIGITS


def decimal(value: int) -> str:
    """Exact decimal string of ``value``, however many digits it has."""
    if value < 0:
        return "-" + decimal(-value)
    chunks = []
    while value >= _CHUNK:
        value, low = divmod(value, _CHUNK)
        chunks.append(f"{low:0{_CHUNK_DIGITS}d}")
    chunks.append(str(value))
    return "".join(reversed(chunks))
