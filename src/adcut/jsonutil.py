"""Canonical JSON helpers shared by every module that writes wire or file bytes.

Canonical form: UTF-8, no insignificant whitespace, keys emitted in the
order the producing code inserts them (never alphabetically re-sorted).
Identical values always produce identical bytes.
"""

import json
import os
from pathlib import Path
from typing import Any, Iterable, Iterator

__all__ = ["RecordError", "dumps_canonical", "loads", "read_records", "trim_torn_tail", "write_records"]


class RecordError(ValueError):
    """A JSON-lines record that cannot be used; the message is ``path:line: reason``."""

    def __init__(self, path: str | Path, line: int, reason: str):
        super().__init__(f"{path}:{line}: {reason}")


def dumps_canonical(obj: Any) -> bytes:
    """Serialize to canonical JSON bytes (compact, UTF-8, insertion order)."""
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":")).encode("utf-8")


def loads(data: bytes | str) -> Any:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return json.loads(data)


def read_records(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, object)`` for each non-blank line of a JSON-lines file.

    Raises ``OSError`` when the file cannot be read and :class:`RecordError`
    for a line that is not a JSON object.
    """
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise RecordError(path, number, f"malformed JSON: {exc}") from None
            if not isinstance(record, dict):
                raise RecordError(path, number, f"expected a JSON object, got {type(record).__name__}")
            yield number, record


def trim_torn_tail(path: str | Path) -> bool:
    """Mend the end of a JSON-lines file that a killed writer may have cut short.

    A last line without its newline that does not parse is truncated away,
    and True returned; one that parses gets its newline, so records appended
    next start on a line of their own. ``OSError`` if the file cannot be
    opened for update.
    """
    with open(path, "r+b") as fh:
        end = fh.seek(0, os.SEEK_END)
        start, tail = end, b""
        while start and b"\n" not in tail:
            start = max(0, start - 65536)
            fh.seek(start)
            tail = fh.read(end - start)
        cut = start + tail.rfind(b"\n") + 1
        if cut == end:
            return False
        try:
            json.loads(tail[cut - start :])
        except (ValueError, RecursionError):
            fh.truncate(cut)
            return True
        fh.write(b"\n")
        return False


def write_records(path: str | Path, records: Iterable[Any], append: bool = False) -> int:
    """Write each record as a canonical JSON line, flushed as it is written, and
    return how many were written. The file is opened before the first record is
    drawn; ``OSError`` if it cannot be."""
    written = 0
    with open(path, "ab" if append else "wb") as fh:
        for written, record in enumerate(records, 1):
            fh.write(dumps_canonical(record) + b"\n")
            fh.flush()
    return written
