"""JSON helpers shared by every module that reads or writes wire or file bytes.

Canonical form: UTF-8, no insignificant whitespace, keys emitted in the
order the producing code inserts them (never alphabetically re-sorted).
Identical values always produce identical bytes.

Every input file is read by :func:`read_object` (a whole file) or
:func:`read_records` (JSON lines), so a root that is not an object fails as
``expected a JSON object, got <type>`` in both. The draft, corpus and
predictions lines, backend answers, fixtures, clip set, taxonomy, asset
catalog and TTS file read their fields through :func:`field`, so each type
rule lives in one place: a wrong type is :class:`FieldError` ``<path>:
expected <kind>[ of <item>], got <type>`` and an absent field
:class:`MissingField`. Callers turn both into their own error class at their
boundary. A draft span of the plain shape is accepted by one exact-type
test in the draft reader, and every other span is read by :func:`field`, so
the draft's errors are still only those of :func:`field`.

Every file, JSON line, resumed tail and backend answer becomes JSON through
:func:`loads`, by one rule: UTF-8, a leading BOM ignored, and a lone surrogate
(which no UTF-8 text can encode), escaped or encoded, rejected as ``ValueError``
``lone surrogate '\\ud800' in a string``. Any other failure is :class:`NotJson`.
"""

import json
import os
import re
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TypeVar

__all__ = [
    "FieldError", "MissingField", "NotJson", "RecordError", "dumps_canonical", "field", "json_path", "loads",
    "objects", "read_object", "read_records", "trim_torn_tail", "write_records",
]

T = TypeVar("T")
_REQUIRED = object()


class NotJson(ValueError):
    """Bytes that do not decode or parse as JSON; the message is the reason, such as ``nested too deeply``."""


class RecordError(ValueError):
    """A JSON-lines record that cannot be used; the message is ``path:line: reason``."""

    def __init__(self, path: str | Path, line: int, reason: str):
        super().__init__(f"{path}:{line}: {reason}")


class FieldError(ValueError):
    """A JSON field of the wrong type; ``path`` names it and ``reason`` says what was expected."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


class MissingField(KeyError):
    """A required JSON field that is absent; its one argument is the field's path."""

    @property
    def path(self) -> str:
        return self.args[0]


def json_path(path: str, key: str | int) -> str:
    """The path of ``key`` inside the value at ``path``: ``path.key``, ``path[key]``
    for a list index, and ``key`` alone when ``path`` is empty."""
    if type(key) is int:
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else key


def field(obj: Any, key: str | int, kind: type, path: str = "", item: type | None = None,
          default: Any = _REQUIRED) -> Any:
    """``obj[key]`` if its type is exactly ``kind`` (so neither a JSON bool nor
    ``60.0`` is an ``int``) or is ``int`` where ``kind`` is ``float``, and, when
    ``item`` is given, it is a list whose items' types are each exactly ``item``.

    ``path`` is the JSON path of ``obj``; the field's own path is built only on
    failure. A wrong type raises :class:`FieldError`. An absent key returns
    ``default`` when one is given and otherwise raises :class:`MissingField`.
    ``obj`` that cannot be subscripted by ``key`` raises what the subscript does.
    """
    try:
        value = obj[key]
    except KeyError:
        if default is not _REQUIRED:
            return default
        raise MissingField(json_path(path, key)) from None
    if (type(value) is kind or kind is float and type(value) is int) and (
        item is None or all(type(v) is item for v in value)
    ):
        return value
    wanted = kind.__name__ + (f" of {item.__name__}" if item else "")
    raise FieldError(json_path(path, key), f"expected {wanted}, got {type(value).__name__}")


def objects(obj: Any, key: str) -> Iterator[tuple[str, dict]]:
    """``(path, entry)`` for each entry of the list ``obj[key]``, both read by
    :func:`field`, the list eagerly and each entry, a ``dict``, when drawn."""
    entries = field(obj, key, list)
    return ((f"{key}[{i}]", field(entries, i, dict, key)) for i in range(len(entries)))


# built once: ``json.dumps`` builds a new encoder on every call that passes it options
_CANONICAL = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))


def dumps_canonical(obj: Any) -> bytes:
    """Serialize to canonical JSON bytes (compact, UTF-8, insertion order)."""
    return _CANONICAL.encode(obj).encode("utf-8")


def loads(data: bytes | str) -> Any:
    """The JSON value ``data`` holds, by the module's one rule: decoded as UTF-8 keeping an
    encoded surrogate, past one leading BOM, and then any lone surrogate rejected."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8", "surrogatepass")
        if data.startswith("\ufeff"):
            data = data[1:]
        value = json.loads(data)
    except RecursionError:
        raise NotJson("nested too deeply") from None
    except ValueError as exc:  # a UnicodeDecodeError or a JSONDecodeError
        raise NotJson(str(exc)) from None
    if "\\u" in data or not data.isascii():  # an escaped or an encoded surrogate
        _reject_lone_surrogates(value)
    return value


_SURROGATE = re.compile("[\ud800-\udfff]")


def _reject_lone_surrogates(value: Any) -> None:
    """``ValueError`` if a string in ``value``, or a key of an object in it, holds a
    lone surrogate (a paired one decodes to a single character)."""
    stack = [value]
    while stack:  # no recursion: ``value`` may be nested as deeply as the decoder allows
        value = stack.pop()
        if type(value) is str:
            found = _SURROGATE.search(value)
            if found:
                raise ValueError(f"lone surrogate {found.group()!r} in a string")
        elif type(value) is list:
            stack.extend(value)
        elif type(value) is dict:
            stack.extend(value)
            stack.extend(value.values())


def _object(value: Any) -> dict:
    if type(value) is not dict:
        raise ValueError(f"expected a JSON object, got {type(value).__name__}")
    return value


def read_object(path: str | Path) -> dict:
    """The JSON object a file holds, read by :func:`loads`. Raises ``OSError`` when the
    file cannot be read, what :func:`loads` raises, and ``ValueError`` ``expected a JSON
    object, got <type>`` for any other root."""
    return _object(loads(Path(path).read_bytes()))


def read_records(path: str | Path, parse: Callable[[dict], T], key: str) -> Iterator[T]:
    """Yield ``parse(object)`` for each non-blank line of a JSON-lines file
    whose records are told apart by their field ``key``, which ``parse`` requires.

    Raises ``OSError`` when the file cannot be read and :class:`RecordError`
    for a line that :func:`loads` rejects (``malformed JSON: <reason>`` for
    :class:`NotJson`), that is not a JSON object, that ``parse`` rejects with a
    ``KeyError`` (``missing field <name>``), ``ValueError`` or ``TypeError``, or
    whose ``key`` an earlier line has (``repeated <key> <value>``).
    """
    seen = set()
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = loads(line)
                value = parse(_object(record))
            except NotJson as exc:
                raise RecordError(path, number, f"malformed JSON: {exc}") from None
            except KeyError as exc:
                raise RecordError(path, number, f"missing field {exc}") from None
            except (ValueError, TypeError) as exc:
                raise RecordError(path, number, str(exc)) from None
            if record[key] in seen:
                raise RecordError(path, number, f"repeated {key} {record[key]!r}")
            seen.add(record[key])
            yield value


def trim_torn_tail(path: str | Path) -> bool:
    """Mend the end of a JSON-lines file that a killed writer may have cut short.

    A last line without its newline that is :class:`NotJson` is truncated
    away, and True returned; any other gets its newline, so records appended
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
            loads(tail[cut - start :])
        except NotJson:
            fh.truncate(cut)
            return True
        except ValueError:  # a whole line with a lone surrogate, which its reader refuses
            pass
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
